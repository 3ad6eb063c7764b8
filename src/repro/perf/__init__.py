"""Performance measurement harnesses for the DPC's wire path.

The modules here are *library* benchmarks: importable functions that run a
workload on the runtime path and again on the reference oracle
(:mod:`repro.perf.reference`), verify the two are byte-identical, and
return JSON-serializable result dicts.  The scripts in ``benchmarks/`` and
the ``python -m repro bench`` CLI are thin wrappers around them.
"""

from .hotpath import SMOKE_SETTINGS, run_hotpath
from .insight import run_insight
from .scan import run_scan

__all__ = ["run_hotpath", "run_insight", "run_scan", "SMOKE_SETTINGS"]
