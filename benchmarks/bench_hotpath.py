"""End-to-end runtime-DPC vs oracle-DPC throughput benchmark and CI gate.

Thin wrapper around :mod:`repro.perf.hotpath` / :mod:`repro.bench`:

    python benchmarks/bench_hotpath.py              # full measurement
    python benchmarks/bench_hotpath.py --smoke      # CI gate vs BENCH_HOTPATH.json
    python benchmarks/bench_hotpath.py --record     # refresh the baseline

The smoke gate fails (exit 1) when the lower-quartile speedup of the
runtime DPC over the reference oracle (``repro.perf.reference``) drops
more than 10% below the committed smoke baseline in ``BENCH_HOTPATH.json``
— see docs/PERFORMANCE.md for how to read the file.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench import main as bench_main  # noqa: E402 - after sys.path setup


def main(argv=None):
    """Run the hotpath benchmark via the uniform runner."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    default_json = os.path.join(_ROOT, "BENCH_HOTPATH.json")
    if "--json" not in arguments:
        arguments += ["--json", default_json]
    return bench_main(["hotpath"] + arguments)


if __name__ == "__main__":
    sys.exit(main())
