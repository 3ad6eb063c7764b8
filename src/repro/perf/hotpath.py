"""End-to-end runtime-path vs reference-oracle throughput on the Figure 4 testbed.

This is the benchmark behind ``BENCH_HOTPATH.json``: the full serve path —
firewall scan, origin link, BEM tagging, DPC scan-and-assemble — run at warm
cache as built, and again with the oracle proxy
(:class:`repro.perf.reference.ReferenceProxyCache`) in place of
``testbed.dpc``, over the identical seeded workload.  Every difference
between the two runs is inside the DPC.  In the result, ``fast`` names
the runtime path and ``reference`` the oracle DPC.

Measurement method (same scheme as the telemetry-overhead smoke in
``benchmarks/bench_micro.py``): wall time on a shared box is noisy, so the
two lanes run as back-to-back *pairs* with the order alternating between
pairs, GC disabled, and the gated number is the **lower quartile** of the
per-pair speedup ratios.  A real regression drags every pair down and still
trips the gate; a co-tenant burst inflates only some pairs and cannot
manufacture a pass or a failure.

Every run also cross-checks the two lanes' byte accounting — Sniffer payload
and wire totals, scanned bytes (Result 1), firewall bytes, hit ratio — and
refuses to report a speedup unless they are identical.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

from ..harness.testbed import Testbed, TestbedConfig, TestbedResult
from ..sites.synthetic import SyntheticParams
from .reference import ReferenceProxyCache

#: The workload: Figure 4 topology at paper-scale pages (16 fragments of
#: 4 KB — the tens-of-kilobytes regime the paper's site survey reports) and
#: a warm cache (target hit ratio 0.9).
DEFAULT_WORKLOAD: Dict[str, object] = {
    "num_pages": 20,
    "fragments_per_page": 16,
    "fragment_size": 4096,
    "cacheability": 0.8,
}

#: Result fields that must be bit-identical between the two lanes.
ACCOUNTING_FIELDS = (
    "response_payload_bytes",
    "response_wire_bytes",
    "request_payload_bytes",
    "request_wire_bytes",
    "dpc_scanned_bytes",
    "firewall_bytes",
    "measured_hit_ratio",
    "fragments_invalidated",
)

#: Reduced settings for the CI smoke gate (see ``bench_hotpath.py --smoke``).
SMOKE_SETTINGS: Dict[str, int] = {"requests": 120, "pairs": 5, "warmup": 40}


def _timed_run(
    fast: bool, requests: int, warmup: int, seed: int
) -> Tuple[float, TestbedResult]:
    """One seeded testbed run, on the oracle DPC unless ``fast``.

    Returns (wall s, result); testbed construction is inside the timed
    window for both runs.
    """
    config = TestbedConfig(
        mode="dpc",
        synthetic=SyntheticParams(**DEFAULT_WORKLOAD),
        target_hit_ratio=0.9,
        requests=requests,
        warmup_requests=warmup,
        seed=seed,
    )
    start = time.perf_counter()
    testbed = Testbed(config)
    if not fast:
        dpc = testbed.dpc
        testbed.dpc = ReferenceProxyCache(
            capacity=dpc.capacity,
            template_config=dpc.template_config,
            name=dpc.name,
        )
    result = testbed.run()
    wall = time.perf_counter() - start
    return wall, result


def _check_identical(fast: TestbedResult, reference: TestbedResult) -> Dict[str, object]:
    """Cross-check the two runs' accounting; raises on any drift."""
    accounting: Dict[str, object] = {}
    for field in ACCOUNTING_FIELDS:
        fast_value = getattr(fast, field)
        reference_value = getattr(reference, field)
        if fast_value != reference_value:
            raise AssertionError(
                "runtime DPC and reference oracle disagree on %s: %r != %r"
                % (field, fast_value, reference_value)
            )
        accounting[field] = fast_value
    return accounting


def run_hotpath(
    requests: int = 300, pairs: int = 7, warmup: int = 50, seed: int = 7
) -> Dict[str, object]:
    """Measure the runtime DPC's speedup over the oracle; returns a JSON dict.

    ``pairs`` back-to-back (reference, fast) runs are timed with the order
    alternating; the headline ``speedup.lower_quartile`` is the lower
    quartile of the per-pair wall-time ratios and ``throughput_rps`` is the
    median runtime-path requests/second.
    """
    ratios: List[float] = []
    fast_walls: List[float] = []
    reference_walls: List[float] = []
    accounting: Dict[str, object] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _timed_run(True, requests, warmup, seed)  # warm allocator/caches
        for index in range(pairs):
            order = (False, True) if index % 2 == 0 else (True, False)
            walls: Dict[bool, float] = {}
            results: Dict[bool, TestbedResult] = {}
            for fast in order:
                gc.collect()
                walls[fast], results[fast] = _timed_run(
                    fast, requests, warmup, seed
                )
            accounting = _check_identical(results[True], results[False])
            ratios.append(walls[False] / walls[True])
            fast_walls.append(walls[True])
            reference_walls.append(walls[False])
    finally:
        if gc_was_enabled:
            gc.enable()

    ratios.sort()
    fast_walls.sort()
    reference_walls.sort()
    fast_median = fast_walls[len(fast_walls) // 2]
    reference_median = reference_walls[len(reference_walls) // 2]
    return {
        "benchmark": "hotpath",
        "workload": dict(DEFAULT_WORKLOAD),
        "requests": requests,
        "warmup": warmup,
        "pairs": pairs,
        "seed": seed,
        "speedup": {
            "lower_quartile": round(ratios[len(ratios) // 4], 4),
            "median": round(ratios[len(ratios) // 2], 4),
        },
        "wall_s": {
            "fast_median": round(fast_median, 6),
            "reference_median": round(reference_median, 6),
        },
        "throughput_rps": {
            "fast": round(requests / fast_median, 2),
            "reference": round(requests / reference_median, 2),
        },
        "identical_accounting": True,
        "accounting": accounting,
    }
