"""What the benchmark runs and reports: workloads, metrics, predictions.

``BENCHMARK.json`` at the repository root repeats the workload names and the
metric names, units, directions and bounds; ``prove.py`` fails
when the two disagree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seeds of the recorded baseline, and a second set kept for held-out
#: checks of later claims (never used while a change is being written).
BASELINE_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = tuple(range(101, 111))

#: Workload parameters.  Arrivals are open-loop in *virtual* time; the host
#: driver is a closed loop (one page at a time, as fast as it goes).  Every
#: run builds each workload afresh from ``--seed``.  ``pages`` is the size
#: of one measured window; a run repeats whole windows (set-up included)
#: until ``--seconds`` of measured time have passed.
#:
#: ``speed_sensitivity`` is how strongly the workload's host times follow the
#: calibration loop of :mod:`speed` (the exponent ``e`` in its scaling).  It
#: was estimated on the baseline host as the slope of log median page time on
#: log median calibration time, over single windows with all four workloads
#: interleaved for 150-240 s (three experiments) and over whole 10 s runs.
#: evict_churn is the one workload well below 1: in two of three window
#: estimates (0.40, 1.02, 0.43) and over runs (about 0.5).  The others scatter around 1 (0.6-1.35
#: for warm_pages, 0.8-1.1 for books_site and flash_crowd) and use 1.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "warm_pages": {
        "why": "Figure 4 testbed at warm hit ratio: ~20 KB templates scanned and ~65 KB pages "
        "assembled per page, directory never fills (BEM hit path, DPC assembly)",
        "site": "synthetic",
        "num_pages": 20,
        "fragments_per_page": 16,
        "fragment_size": 4096,
        "cacheability": 0.8,
        "target_hit_ratio": 0.9,
        "dpc_capacity": 4096,
        "arrivals": "deterministic, 100/s",
        "warmup": 200,
        "pages": 2000,
        "speed_sensitivity": 1.0,
    },
    "evict_churn": {
        "why": "5,120 cacheable 128 B fragments against 1,024 slots at h=0.5: every page "
        "inserts, evicts and invalidates, so replacement and the directory dominate",
        "site": "synthetic",
        "num_pages": 200,
        "fragments_per_page": 32,
        "fragment_size": 128,
        "cacheability": 0.8,
        "target_hit_ratio": 0.5,
        "dpc_capacity": 1024,
        "arrivals": "deterministic, 100/s",
        "warmup": 300,
        "pages": 2000,
        "speed_sensitivity": 0.5,
    },
    "books_site": {
        "why": "BooksOnline with RealisticConfig defaults: small personalised pages, so fixed "
        "per-page costs (sessions, HTTP, channel, queries) dominate",
        "site": "books",
        "arrivals": "Poisson, 50/s",
        "page_popularity": "Zipf alpha=1.0 over home, 5 catalog and 10 product pages",
        "registered_fraction": 0.6,
        "registered_users": 12,
        "update_probability": 0.05,
        "dpc_capacity": 4096,
        "warmup": 100,
        "pages": 8000,
        "speed_sensitivity": 1.0,
    },
    "flash_crowd": {
        "why": "bench_overload topology under a 20x burst: the only workload where the "
        "overload layer (CoDel, breaker, stale pages) decides outcomes",
        "site": "synthetic+overload",
        "num_pages": 10,
        "fragments_per_page": 4,
        "fragment_size": 2048,
        "cacheability": 0.75,
        "target_hit_ratio": 0.9,
        "dpc_capacity": 4096,
        "arrivals": "flash crowd: 6/s base, 20x burst at t=20 s held 5 s, 2 s decay, "
        "deterministic spacing",
        "multiplier": 20.0,
        "deadline_s": 1.5,
        "policy": "CoDel target 0.05 s, interval 0.5 s",
        "breaker": "5 failures, open 1 s",
        "warmup": 100,
        "pages": 900,
        #: Flash crowds per window, each seeded from the run's seed: one
        #: burst's tail latency swings by a quarter between seeds, twelve
        #: pooled bursts hold it to a few percent.
        "bursts": 12,
        "speed_sensitivity": 1.0,
    },
}

#: End-to-end metrics: (name, unit, better, bound, definition).  Host times
#: come from untraced runs over the measured window only, and are reported
#: at the reference host speed of :mod:`speed`: each is scaled by a fixed
#: calibration loop timed next to it.  ``vms`` is milliseconds of *virtual*
#: (modeled) time: deterministic for a seed.
#:
#: Bounds.  Modeled metrics vary only with the seed; each bound is at least
#: three times the spread between ten seeds.  Host times carry what the
#: speed scaling leaves of a shared 2-vCPU host's swings (up to 1.8x within
#: seconds; a workload's sensitivity to them is not one fixed number), so
#: they get the widest bound the benchmark allows, as ``setup_s`` does.
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("page_us_p50", "us", "lower", 0.25,
     "host time of one page through the per-request entry point, median, at reference speed"),
    ("page_us_p99", "us", "lower", 0.25,
     "the same at p99 (every run pools at least 1,000 pages)"),
    ("pages_per_s", "1/s", "higher", 0.25,
     "measured pages / measured-window wall time less the benchmark's checks, at reference "
     "speed"),
    ("update_us_p50", "us", "lower", 0.25,
     "host time of one Table.update through trigger bus and invalidation, median, at "
     "reference speed"),
    ("setup_s", "s", "lower", 0.25,
     "construction + workload materialisation + warmup window, median over windows, at "
     "reference speed"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident memory of the benchmark process"),
    ("origin_bytes_per_page", "B", "lower", 0.1,
     "Sniffer request + response wire bytes / measured pages (modeled)"),
    ("fragment_hit_ratio", "ratio", "higher", 0.15,
     "BEM fragment hits / cacheable-block accesses in the window (modeled)"),
    ("vresp_ms_mean", "vms", "lower", 0.15,
     "virtual response time of delivered pages, mean as in the paper's Figure 6 (modeled)"),
    ("vresp_ms_p99", "vms", "lower", 0.24,
     "virtual response time of delivered pages, p99 (modeled)"),
    ("fresh_frac", "ratio", "higher", 0.2,
     "fresh pages / offered pages; stale or shed outcomes lower it (modeled)"),
]

#: Modeled metrics: deterministic, so they repeat exactly for one seed.
MODELED = (
    "origin_bytes_per_page",
    "fragment_hit_ratio",
    "vresp_ms_mean",
    "vresp_ms_p99",
    "fresh_frac",
)

_ALL = ("warm_pages", "evict_churn", "books_site", "flash_crowd")
_SYNTHETIC = ("warm_pages", "evict_churn")
_OTHERS_THAN_EVICT = ("warm_pages", "books_site", "flash_crowd")
_NOT_FLASH = ("warm_pages", "evict_churn", "books_site")

#: Per-layer metrics from the traced run: (name, unit, better, predictions).
#: A prediction is (end-to-end metric, workloads, expectation), written
#: before any optimisation: which end-to-end figure a change to this layer
#: should move, where, and where it should not.
PER_LAYER: List[Tuple[str, str, str, List[Tuple[str, Tuple[str, ...], str]]]] = [
    ("harness.self_us_per_page", "us", "lower", [
        ("pages_per_s", _SYNTHETIC, "moves: driver churn loop and per-request bookkeeping"),
    ]),
    ("pipeline.self_us_per_page", "us", "lower", [
        ("page_us_p50", _ALL, "moves a little: glue inside the per-request entry point"),
    ]),
    ("network.firewall.us_per_page", "us", "lower", [
        ("page_us_p50", ("books_site",), "moves: per-message cost is a large share"),
        ("page_us_p50", ("warm_pages",), "barely moves"),
    ]),
    ("network.channel.send_us_per_page", "us", "lower", [
        ("page_us_p50", ("books_site",), "moves: per-message cost is a large share"),
        ("page_us_p50", ("warm_pages",), "barely moves"),
    ]),
    ("network.channel.messages_per_page", "count", "lower", [
        ("page_us_p50", ("books_site",), "moves"),
        ("page_us_p50", ("warm_pages",), "barely moves"),
    ]),
    ("network.channel.packets_per_page", "count", "lower", [
        ("page_us_p50", ("books_site",), "moves"),
        ("page_us_p50", ("warm_pages",), "barely moves"),
    ]),
    ("appserver.handle.self_us_per_page", "us", "lower", [
        ("page_us_p50", ("warm_pages", "books_site"), "moves: script run, PageBuilder, serialize"),
    ]),
    ("appserver.blocks_per_page", "count", "lower", [
        ("page_us_p50", ("warm_pages", "books_site"), "moves"),
    ]),
    ("bem.process_block.calls_per_page", "count", "lower", [
        ("page_us_p50", ("warm_pages",), "moves (FragmentID interning)"),
        ("page_us_p50", ("evict_churn",), "directory insert dominates instead"),
    ]),
    ("bem.process_block.self_us_per_call", "us", "lower", [
        ("page_us_p50", ("warm_pages",), "moves (FragmentID interning)"),
        ("page_us_p50", ("evict_churn",), "directory insert dominates instead"),
    ]),
    ("bem.hit_ratio", "ratio", "higher", [
        ("page_us_p50", ("warm_pages",), "moves"),
    ]),
    ("directory.lookup.us_per_call", "us", "lower", [
        ("page_us_p99", ("evict_churn",), "moves"),
        ("pages_per_s", ("evict_churn",), "moves"),
    ]),
    ("directory.insert.us_per_call", "us", "lower", [
        ("page_us_p99", ("evict_churn",), "moves (victim selection excluded)"),
        ("pages_per_s", ("evict_churn",), "moves"),
    ]),
    ("directory.lookups_per_page", "count", "lower", [
        ("page_us_p99", ("evict_churn",), "moves"),
        ("pages_per_s", ("evict_churn",), "moves"),
    ]),
    ("directory.evictions_per_page", "count", "lower", [
        ("page_us_p99", ("evict_churn",), "moves"),
        ("pages_per_s", ("evict_churn",), "moves"),
    ]),
    ("replacement.select_victim.us_per_call", "us", "lower", [
        ("page_us_p99", ("evict_churn",), "moves: O(n) min over valid entries"),
        ("pages_per_s", ("evict_churn",), "moves"),
        ("page_us_p50", _OTHERS_THAN_EVICT, "no change: zero calls"),
    ]),
    ("replacement.candidates_per_call", "count", "lower", [
        ("page_us_p99", ("evict_churn",), "moves"),
        ("pages_per_s", ("evict_churn",), "moves"),
        ("page_us_p50", _OTHERS_THAN_EVICT, "no change: zero calls"),
    ]),
    ("replacement.calls_per_page", "count", "lower", [
        ("page_us_p99", ("evict_churn",), "moves"),
        ("pages_per_s", ("evict_churn",), "moves"),
        ("page_us_p50", _OTHERS_THAN_EVICT, "no change: zero calls"),
    ]),
    ("invalidation.on_change.us_per_call", "us", "lower", [
        ("update_us_p50", ("evict_churn", "books_site"), "moves"),
    ]),
    ("invalidation.fragments_per_update", "count", "lower", [
        ("update_us_p50", ("evict_churn", "books_site"), "moves"),
    ]),
    ("database.update.us_per_call", "us", "lower", [
        ("update_us_p50", _ALL, "moves (invalidation child excluded)"),
    ]),
    ("database.update.calls_per_page", "count", "lower", [
        ("update_us_p50", _ALL, "no change: the count is set by the workload"),
    ]),
    ("database.execute.us_per_page", "us", "lower", [
        ("page_us_p50", ("books_site",), "moves: table queries (scan, index lookup)"),
        ("page_us_p50", _SYNTHETIC + ("flash_crowd",), "no change: key reads only"),
    ]),
    ("database.execute.calls_per_page", "count", "lower", [
        ("page_us_p50", ("books_site",), "moves"),
        ("page_us_p50", _SYNTHETIC + ("flash_crowd",), "no change: zero calls"),
    ]),
    ("database.rows_read_per_page", "count", "lower", [
        ("page_us_p50", ("books_site",), "moves"),
    ]),
    ("dpc.process_response.self_us_per_page", "us", "lower", [
        ("page_us_p50", ("warm_pages",), "moves"),
        ("page_us_p50", ("evict_churn",), "moves a little (~3.5 KB scanned per page)"),
    ]),
    ("dpc.scanned_bytes_per_page", "B", "lower", [
        ("page_us_p50", ("warm_pages",), "moves"),
        ("page_us_p50", ("evict_churn",), "moves a little"),
    ]),
    ("dpc.gets_per_page", "count", "higher", [
        ("page_us_p50", ("warm_pages",), "moves"),
    ]),
    ("dpc.sets_per_page", "count", "lower", [
        ("page_us_p50", ("warm_pages",), "moves"),
    ]),
    ("template.parse_us_per_page", "us", "lower", [
        ("page_us_p50", ("warm_pages",), "moves (parse plus parse-cache get/put)"),
    ]),
    ("template.parse_cache_hit_ratio", "ratio", "higher", [
        ("page_us_p50", ("warm_pages",), "moves (TemplateCache removal is judged here)"),
    ]),
    ("workload.materialize_s", "s", "lower", [
        ("setup_s", _ALL, "moves"),
    ]),
    ("overload.degrade_frac", "ratio", "lower", [
        ("fresh_frac", ("flash_crowd",), "moves"),
        ("vresp_ms_p99", ("flash_crowd",), "moves"),
        ("fresh_frac", _NOT_FLASH, "no change: zero"),
    ]),
    ("overload.app_queue.max_depth", "count", "lower", [
        ("fresh_frac", ("flash_crowd",), "moves"),
        ("vresp_ms_p99", ("flash_crowd",), "moves"),
        ("fresh_frac", _NOT_FLASH, "no change: zero"),
    ]),
    ("overload.app_queue.mean_wait_ms", "vms", "lower", [
        ("vresp_ms_p99", ("flash_crowd",), "moves"),
        ("vresp_ms_p99", _NOT_FLASH, "no change: zero"),
    ]),
    ("overload.breaker.opens", "count", "lower", [
        ("fresh_frac", ("flash_crowd",), "moves"),
        ("fresh_frac", _NOT_FLASH, "no change: zero"),
    ]),
    ("overload.gate.us_per_page", "us", "lower", [
        ("page_us_p50", ("flash_crowd",), "moves: breaker, admission, queue offers, stale cache"),
        ("page_us_p50", _NOT_FLASH, "no change: zero"),
    ]),
    ("trace.overhead_frac", "ratio", "lower", []),
    ("trace.closure_frac", "ratio", "higher", []),
]

#: Closure tolerance: on every page the layer self times sum to the page's
#: wall time within this many seconds, and the pages plus the harness's
#: post-run bookkeeping tile the traced window to within this fraction.
PAGE_CLOSURE_TOLERANCE_S = 1e-6
WINDOW_CLOSURE_TOLERANCE = 0.01
