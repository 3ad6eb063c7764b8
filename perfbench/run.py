"""Outside-in benchmark of the DPC/BEM reproduction.

    python3 perfbench/run.py --workload warm_pages --seed 1 --seconds 10 --trace 0

Builds one workload (see ``spec.WORKLOADS``) from ``--seed`` and serves
whole measured windows of it, each with its own set-up, until ``--seconds``
of measured time have passed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced windows and reports the
per-layer table from the traced ones.  Spans are written to
``.perfbench/`` in the working directory.

Host times are reported at a reference host speed: each is scaled by a
calibration loop timed alongside it (see ``speed``), because a shared host
(the baseline's: 2 vCPUs of a shared x86_64 machine) can change speed by up
to 1.8x within seconds.

Every run checks, and exits 1 if any check fails:

* every measured page is byte-equal to the caching-disabled oracle;
* the modeled metrics repeat exactly in every window of the seed;
* non-perturbation: each window's accounting equals an unwrapped run of the
  same public entry point with the same config;
* layer isolation: evictions only on ``evict_churn``, table queries only on
  ``books_site``, degraded pages only on ``flash_crowd``;
* trace closure (traced runs): on every page the layer self times sum to
  the page's wall time, and the pages tile the traced window.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional

import speed

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

#: At least this many windows per run, so set-up time has a median.
MIN_WINDOWS = 3
#: Stop opening windows after this much wall time, whatever ``--seconds``.
MAX_WALL_S = 120.0
#: Pages of the unmeasured priming window that runs first in every process.
PRIMING_PAGES = 200


def _import_program():
    """Put ``src/`` on the path and import the benchmark modules."""
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        raise SystemExit("perfbench: no program sources at %s" % _SRC)
    sys.path.insert(0, _SRC)
    import spec
    import workloads

    return spec, workloads


class Checks:
    """Named pass/fail checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: List[tuple] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _check_repeat(checks: Checks, windows) -> None:
    first = windows[0].modeled
    same = all(w.modeled == first for w in windows)
    checks.add("modeled metrics repeat exactly", same,
               "" if same else repr([w.modeled for w in windows]))


def _check_accounting(checks: Checks, windows, expected, label: str) -> None:
    """Each window's accounting equals the unwrapped entry point's."""
    differing = [w.accounting for w in windows if w.accounting != expected]
    checks.add("non-perturbation (%s)" % label, not differing,
               "" if not differing else "%r != %r" % (differing[0], expected))


def _check_isolation(checks: Checks, name: str, evictions: float, queries: Optional[float],
                     degraded: float) -> None:
    if name == "evict_churn":
        checks.add("replacement runs on evict_churn", evictions > 0)
    else:
        checks.add("no replacement on %s" % name, evictions == 0, "%r" % evictions)
    if queries is not None:
        if name == "books_site":
            checks.add("table queries run on books_site", queries > 0)
        else:
            checks.add("no table queries on %s" % name, queries == 0, "%r" % queries)
    if name == "flash_crowd":
        checks.add("pages degrade on flash_crowd", degraded > 0)
    else:
        checks.add("no degraded pages on %s" % name, degraded == 0, "%r" % degraded)


def _pages_per_s(windows) -> float:
    """Measured pages per second of measured-window time at reference speed."""
    return sum(w.pages for w in windows) / sum(w.window_ref_s for w in windows)


def end_to_end(windows, workloads) -> Dict[str, float]:
    """The end-to-end metrics of a set of untraced windows; host times at
    the reference speed."""
    page_s = [s for w in windows for s in w.page_ref_s]
    update_s = [s for w in windows for s in w.update_ref_s]
    metrics = {
        "page_us_p50": 1e6 * statistics.median(page_s),
        "page_us_p99": 1e6 * workloads.nearest_rank(page_s, 0.99),
        "pages_per_s": _pages_per_s(windows),
        "update_us_p50": 1e6 * statistics.median(update_s),
        "setup_s": statistics.median([w.setup_ref_s for w in windows]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(windows[0].modeled)
    return metrics


def _sum_counters(windows) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for w in windows:
        for key, value in w.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def per_layer(traced, untraced, summaries) -> Dict[str, float]:
    """The per-layer table from traced windows (and their untraced twins).

    Times are at the reference speed: each window's self times are scaled
    by the window's mean speed scale (``window_ref_s / window_s``).
    """
    pages = sum(w.pages for w in traced)
    counters = _sum_counters(traced)
    spans_list = [(spans, w.window_ref_s / w.window_s) for w in traced for spans in w.spans]
    layer_s: Dict[str, float] = {}
    name_self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for summary, (spans, scale) in zip(summaries, spans_list):
        for target, source, factor in ((layer_s, summary["layer_s"], scale),
                                       (name_self_s, summary["name_self_s"], scale),
                                       (calls, summary["calls"], 1),
                                       (counts, spans.counts, 1)):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value * factor

    def us_per_page(layer: str) -> float:
        return 1e6 * layer_s.get(layer, 0.0) / pages

    def us_per_call(name: str) -> float:
        count = calls.get(name, 0)
        return 1e6 * name_self_s.get(name, 0.0) / count if count else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookups = counts.get("template.parse_cache.lookups", 0)
    updates = calls.get("database.update", 0)
    window_s = sum(w.window_ref_s for w in traced)
    return {
        "harness.self_us_per_page": us_per_page("harness"),
        "pipeline.self_us_per_page": us_per_page("pipeline"),
        "network.firewall.us_per_page": us_per_page("network.firewall"),
        "network.channel.send_us_per_page": us_per_page("network.channel"),
        "network.channel.messages_per_page": counters["messages"] / pages,
        "network.channel.packets_per_page": counters["packets"] / pages,
        "appserver.handle.self_us_per_page": us_per_page("appserver"),
        "appserver.blocks_per_page": counts.get("appserver.blocks", 0) / pages,
        "bem.process_block.calls_per_page": calls.get("bem.process_block", 0) / pages,
        "bem.process_block.self_us_per_call": us_per_call("bem.process_block"),
        "bem.hit_ratio": ratio(counters["hits"], counters["hits"] + counters["misses"]),
        "directory.lookup.us_per_call": us_per_call("directory.lookup"),
        "directory.insert.us_per_call": us_per_call("directory.insert"),
        "directory.lookups_per_page": counters["lookups"] / pages,
        "directory.evictions_per_page": counters["evictions"] / pages,
        "replacement.select_victim.us_per_call": us_per_call("replacement.select_victim"),
        "replacement.candidates_per_call": ratio(
            counts.get("replacement.candidates", 0), calls.get("replacement.select_victim", 0)
        ),
        "replacement.calls_per_page": calls.get("replacement.select_victim", 0) / pages,
        "invalidation.on_change.us_per_call": us_per_call("invalidation.on_change"),
        "invalidation.fragments_per_update": ratio(counters["invalidated"], updates),
        "database.update.us_per_call": us_per_call("database.update"),
        "database.update.calls_per_page": updates / pages,
        "database.execute.us_per_page": us_per_page("database.execute"),
        "database.execute.calls_per_page": counts.get("database.queries", 0) / pages,
        "database.rows_read_per_page": counters["rows_read"] / pages,
        "dpc.process_response.self_us_per_page": us_per_page("dpc"),
        "dpc.scanned_bytes_per_page": counters["scanned_bytes"] / pages,
        "dpc.gets_per_page": counters["gets"] / pages,
        "dpc.sets_per_page": counters["sets"] / pages,
        "template.parse_us_per_page": us_per_page("template"),
        "template.parse_cache_hit_ratio": ratio(
            counts.get("template.parse_cache.hits", 0), lookups
        ),
        "workload.materialize_s": statistics.median(
            [w.materialize_s * w.setup_ref_s / w.setup_s for w in traced]
        ),
        "overload.degrade_frac": counters.get("degraded", 0) / pages,
        "overload.app_queue.max_depth": max(
            w.counters.get("app_queue_max_depth", 0) for w in traced
        ),
        "overload.app_queue.mean_wait_ms": 1000.0 * ratio(
            counters.get("app_queue_wait_s", 0.0), counters.get("app_queue_admitted", 0)
        ),
        "overload.breaker.opens": ratio(
            counters.get("breaker_opens", 0), counters.get("bursts", 0)
        ),
        "overload.gate.us_per_page": us_per_page("overload.gate"),
        "trace.overhead_frac": _pages_per_s(untraced) / _pages_per_s(traced) - 1.0,
        "trace.closure_frac": sum(layer_s.values()) / window_s,
    }


def _check_closure(checks: Checks, summaries, traced, spec) -> None:
    """Self times tile each page; pages tile the traced window."""
    worst = 0.0
    for summary in summaries:
        for page, wall in summary["page_wall"].items():
            worst = max(worst, abs(summary["page_self"][page] - wall))
    checks.add("trace closure per page (tolerance %g s)" % spec.PAGE_CLOSURE_TOLERANCE_S,
               worst <= spec.PAGE_CLOSURE_TOLERANCE_S, "worst %.3g s" % worst)
    covered = sum(sum(s["page_wall"].values()) for s in summaries)
    window_s = sum(w.window_s for w in traced)
    gap = 1.0 - covered / window_s
    checks.add("pages tile the traced window (tolerance %g)" % spec.WINDOW_CLOSURE_TOLERANCE,
               0.0 <= gap <= spec.WINDOW_CLOSURE_TOLERANCE, "uncovered %.4f" % gap)


def _check_span_counts(checks: Checks, summaries, traced) -> None:
    """The wrappers saw every call the program's own counters saw."""
    counters = _sum_counters(traced)
    calls: Dict[str, int] = {}
    for summary in summaries:
        for key, value in summary["calls"].items():
            calls[key] = calls.get(key, 0) + value
    pairs = (
        ("directory.lookup", "lookups"),
        ("replacement.select_victim", "evictions"),
        ("network.channel.send", "messages"),
    )
    for span, counter in pairs:
        checks.add("span count %s == program counter %s" % (span, counter),
                   calls.get(span, 0) == counters[counter],
                   "%r vs %r" % (calls.get(span, 0), counters[counter]))


def _print_host(untraced) -> None:
    """Host speed over the run, and the unscaled medians for comparison."""
    page_s = [s for w in untraced for s in w.page_s]
    print("host: calibration loop median %.1f us (reference %.1f us) over %d samples; "
          "unscaled page p50 %.1f us, setup %.4f s"
          % (1e6 * statistics.median(speed.METER.seconds), 1e6 * speed.REFERENCE_S,
             len(speed.METER.seconds), 1e6 * statistics.median(page_s),
             statistics.median([w.setup_s for w in untraced])))


def run(args, spec, workloads) -> Dict[str, object]:
    name, seed = args.workload, args.seed
    units = {m[0]: m[1] for m in spec.END_TO_END}
    units.update({m[0]: m[1] for m in spec.PER_LAYER})
    checks = Checks()
    started = perf_counter()
    workloads.window(name, seed, pages=PRIMING_PAGES)

    untraced, traced = [], []
    measured = 0.0
    while (measured < args.seconds or len(untraced) < MIN_WINDOWS) and (
        perf_counter() - started < MAX_WALL_S
    ):
        # Every window starts from a collected heap: the previous window's
        # cyclic garbage would otherwise make the collector's pauses, and so
        # the window's timings, depend on what ran before it.
        gc.collect()
        untraced.append(workloads.window(name, seed))
        measured += untraced[-1].window_s
        if args.trace:
            gc.collect()
            traced.append(workloads.window(name, seed, traced=True))
            measured += traced[-1].window_s
    summaries = [spans.summarize() for w in traced for spans in w.spans]

    all_windows = untraced + traced
    attempted = sum(w.pages for w in all_windows)
    failed = sum(w.failed for w in all_windows)
    checks.add("every checked page equals the oracle",
               failed == 0, "%d of %d checked pages differ"
               % (failed, sum(w.checked for w in all_windows)))
    _check_repeat(checks, all_windows)
    expected = workloads.reference(name, seed)
    _check_accounting(checks, untraced, expected, "timed windows")
    if args.trace:
        _check_accounting(checks, traced, expected, "traced windows")
        metrics = per_layer(traced, untraced, summaries)
        _check_isolation(checks, name, metrics["replacement.calls_per_page"],
                         metrics["database.execute.calls_per_page"],
                         metrics["overload.degrade_frac"])
        _check_closure(checks, summaries, traced, spec)
        _check_span_counts(checks, summaries, traced)
        _write_spans(name, seed, traced)
    else:
        metrics = end_to_end(untraced, workloads)
        counters = _sum_counters(untraced)
        _check_isolation(checks, name, counters["evictions"], None,
                         counters.get("degraded", 0))

    _print_host(untraced)
    page_samples = sum(w.pages for w in untraced)
    print("workload %s seed %d: %d untraced windows, %d traced windows, "
          "%d pages timed untraced (p99 has %d samples beyond it)"
          % (name, seed, len(untraced), len(traced), page_samples,
             page_samples - int(round(0.99 * page_samples))))
    for key, value in metrics.items():
        print("  %-42s %16.6f %s" % (key, value, units[key]))
    print("  %-42s %16.6f %s" % ("failed_frac", failed / attempted, "ratio"))
    for check, ok, detail in checks.results:
        print("  [%s] %s%s" % ("ok" if ok else "FAIL", check, (": " + detail) if detail else ""))
    return {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def _write_spans(name: str, seed: int, traced) -> None:
    """All traced windows' spans, one gzipped CSV per workload."""
    path = os.path.join(".perfbench", "spans-%s.csv.gz" % name)
    os.makedirs(".perfbench", exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("seed,run,name,start_s,end_s,parent,page\n")
        runs = (spans for w in traced for spans in w.spans)
        for run_index, spans in enumerate(runs):
            for row in spans.rows():
                out.write("%d,%d,%s\n" % (seed, run_index, row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec, workloads = _import_program()
    if args.workload not in spec.WORKLOADS:
        parser.error("unknown workload %r (one of %s)"
                     % (args.workload, ", ".join(spec.WORKLOADS)))
    try:
        result = run(args, spec, workloads)
    except Exception:  # an unexpected error is a failed run, never a result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
