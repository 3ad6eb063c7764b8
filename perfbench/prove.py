"""Run the benchmark over many seeds and report the run-to-run spread.

    python3 perfbench/prove.py                       # all workloads, seeds 1-10
    python3 perfbench/prove.py --workloads evict_churn --seeds 1-5
    python3 perfbench/prove.py --trace 1 --seeds 1-3 # per-layer table
    python3 perfbench/prove.py --record              # refresh baseline.json
    python3 perfbench/prove.py --compare             # second set vs baseline.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  A spread of a
third of the metric's bound or more is flagged (``setup_s`` excepted, whose
bound applies only to its median).  It also checks that ``BENCHMARK.json``
at the repository root agrees with ``spec.py``.  Exits 1 if any run fails,
any spread is flagged, or the two files disagree.  With ``--compare`` it
also exits 1 when a median is worse than the recorded baseline's by more
than the metric's bound, or a modeled metric differs from the baseline's.
Modeled metrics must repeat exactly when a seed is listed twice.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)

import spec  # noqa: E402 - after sys.path setup

BASELINE = os.path.join(_HERE, "baseline.json")


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def check_spec() -> List[str]:
    """Differences between BENCHMARK.json and spec.py (empty when equal)."""
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        problems.append("workload names differ")
    for workload in bench["workloads"]:
        if workload["why"] != spec.WORKLOADS.get(workload["name"], {}).get("why"):
            problems.append("why of %s differs" % workload["name"])
    expected = [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in spec.END_TO_END
    ]
    if bench["end_to_end"] != expected:
        problems.append("end_to_end metrics differ")
    expected = [{"name": n, "unit": u, "better": b} for n, u, b, _ in spec.PER_LAYER]
    if bench["per_layer"] != expected:
        problems.append("per_layer metrics differ")
    return problems


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """One benchmark run in its own process; returns its result line."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True,
                               timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, completed.returncode))
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile spread as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def record(table, section: str, seeds: List[int], seconds: int) -> None:
    """Write the spec and this table of medians and quartiles to baseline.json."""
    recorded = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as handle:
            recorded = json.load(handle)
    recorded["workloads"] = {
        name: dict(params, seed_argument="--seed")
        for name, params in spec.WORKLOADS.items()
    }
    recorded["end_to_end_metrics"] = [
        {"name": n, "unit": u, "better": b, "bound": bound, "definition": d}
        for n, u, b, bound, d in spec.END_TO_END
    ]
    recorded["per_layer_metrics"] = [
        {
            "name": n, "unit": u, "better": b,
            "predictions": [
                {"metric": metric, "workloads": list(names), "expect": expect}
                for metric, names, expect in predictions
            ],
        }
        for n, u, b, predictions in spec.PER_LAYER
    ]
    recorded["baseline_seeds"] = list(spec.BASELINE_SEEDS)
    recorded["held_out_seeds"] = list(spec.HELD_OUT_SEEDS)
    recorded.setdefault("baseline", {})[section] = {
        "seeds": seeds,
        "seconds": seconds,
        "date": time.strftime("%Y-%m-%d"),
        "machine": "%s, %d CPUs, Python %s" % (
            platform.machine(), os.cpu_count() or 0, platform.python_version()
        ),
        "workloads": table,
    }
    with open(BASELINE, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    parser.add_argument("--seeds", default="%d-%d" % (spec.BASELINE_SEEDS[0],
                                                     spec.BASELINE_SEEDS[-1]))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the medians and quartiles to baseline.json")
    parser.add_argument("--compare", action="store_true",
                        help="compare the medians with baseline.json")
    args = parser.parse_args(argv)

    problems = check_spec()
    for problem in problems:
        print("BENCHMARK.json vs spec.py: %s" % problem)
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]
    seeds = _seeds(args.seeds)
    if args.trace:
        metrics = [(n, u, None) for n, u, _, _ in spec.PER_LAYER]
    else:
        metrics = [(n, u, bound) for n, u, _, bound, _ in spec.END_TO_END]

    baseline, baseline_seeds = {}, None
    if args.compare:
        with open(BASELINE) as handle:
            section = "per_layer" if args.trace else "end_to_end"
            recorded = json.load(handle)["baseline"][section]
        baseline, baseline_seeds = recorded["workloads"], recorded["seeds"]
    better = {n: b for n, _, b, _, _ in spec.END_TO_END}
    flagged = 0
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {name: [] for name, _, _ in metrics}
        modeled_by_seed: Dict[int, Dict[str, float]] = {}
        started = time.time()
        for seed in seeds:
            result = run_once(workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            modeled = {n: result["metrics"][n]["value"]
                       for n in spec.MODELED if n in result["metrics"]}
            if modeled_by_seed.setdefault(seed, modeled) != modeled:
                print("  modeled metrics differ between two runs of seed %d" % seed)
                flagged += 1
        print("%s: %d runs in %.0f s" % (workload, len(seeds), time.time() - started))
        table[workload] = {}
        for name, unit, bound in metrics:
            stats = summarize(values[name])
            table[workload][name] = stats
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3 (%.3f)" % (bound / 3)
                flagged += 1
            if baseline:
                base = baseline[workload][name]["median"]
                change = (stats["median"] - base) / base if base else 0.0
                worse = -change if better.get(name) == "higher" else change
                flag += "  vs baseline %+.4f" % change
                if bound is not None and worse > bound:
                    flag += " <-- worse than baseline by more than the bound"
                    flagged += 1
                if name in spec.MODELED and seeds == baseline_seeds and change:
                    flag += " <-- modeled median moved"
                    flagged += 1
            print("  %-40s median %14.6f q1 %14.6f q3 %14.6f spread %.4f %s%s"
                  % (name, stats["median"], stats["q1"], stats["q3"], stats["spread"],
                     unit, flag))
        sys.stdout.flush()

    if args.record:
        record(table, "per_layer" if args.trace else "end_to_end", seeds, seconds)
    return 1 if flagged or problems else 0


if __name__ == "__main__":
    sys.exit(main())
