"""``python -m repro doctor`` — one-shot diagnosis of a cache deployment.

The doctor runs a deliberately pathological deployment — a flash crowd
with deadlines against an undersized directory whose fragments carry TTLs,
data churn, and a mid-run proxy restart — so every miss cause the insight
layer knows about actually occurs, then renders what an operator would
want on one page:

* the **miss-cause breakdown** (ledger), with the sum-to-misses invariant
  checked against the live directory, and the worst-missing fragments;
* the **counterfactual hit-ratio curve** (Mattson profiler) with a slot
  recommendation, validated against a brute-force LRU re-simulation at
  small slot counts (the single-pass prediction must be *exact*);
* the **SLO verdicts**: compliance, burn rates, and the typed alerts that
  fired during the crowd;
* the **latency attribution**: per-span-kind self time over the retained
  virtual-time traces, so "where did the seconds go" has an answer.

``--smoke`` turns the run into a CI self-check: smaller scenario, hard
assertions on the ledger invariant and profiler exactness, plus the
insight-overhead gate (:mod:`repro.perf.insight`, <5% lower-quartile).
Exit status is nonzero when any check fails.  ``--json`` emits the whole
diagnosis as one JSON document instead of tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.fragments import Dependency
from ..faults.injectors import DpcCrash
from ..harness.reporting import format_table
from ..harness.testbed import Testbed, TestbedConfig
from ..overload import (
    CircuitBreaker,
    CoDelPolicy,
    OverloadConfig,
    OverloadHarness,
    OverloadResult,
)
from ..sites.synthetic import SYNTHETIC_TABLE, SyntheticParams
from ..workload import FlashCrowdProcess
from .layer import InsightLayer
from .mattson import simulate_lru
from .slo import SloEngine, SloObjective

#: Slot counts the smoke check validates the profiler against, brute-force.
VALIDATE_SLOTS = tuple(range(1, 9))


@dataclass
class DoctorScenario:
    """Knobs of the pathological run the doctor diagnoses."""

    requests: int = 900
    warmup: int = 100
    seed: int = 7
    #: Synthetic site: 48-fragment pool, 36 cacheable at 0.75.
    params: SyntheticParams = field(
        default_factory=lambda: SyntheticParams(
            num_pages=12, fragments_per_page=4,
            fragment_size=2048, cacheability=0.75,
        )
    )
    #: Directory/DPC slots — deliberately below the cacheable pool so the
    #: replacement manager must evict (``evicted_capacity`` misses).
    capacity: int = 24
    #: TTL stamped onto the cacheable block (``ttl_expired`` misses).
    ttl_s: float = 6.0
    #: Data churn toward this hit ratio (``data_invalidated`` misses).
    target_hit_ratio: float = 0.9
    #: Flash crowd (``shed_overload`` misses once protection engages).
    base_rate: float = 6.0
    multiplier: float = 10.0
    burst_at: float = 20.0
    hold_s: float = 5.0
    decay_s: float = 2.0
    deadline_s: float = 1.5
    #: Request index whose arrival time schedules the proxy restart +
    #: epoch resync (``fault_quarantine`` misses); ``None`` computes mid-run.
    wipe_at: Optional[int] = None

    def wipe_index(self) -> int:
        """The request index at which the DPC wipe fires."""
        if self.wipe_at is not None:
            return self.wipe_at
        return self.warmup + self.requests // 2


def smoke_scenario() -> DoctorScenario:
    """The reduced scenario behind ``repro doctor --smoke`` (<60 s)."""
    return DoctorScenario(
        requests=300, warmup=40, capacity=20,
        burst_at=8.0, hold_s=3.0, decay_s=1.5,
    )


def _slo_engine(scenario: DoctorScenario) -> SloEngine:
    """The objectives the doctor watches, sized to the scenario's clock."""
    return SloEngine([
        SloObjective(
            name="slo.availability", metric="request.served",
            comparator=">=", threshold=1.0, compliance_target=0.99,
            long_window_s=10.0, short_window_s=1.0,
            burn_threshold=2.0, min_samples=20,
        ),
        SloObjective(
            name="slo.latency_p95", metric="request.elapsed_s",
            comparator="<=", threshold=scenario.deadline_s / 2.0,
            compliance_target=0.95,
            long_window_s=10.0, short_window_s=1.0,
            burn_threshold=2.0, min_samples=20,
        ),
        SloObjective(
            name="slo.hit_rate", metric="request.predicted_hit",
            comparator=">=", threshold=1.0, compliance_target=0.5,
            long_window_s=10.0, short_window_s=1.0,
            burn_threshold=1.5, min_samples=20,
        ),
    ])


@dataclass
class Diagnosis:
    """Everything one doctor run measured, ready to render or serialize."""

    scenario: DoctorScenario
    result: OverloadResult
    insight: InsightLayer
    slo: SloEngine
    harness: OverloadHarness
    #: (num_slots, predicted_hits, simulated_hits, exact) validation rows.
    validation: List[Tuple[int, int, int, bool]]
    #: (span kind, total self seconds, spans) rows, largest first.
    attribution: List[Tuple[str, float, int]]

    @property
    def directory(self):
        """The BEM directory the insight layer observed."""
        return self.harness.testbed.monitor.directory

    def profiler_exact(self) -> bool:
        """Whether the single-pass prediction matched brute force everywhere."""
        return all(row[3] for row in self.validation)

    def checks(self) -> List[Tuple[str, bool, str]]:
        """(name, passed, detail) verdicts for the hard smoke assertions."""
        ledger = self.insight.ledger
        rows: List[Tuple[str, bool, str]] = []
        try:
            self.insight.check_invariants(self.directory)
            rows.append((
                "miss-cause sum invariant", True,
                "%d causes == %d misses" % (ledger.cause_total(), ledger.misses),
            ))
        except AssertionError as exc:
            rows.append(("miss-cause sum invariant", False, str(exc)))
        rows.append((
            "mattson exact vs brute force", self.profiler_exact(),
            "slot counts %d..%d" % (VALIDATE_SLOTS[0], VALIDATE_SLOTS[-1]),
        ))
        conserved = self.result.conserved
        rows.append((
            "outcome conservation", conserved,
            "%d outcomes over %d offered"
            % (self.result.completed + self.result.shed
               + self.result.timed_out + self.result.failed
               + self.result.bypassed, self.result.offered),
        ))
        return rows


def run_diagnosis(scenario: DoctorScenario) -> Diagnosis:
    """Run the pathological deployment with full insight attached."""
    testbed_config = TestbedConfig(
        mode="dpc",
        synthetic=scenario.params,
        target_hit_ratio=scenario.target_hit_ratio,
        requests=scenario.requests,
        warmup_requests=scenario.warmup,
        seed=scenario.seed,
        dpc_capacity=scenario.capacity,
        tracing=True,
        arrivals=FlashCrowdProcess(
            base_rate=scenario.base_rate,
            multiplier=scenario.multiplier,
            burst_at=scenario.burst_at,
            hold_s=scenario.hold_s,
            decay_s=scenario.decay_s,
            deterministic=True,
        ),
    )
    wipe = scenario.wipe_index()
    wipe_arrival = Testbed(testbed_config).build_workload().materialize(
        wipe + 1
    )[wipe].at
    config = OverloadConfig(
        testbed=testbed_config,
        deadline_s=scenario.deadline_s,
        app_servers=1, app_queue_capacity=8,
        db_servers=2, db_queue_capacity=16,
        policy=CoDelPolicy(target_s=0.05, interval_s=0.5),
        breaker=CircuitBreaker(failure_threshold=5, open_s=1.0),
        correctness_every=0,
        seed=scenario.seed,
        # Mid-run proxy restart with no downtime: the wiped slots surface as
        # an AssemblyError or an epoch change, and the resync turns the
        # dropped entries into fault_quarantine misses.
        faults=[DpcCrash(at=wipe_arrival, downtime=0.0)],
    )
    harness = OverloadHarness(config)
    testbed = harness.testbed

    # TTL the cacheable block (the synthetic tagging pass declares only data
    # dependencies); the retag keeps the dependency factory so the §4.3.3
    # trigger path still produces data_invalidated misses.
    testbed.services.tags.retag(
        "frag",
        ttl=scenario.ttl_s,
        dependencies=lambda p: (
            Dependency(SYNTHETIC_TABLE, key=int(p["id"])),
        ),
    )

    insight = InsightLayer(keep_events=True).attach(
        bem=testbed.monitor, dpc=testbed.dpc
    )

    # SLO sample streams, fed per request on the virtual clock.
    slo = _slo_engine(scenario)

    def feed_slo(index, timed, outcome, predicted_hit) -> None:
        now = testbed.clock.now()
        served = outcome in ("fresh", "stale")
        slo.observe("request.served", 1.0 if served else 0.0, now)
        slo.observe(
            "request.predicted_hit", 1.0 if predicted_hit else 0.0, now
        )
        if served:
            slo.observe("request.elapsed_s", now - timed.at, now)

    harness.request_observers.append(feed_slo)

    result = harness.run()

    profiler = insight.profiler
    validation = []
    for num_slots in VALIDATE_SLOTS:
        predicted = profiler.predicted_hits(num_slots)
        simulated, _ = simulate_lru(profiler.events, num_slots)
        validation.append(
            (num_slots, predicted, simulated, predicted == simulated)
        )

    return Diagnosis(
        scenario=scenario,
        result=result,
        insight=insight,
        slo=slo,
        harness=harness,
        validation=validation,
        attribution=latency_attribution(testbed.tracer),
    )


def latency_attribution(tracer) -> List[Tuple[str, float, int]]:
    """Per-span-kind *self* time over the tracer's retained traces.

    Self time is a span's duration minus its children's (the virtual
    seconds attributable to that stage itself); summed per span name over
    the most recent traces, largest share first.  Gap-free trees make the
    totals tile the retained requests' response time exactly.
    """
    totals: Dict[str, Tuple[float, int]] = {}
    for root in tracer.traces:
        for span in root.walk():
            child_s = sum(child.duration for child in span.children)
            self_s = max(0.0, span.duration - child_s)
            seconds, count = totals.get(span.name, (0.0, 0))
            totals[span.name] = (seconds + self_s, count + 1)
    return sorted(
        ((name, seconds, count) for name, (seconds, count) in totals.items()),
        key=lambda row: -row[1],
    )


# -- rendering ----------------------------------------------------------------


def render_report(diagnosis: Diagnosis) -> str:
    """The human-readable diagnosis, section by section."""
    scenario = diagnosis.scenario
    result = diagnosis.result
    ledger = diagnosis.insight.ledger
    profiler = diagnosis.insight.profiler
    sections: List[str] = []

    def section(title: str, body: str) -> None:
        sections.append("== %s ==\n%s" % (title, body))

    # 1. Run summary.
    stats = diagnosis.directory.stats
    hit_ratio = (
        stats.hits / (stats.hits + stats.misses)
        if stats.hits + stats.misses else 0.0
    )
    section("Run", format_table(
        ["metric", "value"],
        [
            ("offered requests", result.offered),
            ("fresh / stale", "%d / %d"
             % (result.completed_fresh, result.completed_stale)),
            ("shed / timed out", "%d / %d" % (result.shed, result.timed_out)),
            ("p50 / p99 response", "%.3fs / %.3fs"
             % (result.p50(), result.p99())),
            ("directory hit ratio", "%.3f" % hit_ratio),
            ("directory slots", scenario.capacity),
            ("dpc wipes observed", diagnosis.insight.dpc_wipes),
            ("eviction victims", diagnosis.insight.eviction_victims),
        ],
    ))

    # 2. Miss causes.
    rows = []
    for cause, count in ledger.as_rows():
        share = count / ledger.misses if ledger.misses else 0.0
        rows.append((cause, count, "%.1f%%" % (share * 100)))
    invariant = "sum(causes) %d == misses %d — OK" % (
        ledger.cause_total(), ledger.misses,
    )
    body = format_table(["cause", "misses", "share"], rows)
    body += "\n%s" % invariant
    top = ledger.top_fragments(5)
    if top:
        body += "\n\nworst fragments:\n" + format_table(
            ["fragment", "misses", "causes"], top,
        )
    section("Miss causes", body)

    # 3. Counterfactual capacity curve.
    boundaries = sorted(
        {1, scenario.capacity, profiler.max_useful_slots()}
        | {distance + 1 for distance in profiler.histogram}
    )
    shown = boundaries[:: max(1, len(boundaries) // 8)]
    if boundaries and shown[-1] != boundaries[-1]:
        shown.append(boundaries[-1])
    curve_rows = [
        (num_slots, "%.3f" % ratio)
        for num_slots, ratio in profiler.curve(shown)
    ]
    recommendation = profiler.recommend_slots()
    body = format_table(["slots", "predicted hit ratio"], curve_rows)
    body += (
        "\nasymptote %.3f (cold %d, stale-in-place %d); "
        "recommended slots: %d (have %d)"
        % (
            profiler.asymptotic_hit_ratio(), profiler.cold_misses,
            profiler.stale_misses, recommendation, scenario.capacity,
        )
    )
    body += "\n\nvalidation vs brute-force LRU:\n" + format_table(
        ["slots", "predicted", "simulated", "exact"],
        [(c, p, s, "yes" if ok else "NO")
         for c, p, s, ok in diagnosis.validation],
    )
    section("Counterfactual capacity (Mattson)", body)

    # 4. SLOs.
    now = diagnosis.harness.testbed.clock.now()
    slo_rows = []
    for objective in diagnosis.slo.objectives:
        long_burn, short_burn = diagnosis.slo.burn_rates(objective.name, now)
        slo_rows.append((
            objective.name,
            "%s %s %g" % (objective.metric, objective.comparator,
                          objective.threshold),
            "%.4f" % diagnosis.slo.compliance(objective.name),
            "-" if long_burn is None else "%.2f" % long_burn,
            "-" if short_burn is None else "%.2f" % short_burn,
            "yes" if objective.name in diagnosis.slo.active_alerts()
            else "no",
        ))
    body = format_table(
        ["objective", "rule", "compliance", "burn(long)", "burn(short)",
         "active"],
        slo_rows,
    )
    if diagnosis.slo.alerts:
        body += "\n\nalerts fired:\n" + format_table(
            ["objective", "at (virtual s)", "burn long", "burn short"],
            [(a.objective, "%.2f" % a.fired_at, "%.2f" % a.burn_long,
              "%.2f" % a.burn_short) for a in diagnosis.slo.alerts],
        )
    else:
        body += "\nno alerts fired"
    section("SLOs", body)

    # 5. Latency attribution.
    total_self = sum(seconds for _, seconds, _ in diagnosis.attribution)
    attr_rows = [
        (name, "%.4f" % seconds,
         "%.1f%%" % (100 * seconds / total_self if total_self else 0.0),
         count)
        for name, seconds, count in diagnosis.attribution
    ]
    section(
        "Latency attribution (self time over last %d traces)"
        % len(diagnosis.harness.testbed.tracer.traces),
        format_table(["span kind", "self s", "share", "spans"], attr_rows),
    )

    # 6. Checks.
    section("Checks", format_table(
        ["check", "status", "detail"],
        [(name, "PASS" if ok else "FAIL", detail)
         for name, ok, detail in diagnosis.checks()],
    ))

    return "repro doctor — cache diagnosis\n\n" + "\n\n".join(sections) + "\n"


def diagnosis_to_dict(diagnosis: Diagnosis) -> Dict[str, object]:
    """The diagnosis as one JSON-serializable document (``--json``)."""
    ledger = diagnosis.insight.ledger
    profiler = diagnosis.insight.profiler
    return {
        "scenario": {
            key: (asdict(value) if isinstance(value, SyntheticParams)
                  else value)
            for key, value in asdict(diagnosis.scenario).items()
        },
        "run": {
            "offered": diagnosis.result.offered,
            "fresh": diagnosis.result.completed_fresh,
            "stale": diagnosis.result.completed_stale,
            "shed": diagnosis.result.shed,
            "timed_out": diagnosis.result.timed_out,
            "p50_s": round(diagnosis.result.p50(), 6),
            "p99_s": round(diagnosis.result.p99(), 6),
        },
        "miss_causes": dict(ledger.as_rows()),
        "misses": ledger.misses,
        "hits": ledger.hits,
        "worst_fragments": [
            {"fragment": canonical, "misses": misses, "causes": causes}
            for canonical, misses, causes in ledger.top_fragments(5)
        ],
        "mattson": {
            "curve": [
                {"slots": num_slots, "hit_ratio": round(ratio, 6)}
                for num_slots, ratio in profiler.curve(
                    sorted({distance + 1 for distance in profiler.histogram}
                           | {1, diagnosis.scenario.capacity})
                )
            ],
            "asymptote": round(profiler.asymptotic_hit_ratio(), 6),
            "recommended_slots": profiler.recommend_slots(),
            "validation": [
                {"slots": c, "predicted": p, "simulated": s, "exact": ok}
                for c, p, s, ok in diagnosis.validation
            ],
        },
        "slo": {
            "objectives": [
                {
                    "name": objective.name,
                    "compliance": round(
                        diagnosis.slo.compliance(objective.name), 6
                    ),
                }
                for objective in diagnosis.slo.objectives
            ],
            "alerts": [asdict(alert) for alert in diagnosis.slo.alerts],
        },
        "latency_attribution": [
            {"span": name, "self_s": round(seconds, 6), "count": count}
            for name, seconds, count in diagnosis.attribution
        ],
        "checks": [
            {"check": name, "passed": ok, "detail": detail}
            for name, ok, detail in diagnosis.checks()
        ],
    }


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro doctor`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro doctor",
        description="Diagnose a pathological cache deployment end to end.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced scenario with hard assertions and the overhead gate "
        "(CI self-check; exits nonzero on any failure)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the diagnosis as one JSON document",
    )
    parser.add_argument(
        "--no-bench", action="store_true",
        help="skip the insight-overhead gate in --smoke (unit tests only)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro doctor``; returns an exit code."""
    args = build_parser().parse_args(argv)
    scenario = smoke_scenario() if args.smoke else DoctorScenario()
    if args.seed is not None:
        scenario.seed = args.seed
    diagnosis = run_diagnosis(scenario)

    failed = [name for name, ok, _ in diagnosis.checks() if not ok]
    overhead_verdict: Optional[str] = None
    if args.smoke and not args.no_bench:
        from ..perf.insight import SMOKE_SETTINGS, run_insight
        try:
            bench = run_insight(**SMOKE_SETTINGS)
            overhead_verdict = (
                "overhead gate: lower-quartile %.2f%% < %.0f%% — OK"
                % (bench["overhead"]["lower_quartile"] * 100,
                   bench["overhead"]["bound"] * 100)
            )
        except AssertionError as exc:
            overhead_verdict = str(exc)
            failed.append("insight overhead gate")

    if args.as_json:
        document = diagnosis_to_dict(diagnosis)
        if overhead_verdict is not None:
            document["overhead_gate"] = overhead_verdict
        document["failed_checks"] = failed
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_report(diagnosis), end="")
        if overhead_verdict is not None:
            print("\n" + overhead_verdict)
        if failed:
            print("\nFAILED checks: %s" % ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
