"""The four workloads, driven only through the program's public entry points.

``window(name, seed, traced)`` builds a workload from a seed, serves it, and
returns one :class:`Window`: the set-up time, the host time of every measured
page and data write, the virtual response times, program counters over the
measured window (from which the modeled metrics follow), and the accounting
that must equal an unwrapped run of the same entry point.  Every measured
page is compared with the caching-disabled oracle outside the timed calls.

A traced window also wraps every layer entry point (see :mod:`probes`); an
untraced one wraps only the page boundary, the data-write path and workload
materialisation.  Every window also samples host speed (see :mod:`speed`)
before its set-up and through its measured pages, and carries its host times
both as measured and scaled to the reference speed.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.harness.realistic import RealisticConfig, run_realistic
from repro.harness.testbed import Testbed, TestbedConfig, run_testbed
from repro.network import (
    Channel,
    Firewall,
    LinkParameters,
    ProtocolOverheadModel,
    SimulatedClock,
    request_message,
    response_message,
)
from repro.network.latency import GenerationCostModel
from repro.overload import (
    CircuitBreaker,
    CoDelPolicy,
    OverloadConfig,
    OverloadHarness,
    run_overload,
)
from repro.perf.hotpath import ACCOUNTING_FIELDS
from repro.sites import books
from repro.sites.synthetic import SYNTHETIC_TABLE, SyntheticParams
from repro.workload import FlashCrowdProcess, PageSpec, UserPopulation, WorkloadGenerator
from repro.workload.arrivals import PoissonProcess

from probes import PageClock, Spans, timed_call
from spec import WORKLOADS
from speed import METER


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q``-quantile of a sample by nearest rank (rank ceil(q * n))."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


@dataclass
class Window:
    """One measured window of one workload."""

    setup_s: float
    materialize_s: float
    window_s: float
    page_s: List[float]
    update_s: List[float]
    #: Virtual response times of the pages delivered in the window.
    vresp_s: List[float]
    #: Program counters over the window (``pages`` and ``fresh`` included).
    counters: Dict[str, float]
    #: Compared with :func:`reference` (one entry per entry-point run).
    accounting: List[Dict[str, object]]
    checked: int
    failed: int
    #: The host times above scaled to the reference speed (see :mod:`speed`).
    setup_ref_s: float
    window_ref_s: float
    page_ref_s: List[float]
    update_ref_s: List[float]
    spans: List[Spans] = field(default_factory=list)

    @property
    def pages(self) -> int:
        return len(self.page_s)

    @property
    def modeled(self) -> Dict[str, float]:
        """The modeled figures of merit: deterministic for a seed."""
        counters = self.counters
        accesses = counters["hits"] + counters["misses"]
        return {
            "origin_bytes_per_page": counters["wire_bytes"] / counters["pages"],
            "fragment_hit_ratio": counters["hits"] / accesses if accesses else 0.0,
            "vresp_ms_mean": 1000.0 * statistics.fmean(self.vresp_s),
            "vresp_ms_p99": 1000.0 * nearest_rank(self.vresp_s, 0.99),
            "fresh_frac": counters["fresh"] / counters["pages"],
        }


def merge(parts: List[Window]) -> Window:
    """One window made of several entry-point runs served back to back."""
    counters: Dict[str, float] = {}
    for part in parts:
        for key, value in part.counters.items():
            combine = max if key == "app_queue_max_depth" else (lambda a, b: a + b)
            counters[key] = combine(counters[key], value) if key in counters else value
    return Window(
        setup_s=sum(p.setup_s for p in parts),
        materialize_s=sum(p.materialize_s for p in parts),
        window_s=sum(p.window_s for p in parts),
        page_s=[s for p in parts for s in p.page_s],
        update_s=[s for p in parts for s in p.update_s],
        vresp_s=[s for p in parts for s in p.vresp_s],
        counters=counters,
        accounting=[a for p in parts for a in p.accounting],
        checked=sum(p.checked for p in parts),
        failed=sum(p.failed for p in parts),
        setup_ref_s=sum(p.setup_ref_s for p in parts),
        window_ref_s=sum(p.window_ref_s for p in parts),
        page_ref_s=[s for p in parts for s in p.page_ref_s],
        update_ref_s=[s for p in parts for s in p.update_ref_s],
        spans=[s for p in parts for s in p.spans],
    )


class _Oracle:
    """Byte-for-byte page checks, kept out of the timed calls and spans."""

    def __init__(self, spans: Optional[Spans]) -> None:
        self.spans = spans
        self.checked = 0
        self.failed = 0

    def check(self, html: Optional[str], render, request) -> None:
        if self.spans is not None:
            self.spans.paused = True
        try:
            expected = render(request)
        finally:
            if self.spans is not None:
                self.spans.paused = False
        self.checked += 1
        if html != expected:
            self.failed += 1


def _counters(bem, dpc, db, channel, sniffer) -> Dict[str, int]:
    """Program counters read at the window's edges."""
    total = sniffer.total()
    return {
        "messages": channel.messages_sent,
        "packets": total.packets,
        "wire_bytes": total.wire_bytes,
        "scanned_bytes": dpc.bytes_scanned,
        "gets": dpc.stats.fragments_get,
        "sets": dpc.stats.fragments_set,
        "rows_read": db.total_rows_read(),
        "lookups": bem.directory.stats.lookups,
        "evictions": bem.directory.stats.evictions,
        "hits": bem.stats.fragment_hits,
        "misses": bem.stats.fragment_misses,
        "invalidated": bem.invalidation.fragments_invalidated,
    }


def _delta(start: Dict[str, int], end: Dict[str, int], reset=()) -> Dict[str, float]:
    """``end - start``; counters in ``reset`` restarted from zero at the cut."""
    return {key: end[key] - (0 if key in reset else start[key]) for key in end}


def _new_spans(traced: bool, warmup: int) -> Optional[Spans]:
    return Spans(first_page=warmup) if traced else None


def _host_times(name: str, clock: PageClock, started: float, setup_s: float,
                window_s: float) -> Dict[str, object]:
    """The window's host times as measured and at the reference speed.

    Set-up is scaled by the speed around its midpoint (samples taken just
    before it and early in the measured window); the window by its pages'
    scales, weighted by page time.
    """
    sensitivity = WORKLOADS[name]["speed_sensitivity"]
    page_ref_s = METER.scaled(clock.page_s, clock.page_at, sensitivity)
    return {
        "setup_s": setup_s,
        "window_s": window_s,
        "page_s": clock.page_s,
        "update_s": clock.update_s,
        "setup_ref_s": setup_s * METER.scales([(started + clock.window_start) / 2],
                                              sensitivity)[0],
        "window_ref_s": window_s * sum(page_ref_s) / sum(clock.page_s),
        "page_ref_s": page_ref_s,
        "update_ref_s": METER.scaled(clock.update_s, clock.update_at, sensitivity),
    }


def _instrument(spans: Spans, bem, db, dpc, firewall, channel, server) -> None:
    spans.instrument_origin_path(firewall, channel, server)
    spans.instrument_bem(bem, db.bus)
    spans.instrument_database(db)
    spans.instrument_dpc(dpc)


def _instrument_testbed(spans: Optional[Spans], testbed: Testbed, seconds: List[float]) -> None:
    """Time ``materialize`` of the generator ``build_workload`` returns, and
    in a traced window wrap every layer of the testbed."""
    build = testbed.build_workload

    def build_workload():
        generator = build()
        materialize = generator.materialize

        def timed_materialize(count):
            workload, seconds[0] = timed_call(
                spans, "workload.materialize", materialize, count
            )
            return workload

        generator.materialize = timed_materialize
        return generator

    testbed.build_workload = build_workload
    if spans is not None:
        _instrument(spans, testbed.monitor, testbed.services.db, testbed.dpc,
                    testbed.firewall, testbed.origin_link, testbed.server)


def _testbed_parts(testbed: Testbed) -> tuple:
    return (testbed.monitor, testbed.dpc, testbed.services.db, testbed.origin_link,
            testbed.sniffer)


# -- synthetic testbed: warm_pages, evict_churn --------------------------------


def synthetic_params(name: str) -> SyntheticParams:
    params = WORKLOADS[name]
    return SyntheticParams(
        num_pages=params["num_pages"],
        fragments_per_page=params["fragments_per_page"],
        fragment_size=params["fragment_size"],
        cacheability=params["cacheability"],
    )


def synthetic_config(name: str, seed: int, pages: int) -> TestbedConfig:
    """The Figure 4 testbed configuration of a synthetic workload."""
    params = WORKLOADS[name]
    return TestbedConfig(
        mode="dpc",
        synthetic=synthetic_params(name),
        target_hit_ratio=params["target_hit_ratio"],
        dpc_capacity=params["dpc_capacity"],
        requests=pages,
        warmup_requests=params["warmup"],
        seed=seed,
    )


def synthetic_window(name: str, seed: int, pages: int, traced: bool) -> Window:
    """One window of ``Testbed.run`` with ``serve_once`` timed per page."""
    config = synthetic_config(name, seed, pages)
    warmup = config.warmup_requests
    spans = _new_spans(traced, warmup)
    clock = PageClock(spans, warmup)
    METER.burst()
    started = perf_counter()
    testbed = Testbed(config)
    built = perf_counter()
    clock.wrap_update(testbed.services.db.table(SYNTHETIC_TABLE))
    materialize_s = [0.0]
    _instrument_testbed(spans, testbed, materialize_s)
    parts = _testbed_parts(testbed)
    oracle = _Oracle(spans)
    at_cut: Dict[str, int] = {}
    serve = testbed.serve_once

    def serve_once(request):
        html, serve_s = timed_call(spans, "pipeline", serve, request)
        end = perf_counter()
        clock.end_page(end, serve_s)
        if clock.page >= warmup:
            oracle.check(html, testbed.render_oracle, request)
        elif clock.page == warmup - 1:
            at_cut.update(_counters(*parts))
        clock.exclude(end)
        clock.begin_page(perf_counter())
        return html

    testbed.serve_once = serve_once
    run_start = perf_counter()
    clock.begin_page(run_start)
    result = testbed.run()
    window_s = clock.finish(perf_counter())
    # Testbed.run resets the Sniffer and the DPC scanner at the warmup cut.
    counters = _delta(at_cut, _counters(*parts),
                      reset=("packets", "wire_bytes", "scanned_bytes"))
    counters.update(pages=config.requests, fresh=config.requests)
    return Window(
        **_host_times(name, clock, started,
                      (built - started) + (clock.window_start - run_start), window_s),
        materialize_s=materialize_s[0],
        vresp_s=result.response_times,
        counters=counters,
        accounting=[{field: getattr(result, field) for field in ACCOUNTING_FIELDS}],
        checked=oracle.checked,
        failed=oracle.failed,
        spans=[spans] if spans is not None else [],
    )


def synthetic_reference(name: str, seed: int, pages: int) -> List[Dict[str, object]]:
    """Accounting of an unwrapped ``run_testbed`` with the same config."""
    result = run_testbed(synthetic_config(name, seed, pages))
    return [{field: getattr(result, field) for field in ACCOUNTING_FIELDS}]


# -- flash_crowd: OverloadHarness ------------------------------------------------


def overload_config(seed: int, pages: int, correctness_every: int) -> OverloadConfig:
    """``benchmarks/bench_overload.py``'s DPC topology under a 20x burst."""
    params = WORKLOADS["flash_crowd"]
    testbed = TestbedConfig(
        mode="dpc",
        synthetic=synthetic_params("flash_crowd"),
        target_hit_ratio=params["target_hit_ratio"],
        dpc_capacity=params["dpc_capacity"],
        requests=pages,
        warmup_requests=params["warmup"],
        seed=seed,
        arrivals=FlashCrowdProcess(
            base_rate=6.0, multiplier=params["multiplier"], burst_at=20.0,
            hold_s=5.0, decay_s=2.0, deterministic=True,
        ),
    )
    return OverloadConfig(
        testbed=testbed,
        deadline_s=params["deadline_s"],
        policy=CoDelPolicy(target_s=0.05, interval_s=0.5),
        breaker=CircuitBreaker(failure_threshold=5, open_s=1.0),
        bucket_requests=50,
        correctness_every=correctness_every,
    )


def burst_seeds(seed: int) -> List[int]:
    """The seeds of the flash crowds one window serves back to back."""
    bursts = WORKLOADS["flash_crowd"]["bursts"]
    return [seed * 1000 + burst for burst in range(bursts)]


def _overload_accounting(result) -> Dict[str, object]:
    return {
        "offered": result.offered,
        "fresh": result.completed_fresh,
        "stale": result.completed_stale,
        "shed": result.shed,
        "timed_out": result.timed_out,
        "hits_shed": result.hits_shed,
        "breaker_opens": result.breaker_opens,
        "policy_shed": result.policy_shed,
    }


def _instrument_gate(spans: Spans, harness: OverloadHarness) -> None:
    """Breaker, admission policy, queue offers and the stale page cache."""
    for name in ("allow", "record_success", "record_failure", "release"):
        spans.wrap(harness.breaker, name, "overload.gate")
    spans.wrap(harness.policy, "admit", "overload.gate")
    spans.wrap(harness.app_queue, "offer", "overload.gate")
    spans.wrap(harness.db_queue, "offer", "overload.gate")
    spans.wrap(harness.stale_cache, "serve_stale", "overload.gate")
    spans.wrap(harness.stale_cache, "put", "overload.gate")


def flash_burst(seed: int, pages: int, traced: bool) -> Window:
    """One ``OverloadHarness.run``; a page ends at the harness's observer hook.

    The harness has no public per-request method, so a page's host time is
    its whole closed-loop iteration (gate decisions, serve, accounting) less
    data writes.  The harness's own oracle sampling is off; the benchmark
    checks every fresh page itself, outside the page.
    """
    config = overload_config(seed, pages, correctness_every=0)
    warmup = config.testbed.warmup_requests
    spans = _new_spans(traced, warmup)
    clock = PageClock(spans, warmup)
    METER.burst()
    started = perf_counter()
    harness = OverloadHarness(config)
    built = perf_counter()
    testbed = harness.testbed
    clock.wrap_update(testbed.services.db.table(SYNTHETIC_TABLE))
    materialize_s = [0.0]
    _instrument_testbed(spans, testbed, materialize_s)
    if spans is not None:
        _instrument_gate(spans, harness)
    parts = _testbed_parts(testbed)
    oracle = _Oracle(spans)
    outcomes: Dict[str, int] = {}
    at_cut: Dict[str, int] = {}
    served: List[Optional[str]] = [None]
    serve = testbed.serve_once

    def serve_once(request):
        served[0], _ = timed_call(spans, "pipeline", serve, request)
        return served[0]

    def observer(index, timed, outcome, predicted_hit):
        end = perf_counter()
        clock.end_page(end)
        if clock.page >= warmup:
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome == "fresh":
                oracle.check(served[0], testbed.render_oracle, timed.request)
        elif clock.page == warmup - 1:
            at_cut.update(_counters(*parts))
        served[0] = None
        clock.exclude(end)
        clock.begin_page(perf_counter())

    testbed.serve_once = serve_once
    harness.request_observers.append(observer)
    run_start = perf_counter()
    clock.begin_page(run_start)
    result = harness.run()
    window_s = clock.finish(perf_counter())
    counters = _delta(at_cut, _counters(*parts))
    offered = sum(outcomes.values())
    fresh = outcomes.get("fresh", 0)
    counters.update(
        pages=offered,
        fresh=fresh,
        degraded=offered - fresh,
        bursts=1,
        app_queue_max_depth=result.app_queue.max_depth,
        app_queue_wait_s=result.app_queue.total_wait_s,
        app_queue_admitted=result.app_queue.admitted,
        breaker_opens=result.breaker_opens,
    )
    return Window(
        **_host_times("flash_crowd", clock, started,
                      (built - started) + (clock.window_start - run_start), window_s),
        materialize_s=materialize_s[0],
        vresp_s=result.response_times,
        counters=counters,
        accounting=[_overload_accounting(result)],
        checked=oracle.checked,
        failed=oracle.failed,
        spans=[spans] if spans is not None else [],
    )


def flash_reference(seed: int, pages: int) -> List[Dict[str, object]]:
    """Outcome counts of unwrapped ``run_overload`` runs (oracle on every page)."""
    accounting = []
    for burst_seed in burst_seeds(seed):
        result = run_overload(overload_config(burst_seed, pages, correctness_every=1))
        if result.incorrect_pages:
            raise AssertionError(
                "run_overload found %d incorrect fresh pages" % result.incorrect_pages
            )
        accounting.append(_overload_accounting(result))
    return accounting


# -- books_site: BooksOnline behind the Figure 4 topology -------------------------


def books_config(seed: int, pages: int) -> RealisticConfig:
    """``RealisticConfig`` defaults, resized to the window."""
    return RealisticConfig(
        cached=True, requests=pages, warmup_requests=WORKLOADS["books_site"]["warmup"],
        seed=seed,
    )


def _books_workload(config: RealisticConfig, services) -> WorkloadGenerator:
    """The page mix ``run_realistic`` replays, built from the public API."""
    products = services.db.table(books.PRODUCTS_TABLE)
    categories = sorted({str(row["category"]) for row in products.scan()})
    product_ids = [str(key) for key in products.keys()]
    pages = [PageSpec.create("/home.jsp")]
    pages += [PageSpec.create("/catalog.jsp", {"categoryID": c}) for c in categories]
    pages += [PageSpec.create("/product.jsp", {"productID": p}) for p in product_ids[:10]]
    population = UserPopulation(
        user_ids=["user%03d" % i for i in range(config.registered_users)],
        registered_fraction=config.registered_fraction,
    )
    return WorkloadGenerator(
        pages=pages,
        population=population,
        arrivals=PoissonProcess(rate=config.arrival_rate),
        page_alpha=1.0,
        seed=config.seed,
    )


def books_window(seed: int, pages: int, traced: bool) -> Window:
    """One window of BooksOnline, driven page by page.

    ``run_realistic`` has no per-request entry point, so this replays its
    loop over the ``repro.sites.books`` builders; ``books_reference`` checks
    that the origin bytes and hit ratio equal ``run_realistic``'s.
    """
    config = books_config(seed, pages)
    warmup = config.warmup_requests
    capacity = WORKLOADS["books_site"]["dpc_capacity"]
    spans = _new_spans(traced, warmup)
    clock = PageClock(spans, warmup)
    METER.burst()
    started = perf_counter()
    vclock = SimulatedClock()
    services = books.build_services(seed=config.seed)
    bem = BackEndMonitor(capacity=capacity, clock=vclock)
    server = books.build_server(
        services=services, clock=vclock, bem=bem, cost_model=GenerationCostModel()
    )
    bem.attach_database(services.db.bus)
    dpc = DynamicProxyCache(capacity=capacity)
    firewall = Firewall()
    link = Channel(
        "origin-link", "external", "origin",
        link=LinkParameters(), overhead=ProtocolOverheadModel(), clock=vclock,
    )
    sniffer = link.attach_sniffer()
    update_rng = random.Random(config.seed + 99)
    products = services.db.table(books.PRODUCTS_TABLE)
    product_ids = [str(key) for key in products.keys()]
    generator = _books_workload(config, services)
    clock.wrap_update(products)
    parts = (bem, dpc, services.db, link, sniffer)
    if spans is not None:
        _instrument(spans, bem, services.db, dpc, firewall, link, server)
    workload, materialize_s = timed_call(
        spans, "workload.materialize", generator.materialize, warmup + pages
    )

    def serve(request):
        start = vclock.now()
        vclock.advance(firewall.scan_bytes(request.payload_bytes))
        link.send(request_message(request.payload_bytes, "external", "origin"))
        response = server.handle(request)
        link.send(response_message(response.payload_bytes, "origin", "external"))
        vclock.advance(firewall.scan_bytes(response.payload_bytes))
        html = dpc.process_response(response.body).html
        return html, vclock.now() - start

    oracle = _Oracle(spans)
    at_cut: Dict[str, int] = {}
    response_at_cut = (0, 0)
    vresp: List[float] = []
    clock.begin_page(perf_counter())
    for timed in workload:
        vclock.advance_to(timed.at)
        if update_rng.random() < config.update_probability:
            product = update_rng.choice(product_ids)
            products.update(
                {"price": round(update_rng.uniform(3.0, 80.0), 2)}, key=product
            )
        (html, elapsed), serve_s = timed_call(spans, "pipeline", serve, timed.request)
        end = perf_counter()
        clock.end_page(end, serve_s)
        if clock.page >= warmup:
            vresp.append(elapsed)
            oracle.check(html, server.render_reference_page, timed.request)
        elif clock.page == warmup - 1:
            at_cut.update(_counters(*parts))
            responses = sniffer.counters("response")
            response_at_cut = (responses.payload_bytes, responses.wire_bytes)
        clock.exclude(end)
        clock.begin_page(perf_counter())
    window_s = clock.finish(perf_counter())
    counters = _delta(at_cut, _counters(*parts))
    counters.update(pages=pages, fresh=pages)
    responses = sniffer.counters("response")
    accesses = counters["hits"] + counters["misses"]
    return Window(
        **_host_times("books_site", clock, started, clock.window_start - started, window_s),
        materialize_s=materialize_s,
        vresp_s=vresp,
        counters=counters,
        accounting=[{
            "origin_payload_bytes": responses.payload_bytes - response_at_cut[0],
            "origin_wire_bytes": responses.wire_bytes - response_at_cut[1],
            "measured_hit_ratio": counters["hits"] / accesses if accesses else 0.0,
        }],
        checked=oracle.checked,
        failed=oracle.failed,
        spans=[spans] if spans is not None else [],
    )


def books_reference(seed: int, pages: int) -> List[Dict[str, object]]:
    """Origin bytes and hit ratio of ``run_realistic`` for the same seed."""
    result = run_realistic(books_config(seed, pages))
    if result.pages_incorrect:
        raise AssertionError(
            "run_realistic found %d incorrect pages" % result.pages_incorrect
        )
    return [{
        "origin_payload_bytes": result.origin_payload_bytes,
        "origin_wire_bytes": result.origin_wire_bytes,
        "measured_hit_ratio": result.measured_hit_ratio,
    }]


# -- dispatch ------------------------------------------------------------------------


def window(name: str, seed: int, traced: bool = False, pages: Optional[int] = None) -> Window:
    """One measured window of workload ``name`` (``pages`` overrides its size)."""
    pages = pages or WORKLOADS[name]["pages"]
    if name == "flash_crowd":
        return merge([flash_burst(s, pages, traced) for s in burst_seeds(seed)])
    if name == "books_site":
        return books_window(seed, pages, traced)
    return synthetic_window(name, seed, pages, traced)


def reference(name: str, seed: int) -> List[Dict[str, object]]:
    """The unwrapped runs' accounting each window's must equal."""
    pages = WORKLOADS[name]["pages"]
    if name == "flash_crowd":
        return flash_reference(seed, pages)
    if name == "books_site":
        return books_reference(seed, pages)
    return synthetic_reference(name, seed, pages)
