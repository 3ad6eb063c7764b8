"""The Figure 4 test configuration, end to end.

Two machines joined by a measured link::

    Clients  -->  [ External: firewall + proxy cache + DPC ]
                        |            ^
                        v  (origin link, Sniffer attached)
                  [ Origin Site: web server + BEM + DBMS ]

The Sniffer counts every byte crossing the origin link, requests and
responses, payload and TCP/IP headers — exactly the measurement the paper
reports.  The testbed replays one seeded workload against a chosen origin
configuration (``no_cache``, ``dpc``, or ``backend``) and returns byte
counts, measured hit ratio, and response-time statistics.

Hit-ratio control: the experiments of Figures 5/3(b)/6 are parameterized by
a *target* hit ratio ``h``.  The testbed reaches it through the honest
path — before each request, each cacheable fragment on the requested page
is touched in the database with probability ``1 - h`` (update -> trigger ->
BEM invalidation), so a cacheable block access is a hit with probability
``h`` once the cache is warm.  The measured ratio is reported alongside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..appserver.http import HttpRequest
from ..appserver.server import ApplicationServer
from ..baselines.backend_cache import BackendFragmentCache
from ..core.bem import BackEndMonitor
from ..core.dpc import DynamicProxyCache
from ..core.template import TemplateConfig
from ..errors import ConfigurationError, DeliveryTimeoutError, NetworkError
from ..network import (
    Channel,
    Firewall,
    LinkParameters,
    ProtocolOverheadModel,
    SimulatedClock,
    request_message,
    response_message,
)
from ..network.latency import GenerationCostModel
from ..sites import synthetic
from ..telemetry.stats import percentile
from ..telemetry.tracing import Tracer
from ..sites.synthetic import SyntheticParams, touch_fragment
from ..workload import (
    ArrivalProcess,
    DeterministicProcess,
    WorkloadGenerator,
    synthetic_pages,
)

MODES = ("no_cache", "dpc", "backend")


@dataclass
class TestbedConfig:
    """One testbed run's knobs."""

    __test__ = False  # not a pytest class, despite the name

    mode: str = "dpc"
    synthetic: SyntheticParams = field(default_factory=SyntheticParams)
    target_hit_ratio: Optional[float] = 0.8
    requests: int = 2000
    warmup_requests: int = 200
    seed: int = 42
    arrival_rate: float = 100.0
    #: Custom arrival process (e.g. a flash crowd); overrides
    #: ``arrival_rate`` when set.
    arrivals: Optional[ArrivalProcess] = None
    #: Relative per-request deadline stamped onto every generated request
    #: (``None`` keeps the deadline-free pre-overload behavior).
    deadline_s: Optional[float] = None
    overhead: ProtocolOverheadModel = field(default_factory=ProtocolOverheadModel)
    cost_model: GenerationCostModel = field(default_factory=GenerationCostModel)
    origin_link: LinkParameters = field(default_factory=LinkParameters)
    dpc_capacity: int = 4096
    template_key_width: int = 4
    #: Check assembled pages against the no-cache oracle every N requests
    #: (0 disables the check).
    correctness_every: int = 0
    #: Record a virtual-time span tree for every request
    #: (:mod:`repro.telemetry`).  Off by default: untraced runs keep the
    #: exact single-advance float arithmetic they always had.
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError("mode must be one of %s" % (MODES,))
        if self.target_hit_ratio is not None and not 0.0 <= self.target_hit_ratio <= 1.0:
            raise ConfigurationError("target_hit_ratio must be in [0, 1]")
        if self.requests <= 0 or self.warmup_requests < 0:
            raise ConfigurationError("request counts must be sensible")


@dataclass
class TestbedResult:
    """Measurements over the post-warmup window."""

    __test__ = False  # not a pytest class, despite the name

    mode: str
    requests: int
    # Origin-link traffic (the Sniffer's view)
    response_payload_bytes: int = 0
    response_wire_bytes: int = 0
    request_payload_bytes: int = 0
    request_wire_bytes: int = 0
    # Cache behaviour
    measured_hit_ratio: float = 0.0
    fragments_invalidated: int = 0
    # Latency
    response_times: List[float] = field(default_factory=list)
    # Correctness
    pages_checked: int = 0
    pages_incorrect: int = 0
    # Scanning work (for Result 1)
    firewall_bytes: int = 0
    dpc_scanned_bytes: int = 0

    @property
    def total_wire_bytes(self) -> int:
        """Request plus response wire bytes on the origin link."""
        return self.response_wire_bytes + self.request_wire_bytes

    @property
    def mean_response_time(self) -> float:
        """Mean end-to-end response time over the measured window."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    def percentile_response_time(self, q: float) -> float:
        """Response-time quantile ``q`` in [0, 1] (nearest-rank).

        Delegates to :func:`repro.telemetry.stats.percentile` so every
        harness reports quantiles under the same rank convention.
        """
        return percentile(self.response_times, q)


class Testbed:
    """Builds the topology and replays a workload through it."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.clock = SimulatedClock()
        template_config = TemplateConfig(key_width=config.template_key_width)

        # Origin side.
        self.services = synthetic.build_services(config.synthetic)
        self.monitor = self._build_monitor(template_config)
        self.server = synthetic.build_server(
            params=config.synthetic,
            services=self.services,
            clock=self.clock,
            bem=self.monitor,
            cost_model=config.cost_model,
            template_config=template_config,
        )
        if self.monitor is not None:
            self.monitor.attach_database(self.services.db.bus)

        # External side.
        self.firewall = Firewall()
        self.dpc = (
            DynamicProxyCache(
                capacity=config.dpc_capacity,
                template_config=template_config,
                name="dpc-external",
            )
            if config.mode == "dpc"
            else None
        )

        # The measured link.
        self.origin_link = Channel(
            "origin-link",
            endpoint_a="external",
            endpoint_b="origin",
            link=config.origin_link,
            overhead=config.overhead,
            clock=self.clock,
        )
        self.sniffer = self.origin_link.attach_sniffer()

        # Observability: one tracer shared by every clock-advancing
        # component, so a request's span tree tiles its virtual latency.
        self.tracer = Tracer(self.clock, enabled=config.tracing)
        self.server.tracer = self.tracer
        self.origin_link.tracer = self.tracer
        self.services.db.tracer = self.tracer

        self._hit_rng = random.Random(config.seed + 1)
        self._oracle = self._build_oracle_server()

        #: Set by ``RunLoop.arm_faults``: retried delivery for both link
        #: transfers, and the resync that quarantines undelivered SETs.
        self.delivery = None
        self.resync = None

    def _build_monitor(self, template_config: TemplateConfig):
        config = self.config
        if config.mode == "no_cache":
            return None
        if config.mode == "dpc":
            return BackEndMonitor(
                capacity=config.dpc_capacity,
                clock=self.clock,
                template_config=template_config,
            )
        return BackendFragmentCache(
            capacity=config.dpc_capacity, clock=self.clock
        )

    def _build_oracle_server(self) -> ApplicationServer:
        """A plain server over the SAME services, for page oracles."""
        return synthetic.build_server(
            params=self.config.synthetic,
            services=self.services,
            clock=self.clock,
            bem=None,
            cost_model=GenerationCostModel(
                request_dispatch_s=0.0,
                compute_per_byte_s=0.0,
                block_overhead_s=0.0,
                cross_tier_hop_s=0.0,
                db_connection_wait_s=0.0,
                db_row_cost_s=0.0,
                conversion_per_byte_s=0.0,
                directory_lookup_s=0.0,
                dpc_slot_op_s=0.0,
            ),
        )

    # -- workload -----------------------------------------------------------------

    def build_workload(self) -> WorkloadGenerator:
        """The seeded workload generator for this configuration."""
        arrivals = (
            self.config.arrivals
            if self.config.arrivals is not None
            else DeterministicProcess(rate=self.config.arrival_rate)
        )
        return WorkloadGenerator(
            pages=synthetic_pages(self.config.synthetic.num_pages),
            arrivals=arrivals,
            seed=self.config.seed,
            deadline_s=self.config.deadline_s,
        )

    # -- driving ---------------------------------------------------------------------

    def run(self) -> TestbedResult:
        """Replay the workload; returns post-warmup measurements."""
        config = self.config
        total = config.warmup_requests + config.requests
        workload = self.build_workload().materialize(total)

        result = TestbedResult(mode=config.mode, requests=config.requests)
        hits_at_cut = misses_at_cut = 0
        invalidated_at_cut = 0

        for index, timed in enumerate(workload):
            measuring = index >= config.warmup_requests
            if index == config.warmup_requests:
                self.sniffer.reset()
                self.firewall.reset()
                if self.dpc is not None:
                    self.dpc.scanner.reset_counters()
                hits_at_cut, misses_at_cut = self._monitor_hit_counts()
                invalidated_at_cut = self._monitor_invalidations()

            self.clock.advance_to(timed.at)
            self._churn_fragments(timed.request)
            start = self.clock.now()
            html = self.serve_once(timed.request)
            elapsed = self.clock.now() - start
            self.tracer.annotate_last(elapsed_s=elapsed)

            if measuring:
                result.response_times.append(elapsed)
                if (
                    config.correctness_every
                    and (index - config.warmup_requests) % config.correctness_every == 0
                ):
                    result.pages_checked += 1
                    oracle = self.render_oracle(timed.request)
                    if html != oracle:
                        result.pages_incorrect += 1

        hits, misses = self._monitor_hit_counts()
        window_hits = hits - hits_at_cut
        window_misses = misses - misses_at_cut
        if window_hits + window_misses:
            result.measured_hit_ratio = window_hits / (window_hits + window_misses)
        result.fragments_invalidated = (
            self._monitor_invalidations() - invalidated_at_cut
        )

        responses = self.sniffer.counters("response")
        requests_ = self.sniffer.counters("request")
        result.response_payload_bytes = responses.payload_bytes
        result.response_wire_bytes = responses.wire_bytes
        result.request_payload_bytes = requests_.payload_bytes
        result.request_wire_bytes = requests_.wire_bytes
        result.firewall_bytes = self.firewall.bytes_scanned
        if self.dpc is not None:
            result.dpc_scanned_bytes = self.dpc.bytes_scanned
        return result

    # -- per-request pipeline -----------------------------------------------------

    def render_oracle(self, request: HttpRequest) -> str:
        """The reference (caching-disabled) page for a request.

        Rendered by a zero-cost server over the *same* services, so it is
        byte-comparable with whatever the cached pipeline delivered — the
        assembly-correctness oracle used by chaos and correctness checks.
        """
        return self._oracle.render_reference_page(request)

    def serve_once(self, request: HttpRequest) -> str:
        """One request through the Figure 4 pipeline; returns final HTML.

        With tracing enabled this opens the request's root span (unless an
        outer harness already did) and wraps every clock advance in a leaf
        span — firewall scans, link transfers (the channel's own spans),
        origin generation, and proxy-side assembly — so the finished tree
        tiles the measured virtual response time exactly.  A response
        transfer that fails even after retries quarantines its SETs.
        """
        config = self.config
        with self.tracer.request_span(request, mode=config.mode) as root:
            request = self.tracer.propagate(request)
            self._request_leg(request)

            # Origin generates (advances the clock internally).
            response = self.server.handle(request)

            try:
                self._response_leg(request, response.payload_bytes)
            except (NetworkError, DeliveryTimeoutError):
                if self.resync is not None:
                    # The template never reached the proxy: every SET on it
                    # is unconfirmed and must be quarantined, or a recycled
                    # slot could later serve a predecessor fragment's bytes.
                    self.resync.quarantine_undelivered(
                        response.body, self.clock.now()
                    )
                raise

            # Proxy-side processing.
            if self.dpc is None:
                return response.body
            with self.tracer.span("dpc.assemble") as assemble_span:
                scanned_before = self.dpc.bytes_scanned
                assembled = self.dpc.process_response(response.body)
                scan_bytes = self.dpc.bytes_scanned - scanned_before
                self.clock.advance(
                    scan_bytes * self.firewall.scan_cost_per_byte  # z ~= y (§5)
                    + config.cost_model.assembly_cost(
                        assembled.fragments_set + assembled.fragments_get
                    )
                )
                assemble_span.annotate(
                    fragments_set=assembled.fragments_set,
                    fragments_get=assembled.fragments_get,
                )
            root.annotate(
                hit=assembled.fragments_get > 0 and assembled.fragments_set == 0
            )
            return assembled.html

    def serve_bypass(self, request: HttpRequest) -> str:
        """The paper's fallback while the proxy is down: a full uncached page.

        The request and response legs are :meth:`serve_once`'s; the origin
        renders the page with caching disabled and ships every byte of it.
        """
        self._request_leg(request)
        html = self.render_oracle(request)
        self._response_leg(request, len(html.encode("utf-8")), bypass=True)
        return html

    def _request_leg(self, request: HttpRequest) -> None:
        """Client -> external -> origin: firewall scan, then the link."""
        with self.tracer.span("firewall.scan", direction="request"):
            self.clock.advance(self.firewall.scan_bytes(request.payload_bytes))
        self._send(request_message(
            request.payload_bytes, source="external", destination="origin"
        ))

    def _response_leg(
        self, request: HttpRequest, payload_bytes: int, **meta: object
    ) -> None:
        """Origin -> external over the link, then the firewall scan."""
        self._send(response_message(
            payload_bytes, source="origin", destination="external",
            page=request.url, **meta,
        ))
        with self.tracer.span("firewall.scan", direction="response"):
            self.clock.advance(self.firewall.scan_bytes(payload_bytes))

    def _send(self, message) -> None:
        if self.delivery is None:
            self.origin_link.send(message)
        else:
            self.delivery.deliver(lambda: self.origin_link.send(message))

    def _churn_fragments(self, request: HttpRequest) -> None:
        """Drive the target hit ratio via real data updates."""
        h = self.config.target_hit_ratio
        if h is None or h >= 1.0:
            return
        page_id = int(request.param("pageID", "0"))
        for pool_index in self.config.synthetic.pool_indexes_for_page(page_id):
            if not self.config.synthetic.is_cacheable(pool_index):
                continue
            if self._hit_rng.random() < 1.0 - h:
                touch_fragment(self.services, pool_index)

    # -- monitor introspection ----------------------------------------------------

    def _monitor_hit_counts(self):
        if self.monitor is None:
            return 0, 0
        if isinstance(self.monitor, BackEndMonitor):
            return (
                self.monitor.stats.fragment_hits,
                self.monitor.stats.fragment_misses,
            )
        return self.monitor.stats.hits, self.monitor.stats.misses

    def _monitor_invalidations(self) -> int:
        if self.monitor is None:
            return 0
        return self.monitor.invalidation.fragments_invalidated


def run_testbed(config: TestbedConfig) -> TestbedResult:
    """Convenience one-shot: build, run, return."""
    return Testbed(config).run()
