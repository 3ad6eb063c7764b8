"""The one run loop behind chaos and overload runs.

Each offered request goes through the same steps::

    advance to arrival -> fault tick -> churn -> gate (breaker + admission)
      -> serve (Testbed.serve_once) -> recover / bypass / degrade
      -> classify -> account -> observers

and ends in exactly one of six outcomes (:data:`OUTCOMES`), so every run
checks ``fresh + stale + shed + timed_out + failed + bypass == offered``.
A scenario is a choice of parts: the chaos harness arms the fault machinery
(retried delivery, resync, the fault schedule, BEM bypass while the proxy
is down) and nothing else; the overload harness adds queues, the gate and
the brown-out fallbacks, and arms the fault machinery only when its config
lists faults.  Steps whose parts are absent cost nothing per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..core.bem import BackEndMonitor
from ..core.fragments import FragmentID
from ..errors import (
    AssemblyError,
    ConfigurationError,
    DeadlineExceededError,
    DeliveryTimeoutError,
    NetworkError,
    ProxyUnavailableError,
    QueueFullError,
    RecoveryError,
)
from ..harness.testbed import Testbed, TestbedConfig
from ..telemetry.stats import percentile
from .degradation import DegradationStats, GracefulDegrader
from .injectors import FaultContext, FaultInjector, FaultSchedule
from .recovery import RecoveryEvent, RecoveryStats, ResyncProtocol
from .retry import DeliveryStats, ReliableDelivery

#: Every request ends in exactly one of these.
OUTCOMES = ("fresh", "stale", "shed", "timed_out", "failed", "bypass")
#: Outcome -> (result counter, bucket counter) it increments.
_COUNTERS = {
    "fresh": ("completed_fresh", "fresh"),
    "stale": ("completed_stale", "stale"),
    "shed": ("shed", "shed"),
    "timed_out": ("timed_out", "timed_out"),
    "failed": ("failed", "failed"),
    "bypass": ("bypassed", "bypassed"),
}


@dataclass
class RunBucket:
    """One time-series point: counters over ``bucket_requests`` requests."""

    index: int
    start_request: int
    start_time: float
    requests: int = 0
    fresh: int = 0
    stale: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    bypassed: int = 0
    #: BEM fragment hits/misses and origin-link wire bytes in the bucket.
    hits: int = 0
    misses: int = 0
    wire_bytes: int = 0
    #: App-queue waiting-room depth observed when the bucket closed.
    queue_depth: int = 0
    response_times: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Requests that received some page (fresh or stale)."""
        return self.fresh + self.stale

    @property
    def hit_ratio(self) -> float:
        """Fragment hit ratio over this bucket's cacheable accesses."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def p99(self) -> float:
        """Tail response time of pages delivered in this bucket."""
        return percentile(self.response_times, 0.99)


@dataclass
class RunResult:
    """What one run measured; the harnesses add their own views."""

    offered: int = 0
    warmup_requests: int = 0
    completed_fresh: int = 0
    completed_stale: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    bypassed: int = 0
    #: Predicted cache-hit requests that ended shed — the acceptance bar
    #: requires this to stay exactly zero.
    hits_shed: int = 0
    predicted_hits: int = 0
    predicted_misses: int = 0
    buckets: List[RunBucket] = field(default_factory=list)
    #: Post-warmup response times of delivered pages.
    response_times: List[float] = field(default_factory=list)
    pages_checked: int = 0
    incorrect_pages: int = 0
    recovered_requests: int = 0
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    recovery: Optional[RecoveryStats] = None
    degradation: Optional[DegradationStats] = None
    delivery: Optional[DeliveryStats] = None
    messages_dropped: int = 0

    @property
    def completed(self) -> int:
        """Requests that received some page (fresh or stale)."""
        return self.completed_fresh + self.completed_stale

    @property
    def conserved(self) -> bool:
        """The six outcome classes tile the offered traffic exactly."""
        return (
            self.completed + self.shed + self.timed_out + self.failed
            + self.bypassed == self.offered
        )

    def check_conservation(self) -> None:
        """Raise if any request was dropped without a named outcome."""
        if not self.conserved:
            counts = tuple(getattr(self, total) for total, _ in _COUNTERS.values())
            raise ConfigurationError(
                "conservation violated: %d fresh + %d stale + %d shed + %d "
                "timed out + %d failed + %d bypass != %d offered"
                % (counts + (self.offered,))
            )

    def p50(self) -> float:
        """Median post-warmup response time of delivered pages."""
        return percentile(self.response_times, 0.50)

    def p99(self) -> float:
        """Tail post-warmup response time of delivered pages."""
        return percentile(self.response_times, 0.99)


class RunLoop:
    """Replays a testbed workload; subclasses choose the parts."""

    #: The result type this harness reports.
    result_type = RunResult
    #: Annotate each delivered page's root span with its latency from
    #: arrival (``elapsed_s``).
    trace_latency = True
    #: Gate and brown-out parts; ``None`` leaves each step out.
    policy = None
    breaker = None
    app_queue = None
    stale_cache = None
    ledger = None
    bypass_when_down = True

    def __init__(self, testbed: TestbedConfig, bucket_requests: int,
                 correctness_every: int, grace_s: float = 0.0) -> None:
        self.testbed = Testbed(testbed)
        self.bucket_requests = bucket_requests
        self.correctness_every = correctness_every
        monitor = self.testbed.monitor
        self.degrader = (
            GracefulDegrader(bem=monitor, grace_s=grace_s)
            if isinstance(monitor, BackEndMonitor) else None
        )
        self.schedule: Optional[FaultSchedule] = None
        #: Per-request observers, called as ``observer(index, timed,
        #: outcome, predicted_hit)`` after each request is accounted.
        self.request_observers: List = []
        self._current: Optional[RunBucket] = None
        self._fresh_pages = 0  # drives the every-Nth oracle check
        self._stale_serves_mark = 0
        self._recovered = 0

    def arm_faults(self, faults: List[FaultInjector], seed: int) -> None:
        """Install seeded retried delivery, resync and the fault schedule."""
        tb = self.testbed
        if tb.dpc is None:
            raise ConfigurationError("fault injection requires mode='dpc'")
        tb.delivery = ReliableDelivery(clock=tb.clock, seed=seed, tracer=tb.tracer)
        tb.resync = ResyncProtocol(tb.monitor, tb.dpc)
        self.schedule = FaultSchedule(faults)
        self.context = FaultContext(
            clock=tb.clock, bem=tb.monitor, dpc=tb.dpc, channel=tb.origin_link,
        )

    def run(self) -> RunResult:
        """Replay the workload; returns the harness's result."""
        tb = self.testbed
        config = tb.config
        total = config.warmup_requests + config.requests
        workload = tb.build_workload().materialize(total)
        result = self.result_type(warmup_requests=config.warmup_requests)
        for index, timed in enumerate(workload):
            if index % self.bucket_requests == 0:
                self._roll_bucket(result, index)
            tb.clock.advance_to(timed.at)
            if self.schedule is not None:
                self.schedule.tick(self.context, tb.clock.now())
            tb._churn_fragments(timed.request)
            with tb.tracer.request_span(timed.request) as root:
                with tb.tracer.span("dpc.lookup") as lookup:
                    predicted_hit = self._predicted_full_hit(timed.request)
                    lookup.annotate(predicted_hit=predicted_hit)
                outcome, html = self._serve(timed, predicted_hit)
                root.annotate(outcome=outcome, predicted_hit=predicted_hit)
            self._account(result, index, timed, outcome, html, predicted_hit)
            for observer in self.request_observers:
                observer(index, timed, outcome, predicted_hit)
            if self.degrader is not None:
                self.degrader.revalidate_due()

        self._roll_bucket(result, None)
        self.finish(result)
        result.check_conservation()
        return result

    def finish(self, result: RunResult) -> None:
        """Copy the parts' end-of-run counters onto the result."""
        tb = self.testbed
        result.recovered_requests = self._recovered
        result.messages_dropped = tb.origin_link.messages_dropped
        if self.degrader is not None:
            result.degradation = self.degrader.stats
        if tb.resync is not None:
            result.recovery = tb.resync.stats
            result.recovery_events = list(tb.resync.stats.events)
            result.delivery = tb.delivery.stats

    # -- one request -----------------------------------------------------------

    def _serve(self, timed, predicted_hit: bool):
        """Gate, serve, fall back and classify: ``(outcome, html)``."""
        tb = self.testbed
        request = timed.request
        if predicted_hit:
            request = replace(request, priority=1)
        now = tb.clock.now()
        # The gate applies only to origin-bound misses: a predicted cache
        # hit is never held by the breaker nor shed by admission control.
        gated = not predicted_hit and tb.dpc is not None
        breaker = self.breaker if gated else None
        if breaker is not None and not breaker.allow(now):
            # Brown-out: the breaker holds origin-bound regeneration work.
            self.degrader.record_brownout()
            return self._degrade(request, now, "breaker_open")
        if gated and self.policy is not None and not self.policy.admit(
            now, self.app_queue.depth(timed.at),
            self.app_queue.expected_wait(timed.at),
        ):
            if breaker is not None:
                # The trip never happened: hand back the (possibly
                # half-open probe) slot so the breaker cannot wedge on a
                # phantom in-flight probe.
                breaker.release(now)
            return self._degrade(request, now, "policy_shed")

        bypass = self.schedule is not None and self.schedule.proxy_down(now)
        try:
            if not bypass:
                html = self._assemble(request)
            elif self.bypass_when_down:
                html = tb.serve_bypass(request)
                self.degrader.record_bypass(len(html.encode("utf-8")))
            else:
                raise ProxyUnavailableError("DPC down and bypass disabled")
        except (QueueFullError, DeadlineExceededError) as exc:
            # Turned away at the origin door: no script ran, nothing desyncs.
            now = tb.clock.now()
            if breaker is not None:
                breaker.record_failure(now)
            full = isinstance(exc, QueueFullError)
            return self._degrade(
                request, now, "queue_full" if full else "deadline_exceeded"
            )
        except (NetworkError, DeliveryTimeoutError, ProxyUnavailableError):
            if breaker is not None:
                breaker.record_failure(tb.clock.now())
            self.degrader.record_failure()
            return "failed", None

        now = tb.clock.now()
        late = request.deadline_at is not None and now > request.deadline_at
        if breaker is not None:
            if late:
                breaker.record_failure(now)
            else:
                breaker.record_success(now)
        if bypass:
            return "bypass", html
        stale = False
        if self.degrader is not None:
            served = tb.monitor.stats.stale_fragment_serves
            stale, self._stale_serves_mark = served > self._stale_serves_mark, served
        if late:
            # A page past its deadline is not a success, even when stale
            # fragments were leaned on along the way.  The template still
            # reached the DPC (the cache stays warm) but the client-visible
            # page goes through the deadline path.
            return self._degrade(request, now, "deadline_exceeded")
        # Stale fragments substituted under deadline pressure deliver the
        # page, but it counts as correctness exposure.
        return ("stale" if stale else "fresh"), html

    def _assemble(self, request) -> str:
        """``serve_once``, with fail-stop recovery and epoch checks when armed."""
        tb = self.testbed
        try:
            html = tb.serve_once(request)
        except AssemblyError:
            # Fail-stop tripped: the directory references slots the DPC no
            # longer holds.  Run recovery, then retry the request once.
            if tb.resync is None:
                raise
            with tb.tracer.span("faults.recover", trigger="assembly_error"):
                tb.resync.recover(tb.clock.now())
            try:
                html = tb.serve_once(request)
            except AssemblyError as exc:
                raise RecoveryError(
                    "assembly still failing after recovery: %s" % exc
                ) from exc
            self._recovered += 1
            return html
        if tb.resync is not None:
            # Epoch detection on normal returning traffic.
            tb.resync.observe_epoch(tb.dpc.epoch, tb.clock.now())
        return html

    def _degrade(self, request, now: float, reason: str):
        """Stale fallback if possible, else a named drop: ``(outcome, html)``.

        The ledger counts only requests that got *nothing* — a stale serve
        is a degraded success, accounted through the degradation stats.
        """
        if self.stale_cache is not None:
            html = self.stale_cache.serve_stale(request.url, now)
            if html is not None:
                self.degrader.record_stale_page(len(html.encode("utf-8")))
                return "stale", html
        self.ledger.record(reason)
        if self.degrader is not None:
            self.degrader.record_failure()
        self._note_shed_fragments(request)
        return ("timed_out" if reason == "deadline_exceeded" else "shed"), None

    def _fragment_freshness(self, request):
        """Yield ``(fragment_id, fresh)`` for the page's cacheable fragments.

        Only non-mutating directory peeks, so walking never perturbs TTL
        bookkeeping.  Yields nothing without a BEM.
        """
        monitor = self.testbed.monitor
        if not isinstance(monitor, BackEndMonitor):
            return
        params = self.testbed.config.synthetic
        page_id = int(request.param("pageID", "0"))
        now = self.testbed.clock.now()
        for pool_index in params.pool_indexes_for_page(page_id):
            if params.is_cacheable(pool_index):
                fragment_id = FragmentID.create("frag", {"id": pool_index})
                entry = monitor.directory.peek(fragment_id)
                yield fragment_id, (
                    entry is not None and entry.is_valid and entry.fresh(now)
                )

    def _predicted_full_hit(self, request) -> bool:
        """Whether every cacheable fragment of this page is fresh in the BEM.

        This is the proxy-side hit predictor.  A page with no cacheable
        fragments is origin-bound by definition.
        """
        saw_cacheable = False
        for _, fresh in self._fragment_freshness(request):
            if not fresh:
                return False
            saw_cacheable = True
        return saw_cacheable

    def _note_shed_fragments(self, request) -> None:
        """Tell the insight ledger which refill opportunities were shed.

        A shed (or screened-out) request would have regenerated every
        cacheable fragment of its page that is currently absent or unfresh;
        with a miss-cause ledger attached to the directory
        (:meth:`repro.core.cache_directory.CacheDirectory.attach_insight`),
        the *next* miss on each of those fragments is attributed to
        ``shed_overload`` instead of whatever removed it.
        """
        monitor = self.testbed.monitor
        if isinstance(monitor, BackEndMonitor) and monitor.directory.insight:
            for fragment_id, fresh in self._fragment_freshness(request):
                if not fresh:
                    monitor.directory.insight.note_shed(fragment_id.canonical())

    # -- accounting ------------------------------------------------------------

    def _account(
        self, result: RunResult, index: int, timed, outcome: str, html,
        predicted_hit: bool,
    ) -> None:
        tb = self.testbed
        bucket = self._current
        result.offered += 1
        bucket.requests += 1
        if predicted_hit:
            result.predicted_hits += 1
        else:
            result.predicted_misses += 1
        if outcome in ("fresh", "stale"):
            elapsed = tb.clock.now() - timed.at
            bucket.response_times.append(elapsed)
            if index >= result.warmup_requests:
                result.response_times.append(elapsed)
            if self.trace_latency:
                tb.tracer.annotate_last(elapsed_s=elapsed)
        total, per_bucket = _COUNTERS[outcome]
        setattr(result, total, getattr(result, total) + 1)
        setattr(bucket, per_bucket, getattr(bucket, per_bucket) + 1)
        if outcome == "fresh":
            self._fresh_pages += 1
            if (
                self.correctness_every
                and self._fresh_pages % self.correctness_every == 0
            ):
                result.pages_checked += 1
                if html != tb.render_oracle(timed.request):
                    result.incorrect_pages += 1
            if self.stale_cache is not None:
                # Only pages that came through the normal pipeline are
                # remembered, so brown-out staleness cannot compound.
                self.stale_cache.put(timed.request.url, html, tb.clock.now())
        elif outcome == "shed" and predicted_hit:
            result.hits_shed += 1

    def _roll_bucket(self, result: RunResult, index: Optional[int]) -> None:
        """Close the current bucket, then open one at ``index`` (if any)."""
        tb = self.testbed
        marks = tb._monitor_hit_counts() + (tb.sniffer.total_wire_bytes,)
        bucket = self._current
        if bucket is not None:
            bucket.hits, bucket.misses, bucket.wire_bytes = (
                now - then for now, then in zip(marks, self._marks)
            )
            if self.app_queue is not None:
                bucket.queue_depth = self.app_queue.depth(tb.clock.now())
            result.buckets.append(bucket)
        self._marks = marks
        self._current = None if index is None else RunBucket(
            index=len(result.buckets), start_request=index,
            start_time=tb.clock.now(),
        )
