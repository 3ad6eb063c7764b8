"""Overload harness: a Figure 4 testbed run through a flash crowd.

Replays a seeded workload — typically a
:class:`~repro.workload.arrivals.FlashCrowdProcess` burst — through the
standard testbed topology with the overload-protection machinery armed:

* bounded c-server queues in front of the application server and the DBMS
  connection pool (:mod:`repro.overload.queues`), so virtual generation
  time includes queueing delay and saturation produces queue-full
  rejections instead of free service;
* per-request deadlines stamped by the workload generator and propagated
  end to end; a page delivered past its deadline is not a success;
* admission control (:mod:`repro.overload.admission`) and a circuit
  breaker (:mod:`repro.overload.breaker`) applied **only to origin-bound
  misses** — a predicted cache hit is never consulted against either,
  which is the structural form of the "hits are never shed" guarantee;
* page-granularity brown-out serving from a
  :class:`~repro.overload.stale.StalePageCache`, and fragment-granularity
  stale-on-late through the BEM's degrader hook
  (:meth:`repro.core.bem.BackEndMonitor.process_block`).

The harness is the shared run loop (:mod:`repro.faults.runloop`) with
these parts installed; listing ``faults`` arms the fault machinery too, so
a crash or partition can land in the middle of a burst.  Every request
ends in exactly one of the loop's six outcomes, and a
:class:`~repro.overload.accounting.DropLedger` row names every rejection
path.  Fresh pages are oracle-checked against the caching-disabled
reference; stale pages are counted as correctness *exposure* (never
re-stored, so staleness cannot compound) rather than checked, exactly as
the fault subsystem treats stale fragment bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..faults.injectors import FaultInjector
from ..faults.runloop import RunBucket, RunLoop, RunResult
from ..harness.testbed import TestbedConfig
# Re-exported here for backwards compatibility: the nearest-rank helper now
# lives with the other sample statistics in repro.telemetry.stats.
from ..telemetry.stats import percentile
from .accounting import DropLedger
from .admission import AdmissionPolicy
from .breaker import CircuitBreaker
from .queues import BoundedQueue, QueueStats
from .stale import StaleCacheStats, StalePageCache

#: Overload runs share the loop's one bucket type.
OverloadBucket = RunBucket


@dataclass
class OverloadConfig:
    """One overload run: a testbed plus the protection machinery's knobs."""

    testbed: TestbedConfig = field(default_factory=lambda: TestbedConfig(mode="dpc"))
    #: Application-server bank: parallel servers and waiting-room size.
    app_servers: int = 2
    app_queue_capacity: int = 32
    #: DBMS connection pool in front of the database share of generation.
    db_servers: int = 4
    db_queue_capacity: int = 64
    #: Fraction of the app waiting room reserved for priority (predicted
    #: cache-hit) arrivals; 0 gives plain FIFO.
    reserve_fraction: float = 0.25
    #: Relative per-request deadline (copied onto the testbed config so the
    #: workload generator stamps it); ``None`` disables deadlines.
    deadline_s: Optional[float] = None
    #: Admission policy applied to origin-bound misses (``None``: admit all).
    policy: Optional[AdmissionPolicy] = None
    #: Circuit breaker toward the origin (``None``: never brown out).
    breaker: Optional[CircuitBreaker] = None
    #: Brown-out page cache (DPC mode only; the no-cache baseline has no
    #: proxy to hold last-known-good pages).
    serve_stale_pages: bool = True
    #: Stale-while-revalidate grace window for the BEM's fragment-level
    #: stale-on-late fallback (0 disables it).
    grace_s: float = 5.0
    #: Time-series resolution: requests per bucket.
    bucket_requests: int = 50
    #: Oracle-check every Nth fresh page (0 disables the check).
    correctness_every: int = 1
    #: Seeds the retry jitter of fault-tolerant delivery.
    seed: int = 7
    #: Faults scheduled during the run (DPC mode only); empty runs the
    #: fault-free request path.
    faults: List[FaultInjector] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.testbed.mode not in ("dpc", "no_cache"):
            raise ConfigurationError(
                "overload harness compares mode='dpc' against mode='no_cache'"
            )
        if self.bucket_requests <= 0:
            raise ConfigurationError("bucket_requests must be positive")
        if self.correctness_every < 0:
            raise ConfigurationError("correctness_every cannot be negative")
        if self.deadline_s is not None:
            # Private copy: the caller's TestbedConfig must not inherit
            # this run's deadline.
            self.testbed = replace(self.testbed, deadline_s=self.deadline_s)


@dataclass
class OverloadResult(RunResult):
    """Everything one overload run measured."""

    mode: str = "dpc"
    ledger: DropLedger = field(default_factory=DropLedger)
    app_queue: Optional[QueueStats] = None
    db_queue: Optional[QueueStats] = None
    stale_cache: Optional[StaleCacheStats] = None
    breaker_opens: int = 0
    policy_shed: int = 0

    def series(self) -> List[Tuple[float, int, int, int, int, float]]:
        """(start_time, completed, shed, timed_out, depth, p99) rows."""
        return [
            (b.start_time, b.completed, b.shed, b.timed_out, b.queue_depth, b.p99)
            for b in self.buckets
        ]


class OverloadHarness(RunLoop):
    """Runs one workload through the overload-protected pipeline."""

    result_type = OverloadResult

    def __init__(self, config: OverloadConfig) -> None:
        super().__init__(
            config.testbed, config.bucket_requests, config.correctness_every,
            grace_s=config.grace_s,
        )
        self.config = config
        discipline = "priority" if config.reserve_fraction > 0 else "fifo"
        self.app_queue = BoundedQueue(
            "app-server",
            capacity=config.app_queue_capacity,
            servers=config.app_servers,
            discipline=discipline,
            reserve_fraction=config.reserve_fraction,
        )
        self.db_queue = BoundedQueue(
            "db-pool",
            capacity=config.db_queue_capacity,
            servers=config.db_servers,
        )
        self.testbed.server.queue = self.app_queue
        self.testbed.server.db_queue = self.db_queue
        self.policy = config.policy
        self.breaker = config.breaker
        self.ledger = DropLedger()
        if self.degrader is not None:
            self.testbed.monitor.attach_degrader(self.degrader)
            if config.serve_stale_pages:
                self.stale_cache = StalePageCache()
        if config.faults:
            self.arm_faults(config.faults, config.seed)

    def finish(self, result: OverloadResult) -> None:
        super().finish(result)
        result.mode = self.config.testbed.mode
        self.ledger.sync_channel(self.testbed.origin_link)
        result.ledger = self.ledger
        result.app_queue = self.app_queue.stats
        result.db_queue = self.db_queue.stats
        if self.stale_cache is not None:
            result.stale_cache = self.stale_cache.stats
        if self.breaker is not None:
            result.breaker_opens = self.breaker.stats.opens
        if self.policy is not None:
            result.policy_shed = self.policy.shed


def run_overload(config: OverloadConfig) -> OverloadResult:
    """Convenience one-shot: build the harness, run it, return the result."""
    return OverloadHarness(config).run()
