"""Chaos harness: a Figure 4 testbed run under a fault schedule.

Replays a seeded workload through the standard testbed topology while a
:class:`~repro.faults.injectors.FaultSchedule` crashes the DPC, partitions
or degrades the origin link, drops messages, and corrupts directory
bookkeeping.  The harness holds the line on the assembly-correctness
invariant (DESIGN.md §6 invariant #1): every delivered page is checked
against the caching-disabled oracle, and any mismatch is counted as an
incorrect page — the chaos acceptance bar is that this count stays zero
under every fault scenario.

A chaos run is the shared run loop (:mod:`repro.faults.runloop`) with the
fault machinery armed and no queues or gate.  The run emits a deterministic
time-series of per-bucket hit ratio and origin-link bytes, from which :func:`summarize_recovery` derives recovery
time and hit-ratio dip/re-climb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..harness.testbed import TestbedConfig
from ..overload.accounting import DropLedger
from .injectors import FaultInjector
from .runloop import RunBucket, RunLoop, RunResult

#: Chaos runs share the loop's one bucket type.
ChaosBucket = RunBucket


@dataclass
class ChaosConfig:
    """One chaos run: a testbed configuration plus a fault schedule."""

    testbed: TestbedConfig = field(default_factory=lambda: TestbedConfig(mode="dpc"))
    faults: List[FaultInjector] = field(default_factory=list)
    #: Time-series resolution: requests per bucket.
    bucket_requests: int = 100
    #: The paper's fallback: serve fully dynamic while the DPC is down.
    #: With it off, downtime requests fail (for availability comparisons).
    bypass_when_down: bool = True
    #: Seeds the retry jitter.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.testbed.mode != "dpc":
            raise ConfigurationError("chaos harness requires mode='dpc'")
        if self.bucket_requests <= 0:
            raise ConfigurationError("bucket_requests must be positive")


@dataclass
class ChaosResult(RunResult):
    """Everything one chaos run measured; every page is oracle-checked."""

    @property
    def requests(self) -> int:
        """Requests offered, warmup included."""
        return self.offered

    @property
    def bypassed_requests(self) -> int:
        """Requests served fully dynamic because the DPC was unreachable."""
        return self.bypassed

    @property
    def failed_requests(self) -> int:
        """Requests that could not be served at all."""
        return self.failed

    def series(self) -> List[Tuple[float, float, int]]:
        """The time-series as (start_time, hit_ratio, wire_bytes) rows."""
        return [(b.start_time, b.hit_ratio, b.wire_bytes) for b in self.buckets]


@dataclass
class RecoverySummary:
    """Recovery metrics derived from a chaos time-series."""

    steady_hit_ratio: float
    dip_hit_ratio: float
    recovered_at: Optional[float]
    recovery_time_s: Optional[float]

    @property
    def recovered(self) -> bool:
        """Whether the hit ratio re-climbed to within tolerance."""
        return self.recovered_at is not None


def summarize_recovery(
    result: ChaosResult, fault_at: float, tolerance: float = 0.05
) -> RecoverySummary:
    """Derive crash → dip → re-climb metrics from the bucket series.

    ``steady`` is the aggregate hit ratio of complete post-warmup buckets
    that ended before ``fault_at``; recovery is the first bucket at or
    after ``fault_at`` whose hit ratio is back within ``tolerance`` of
    steady state.
    """
    pre = [
        b
        for b in result.buckets
        if b.start_request >= result.warmup_requests and b.start_time < fault_at
    ]
    pre_hits = sum(b.hits for b in pre)
    pre_total = pre_hits + sum(b.misses for b in pre)
    steady = pre_hits / pre_total if pre_total else 0.0
    post = [b for b in result.buckets if b.start_time >= fault_at]
    dip = min((b.hit_ratio for b in post), default=steady)
    recovered_at = None
    for bucket in post:
        if bucket.hit_ratio >= steady - tolerance:
            recovered_at = bucket.start_time
            break
    return RecoverySummary(
        steady_hit_ratio=steady,
        dip_hit_ratio=dip,
        recovered_at=recovered_at,
        recovery_time_s=None if recovered_at is None else recovered_at - fault_at,
    )


class ChaosHarness(RunLoop):
    """Runs one workload under one fault schedule and measures the damage."""

    result_type = ChaosResult
    # A root span starts when service starts, and a fault can hold the clock
    # past later arrivals, so latency from arrival would not tile the tree.
    trace_latency = False

    def __init__(self, config: ChaosConfig) -> None:
        super().__init__(config.testbed, config.bucket_requests, correctness_every=1)
        self.config = config
        self.ledger = DropLedger()
        self.bypass_when_down = config.bypass_when_down
        self.arm_faults(config.faults, config.seed)


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Convenience one-shot: build the harness, run it, return the result."""
    return ChaosHarness(config).run()
