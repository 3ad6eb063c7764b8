"""Overload protection: bounded queues, deadlines, shedding, brown-out.

The paper's testbed models an origin with infinite capacity, which hides
the regime where a proxy cache earns its keep: the flash crowd.  This
subpackage gives the reproduction a finite origin (bounded c-server
queues), end-to-end request deadlines, admission control and a circuit
breaker applied only to origin-bound misses, page- and fragment-grain
stale serving during brown-out, and a harness that measures how a
DPC-enabled deployment sheds gracefully while the no-cache baseline
collapses.
"""

from .accounting import DROP_REASONS, DropLedger
from .admission import (
    AdmissionPolicy,
    CoDelPolicy,
    POLICIES,
    StaticThresholdPolicy,
    TokenBucketPolicy,
    make_policy,
)
from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerStats, CircuitBreaker
from ..faults.runloop import OUTCOMES
from .harness import (
    OverloadBucket,
    OverloadConfig,
    OverloadHarness,
    OverloadResult,
    percentile,
    run_overload,
)
from .queues import (
    DISCIPLINES,
    BoundedQueue,
    QueuePlacement,
    QueueStats,
)
from .stale import StaleCacheStats, StalePageCache

__all__ = [
    "DROP_REASONS",
    "DropLedger",
    "AdmissionPolicy",
    "StaticThresholdPolicy",
    "CoDelPolicy",
    "TokenBucketPolicy",
    "POLICIES",
    "make_policy",
    "CircuitBreaker",
    "BreakerStats",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BoundedQueue",
    "QueuePlacement",
    "QueueStats",
    "DISCIPLINES",
    "StalePageCache",
    "StaleCacheStats",
    "OverloadConfig",
    "OverloadBucket",
    "OverloadResult",
    "OverloadHarness",
    "OUTCOMES",
    "percentile",
    "run_overload",
]
