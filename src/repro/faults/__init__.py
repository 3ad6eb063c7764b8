"""Fault injection and resilience for the BEM/DPC deployment.

The paper's §4.3.3 protocol is safe under failure only in the fail-stop
sense: a desynchronized GET raises instead of serving a wrong page, and
the documented remedy is to throw the whole cache away.  This subpackage
supplies what a production deployment needs around that core:

* :mod:`~repro.faults.injectors` — clock-scheduled faults (DPC crash,
  link partition/degradation, seeded message loss, directory corruption);
* :mod:`~repro.faults.recovery` — the BEM↔DPC resync protocol (epoch
  detection, targeted invalidation, anti-entropy sweep, quarantine of
  undelivered SETs);
* :mod:`~repro.faults.retry` — seeded exponential-backoff retry on the
  virtual clock, with dead-letter accounting;
* :mod:`~repro.faults.degradation` — BEM bypass and stale-while-revalidate
  fallbacks with per-request cost accounting;
* :mod:`~repro.faults.runloop` — the one run loop shared by chaos and
  overload runs (fault tick, gate, serve, recover/bypass/degrade, six
  outcomes, bucketed accounting);
* :mod:`~repro.faults.chaos` — a chaos harness that runs the Figure 4
  testbed under a fault schedule and checks every page against the
  no-cache oracle.

The core modules stay fault-unaware: injectors reach in from the outside,
and recovery acts through the directory's public audit/rebuild API.
"""

from __future__ import annotations

from .chaos import (
    ChaosBucket,
    ChaosConfig,
    ChaosHarness,
    ChaosResult,
    RecoverySummary,
    run_chaos,
    summarize_recovery,
)
from .degradation import DegradationStats, GracefulDegrader
from .injectors import (
    CORRUPTION_MODES,
    ChannelDegradation,
    ChannelPartition,
    DirectoryCorruption,
    DpcCrash,
    FaultContext,
    FaultInjector,
    FaultSchedule,
    MessageLoss,
)
from .recovery import RecoveryEvent, RecoveryStats, ResyncProtocol
from .retry import DeliveryStats, ReliableDelivery, RetryPolicy

__all__ = [
    "CORRUPTION_MODES",
    "ChannelDegradation",
    "ChannelPartition",
    "ChaosBucket",
    "ChaosConfig",
    "ChaosHarness",
    "ChaosResult",
    "DegradationStats",
    "DeliveryStats",
    "DirectoryCorruption",
    "DpcCrash",
    "FaultContext",
    "FaultInjector",
    "FaultSchedule",
    "GracefulDegrader",
    "MessageLoss",
    "RecoveryEvent",
    "RecoveryStats",
    "RecoverySummary",
    "ReliableDelivery",
    "ResyncProtocol",
    "RetryPolicy",
    "run_chaos",
    "summarize_recovery",
]
