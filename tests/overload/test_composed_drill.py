"""Composed drill: a DPC crash and a link partition in the middle of a burst.

Faults and overload protection run through the one run loop, so a single
``OverloadConfig(faults=[...])`` replays a 10x flash crowd against an
undersized origin while the proxy crashes (bypassed for 0.3 s, then
epoch-resynced) and the origin link partitions (transfers retried, then
dead-lettered).  Every fresh page is still oracle-checked and correct,
every request lands in exactly one of the six outcomes, and no predicted
cache hit is ever shed.
"""

import pytest

from repro.faults import ChannelPartition, DpcCrash
from repro.harness.testbed import TestbedConfig
from repro.overload import CircuitBreaker, CoDelPolicy, OverloadConfig, run_overload
from repro.sites.synthetic import SyntheticParams
from repro.workload import FlashCrowdProcess

BURST_AT = 20.0


@pytest.fixture(scope="module")
def drill():
    testbed = TestbedConfig(
        mode="dpc",
        synthetic=SyntheticParams(
            num_pages=10, fragments_per_page=4, fragment_size=2048,
            cacheability=0.75,
        ),
        target_hit_ratio=0.9, requests=600, warmup_requests=100,
        arrivals=FlashCrowdProcess(
            base_rate=6.0, multiplier=10.0, burst_at=BURST_AT,
            hold_s=5.0, decay_s=2.0, deterministic=True,
        ),
    )
    config = OverloadConfig(
        testbed=testbed,
        deadline_s=1.5,
        app_servers=1, app_queue_capacity=8,
        db_servers=2, db_queue_capacity=16,
        policy=CoDelPolicy(target_s=0.05, interval_s=0.5),
        breaker=CircuitBreaker(failure_threshold=5, open_s=1.0),
        correctness_every=1,
        faults=[
            DpcCrash(at=BURST_AT + 2.0, downtime=0.3),
            ChannelPartition(at=BURST_AT + 3.0, duration=0.5),
        ],
    )
    return run_overload(config)


def test_every_fresh_page_is_checked_and_correct(drill):
    assert drill.completed_fresh > 0
    assert drill.pages_checked == drill.completed_fresh
    assert drill.incorrect_pages == 0


def test_six_outcomes_tile_the_offered_traffic(drill):
    assert drill.offered == 700
    assert (
        drill.completed_fresh + drill.completed_stale + drill.shed
        + drill.timed_out + drill.failed + drill.bypassed
    ) == drill.offered
    assert drill.conserved
    assert sum(b.requests for b in drill.buckets) == drill.offered
    assert sum(b.bypassed for b in drill.buckets) == drill.bypassed
    assert sum(b.failed for b in drill.buckets) == drill.failed


def test_cache_hits_are_never_shed(drill):
    assert drill.predicted_hits > 0
    assert drill.hits_shed == 0


def test_both_faults_landed_inside_the_burst(drill):
    # The crash was bridged by BEM bypass and healed by one epoch resync.
    assert drill.bypassed > 0
    assert drill.recovery.epoch_resyncs == 1
    # The partition dead-lettered transfers instead of serving wrong pages.
    assert drill.delivery.dead_letters > 0
    assert drill.failed > 0
    # And the overload machinery was engaged at the same time.
    assert drill.completed_stale > 0
    burst = [b for b in drill.buckets if BURST_AT <= b.start_time < BURST_AT + 7]
    assert sum(b.bypassed + b.failed for b in burst) == (
        drill.bypassed + drill.failed
    )
