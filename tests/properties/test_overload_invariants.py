"""Property: overload protection never loses a request or corrupts the cache.

Three invariant families, all seeded through hypothesis:

* **Queue discipline** — under any admissible offer schedule a bounded
  queue's waiting room never exceeds its capacity (nor a best-effort
  arrival its unreserved share), and every offer is accounted exactly once
  (``admitted + rejected == offered``).
* **Outcome conservation** — any overload run, whatever the arrival rate,
  deadline, policy, or breaker, tiles the offered traffic exactly:
  ``fresh + stale + shed + timed_out == offered``, with a ledger row for
  every request that received nothing.
* **Conservation under faults** — the same runs with a drawn fault list
  (crash, partition, loss, corruption; possibly empty) composed in tile
  the offered traffic with the six outcomes
  ``fresh + stale + shed + timed_out + failed + bypass == offered``, and
  an anti-entropy sweep restores the directory's slot discipline.
* **Shedding never corrupts the DPC** — after an overload run the cache
  directory still satisfies the slot-discipline invariant (every dpcKey
  free XOR backing exactly one valid entry); rejections happen *before*
  the origin script runs, so a shed request can never leave a partial SET.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import HttpRequest
from repro.errors import QueueFullError
from repro.faults import (
    CORRUPTION_MODES,
    ChannelPartition,
    DirectoryCorruption,
    DpcCrash,
    MessageLoss,
)
from repro.harness.testbed import TestbedConfig
from repro.overload import (
    BoundedQueue,
    CircuitBreaker,
    OverloadConfig,
    OverloadHarness,
    StaticThresholdPolicy,
    make_policy,
)
from repro.sites.synthetic import SyntheticParams
from repro.workload import FlashCrowdProcess

# -- queue discipline ---------------------------------------------------------

offers = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),   # inter-arrival gap
        st.floats(min_value=0.001, max_value=3.0),  # service demand
        st.integers(0, 1),                          # priority
    ),
    min_size=1,
    max_size=60,
)


@given(offers, st.integers(1, 12), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_waiting_room_never_exceeds_capacity(schedule, capacity, servers):
    queue = BoundedQueue("q", capacity=capacity, servers=servers)
    now = 0.0
    for gap, service_s, _ in schedule:
        now += gap
        try:
            placement = queue.offer(now, service_s)
        except QueueFullError:
            assert queue.depth(now) >= capacity
            continue
        assert placement.depth <= capacity
        assert queue.depth(now) <= capacity
        assert placement.start_at >= now
        assert placement.finish_at == placement.start_at + service_s
    stats = queue.stats
    assert stats.admitted + stats.rejected == stats.offered == len(schedule)
    assert stats.max_depth <= capacity


@given(offers, st.integers(2, 12))
@settings(max_examples=80, deadline=None)
def test_priority_reserve_holds_under_any_schedule(schedule, capacity):
    queue = BoundedQueue(
        "q", capacity=capacity, servers=1, discipline="priority",
        reserve_fraction=0.5,
    )
    limit = capacity - int(capacity * 0.5)
    now = 0.0
    for gap, service_s, priority in schedule:
        now += gap
        depth_before = queue.depth(now)
        try:
            queue.offer(now, service_s, priority=priority)
        except QueueFullError:
            # A best-effort arrival is refused exactly when the unreserved
            # share is gone; a priority arrival only when the room is full.
            if priority > 0:
                assert depth_before >= capacity
            else:
                assert depth_before >= limit
            continue
        assert queue.depth(now) <= capacity
    stats = queue.stats
    assert stats.admitted + stats.rejected == stats.offered == len(schedule)


# -- conservation and slot discipline across whole runs -----------------------

def overload_harness(mode, base_rate, multiplier, deadline_s, policy_name,
                     with_breaker, capacity, faults=()):
    params = SyntheticParams(
        num_pages=6, fragments_per_page=3, fragment_size=512,
        cacheability=0.67,
    )
    testbed = TestbedConfig(
        mode=mode, synthetic=params, target_hit_ratio=0.7,
        requests=80, warmup_requests=20,
        arrivals=FlashCrowdProcess(
            base_rate=base_rate, multiplier=multiplier, burst_at=2.0,
            hold_s=3.0, decay_s=1.0, deterministic=True,
        ),
    )
    policy = make_policy(policy_name) if policy_name else None
    if isinstance(policy, StaticThresholdPolicy):
        policy = StaticThresholdPolicy(threshold=max(1, capacity // 2))
    return OverloadHarness(OverloadConfig(
        testbed=testbed,
        deadline_s=deadline_s,
        app_servers=1,
        app_queue_capacity=capacity,
        db_servers=1,
        db_queue_capacity=capacity,
        policy=policy,
        breaker=CircuitBreaker(failure_threshold=3, open_s=1.0)
        if with_breaker else None,
        bucket_requests=25,
        correctness_every=4,
        faults=list(faults),
    ))


run_space = st.tuples(
    st.sampled_from(["dpc", "no_cache"]),
    st.sampled_from([4.0, 20.0, 60.0]),            # base arrival rate
    st.sampled_from([1.0, 10.0]),                  # flash multiplier
    st.sampled_from([0.2, 1.0, None]),             # deadline
    st.sampled_from([None, "static-threshold", "codel", "token-bucket"]),
    st.booleans(),                                 # breaker armed
    st.integers(2, 16),                            # queue capacity
)


@given(run_space)
@settings(max_examples=25, deadline=None)
def test_outcomes_conserve_and_drops_are_ledgered(case):
    harness = overload_harness(*case)
    result = harness.run()
    result.check_conservation()
    assert result.offered == 100
    assert result.completed + result.shed + result.timed_out == result.offered
    # Every request that got nothing has a named ledger row.
    named = result.ledger.total - result.ledger.count("messages_dropped")
    assert named == result.shed + result.timed_out
    assert result.incorrect_pages == 0
    # Bucket series re-tiles the totals.
    assert sum(b.requests for b in result.buckets) == result.offered
    assert sum(b.fresh for b in result.buckets) == result.completed_fresh
    assert sum(b.shed for b in result.buckets) == result.shed


fault_at = st.floats(min_value=0.5, max_value=8.0)
fault_lists = st.lists(
    st.one_of(
        st.builds(DpcCrash, at=fault_at, downtime=st.sampled_from([0.0, 0.3])),
        st.builds(
            ChannelPartition, at=fault_at, duration=st.sampled_from([0.1, 0.6])
        ),
        st.builds(
            MessageLoss, at=fault_at, duration=st.just(1.0),
            drop_probability=st.sampled_from([0.3, 1.0]),
            seed=st.integers(0, 9),
        ),
        st.builds(
            DirectoryCorruption, at=fault_at,
            mode=st.sampled_from(CORRUPTION_MODES),
            count=st.integers(1, 4), seed=st.integers(0, 9),
        ),
    ),
    max_size=3,
)


@given(run_space.filter(lambda case: case[0] == "dpc"), fault_lists)
@settings(max_examples=25, deadline=None)
def test_outcomes_conserve_under_drawn_faults(case, faults):
    harness = overload_harness(*case, faults=faults)
    result = harness.run()
    result.check_conservation()
    assert result.offered == 100
    assert (
        result.completed_fresh + result.completed_stale + result.shed
        + result.timed_out + result.failed + result.bypassed
    ) == result.offered
    named = result.ledger.total - result.ledger.count("messages_dropped")
    assert named == result.shed + result.timed_out
    assert result.incorrect_pages == 0
    assert sum(b.requests for b in result.buckets) == result.offered
    assert sum(b.failed for b in result.buckets) == result.failed
    assert sum(b.bypassed for b in result.buckets) == result.bypassed
    if harness.testbed.resync is not None:
        # Injected bookkeeping corruption lasts until a sweep repairs it.
        harness.testbed.resync.anti_entropy()
    harness.testbed.monitor.directory.check_invariants()


@given(run_space.filter(lambda case: case[0] == "dpc"))
@settings(max_examples=15, deadline=None)
def test_shedding_never_corrupts_dpc_slots(case):
    harness = overload_harness(*case)
    result = harness.run()
    result.check_conservation()
    monitor = harness.testbed.monitor
    capacity = monitor.directory.capacity
    monitor.directory.check_invariants()
    assert monitor.directory.valid_count() + len(monitor.directory.free_list) == (
        capacity
    )
    # And the testbed still serves byte-correct fresh pages afterwards.
    harness.testbed.clock.advance(60.0)  # drain the queues
    request = HttpRequest("/page.jsp", {"pageID": "0"})
    html = harness.testbed.serve_once(request)
    assert html == harness.testbed.render_oracle(request)
