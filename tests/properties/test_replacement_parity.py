"""Property: the ranked index evicts exactly the victim a full scan would.

The oracles below are the linear ``min()`` scans the replacement policies
used before they kept a ranked index.  Every eviction of a directory is
checked against the oracle's pick over the same candidate set (``is``, not
``==``), under random insert / lookup / invalidate / sweep / wipe traces
whose time jumps backwards as well as forwards, with one ``flip_valid``
corruption that is later repaired.

Times and TTLs are drawn on a grid of quarter seconds.  The TTL-aware scan
ranks by ``created_at + ttl - now`` while the index ranks by
``created_at + ttl``; on that grid both are exact, so the two orders agree
exactly (off it, rounding in the subtraction could turn two distinct
expiries into a scan tie that the index still orders).
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_directory import CacheDirectory
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import GreedyDualSizePolicy, make_policy
from repro.errors import DirectoryFullError
from repro.faults.injectors import DirectoryCorruption

# -- oracles: the scans the index replaced --------------------------------------


def lru_scan(entries, now):
    return min(entries, key=lambda e: (e.last_access, e.dpc_key), default=None)


def lfu_scan(entries, now):
    return min(
        entries, key=lambda e: (e.hits, e.last_access, e.dpc_key), default=None
    )


def fifo_scan(entries, now):
    return min(entries, key=lambda e: (e.created_at, e.dpc_key), default=None)


def ttl_scan(entries, now):
    def remaining(entry):
        if entry.ttl is None:
            return (float("inf"), entry.last_access, entry.dpc_key)
        return (entry.created_at + entry.ttl - now, entry.last_access, entry.dpc_key)

    return min(entries, key=remaining, default=None)


class GdsScan:
    """GreedyDual-Size by scan, with a lazily refreshed credit memo.

    The memo stamp includes the entry itself, so a recycled dpcKey never
    inherits a dead entry's credit.
    """

    def __init__(self, cost_of=None):
        self.inflation = 0.0
        self.credit = {}  # dpc_key -> (H value, (entry, hits, last_access))
        self.cost_of = cost_of or (lambda entry: float(max(entry.size_bytes, 1)))

    def credit_of(self, entry):
        cached = self.credit.get(entry.dpc_key)
        stamp = (entry, entry.hits, entry.last_access)
        if cached is None or cached[1] != stamp:
            size = float(max(entry.size_bytes, 1))
            value = self.inflation + self.cost_of(entry) / size
            self.credit[entry.dpc_key] = (value, stamp)
            return value
        return cached[0]

    def __call__(self, entries, now):
        victim = None
        lowest = float("inf")
        for entry in entries:
            credit = self.credit_of(entry)
            if credit < lowest or (
                credit == lowest
                and victim is not None
                and entry.dpc_key < victim.dpc_key
            ):
                lowest = credit
                victim = entry
        if victim is not None:
            self.inflation = lowest
            self.credit.pop(victim.dpc_key, None)
        return victim


def unit_cost(entry):
    return 1.0


#: policy label -> (policy factory, oracle factory)
POLICIES = {
    "lru": (lambda: make_policy("lru"), lambda: lru_scan),
    "lfu": (lambda: make_policy("lfu"), lambda: lfu_scan),
    "fifo": (lambda: make_policy("fifo"), lambda: fifo_scan),
    "ttl": (lambda: make_policy("ttl"), lambda: ttl_scan),
    "gds": (lambda: make_policy("gds"), GdsScan),
    "gds-unit-cost": (
        lambda: GreedyDualSizePolicy(cost_of=unit_cost),
        lambda: GdsScan(unit_cost),
    ),
}


def checked_directory(capacity, label):
    """A directory whose every eviction is compared with the oracle's pick."""
    make, make_oracle = POLICIES[label]
    directory = CacheDirectory(capacity, make())
    oracle = make_oracle()
    policy = directory.policy
    select = policy.select_victim
    victims = []

    def select_victim(entries, now):
        expected = oracle(list(entries), now)
        actual = select(entries, now)
        assert actual is expected
        if isinstance(oracle, GdsScan):
            assert policy._inflation == oracle.inflation
        victims.append(actual)
        return actual

    policy.select_victim = select_victim
    return directory, victims


# -- random operation traces -----------------------------------------------------

NAMES = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]
TTLS = [None, 1.0, 2.5, 6.0, 15.0]
SIZES = [1, 10, 100, 1000]


def apply(directory, ops):
    """Run ``ops``; between a flip and its repair the directory is corrupt."""
    corrupt = False
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, name, now, size, ttl = op
            try:
                directory.insert(
                    FragmentID.create(name), FragmentMetadata(ttl=ttl), size, now
                )
            except DirectoryFullError:
                # Only a flipped victim can block the freeList: the eviction
                # picked it but could not free its key.
                assert corrupt
        elif kind == "lookup":
            directory.lookup(FragmentID.create(op[1]), op[2])
        elif kind == "invalidate":
            directory.invalidate(FragmentID.create(op[1]))
        elif kind == "expire":
            directory.expire_stale(op[2])
        elif kind == "wipe":
            directory.invalidate_all()
        elif kind == "flip":
            if not corrupt:
                fault = DirectoryCorruption(at=0.0, mode="flip_valid", seed=op[2])
                fault.start(SimpleNamespace(directory=directory))
                corrupt = fault.corrupted > 0
        elif kind == "repair":
            directory.audit_and_repair()
            corrupt = False
        if not corrupt:
            directory.check_invariants()
    directory.audit_and_repair()


grid_time = st.integers(0, 400).map(lambda quarter: quarter / 4.0)
name = st.sampled_from(NAMES)

insert = st.tuples(
    st.just("insert"), name, grid_time, st.sampled_from(SIZES), st.sampled_from(TTLS)
)
lookup = st.tuples(st.just("lookup"), name, grid_time)

operations = st.lists(
    st.one_of(
        # Inserts and lookups listed twice: drawn twice as often.
        insert, insert, lookup, lookup,
        st.tuples(st.just("invalidate"), name, st.just(0.0)),
        st.tuples(st.just("expire"), st.just(""), grid_time),
        st.tuples(st.just("wipe"), st.just(""), st.just(0.0)),
        st.tuples(st.just("flip"), st.just(""), st.integers(0, 99)),
        st.tuples(st.just("repair"), st.just(""), st.just(0.0)),
    ),
    max_size=80,
)


@given(operations, st.integers(1, 6), st.sampled_from(sorted(POLICIES)))
@settings(max_examples=300, deadline=None)
def test_index_picks_the_scan_victim(ops, capacity, label):
    directory, _ = checked_directory(capacity, label)
    apply(directory, ops)


def random_trace(rng, length):
    """A long seeded trace: mostly inserts and lookups, time drifting
    forward with occasional jumps back, one flip and a later repair."""
    ops = []
    now = 0.0
    flip_at = rng.randrange(length // 4, length // 2)
    repair_at = flip_at + rng.randrange(1, 200)
    names = ["n%d" % i for i in range(96)]
    for step in range(length):
        now = max(0.0, now + rng.choice([0.0, 0.25, 0.5, 1.0, -4.0, 0.25]))
        if step == flip_at:
            ops.append(("flip", "", rng.randrange(1000)))
        elif step == repair_at:
            ops.append(("repair", "", 0.0))
        roll = rng.random()
        fragment = rng.choice(names)
        if roll < 0.45:
            ops.append(("insert", fragment, now, rng.choice(SIZES), rng.choice(TTLS)))
        elif roll < 0.9:
            ops.append(("lookup", fragment, now))
        elif roll < 0.97:
            ops.append(("invalidate", fragment, 0.0))
        elif roll < 0.995:
            ops.append(("expire", "", now))
        else:
            ops.append(("wipe", "", 0.0))
    return ops


def test_long_random_traces_match_the_scan():
    evictions = 0
    for label in sorted(POLICIES):
        for seed in range(3):
            directory, victims = checked_directory(32, label)
            apply(directory, random_trace(random.Random(seed), 3000))
            evictions += len(victims)
    assert evictions > 5000
