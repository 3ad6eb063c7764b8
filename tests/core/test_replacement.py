"""Tests for replacement policies in isolation."""

import pytest

from repro.core.cache_directory import CacheDirectory, DirectoryEntry
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.replacement import (
    FifoPolicy,
    GreedyDualSizePolicy,
    LfuPolicy,
    LruPolicy,
    TtlAwarePolicy,
    make_policy,
)
from repro.errors import ConfigurationError


def entry(name, key, created=0.0, accessed=0.0, hits=0, ttl=None):
    return DirectoryEntry(
        fragment_id=FragmentID.create(name),
        dpc_key=key,
        created_at=created,
        last_access=accessed,
        hits=hits,
        ttl=ttl,
    )


class TestPolicies:
    def test_lru_picks_least_recent(self):
        entries = [entry("a", 0, accessed=5.0), entry("b", 1, accessed=2.0)]
        assert LruPolicy().select_victim(entries, now=10.0).dpc_key == 1

    def test_lfu_picks_least_used(self):
        entries = [entry("a", 0, hits=10), entry("b", 1, hits=2)]
        assert LfuPolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_lfu_ties_broken_by_recency(self):
        entries = [
            entry("a", 0, hits=2, accessed=9.0),
            entry("b", 1, hits=2, accessed=1.0),
        ]
        assert LfuPolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_fifo_picks_oldest(self):
        entries = [entry("a", 0, created=5.0), entry("b", 1, created=1.0)]
        assert FifoPolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_ttl_picks_soonest_to_expire(self):
        entries = [
            entry("a", 0, created=0.0, ttl=100.0),
            entry("b", 1, created=0.0, ttl=10.0),
        ]
        assert TtlAwarePolicy().select_victim(entries, now=5.0).dpc_key == 1

    def test_ttl_prefers_ttl_entries_over_immortal(self):
        entries = [
            entry("a", 0, ttl=None),
            entry("b", 1, created=0.0, ttl=1000.0),
        ]
        assert TtlAwarePolicy().select_victim(entries, now=0.0).dpc_key == 1

    def test_empty_candidates_give_none(self):
        assert LruPolicy().select_victim([], now=0.0) is None


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "lfu", "fifo", "ttl", "gds"])
    def test_known_names(self, name):
        assert make_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_policy("random")


class TestGreedyDualSize:
    def test_factory_knows_gds(self):
        assert make_policy("gds").name == "gds"

    def test_small_stale_entry_evicted_before_large_fresh(self):
        from repro.core.replacement import GreedyDualSizePolicy

        policy = GreedyDualSizePolicy()
        small = entry("small", 0)
        small.size_bytes = 100
        large = entry("large", 1)
        large.size_bytes = 100_000
        # Equal cost/size credit at first touch (cost == size), so the
        # tiebreak and inflation dynamics decide; after one eviction the
        # inflation floor rises, favouring keeping recently-credited ones.
        victim = policy.select_victim([small, large], now=0.0)
        assert victim in (small, large)

    def test_inflation_rises_after_eviction(self):
        from repro.core.replacement import GreedyDualSizePolicy

        policy = GreedyDualSizePolicy(cost_of=lambda e: 1.0)
        a = entry("a", 0)
        a.size_bytes = 1000   # credit 1/1000: cheap to lose
        b = entry("b", 1)
        b.size_bytes = 10     # credit 1/10
        first = policy.select_victim([a, b], now=0.0)
        assert first is a     # lowest cost/size credit
        assert policy._inflation == pytest.approx(1.0 / 1000)

    def test_refreshed_entries_get_inflated_credit(self):
        from repro.core.replacement import GreedyDualSizePolicy

        policy = GreedyDualSizePolicy(cost_of=lambda e: 1.0)
        a = entry("a", 0)
        a.size_bytes = 1000
        b = entry("b", 1)
        b.size_bytes = 1000
        policy.select_victim([a, b], now=0.0)  # evicts one, inflates L
        # Touch b (its hits change) -> fresh credit includes inflation.
        b.hits += 1
        survivor_credit = policy._credit_of(b)
        assert survivor_credit > 1.0 / 1000

    def test_gds_works_inside_directory(self):
        from repro.core.cache_directory import CacheDirectory
        from repro.core.fragments import FragmentID, FragmentMetadata

        directory = CacheDirectory(2, policy=make_policy("gds"))
        for i in range(8):
            directory.insert(
                FragmentID.create("f", {"i": i}),
                FragmentMetadata(),
                size_bytes=(i + 1) * 100,
                now=float(i),
            )
            directory.check_invariants()
        assert directory.valid_count() == 2

    def test_recycled_key_does_not_inherit_dead_credit(self):
        # A freed dpcKey handed to a new entry at the same virtual instant
        # must not reuse the dead entry's credit: D (1000 B) takes B's key
        # and must be ranked on its own credit 1/1000, below C's.
        directory = CacheDirectory(2, GreedyDualSizePolicy(cost_of=lambda e: 1.0))

        def insert(name, size):
            directory.insert(
                FragmentID.create(name), FragmentMetadata(), size, now=0.0
            )

        insert("A", 1000)
        insert("B", 10)
        insert("C", 100)  # evicts A; L = .001, so C's credit is .011
        directory.invalidate(FragmentID.create("B"))
        insert("D", 1000)  # takes B's key; credit .002
        insert("E", 10)  # must evict D, not C
        resident = sorted(
            e.fragment_id.canonical() for e in directory.valid_entries()
        )
        assert resident == sorted(
            FragmentID.create(name).canonical() for name in ("C", "E")
        )


class TripwireView:
    """A candidate view that may be iterated once, then raises."""

    def __init__(self, entries):
        self.entries = entries
        self.iterations = 0

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        self.iterations += 1
        if self.iterations > 1:
            raise AssertionError("select_victim scanned the candidates again")
        return iter(self.entries)


class TestRankedIndex:
    @pytest.mark.parametrize("name", ["lru", "lfu", "fifo", "ttl", "gds"])
    def test_selection_does_not_iterate_candidates(self, name):
        capacity = 4096
        directory = CacheDirectory(capacity, make_policy(name))
        policy = directory.policy
        select = policy.select_victim
        views = []

        def select_victim(entries, now):
            views.append(TripwireView(entries))
            return select(views[-1], now)

        policy.select_victim = select_victim
        for i in range(capacity + 1000):
            now = float(i)
            directory.insert(
                FragmentID.create("f", {"i": i}),
                FragmentMetadata(ttl=float(i % 7 + 1) * 1e4),
                size_bytes=i % 13 + 1,
                now=now,
            )
            if i % 3 == 0:
                directory.lookup(FragmentID.create("f", {"i": i // 2}), now)
        assert directory.stats.evictions == 1000
        assert len(views) == 1000
        assert [view.iterations for view in views] == [1] + [0] * 999
        directory.check_invariants()

    def test_index_out_of_step_fails_the_invariant_check(self):
        directory = CacheDirectory(2)
        for i in range(3):
            directory.insert(
                FragmentID.create("f", {"i": i}), FragmentMetadata(), 1, float(i)
            )
        directory.check_invariants()
        directory.policy.forget(directory.valid_entries()[0].dpc_key)
        with pytest.raises(AssertionError, match="replacement index"):
            directory.check_invariants()

    def test_no_index_before_the_first_eviction(self):
        directory = CacheDirectory(4)
        for i in range(4):
            directory.insert(
                FragmentID.create("f", {"i": i}), FragmentMetadata(), 1, float(i)
            )
            directory.lookup(FragmentID.create("f", {"i": i}), float(i))
        assert directory.policy.indexed_entries() is None

    def test_stale_items_are_compacted(self):
        directory = CacheDirectory(8)
        ids = [FragmentID.create("f", {"i": i}) for i in range(9)]
        for i, fid in enumerate(ids):
            directory.insert(fid, FragmentMetadata(), 1, float(i))
        for step in range(10_000):
            directory.lookup(ids[1 + step % 8], 10.0 + step)
        assert len(directory.policy._heap) <= 4 * 8 + 64
        directory.check_invariants()
