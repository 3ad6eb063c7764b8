"""Cache replacement policies for the BEM's replacement manager.

"A cache replacement manager monitors the size of the cache directory and
selects fragments for replacement when the directory size exceeds some
specified threshold." (§4.3.3)

The paper does not prescribe a policy, so several classic ones are provided
and compared in an ablation bench (LRU wins under Zipf-skewed request
streams, as expected).  A policy ranks the directory's valid entries in a
ranked index and picks the minimum as the victim; the directory keeps the
index current and handles the mechanics of marking the victim invalid and
recycling its dpcKey.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .cache_directory import DirectoryEntry


class ReplacementPolicy:
    """Interface: choose one victim among valid entries.

    A policy states its eviction order once, as :meth:`rank` (smallest rank
    is evicted first; every rank ends in ``dpc_key``, so ties break on the
    key).  Victims come from a ranked index, a min-heap of
    ``(rank, dpc_key, seq)`` items: the first :meth:`select_victim` call
    builds it from the candidates it is handed, and from then on the
    directory keeps it current with :meth:`track` (after an insert or a
    lookup hit) and :meth:`forget` (when a key stops backing a valid entry).
    Selection discards stale heads and returns the live minimum in
    O(log n) instead of scanning every candidate.  Until the index is built,
    ``track`` and ``forget`` return after one attribute check, so a
    directory that never fills pays nothing for it.

    A policy instance serves one directory: its index mirrors that
    directory's valid entries.
    """

    name = "abstract"

    #: Duck-typed :class:`repro.insight.InsightLayer` (anything exposing
    #: ``record_eviction``); set by ``CacheDirectory.attach_insight`` so
    #: eviction victims carry per-policy diagnostics.  ``None`` disables.
    insight = None

    #: The ranked index; ``None`` until the first :meth:`select_victim`.
    _heap: Optional[list] = None

    def rank(self, entry: "DirectoryEntry") -> tuple:
        """Eviction order key of ``entry``; the minimum is the victim."""
        raise NotImplementedError

    def select_victim(
        self, entries: Iterable["DirectoryEntry"], now: float
    ) -> Optional["DirectoryEntry"]:
        """Choose one entry to evict, or None if no candidates.

        ``entries`` is read only on the first call, which builds the index;
        later calls select from the index the directory keeps current.  The
        victim stays indexed until the directory forgets it.
        """
        heap = self._heap
        if heap is None:
            heap = self._build(entries)
        live = self._live
        while heap:
            _, key, seq = heap[0]
            slot = live.get(key)
            if slot is not None and slot[0] == seq:
                return slot[1]
            heapq.heappop(heap)
        return None

    def track(self, entry: "DirectoryEntry") -> None:
        """(Re-)rank ``entry`` after it was inserted or hit."""
        if self._heap is None:
            return
        self._seq += 1
        key = entry.dpc_key
        self._live[key] = (self._seq, entry)
        heapq.heappush(self._heap, (self.rank(entry), key, self._seq))
        if len(self._heap) > 4 * len(self._live) + 64:
            self._compact()

    def forget(self, dpc_key: int) -> None:
        """``dpc_key`` no longer backs a valid entry: drop it from the index."""
        if self._heap is None:
            return
        self._live.pop(dpc_key, None)

    def indexed_entries(self) -> Optional[Dict[int, "DirectoryEntry"]]:
        """dpcKey -> entry for every live indexed entry; None before the build."""
        if self._heap is None:
            return None
        return {key: slot[1] for key, slot in self._live.items()}

    def _build(self, entries) -> list:
        self._live: Dict[int, tuple] = {}
        heap = []
        for seq, entry in enumerate(entries):
            self._live[entry.dpc_key] = (seq, entry)
            heap.append((self.rank(entry), entry.dpc_key, seq))
        heapq.heapify(heap)
        self._seq = len(heap)
        self._heap = heap
        return heap

    def _compact(self) -> None:
        """Drop stale items once they outnumber live ones about 3 to 1.

        Live items keep the rank they were pushed with (a GDS credit depends
        on the inflation at track time), so nothing is re-ranked.
        """
        live = self._live
        heap = []
        for item in self._heap:
            slot = live.get(item[1])
            if slot is not None and slot[0] == item[2]:
                heap.append(item)
        heapq.heapify(heap)
        self._heap = heap

    def record_victim(self, victim: "DirectoryEntry", now: float) -> None:
        """Report one eviction's diagnostics to the attached insight layer.

        Called by the directory just before the victim is invalidated, so
        ``last_access``/``hits`` still reflect the entry's lived history.
        The idle time (now minus last access) is the number capacity
        diagnosis cares about: victims evicted while recently hot indicate
        a cache that is genuinely too small, victims idle for ages are free
        to drop.
        """
        if self.insight is not None:
            self.insight.record_eviction(
                self.name,
                max(0.0, now - victim.last_access),
                victim.hits,
                victim.size_bytes,
            )


class LruPolicy(ReplacementPolicy):
    """Evict the least-recently-used entry."""

    name = "lru"

    def rank(self, entry):
        """Oldest last access first."""
        return (entry.last_access, entry.dpc_key)


class LfuPolicy(ReplacementPolicy):
    """Evict the least-frequently-used entry (ties broken by recency)."""

    name = "lfu"

    def rank(self, entry):
        """Fewest hits first, then oldest last access."""
        return (entry.hits, entry.last_access, entry.dpc_key)


class FifoPolicy(ReplacementPolicy):
    """Evict the oldest entry regardless of use."""

    name = "fifo"

    def rank(self, entry):
        """Earliest created first."""
        return (entry.created_at, entry.dpc_key)


class TtlAwarePolicy(ReplacementPolicy):
    """Evict the entry closest to (or past) its TTL expiry.

    Entries without a TTL are considered to expire at infinity, so they are
    only chosen when every entry is TTL-less (then falls back to LRU order).
    The rank uses the absolute expiry time rather than the remaining
    lifetime: the two differ by the same ``now`` for every candidate, so
    they order candidates alike (exactly, save that rounding in
    ``expiry - now`` could merge two distinct expiries into a tie).
    """

    name = "ttl"

    def rank(self, entry):
        """Earliest expiry first, then oldest last access."""
        expiry = float("inf") if entry.ttl is None else entry.created_at + entry.ttl
        return (expiry, entry.last_access, entry.dpc_key)


class GreedyDualSizePolicy(ReplacementPolicy):
    """GreedyDual-Size (Cao & Irani 1997): the era's web-caching standard.

    Each entry carries a credit ``H = L + cost/size`` where ``L`` is an
    inflation value that rises to the victim's credit on every eviction.
    With cost proportional to regeneration work (we use size itself as the
    proxy: bigger fragments cost more to rebuild AND to ship), the policy
    trades off recency, size, and cost in one scalar.  An entry's credit is
    fixed when it is inserted or hit, with the ``L`` of that moment, and is
    held in the ranked index — no extra per-entry state is required in the
    directory.
    """

    name = "gds"

    def __init__(self, cost_of=None) -> None:
        """``cost_of(entry) -> float`` overrides the default size-as-cost."""
        self._inflation = 0.0
        self._cost_of = cost_of if cost_of is not None else (
            lambda entry: float(max(entry.size_bytes, 1))
        )

    def _credit_of(self, entry) -> float:
        """H value for an entry touched now: ``L + cost/size``."""
        size = float(max(entry.size_bytes, 1))
        return self._inflation + self._cost_of(entry) / size

    def rank(self, entry):
        """Lowest credit first."""
        return (self._credit_of(entry), entry.dpc_key)

    def select_victim(self, entries, now):
        """Evict the entry with the lowest credit; inflate L to it."""
        victim = super().select_victim(entries, now)
        if victim is not None:
            credit, _ = self._heap[0][0]  # the victim's rank
            self._inflation = credit
            # A victim the directory fails to remove is re-credited at the
            # new L, as if it had just been touched.
            self.track(victim)
        return victim


_POLICIES = {
    policy.name: policy
    for policy in (
        LruPolicy, LfuPolicy, FifoPolicy, TtlAwarePolicy, GreedyDualSizePolicy
    )
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name ('lru', 'lfu', 'fifo', 'ttl', 'gds')."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            "unknown replacement policy %r (expected one of %s)"
            % (name, sorted(_POLICIES))
        ) from None
