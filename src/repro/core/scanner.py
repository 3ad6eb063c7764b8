"""Sentinel scanning for the DPC's template scanner.

The paper justifies its scan-cost assumption by noting that "string matching
algorithms (e.g., KMP [18]) are linear-time algorithms" (§5).  The DPC must
scan every response byte exactly once looking for instruction tags; this
module provides that linear-time scan.

:class:`TagScanner` walks the text with ``str.find``, which runs the linear
scan inside the interpreter's C string machinery, and charges every byte to
its counter so that the scan-cost analysis (Result 1) can be measured rather
than assumed.  :func:`kmp_find_all` is the classic per-character KMP
algorithm the paper cites; :mod:`repro.perf.reference` builds the
differential oracle scanner on the same failure table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

from ..errors import ConfigurationError


@lru_cache(maxsize=256)
def _failure_table(pattern: str) -> Tuple[int, ...]:
    """Build (once per pattern) the KMP failure table, as a tuple.

    Shared by every KMP entry point so repeated scans with the same pattern
    never rebuild the table — previously ``kmp_iter`` reconstructed it on
    every call.
    """
    if not pattern:
        raise ConfigurationError("pattern cannot be empty")
    table = [0] * len(pattern)
    length = 0
    for i in range(1, len(pattern)):
        while length > 0 and pattern[i] != pattern[length]:
            length = table[length - 1]
        if pattern[i] == pattern[length]:
            length += 1
        table[i] = length
    return tuple(table)


def failure_function(pattern: str) -> List[int]:
    """KMP failure (longest-proper-prefix-suffix) table for ``pattern``.

    ``table[i]`` is the length of the longest proper prefix of
    ``pattern[:i+1]`` that is also a suffix of it.  The table is computed
    once per pattern and memoized (:func:`functools.lru_cache`); callers
    get a fresh list they are free to mutate.
    """
    return list(_failure_table(pattern))


def kmp_iter(text: str, pattern: str) -> Iterator[int]:
    """Yield the start index of every (possibly overlapping) match.

    Uses the memoized failure table — building it per call was measurable
    overhead for callers that scan many small texts with one pattern.
    """
    table = _failure_table(pattern)
    matched = 0
    for i, char in enumerate(text):
        while matched > 0 and char != pattern[matched]:
            matched = table[matched - 1]
        if char == pattern[matched]:
            matched += 1
        if matched == len(pattern):
            yield i - len(pattern) + 1
            matched = table[matched - 1]


def kmp_find_all(text: str, pattern: str) -> List[int]:
    """All match positions of ``pattern`` in ``text`` (overlaps included)."""
    return list(kmp_iter(text, pattern))


def kmp_find(text: str, pattern: str, start: int = 0) -> int:
    """First match position at or after ``start``, or -1.

    Equivalent to ``text.find(pattern, start)`` but via KMP; used where the
    single-pass guarantee matters for the scan-cost accounting.  A negative
    ``start`` counts from the end of ``text``, as a slice index does.
    """
    if start < 0:
        start = max(0, len(text) + start)
    for position in kmp_iter(text[start:], pattern):
        return start + position
    return -1


def find_positions(text: str, pattern: str) -> List[int]:
    """All (possibly overlapping) match positions, via ``str.find``.

    The serve path's scan: the same linear pass as KMP, executed by the
    interpreter's C substring search instead of a per-character Python
    loop.  Overlapping matches are included (the search resumes one
    character past each match start), so the output is position-for-position
    identical to :func:`kmp_find_all`.
    """
    if not pattern:
        raise ConfigurationError("pattern cannot be empty")
    matches: List[int] = []
    find = text.find
    position = find(pattern)
    while position != -1:
        matches.append(position)
        position = find(pattern, position + 1)
    return matches


class TagScanner:
    """Finds instruction-tag sentinels in serialized templates.

    One scanner instance accumulates ``bytes_scanned`` across calls so a
    DPC can report total scanning work (the ``z`` per-byte cost in the
    Section 5 comparison).  The scan runs on ``str.find`` and every byte of
    the text is charged to ``bytes_scanned``.
    """

    def __init__(self, sentinel: str) -> None:
        if not sentinel:
            raise ConfigurationError("sentinel cannot be empty")
        self.sentinel = sentinel
        self.bytes_scanned = 0

    def positions(self, text: str) -> List[int]:
        """Scan ``text`` once, returning all sentinel start positions."""
        self.bytes_scanned += len(text)
        return find_positions(text, self.sentinel)

    def charge(self, nbytes: int) -> None:
        """Account ``nbytes`` of scan work without re-walking the text.

        Used by the template parse cache: a cache hit skips the physical
        re-scan of a wire string the DPC has already parsed, but the
        scan-cost model (Result 1) still charges ``z`` per response byte —
        the bytes did cross the proxy and were matched against the cache.
        The counter therefore equals what a re-scan of every response
        (:class:`repro.perf.reference.KmpTagScanner`) would report.
        """
        if nbytes < 0:
            raise ConfigurationError("cannot charge a negative byte count")
        self.bytes_scanned += nbytes

    def reset_counters(self) -> None:
        """Zero the scanned-byte counter."""
        self.bytes_scanned = 0
