"""Property: KMP agrees with the built-in string search (invariant 3)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scanner import failure_function, kmp_find, kmp_find_all

small_alphabet = st.text(alphabet="ab<~", max_size=60)
patterns = st.text(alphabet="ab<~", min_size=1, max_size=6)


def naive_find_all(text, pattern):
    positions = []
    start = 0
    while True:
        index = text.find(pattern, start)
        if index == -1:
            return positions
        positions.append(index)
        start = index + 1  # overlapping occurrences included


@given(small_alphabet, patterns)
@settings(max_examples=400)
def test_kmp_matches_naive(text, pattern):
    assert kmp_find_all(text, pattern) == naive_find_all(text, pattern)


@given(small_alphabet, patterns, st.integers(-60, 60))
def test_kmp_find_matches_str_find(text, pattern, start):
    assert kmp_find(text, pattern, start) == text.find(pattern, start)


@given(patterns)
def test_failure_function_invariants(pattern):
    table = failure_function(pattern)
    assert len(table) == len(pattern)
    assert table[0] == 0
    for i, value in enumerate(table):
        # A failure value is a proper prefix length of the prefix ending at i.
        assert 0 <= value <= i
        if value:
            assert pattern[:value] == pattern[i - value + 1 : i + 1]


@given(st.text(alphabet=string.printable, max_size=200))
def test_sentinel_scan_agrees_with_find(text):
    assert kmp_find_all(text, "<~") == naive_find_all(text, "<~")
