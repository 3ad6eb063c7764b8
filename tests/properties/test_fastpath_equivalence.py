"""Differential properties: the runtime wire path is byte-identical to the oracle.

The wire-path optimizations promise that the ``str.find`` scanner, the
template parse cache, memoized serialization, and the compiled assembly plan
change *constant factors only*.  These tests pin that promise on randomized
inputs against :mod:`repro.perf.reference` (the KMP scanner and the uncached,
per-instruction proxy): every observable — match positions, parsed
instruction streams, assembled pages, DPC stats, and the scanned-byte counter
behind Result 1 — must be equal, including escaped sentinels, adjacent tags,
and oversized fragments.  Serialization is compared with a fresh
:class:`Template` copy's render, which no memo has touched.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpc import DynamicProxyCache
from repro.core.scanner import TagScanner, find_positions, kmp_find_all
from repro.core.template import (
    SENTINEL,
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
)
from repro.errors import OversizedFragmentError
from repro.perf.reference import KmpTagScanner, ReferenceProxyCache

# Sentinel-heavy alphabet so escaping and near-miss prefixes get exercised.
text = st.text(
    alphabet=string.ascii_letters + string.digits + "<>~:QSEG \n",
    max_size=80,
)
keys = st.integers(min_value=0, max_value=255)

instructions = st.one_of(
    text.map(Literal),
    keys.map(GetInstruction),
    st.tuples(keys, text).map(lambda kv: SetInstruction(*kv)),
)


# -- scanner ------------------------------------------------------------------


@given(text)
@settings(max_examples=300)
def test_find_scan_matches_kmp_on_sentinel(body):
    """``str.find`` and KMP report identical sentinel positions."""
    assert find_positions(body, SENTINEL) == kmp_find_all(body, SENTINEL)


@given(
    st.text(alphabet="ab~<", max_size=120),
    st.text(alphabet="ab~<", min_size=1, max_size=5),
)
@settings(max_examples=300)
def test_find_scan_matches_kmp_on_arbitrary_patterns(body, pattern):
    """Overlapping-match semantics agree for any nonempty pattern."""
    assert find_positions(body, pattern) == kmp_find_all(body, pattern)


@given(text)
def test_scanner_lanes_charge_identical_bytes(body):
    """Result 1 accounting: both scanners charge len(text) per scan."""
    fast_scanner = TagScanner(SENTINEL)
    reference_scanner = KmpTagScanner(SENTINEL)
    fast_positions = fast_scanner.positions(body)
    reference_positions = reference_scanner.positions(body)
    assert fast_positions == reference_positions
    assert fast_scanner.bytes_scanned == reference_scanner.bytes_scanned


# -- parsing ------------------------------------------------------------------


@given(st.lists(instructions, max_size=16))
@settings(max_examples=200)
def test_parse_identical_across_lanes(instruction_list):
    """``str.find`` parsing yields the same template and scan charge as KMP.

    The generated streams include adjacent tags (consecutive GET/SET with
    no literal between them) and literals containing the raw sentinel,
    which serialization escapes.
    """
    wire = Template(instruction_list).serialize()
    fast_scanner = TagScanner(SENTINEL)
    reference_scanner = KmpTagScanner(SENTINEL)
    fast_parse = parse_template(wire, scanner=fast_scanner)
    reference_parse = parse_template(wire, scanner=reference_scanner)
    assert fast_parse == reference_parse
    assert fast_scanner.bytes_scanned == reference_scanner.bytes_scanned


@given(st.lists(instructions, max_size=16))
@settings(max_examples=200)
def test_serialize_identical_across_lanes_and_after_mutation(instruction_list):
    """Memoized serialization never drifts from a fresh copy's render."""
    fast_template = Template(list(instruction_list))
    first = fast_template.serialize()
    again = fast_template.serialize()  # memoized path
    fast_template.get(7)               # mutation invalidates the memo
    mutated = fast_template.serialize()
    fast_wire_bytes = fast_template.wire_bytes()
    assert first == Template(list(instruction_list)).serialize()
    assert again == first
    mutated_copy = Template(list(instruction_list) + [GetInstruction(7)])
    assert mutated == mutated_copy.serialize()
    assert fast_wire_bytes == mutated_copy.wire_bytes()


# -- assembly -----------------------------------------------------------------


def _serve_all(wires, fast):
    """Assemble a wire sequence on a fresh runtime DPC, or the oracle's."""
    dpc = (DynamicProxyCache if fast else ReferenceProxyCache)(capacity=256)
    pages = []
    for wire in wires:
        page = dpc.process_response(wire)
        pages.append((page.html, page.template_bytes, page.page_bytes,
                      page.fragments_set, page.fragments_get))
    return pages, dpc


@given(st.lists(st.tuples(keys, text), min_size=1, max_size=8), st.data())
@settings(max_examples=150)
def test_assembly_identical_across_lanes(fragments, data):
    """SET-then-GET exchanges produce identical pages, stats, and counters.

    The GET-only wire is served twice so the runtime DPC's parse cache takes
    a hit — the path where :meth:`TagScanner.charge` must keep the Result 1
    counter in lockstep with the oracle's physical re-scan.
    """
    seen = {}
    for key, content in fragments:
        seen[key] = content
    set_template = Template()
    get_template = Template()
    for key, content in seen.items():
        set_template.literal(data.draw(text)).set(key, content)
        get_template.literal(data.draw(text)).get(key)
    wires = [set_template.serialize()] + [get_template.serialize()] * 2
    fast_pages, fast_dpc = _serve_all(wires, fast=True)
    reference_pages, reference_dpc = _serve_all(wires, fast=False)
    assert fast_pages == reference_pages
    assert fast_dpc.bytes_scanned == reference_dpc.bytes_scanned
    assert fast_dpc.stats == reference_dpc.stats


def test_oversized_fragment_rejected_identically():
    """Both scanners raise the same typed error on an oversized SET body."""
    config = TemplateConfig(max_fragment_bytes=64)
    wire = Template(config=config).set(3, "x" * 65)
    oversized = wire.serialize()
    for scanner in (TagScanner(SENTINEL), KmpTagScanner(SENTINEL)):
        with pytest.raises(OversizedFragmentError):
            parse_template(oversized, config, scanner=scanner)
    for dpc in (DynamicProxyCache(template_config=config),
                ReferenceProxyCache(template_config=config)):
        with pytest.raises(OversizedFragmentError):
            dpc.process_response(oversized)


@given(text, text)
@settings(max_examples=100)
def test_escaped_sentinel_content_identical(prefix, suffix):
    """Content containing the raw sentinel survives both proxies unchanged."""
    content = prefix + SENTINEL + suffix + SENTINEL
    wires = [Template().set(1, content).serialize(),
             Template().get(1).serialize()]
    fast_pages, _ = _serve_all(wires, fast=True)
    reference_pages, _ = _serve_all(wires, fast=False)
    assert fast_pages == reference_pages
    assert fast_pages[1][0] == content
