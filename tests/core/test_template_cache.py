"""Tests for the template hot path: memoization, plans, parse cache."""

import pytest

from repro.core.dpc import DynamicProxyCache
from repro.core.fragments import FragmentID
from repro.core.template import (
    OP_GET,
    OP_SET,
    OP_TEXT,
    Template,
    TemplateCache,
    parse_template,
)
from repro.errors import ConfigurationError
from repro.perf.reference import ReferenceProxyCache


class TestSerializeMemo:
    def test_serialize_cached_until_mutation(self):
        template = Template().literal("a").get(1)
        first = template.serialize()
        assert template.serialize() is first  # memo returns same object
        template.literal("b")
        second = template.serialize()
        assert second != first
        assert Template(list(template.instructions)).serialize() == second

    def test_wire_bytes_tracks_mutation(self):
        template = Template().get(1)
        before = template.wire_bytes()
        template.literal("xyz")
        assert template.wire_bytes() == before + 3


class TestCompiledPlan:
    def test_plan_mirrors_instructions(self):
        template = Template().literal("a").get(2).set(3, "zz")
        plan = template.compiled()
        assert plan == ((OP_TEXT, "a"), (OP_GET, 2), (OP_SET, 3, "zz"))
        assert template.compiled() is plan  # memoized

    def test_plan_invalidated_by_mutation(self):
        template = Template().get(1)
        before = template.compiled()
        template.get(2)
        after = template.compiled()
        assert after != before
        assert after[-1] == (OP_GET, 2)


class TestTemplateCache:
    def test_lru_eviction_order(self):
        cache = TemplateCache(maxsize=2)
        cache.put("a", Template().literal("a"))
        cache.put("b", Template().literal("b"))
        assert cache.get("a") is not None  # refresh 'a'
        cache.put("c", Template().literal("c"))
        assert cache.get("b") is None      # LRU victim
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_hit_and_miss_counters(self):
        cache = TemplateCache()
        assert cache.get("missing") is None
        cache.put("w", Template())
        assert cache.get("w") is not None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_oversized_wire_not_cached(self):
        cache = TemplateCache(max_wire_bytes=4)
        cache.put("longwire", Template())
        assert len(cache) == 0
        assert cache.get("longwire") is None
        # The bound is in UTF-8 bytes: three characters, six bytes.
        cache.put("\u00e9\u00e9\u00e9", Template())
        assert len(cache) == 0
        cache.put("\u00e9\u00e9", Template())
        assert len(cache) == 1

    def test_clear(self):
        cache = TemplateCache()
        cache.put("w", Template())
        cache.clear()
        assert len(cache) == 0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            TemplateCache(maxsize=0)
        with pytest.raises(ConfigurationError):
            TemplateCache(max_wire_bytes=0)


class TestDpcParseCache:
    def test_warm_wire_served_from_cache(self):
        dpc = DynamicProxyCache(capacity=16)
        dpc.process_response(Template().set(1, "frag").serialize())
        wire = Template().get(1).serialize()
        dpc.process_response(wire)
        misses = dpc.parse_cache.misses
        dpc.process_response(wire)
        assert dpc.parse_cache.hits >= 1
        assert dpc.parse_cache.misses == misses

    def test_cache_hit_still_charges_scan_bytes(self):
        """Result 1: scanned bytes grow by len(wire) even on a cache hit."""
        dpc = DynamicProxyCache(capacity=16)
        reference = ReferenceProxyCache(capacity=16)
        for proxy in (dpc, reference):
            proxy.process_response(Template().set(1, "frag").serialize())
            wire = Template().get(1).serialize()
            proxy.process_response(wire)
            before = proxy.bytes_scanned
            proxy.process_response(wire)  # parse-cache hit on the runtime DPC
            assert proxy.bytes_scanned == before + len(wire)
        assert dpc.parse_cache.hits >= 1
        assert dpc.bytes_scanned == reference.bytes_scanned

    def test_clear_drops_parse_cache(self):
        dpc = DynamicProxyCache(capacity=16)
        dpc.process_response(Template().set(1, "frag").serialize())
        assert len(dpc.parse_cache) >= 1
        dpc.clear()
        assert len(dpc.parse_cache) == 0


class TestFragmentIdMemo:
    def test_canonical_memoized_on_instance(self):
        fragment_id = FragmentID.create("page", {"user": "bob"})
        first = fragment_id.canonical()
        assert fragment_id.canonical() is first
        assert first == "page?user=bob"

    def test_equal_ids_share_canonical_value(self):
        a = FragmentID.create("f", {"i": 1})
        b = FragmentID.create("f", {"i": 1})
        assert a == b
        assert a.canonical() == b.canonical()
        assert hash(a) == hash(b)
