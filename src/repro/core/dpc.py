"""The Dynamic Proxy Cache (DPC), §4.3.3.

"The structure of the DPC cache is straightforward: it is implemented as an
in-memory array of pointers to cached fragments, where the DpcKey serves as
the array index."

The DPC sits outside the site infrastructure.  For every response coming
from the origin it scans the byte stream for instruction tags (one linear
pass — the ``z``-per-byte cost of the Section 5 analysis), executes the
SET/GET instructions against its slot array, and emits the assembled page.
Repeated wire forms are served from an LRU parse cache and assembled from
a precompiled plan; :class:`repro.perf.reference.ReferenceProxyCache` is
the uncached, per-instruction oracle the differential tests hold it to.

Note the deliberate asymmetry with the BEM: the DPC holds no metadata at
all — no TTLs, no validity flags, no fragment identities.  All cache
management lives in the BEM ("All cache management functionality for the
DPC is handled by the BEM as well"), and the shared integer dpcKey is the
entire coordination protocol: no explicit BEM->DPC control messages exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import (
    AssemblyError,
    ConfigurationError,
    OversizedFragmentError,
    SlotError,
)
from .scanner import TagScanner
from .template import (
    DEFAULT_CONFIG,
    OP_GET,
    OP_TEXT,
    SENTINEL,
    Template,
    TemplateCache,
    TemplateConfig,
    parse_template,
)


@dataclass
class DpcStats:
    """Per-proxy counters used by the experiment harness."""

    responses_processed: int = 0
    template_bytes_in: int = 0    # what crossed the origin link (payload)
    page_bytes_out: int = 0       # what was delivered to clients
    fragments_set: int = 0
    fragments_get: int = 0
    literal_bytes: int = 0

    @property
    def bytes_saved(self) -> int:
        """Bytes the origin did not have to ship because of assembly."""
        return self.page_bytes_out - self.template_bytes_in


@dataclass
class AssembledPage:
    """Result of assembling one response at the proxy."""

    html: str
    template_bytes: int
    page_bytes: int
    fragments_set: int
    fragments_get: int
    #: The proxy's generation counter at assembly time.  The BEM-side
    #: resync protocol (:mod:`repro.faults.recovery`) watches this value on
    #: returning traffic to detect cold restarts.
    epoch: int = 0

    @property
    def expansion_ratio(self) -> float:
        """page bytes / template bytes — how much the DPC 'inflated'."""
        if self.template_bytes == 0:
            return 0.0
        return self.page_bytes / self.template_bytes


class DynamicProxyCache:
    """Slot array plus the scan-and-assemble loop."""

    def __init__(
        self,
        capacity: int = 1024,
        template_config: TemplateConfig = DEFAULT_CONFIG,
        name: str = "dpc",
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("DPC capacity must be positive")
        if capacity > template_config.max_key + 1:
            raise ConfigurationError(
                "capacity %d exceeds the %d keys representable with key_width=%d"
                % (capacity, template_config.max_key + 1, template_config.key_width)
            )
        self.name = name
        self.capacity = capacity
        self.template_config = template_config
        self._slots: List[Optional[str]] = [None] * capacity
        self.scanner = TagScanner(SENTINEL)
        #: LRU parse cache: wire string -> parsed template.  A warm proxy
        #: repeatedly receives identical GET-only wire forms; re-parsing
        #: them is avoidable interpreter cost.  The cache only affects
        #: *how* a template is obtained — scanned-byte accounting, stats,
        #: and assembled pages are byte-identical.
        self.parse_cache = TemplateCache()
        self.stats = DpcStats()
        #: Generation counter: bumped every time the slot array is wiped
        #: (cold restart).  Carried on every :class:`AssembledPage` so the
        #: BEM can detect a restart from normal SET/GET traffic and run the
        #: resync protocol instead of failing on the first stale GET.
        self.epoch = 0
        #: Duck-typed :class:`repro.insight.InsightLayer` (anything exposing
        #: ``record_dpc_wipe``); notified on :meth:`clear` only, so the
        #: assembly hot path carries no insight cost at all.
        self._insight = None

    def attach_insight(self, insight) -> None:
        """Attach a lifecycle observer notified when the slot array wipes."""
        self._insight = insight

    # -- slot primitives ---------------------------------------------------------

    def store(self, key: int, content: str) -> None:
        """Execute a SET: overwrite slot ``key`` with ``content``.

        Payloads over the configured ``max_fragment_bytes`` are rejected
        with a typed :class:`~repro.errors.OversizedFragmentError` — a
        second line of defense behind the parser's check, for callers that
        build :class:`Template` objects programmatically.
        """
        self._check_key(key)
        if len(content.encode("utf-8")) > self.template_config.max_fragment_bytes:
            raise OversizedFragmentError(
                "fragment for dpcKey %d is %d bytes (max %d) on %r"
                % (
                    key,
                    len(content.encode("utf-8")),
                    self.template_config.max_fragment_bytes,
                    self.name,
                )
            )
        self._slots[key] = content

    def fetch(self, key: int) -> str:
        """Execute a GET: read slot ``key``; empty slots are a protocol error."""
        self._check_key(key)
        content = self._slots[key]
        if content is None:
            raise AssemblyError(
                "GET for dpcKey %d but slot is empty on %r" % (key, self.name)
            )
        return content

    def slot_in_use(self, key: int) -> bool:
        """Whether slot ``key`` currently holds content."""
        self._check_key(key)
        return self._slots[key] is not None

    def occupied_slots(self) -> int:
        """How many slots hold content."""
        return sum(1 for slot in self._slots if slot is not None)

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.capacity:
            raise SlotError(
                "dpcKey %d out of range [0, %d) on %r" % (key, self.capacity, self.name)
            )

    # -- the assembly loop --------------------------------------------------------

    def process_response(self, wire: str) -> AssembledPage:
        """Scan an origin response and assemble the user-deliverable page.

        This is the ISAPI-filter equivalent: one pass over the bytes, tags
        dispatched as encountered, literals copied through.  A wire form
        the proxy has already parsed is served from the LRU parse cache;
        the scan-cost counter is still charged for every response byte
        (:meth:`TagScanner.charge`), so Result 1 accounting equals a
        re-scan of every response.
        """
        template = self.parse_cache.get(wire)
        if template is None:
            template = parse_template(
                wire, self.template_config, scanner=self.scanner
            )
            self.parse_cache.put(wire, template)
        else:
            self.scanner.charge(len(wire))
        return self.assemble(template, wire_bytes=len(wire.encode("utf-8")))

    def assemble(self, template: Template, wire_bytes: Optional[int] = None) -> AssembledPage:
        """Execute a parsed template against the slot array.

        Runs the template's precompiled plan
        (:meth:`~repro.core.template.Template.compiled`): literal splices
        and slot reads collected into one list, joined once.
        """
        if wire_bytes is None:
            wire_bytes = template.wire_bytes()
        parts, sets, gets = self._splice(template)
        html = "".join(parts)
        page_bytes = len(html.encode("utf-8"))

        self.stats.responses_processed += 1
        self.stats.template_bytes_in += wire_bytes
        self.stats.page_bytes_out += page_bytes
        self.stats.fragments_set += sets
        self.stats.fragments_get += gets
        self.stats.literal_bytes += template.literal_bytes
        return AssembledPage(
            html=html,
            template_bytes=wire_bytes,
            page_bytes=page_bytes,
            fragments_set=sets,
            fragments_get=gets,
            epoch=self.epoch,
        )

    def _splice(self, template: Template) -> Tuple[List[str], int, int]:
        """Run the plan's SETs and GETs; returns (page parts, sets, gets)."""
        parts: List[str] = []
        sets = 0
        gets = 0
        slots = self._slots
        store = self.store
        append = parts.append
        for op in template.compiled():
            kind = op[0]
            if kind == OP_TEXT:
                append(op[1])
            elif kind == OP_GET:
                key = op[1]
                content = slots[key] if 0 <= key < self.capacity else None
                if content is None:
                    # Fall back to fetch() for the exact typed error.
                    content = self.fetch(key)
                append(content)
                gets += 1
            else:  # OP_SET
                store(op[1], op[2])
                append(op[2])
                sets += 1
        return parts, sets, gets

    # -- maintenance ---------------------------------------------------------------

    def clear(self) -> None:
        """Drop every slot (proxy restart) and advance the epoch.

        Safe: the BEM re-SETs on the next request for each fragment because
        its directory is the source of truth — though after a restart the
        directory must be resynchronized too (flushed, or epoch-resynced via
        :class:`repro.faults.recovery.ResyncProtocol`), or GETs would
        reference empty slots."""
        self._slots = [None] * self.capacity
        self.parse_cache.clear()
        self.epoch += 1
        if self._insight is not None:
            self._insight.record_dpc_wipe(self.epoch)

    @property
    def bytes_scanned(self) -> int:
        """Total response bytes scanned so far."""
        return self.scanner.bytes_scanned

    def metric_rows(self) -> List[tuple]:
        """Registry rows: the proxy cache's health under ``dpc.*``.

        Same rows, order, and rounding the deployment snapshot always
        published (the savings ratio appears only once pages have been
        emitted, as before).
        """
        rows: List[tuple] = [
            ("dpc.epoch", self.epoch),
            ("dpc.responses_processed", self.stats.responses_processed),
            ("dpc.template_bytes_in", self.stats.template_bytes_in),
            ("dpc.page_bytes_out", self.stats.page_bytes_out),
            ("dpc.bytes_saved", self.stats.bytes_saved),
        ]
        if self.stats.page_bytes_out:
            rows.append((
                "dpc.byte_savings_ratio",
                round(self.stats.bytes_saved / self.stats.page_bytes_out, 4),
            ))
        rows.extend([
            ("dpc.fragments_set", self.stats.fragments_set),
            ("dpc.fragments_get", self.stats.fragments_get),
            ("dpc.slots_occupied", self.occupied_slots()),
            ("dpc.capacity", self.capacity),
            ("dpc.bytes_scanned", self.bytes_scanned),
        ])
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DynamicProxyCache(%r, %d/%d slots)" % (
            self.name,
            self.occupied_slots(),
            self.capacity,
        )
