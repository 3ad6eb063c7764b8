"""The page-template instruction language exchanged between BEM and DPC.

At run time the BEM writes a *page template* instead of a full page: literal
layout HTML interleaved with instructions (§4.3.2):

* ``SET`` — "insert the fragment into the DPC": carries the dpcKey and the
  freshly generated fragment content (a directory miss).
* ``GET`` — "retrieve the fragment from the DPC": carries only the dpcKey
  (a directory hit).  This is the tiny tag whose size is the ``g`` of the
  Section 5 analysis.

Wire format
-----------

Tags are framed by the sentinel ``<~``::

    GET       <~G:0042~>
    SET open  <~S:0042~>...fragment content...<~E:0042~>
    escape    <~Q~>          (a literal occurrence of "<~" in content)

With the default ``key_width=4`` a GET tag is exactly **10 bytes** — the
paper's baseline tag size ``g`` (Table 2) — and a SET costs two tags, giving
the analysis' miss cost of ``s + 2g``.  dpcKeys are zero-padded integers,
which is precisely why the paper introduces the integer key: "it reduces the
tag size" versus embedding the long fragmentID (§4.3.3).

Hot-path representation
-----------------------

The instruction classes carry ``__slots__`` (they are allocated per block
per request), :meth:`Template.serialize`/:meth:`Template.wire_bytes` are
memoized until the template is mutated, :meth:`Template.compiled` bakes the
instruction stream into a flat assembly plan the DPC executes with one
``str.join``, and :class:`TemplateCache` is the LRU parse cache — keyed on
the wire string — that lets a warm proxy skip re-parsing a template it has
already seen.  None of these change any observable byte: the differential
property tests pin the DPC's output to the oracle proxy in
:mod:`repro.perf.reference`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError, OversizedFragmentError, TemplateError
from .scanner import TagScanner

SENTINEL = "<~"
TAG_CLOSE = "~>"
ESCAPE_TAG = "<~Q~>"


class TemplateConfig:
    """Framing parameters shared by a BEM/DPC pair.

    ``key_width`` fixes the zero-padded dpcKey width, hence the exact tag
    size ``g = key_width + 6`` bytes and the maximum representable key.
    Both sides of a deployment must agree on it, like any wire protocol.

    ``max_fragment_bytes`` bounds one SET payload.  A proxy that accepts
    arbitrarily large fragments can be wedged by a single malformed (or
    hostile) response; anything over the limit is rejected with a typed
    :class:`~repro.errors.OversizedFragmentError` before it touches a slot.
    """

    __slots__ = ("key_width", "max_fragment_bytes")

    def __init__(
        self, key_width: int = 4, max_fragment_bytes: int = 1 << 20
    ) -> None:
        if key_width < 1:
            raise ConfigurationError("key_width must be at least 1")
        if max_fragment_bytes < 1:
            raise ConfigurationError("max_fragment_bytes must be positive")
        object.__setattr__(self, "key_width", key_width)
        object.__setattr__(self, "max_fragment_bytes", max_fragment_bytes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TemplateConfig is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplateConfig):
            return NotImplemented
        return (
            self.key_width == other.key_width
            and self.max_fragment_bytes == other.max_fragment_bytes
        )

    def __hash__(self) -> int:
        return hash((self.key_width, self.max_fragment_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TemplateConfig(key_width=%d, max_fragment_bytes=%d)" % (
            self.key_width, self.max_fragment_bytes,
        )

    @property
    def tag_size(self) -> int:
        """Bytes per tag: ``<~`` + kind + ``:`` + key + ``~>``."""
        return self.key_width + 6

    @property
    def max_key(self) -> int:
        """Largest dpcKey representable at this key width."""
        return 10 ** self.key_width - 1

    def format_key(self, key: int) -> str:
        """Zero-padded decimal rendering of a dpcKey."""
        if not 0 <= key <= self.max_key:
            raise ConfigurationError(
                "dpcKey %d out of range for key_width=%d" % (key, self.key_width)
            )
        return "%0*d" % (self.key_width, key)


DEFAULT_CONFIG = TemplateConfig()


class Literal:
    """Non-cacheable bytes shipped verbatim (layout markup, X_j=0 content)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        object.__setattr__(self, "text", text)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash((Literal, self.text))

    def __repr__(self) -> str:
        return "Literal(text=%r)" % (self.text,)


class GetInstruction:
    """Splice the DPC slot ``key``'s content here (directory hit)."""

    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        object.__setattr__(self, "key", key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GetInstruction is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GetInstruction):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash((GetInstruction, self.key))

    def __repr__(self) -> str:
        return "GetInstruction(key=%r)" % (self.key,)


class SetInstruction:
    """Store ``content`` in slot ``key``, and splice it here (miss)."""

    __slots__ = ("key", "content")

    def __init__(self, key: int, content: str) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "content", content)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SetInstruction is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetInstruction):
            return NotImplemented
        return self.key == other.key and self.content == other.content

    def __hash__(self) -> int:
        return hash((SetInstruction, self.key, self.content))

    def __repr__(self) -> str:
        return "SetInstruction(key=%r, content=%r)" % (self.key, self.content)


Instruction = Union[Literal, GetInstruction, SetInstruction]

#: Assembly-plan opcodes (see :meth:`Template.compiled`).
OP_TEXT = 0   # (OP_TEXT, text)              — splice literal text
OP_GET = 1    # (OP_GET, key)                — splice slot ``key``
OP_SET = 2    # (OP_SET, key, content)       — store then splice ``content``

PlanOp = Tuple


class Template:
    """An ordered instruction stream plus its serialization/parsing.

    Serialization, wire size, literal-byte totals, and the compiled
    assembly plan are memoized on the instance and invalidated whenever an
    instruction is appended, so read-heavy callers (the serve path, the
    benches) never pay for the same traversal twice.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction] = (),
        config: TemplateConfig = DEFAULT_CONFIG,
    ) -> None:
        self.instructions: List[Instruction] = list(instructions)
        self.config = config
        self._serialized: Optional[str] = None
        self._wire_bytes: Optional[int] = None
        self._literal_bytes: Optional[int] = None
        self._plan: Optional[Tuple[PlanOp, ...]] = None

    # -- construction -----------------------------------------------------------

    def add(self, instruction: Instruction) -> "Template":
        """Append one instruction (chainable); invalidates memoized views."""
        self.instructions.append(instruction)
        self._invalidate()
        return self

    def literal(self, text: str) -> "Template":
        """Append literal page text (chainable)."""
        return self.add(Literal(text))

    def get(self, key: int) -> "Template":
        """Append a GET instruction (chainable)."""
        return self.add(GetInstruction(key))

    def set(self, key: int, content: str) -> "Template":
        """Append a SET instruction with content (chainable)."""
        return self.add(SetInstruction(key, content))

    def _invalidate(self) -> None:
        """Drop every memoized view after a mutation."""
        self._serialized = None
        self._wire_bytes = None
        self._literal_bytes = None
        self._plan = None

    # -- inspection --------------------------------------------------------------

    @property
    def get_count(self) -> int:
        """Number of GET instructions."""
        return sum(1 for i in self.instructions if type(i) is GetInstruction)

    @property
    def set_count(self) -> int:
        """Number of SET instructions."""
        return sum(1 for i in self.instructions if type(i) is SetInstruction)

    @property
    def literal_bytes(self) -> int:
        """Total UTF-8 bytes of literal text (memoized until mutation)."""
        if self._literal_bytes is None:
            self._literal_bytes = sum(
                len(i.text.encode("utf-8"))
                for i in self.instructions
                if type(i) is Literal
            )
        return self._literal_bytes

    def normalized(self) -> "Template":
        """Merge adjacent literals and drop empty ones.

        Serialization implicitly concatenates adjacent literal text, so the
        normalized form is the canonical one: ``parse(serialize(t))`` equals
        ``t.normalized()``.
        """
        merged: List[Instruction] = []
        for instruction in self.instructions:
            if type(instruction) is Literal:
                if not instruction.text:
                    continue
                if merged and type(merged[-1]) is Literal:
                    merged[-1] = Literal(merged[-1].text + instruction.text)
                    continue
            merged.append(instruction)
        return Template(merged, self.config)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return (
            self.instructions == other.instructions and self.config == other.config
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Template(%d instructions, %d GET, %d SET)" % (
            len(self.instructions),
            self.get_count,
            self.set_count,
        )

    # -- serialization --------------------------------------------------------------

    def serialize(self) -> str:
        """Render the wire form sent from the BEM to the DPC.

        Memoized: repeated calls return the cached string until the
        template is mutated.
        """
        if self._serialized is not None:
            return self._serialized
        parts: List[str] = []
        for instruction in self.normalized().instructions:
            if type(instruction) is Literal:
                parts.append(_escape(instruction.text))
            elif type(instruction) is GetInstruction:
                parts.append(_tag(self.config, "G", instruction.key))
            elif type(instruction) is SetInstruction:
                parts.append(_tag(self.config, "S", instruction.key))
                parts.append(_escape(instruction.content))
                parts.append(_tag(self.config, "E", instruction.key))
            else:  # pragma: no cover - exhaustive over Instruction
                raise TemplateError("unknown instruction %r" % (instruction,))
        wire = "".join(parts)
        self._serialized = wire
        return wire

    def wire_bytes(self) -> int:
        """Size of the serialized template in bytes (memoized)."""
        if self._wire_bytes is not None:
            return self._wire_bytes
        size = len(self.serialize().encode("utf-8"))
        self._wire_bytes = size
        return size

    # -- assembly plan ---------------------------------------------------------------

    def compiled(self) -> Tuple[PlanOp, ...]:
        """The flat assembly plan for this instruction stream (memoized).

        Each op is a tuple starting with one of :data:`OP_TEXT`,
        :data:`OP_GET`, :data:`OP_SET`.  Executing the ops in order against
        a slot array and joining the spliced parts reproduces, byte for
        byte, what the per-instruction ``isinstance`` walk produces —
        :meth:`~repro.core.dpc.DynamicProxyCache.assemble` runs this plan
        with one ``''.join`` over the collected parts.
        """
        if self._plan is not None:
            return self._plan
        ops: List[PlanOp] = []
        for instruction in self.instructions:
            kind = type(instruction)
            if kind is Literal:
                ops.append((OP_TEXT, instruction.text))
            elif kind is GetInstruction:
                ops.append((OP_GET, instruction.key))
            elif kind is SetInstruction:
                ops.append((OP_SET, instruction.key, instruction.content))
            else:  # pragma: no cover - exhaustive over Instruction
                raise TemplateError("unknown instruction %r" % (instruction,))
        self._plan = tuple(ops)
        return self._plan


def _tag(config: TemplateConfig, kind: str, key: int) -> str:
    return "%s%s:%s%s" % (SENTINEL, kind, config.format_key(key), TAG_CLOSE)


def _escape(text: str) -> str:
    return text.replace(SENTINEL, ESCAPE_TAG)


class TemplateCache:
    """LRU parse cache: wire string -> parsed (normalized) template.

    A warm proxy sees the same serialized template again and again — every
    full-hit exchange for a page ships an identical GET-only wire form.
    Re-parsing it is pure interpreter overhead the paper's design never
    asks for, so the DPC keeps this cache in front of
    :func:`parse_template`.  Cached templates are treated as immutable by
    their owner (the DPC never mutates a parsed template); anything that
    needs a private copy should parse fresh.

    Capacity is bounded (LRU eviction) and single wire strings larger than
    ``max_wire_bytes`` are never cached — cold-miss templates carrying full
    fragment payloads are usually unique, so caching them would only churn
    memory.
    """

    def __init__(self, maxsize: int = 256, max_wire_bytes: int = 1 << 20) -> None:
        if maxsize < 1:
            raise ConfigurationError("cache maxsize must be positive")
        if max_wire_bytes < 1:
            raise ConfigurationError("max_wire_bytes must be positive")
        self.maxsize = maxsize
        self.max_wire_bytes = max_wire_bytes
        self._entries: "OrderedDict[str, Template]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, wire: str) -> Optional[Template]:
        """The cached parse of ``wire``, refreshed to most-recently-used."""
        template = self._entries.get(wire)
        if template is None:
            self.misses += 1
            return None
        self._entries.move_to_end(wire)
        self.hits += 1
        return template

    def put(self, wire: str, template: Template) -> None:
        """Remember the parse of ``wire``, evicting the LRU entry if full.

        The size bound is in UTF-8 bytes; an ASCII wire's length already
        is its byte count, so only non-ASCII wires pay for an encode.
        """
        size = len(wire) if wire.isascii() else len(wire.encode("utf-8"))
        if size > self.max_wire_bytes:
            return
        self._entries[wire] = template
        self._entries.move_to_end(wire)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached parse (e.g. on a proxy restart)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def parse_template(
    wire: str,
    config: TemplateConfig = DEFAULT_CONFIG,
    scanner: TagScanner = None,
) -> Template:
    """Parse a serialized template back into an instruction stream.

    The scan for tags is a single linear pass (the cost the Section 5
    analysis charges at ``z`` per byte) by ``scanner``.  Passing a shared
    :class:`TagScanner` lets a DPC accumulate scanned-byte counts across
    responses.
    """
    if scanner is None:
        scanner = TagScanner(SENTINEL)
    elif scanner.sentinel != SENTINEL:
        raise ConfigurationError("scanner sentinel must be %r" % SENTINEL)

    positions = scanner.positions(wire)
    template = Template(config=config)
    buffer: List[str] = []          # accumulates literal or SET content text
    open_set: Tuple[int, ...] = ()  # (key,) while inside a SET body
    cursor = 0

    def flush_literal() -> None:
        if buffer:
            template.literal("".join(buffer))
            buffer.clear()

    for position in positions:
        if position < cursor:
            # Sentinel inside a tag we already consumed (cannot happen with
            # the current grammar, but guards against malformed overlap).
            continue
        buffer.append(wire[cursor:position])
        kind, key, end = _read_tag(wire, position, config)
        cursor = end
        if kind == "Q":
            buffer.append(SENTINEL)
            continue
        if open_set:
            if kind == "E" and key == open_set[0]:
                content = "".join(buffer)
                if len(content.encode("utf-8")) > config.max_fragment_bytes:
                    raise OversizedFragmentError(
                        "SET body for key %d is %d bytes (max %d)"
                        % (
                            open_set[0],
                            len(content.encode("utf-8")),
                            config.max_fragment_bytes,
                        )
                    )
                template.set(open_set[0], content)
                buffer.clear()
                open_set = ()
                continue
            raise TemplateError(
                "unexpected %s tag inside SET body for key %d at offset %d"
                % (kind, open_set[0], position)
            )
        if kind == "G":
            flush_literal()
            template.get(key)
        elif kind == "S":
            flush_literal()
            open_set = (key,)
        elif kind == "E":
            raise TemplateError(
                "END tag for key %d without a matching SET at offset %d"
                % (key, position)
            )
    if open_set:
        raise TemplateError("unterminated SET body for key %d" % open_set[0])
    buffer.append(wire[cursor:])
    if "".join(buffer):
        template.literal("".join(buffer))
    return template.normalized()


def _read_tag(wire: str, position: int, config: TemplateConfig) -> Tuple[str, int, int]:
    """Decode one tag at ``position``; returns (kind, key, end_offset)."""
    after = position + len(SENTINEL)
    if wire.startswith("Q" + TAG_CLOSE, after):
        return "Q", -1, after + 1 + len(TAG_CLOSE)
    kind = wire[after : after + 1]
    if kind not in ("G", "S", "E"):
        raise TemplateError(
            "unknown tag kind %r at offset %d" % (wire[after : after + 1], position)
        )
    if wire[after + 1 : after + 2] != ":":
        raise TemplateError("malformed tag at offset %d (missing ':')" % position)
    key_start = after + 2
    key_end = key_start + config.key_width
    key_text = wire[key_start:key_end]
    if len(key_text) != config.key_width or not key_text.isdigit():
        raise TemplateError(
            "malformed dpcKey %r at offset %d" % (key_text, position)
        )
    if wire[key_end : key_end + len(TAG_CLOSE)] != TAG_CLOSE:
        raise TemplateError("unterminated tag at offset %d" % position)
    return kind, int(key_text), key_end + len(TAG_CLOSE)
