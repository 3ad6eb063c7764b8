"""The reference oracle for the DPC's wire path.

The DPC (:mod:`repro.core.dpc`) runs one implementation of each hot
operation: a ``str.find`` sentinel scan, an LRU template parse cache, and a
precompiled assembly plan.  This module keeps the simple implementations
they replaced, operation for operation as the paper describes them, so
differential tests and benchmarks can hold the runtime path to them:

* :class:`KmpTagScanner` scans with the per-character KMP loop the paper
  cites (§5) instead of ``str.find``;
* :class:`ReferenceProxyCache` re-parses every response (no parse cache)
  with that scanner and assembles by walking the instruction objects with
  ``isinstance``.

Both must be byte-identical to the runtime path in every observable:
assembled pages, DPC stats, and the scanned-byte counter behind Result 1.
The oracle lives in ``src/`` rather than ``tests/`` because
``python -m repro bench hotpath`` imports it: the benchmark times the
Figure 4 testbed with a :class:`ReferenceProxyCache` in place of
``testbed.dpc`` and reports the runtime path's speedup over it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.dpc import AssembledPage, DynamicProxyCache
from ..core.scanner import TagScanner, failure_function
from ..core.template import (
    SENTINEL,
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    parse_template,
)
from ..errors import AssemblyError


class KmpTagScanner(TagScanner):
    """A :class:`TagScanner` that scans with the per-character KMP loop."""

    def __init__(self, sentinel: str) -> None:
        super().__init__(sentinel)
        self._failure = failure_function(sentinel)

    def positions(self, text: str) -> List[int]:
        """Scan ``text`` once with KMP, charging every byte to the counter."""
        self.bytes_scanned += len(text)
        matches: List[int] = []
        matched = 0
        pattern = self.sentinel
        table = self._failure
        for i, char in enumerate(text):
            while matched > 0 and char != pattern[matched]:
                matched = table[matched - 1]
            if char == pattern[matched]:
                matched += 1
            if matched == len(pattern):
                matches.append(i - len(pattern) + 1)
                matched = table[matched - 1]
        return matches


class ReferenceProxyCache(DynamicProxyCache):
    """The DPC without its parse cache or compiled assembly plans.

    Same constructor, slot array, stats, and errors as
    :class:`~repro.core.dpc.DynamicProxyCache`; only how a response is
    scanned, parsed, and spliced differs.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scanner = KmpTagScanner(SENTINEL)

    def process_response(self, wire: str) -> AssembledPage:
        """Scan and parse every response afresh, then assemble it."""
        template = parse_template(wire, self.template_config, scanner=self.scanner)
        return self.assemble(template, wire_bytes=len(wire.encode("utf-8")))

    def _splice(self, template: Template) -> Tuple[List[str], int, int]:
        """Walk the instruction objects one ``isinstance`` test at a time."""
        parts: List[str] = []
        sets = 0
        gets = 0
        for instruction in template.instructions:
            if isinstance(instruction, Literal):
                parts.append(instruction.text)
            elif isinstance(instruction, SetInstruction):
                self.store(instruction.key, instruction.content)
                parts.append(instruction.content)
                sets += 1
            elif isinstance(instruction, GetInstruction):
                parts.append(self.fetch(instruction.key))
                gets += 1
            else:  # pragma: no cover - exhaustive over Instruction
                raise AssemblyError("unknown instruction %r" % (instruction,))
        return parts, sets, gets
