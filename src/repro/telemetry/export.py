"""Exporters: JSON-lines and aligned text for metrics, trees for traces.

Two machine formats and two human formats:

* :func:`to_json_lines` / :func:`parse_json_lines` — one JSON object per
  row (``{"name": ..., "value": ...}``), round-trippable back into a
  fresh :class:`~repro.telemetry.metrics.MetricsRegistry`.
* :func:`span_to_dict` / :func:`spans_to_json_lines` and their inverses
  :func:`span_from_dict` / :func:`spans_from_json_lines` — span trees as
  nested JSON objects, one trace per line, round-trippable with root
  annotations (overload/chaos outcomes, recovery epochs) intact.
  Non-JSON meta values are coerced to strings at export time so a trace
  with rich annotations can never fail to serialize.
* :func:`render_metrics` — the classic two-column aligned table.
* :func:`render_span_tree` — an indented tree with virtual durations,
  statuses, and metadata, suitable for terminals and docs.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry, Row
from .tracing import Span


# -- metrics: JSON lines -----------------------------------------------------


def to_json_lines(rows: Iterable[Row]) -> str:
    """Serialize ``(name, value)`` rows, one JSON object per line."""
    return "\n".join(
        json.dumps({"name": name, "value": value}, sort_keys=True)
        for name, value in rows
    )


def parse_json_lines(text: str) -> List[Row]:
    """Parse :func:`to_json_lines` output back into ``(name, value)`` rows.

    Blank lines are skipped; JSON arrays come back as lists (matching how
    histogram bucket rows are emitted), so a parse → re-emit round trip is
    byte-identical.
    """
    rows: List[Row] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        rows.append((record["name"], record["value"]))
    return rows


def registry_from_rows(rows: Iterable[Row]) -> MetricsRegistry:
    """Rebuild a registry whose ``collect()`` replays ``rows`` verbatim.

    The reconstruction is value-level (ad-hoc rows), not instrument-level:
    it exists so exported snapshots can be re-rendered and diffed offline,
    not to resume counting.
    """
    registry = MetricsRegistry()
    for name, value in rows:
        registry.record(name, value)
    return registry


# -- metrics: aligned text ---------------------------------------------------


def render_metrics(rows: Iterable[Row], title: Optional[str] = None) -> str:
    """Render rows as the two-column aligned table the harness always used.

    Implemented locally (rather than importing the harness reporting
    helpers) so the telemetry package stays a leaf dependency; the output
    — headers, ``-`` rules, two-space gutters, trailing padding — is
    byte-identical with ``repro.harness.reporting.format_table``, and a
    test keeps it that way.
    """
    def cell(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return "%.4f" % value
        return str(value)

    materialized: List[Tuple[str, str]] = [
        (str(name), cell(value)) for name, value in rows
    ]
    headers = ("metric", "value")
    widths = [len(headers[0]), len(headers[1])]
    for name, value in materialized:
        widths[0] = max(widths[0], len(name))
        widths[1] = max(widths[1], len(value))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for name, value in materialized:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip((name, value), widths))
        )
    if title is not None:
        return "%s\n%s" % (title, "\n".join(lines))
    return "\n".join(lines)


# -- traces ------------------------------------------------------------------


def _json_safe(value: object) -> object:
    """Coerce one meta value to something ``json.dumps`` accepts.

    Annotations are free-form (``root.annotate(epoch=3, outcome="shed")``)
    and occasionally carry rich objects; exporting must never crash on
    them, so anything beyond the JSON scalar/collection types degrades to
    its ``str()`` form.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return str(value)


def span_to_dict(span: Span) -> dict:
    """A span subtree as plain nested dicts (JSON-ready).

    Meta (annotations) ride along on every level — the root's
    ``outcome=``/``predicted_hit=`` verdicts from the chaos and overload
    run loop included — coerced through :func:`_json_safe`.
    """
    record = {
        "name": span.name,
        "trace_id": span.trace_id,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "status": span.status,
    }
    if span.meta:
        record["meta"] = {
            str(key): _json_safe(value) for key, value in span.meta.items()
        }
    if span.children:
        record["children"] = [span_to_dict(child) for child in span.children]
    return record


def span_from_dict(record: dict) -> Span:
    """Rebuild a (closed) :class:`Span` tree from :func:`span_to_dict` output.

    The reconstructed spans are detached from any tracer — they exist for
    offline analysis and re-rendering — but carry the same name, trace ID,
    virtual timestamps, status, meta, and children, so
    ``span_to_dict(span_from_dict(record)) == record`` holds exactly.
    """
    span = Span(
        name=record["name"],
        trace_id=record["trace_id"],
        start=record["start"],
        meta=dict(record.get("meta", {})),
    )
    span.end = record["end"]
    span.status = record.get("status", "ok")
    span.children = [
        span_from_dict(child) for child in record.get("children", [])
    ]
    return span


def spans_to_json_lines(roots: Iterable[Span]) -> str:
    """Serialize whole traces, one JSON object (nested tree) per line."""
    return "\n".join(
        json.dumps(span_to_dict(root), sort_keys=True) for root in roots
    )


def spans_from_json_lines(text: str) -> List[Span]:
    """Parse :func:`spans_to_json_lines` output back into span trees.

    Blank lines are skipped.  A parse → re-emit round trip is
    byte-identical, annotations included — the machine-format twin of
    :func:`parse_json_lines` for traces.
    """
    roots: List[Span] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        roots.append(span_from_dict(json.loads(line)))
    return roots


def _format_meta(meta: dict) -> str:
    return " ".join("%s=%s" % (key, meta[key]) for key in meta)


def render_span_tree(root: Span, indent: str = "  ") -> str:
    """Pretty-print one trace as an indented tree with virtual durations.

    Example::

        request  12.340ms  url=/page.jsp outcome=miss
          channel.transfer  1.000ms
          bem.process  10.340ms
            script.exec  9.100ms
    """
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        parts = ["%s%s" % (indent * depth, span.name),
                 "%.3fms" % (span.duration * 1000.0)]
        if span.status != "ok":
            parts.append("status=%s" % span.status)
        if span.meta:
            parts.append(_format_meta(span.meta))
        lines.append("  ".join(parts))
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
