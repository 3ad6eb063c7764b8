"""Outside-in instrumentation: wrappers installed on built instances.

Nothing here edits the program.  A probe replaces a *bound method on one
instance* (``obj.attr = wrapper``) with a wrapper that calls the original,
so only the objects a benchmark run built are affected and the classes stay
untouched.

* In an untraced run only the page boundary, the data-write entry point and
  workload materialisation are wrapped (:class:`PageClock`, :func:`timed_call`),
  and they record plain durations.
* In a traced run every layer entry point named in ``LAYER_OF`` is wrapped
  as well, and each call records a span ``(name, start, end, parent, page)``
  in a :class:`Spans` store.  Spans live in flat arrays (cheap for the
  garbage collector) and are written out once, at the end of the run.

A span's *self time* is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread, no callbacks escaping
their caller), so the children of a span never overlap and the self times
of a page's spans sum to the page's wall time.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

from speed import METER

#: Span name -> the layer its self time is charged to.  ``page`` is the
#: closed-loop driver (everything outside a wrapped call) and ``pipeline``
#: the per-request entry point's own glue code.
LAYER_OF: Dict[str, str] = {
    "page": "harness",
    "pipeline": "pipeline",
    "network.firewall": "network.firewall",
    "network.channel.send": "network.channel",
    "appserver.handle": "appserver",
    "appserver.block_body": "appserver",
    "bem.process_block": "bem",
    "directory.lookup": "directory.lookup",
    "directory.insert": "directory.insert",
    "replacement.select_victim": "replacement",
    "invalidation.on_change": "invalidation",
    "invalidation.watch": "invalidation",
    "database.update": "database.update",
    "database.execute": "database.execute",
    "dpc.process_response": "dpc",
    "template.parse": "template",
    "template.parse_cache": "template",
    "overload.gate": "overload.gate",
    "workload.materialize": "workload",
}

#: The template parse is not a method of any instance; it is the interval
#: between a parse-cache miss and the ``put`` that stores the parsed result.
_PARSE = "template.parse"


class Spans:
    """In-memory span store plus the page cursor the wrappers stamp."""

    def __init__(self, first_page: int) -> None:
        #: Pages before this index are set-up (warmup); counters skip them.
        self.first_page = first_page
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.pages = array("l")
        self._stack: List[int] = []
        #: Index of the page being served; -1 before the first page.
        self.page = -1
        self.counts: Dict[str, int] = {}
        #: While set, wrappers call straight through and record nothing (the
        #: benchmark's own oracle checks run the same layers).
        self.paused = False

    # -- recording -------------------------------------------------------------

    def open(self, name: str, start: float) -> int:
        """Start a span at ``start`` under the innermost open span."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.pages.append(self.page)
        self._stack.append(index)
        return index

    def close(self, index: int, end: float) -> None:
        """End span ``index``; it must be the innermost open span."""
        if self._stack.pop() != index:
            raise AssertionError("span %s closed out of order" % self.names[index])
        self.ends[index] = end

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a named counter (work seen at a probe on a measured page)."""
        if self.page >= self.first_page and not self.paused:
            self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if self.paused:
            return fn(*args, **kwargs)
        index = self.open(name, perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index, perf_counter())

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound method) by a span-recording call."""
        original = getattr(obj, attr)
        call = self.call
        setattr(obj, attr, lambda *args, **kwargs: call(name, original, *args, **kwargs))

    # -- instrumentation of the built layers ---------------------------------

    def instrument_bem(self, bem, bus) -> None:
        """BEM, its directory, replacement policy and invalidation manager.

        ``bus`` is the trigger bus the BEM was attached to.
        """
        original = bem.process_block

        call = self.call

        def process_block(fragment_id, metadata, generate):
            def body():
                return call("appserver.block_body", generate)

            return call("bem.process_block", original, fragment_id, metadata, body)

        bem.process_block = process_block
        directory = bem.directory
        self.wrap(directory, "lookup", "directory.lookup")
        self.wrap(directory, "insert", "directory.insert")
        policy = directory.policy
        select = policy.select_victim

        def select_victim(entries, now):
            self.count("replacement.candidates", len(entries))
            return call("replacement.select_victim", select, entries, now)

        policy.select_victim = select_victim
        manager = bem.invalidation
        self.wrap(manager, "watch", "invalidation.watch")
        # The trigger bus holds the bound ``on_change`` it was given at
        # attach time, so the wrapper is subscribed in its place.
        bus.unsubscribe(manager.on_change)
        self.wrap(manager, "on_change", "invalidation.on_change")
        bus.subscribe(manager.on_change)

    def instrument_database(self, db) -> None:
        """SQL statements and the table query API (scan / index lookup).

        Key reads (``Table.get``) are left inside their caller: both sites
        use them for every fragment, and a span per key read would cost more
        than the read.  ``Table.scan`` is a generator, so its span covers
        only the time spent producing rows, one span per row.
        """
        self.wrap_query(db, "execute")
        for name in db.table_names():
            table = db.table(name)
            self.wrap_query(table, "lookup")
            scan = table.scan

            def timed_scan(where=None, scan=scan):
                self.count("database.queries")
                rows = scan(where)
                while True:
                    try:
                        row = self.call("database.execute", next, rows)
                    except StopIteration:
                        return
                    yield row

            table.scan = timed_scan

    def wrap_query(self, obj: object, attr: str) -> None:
        """A ``database.execute`` span that also counts one query."""
        original = getattr(obj, attr)

        def query(*args, **kwargs):
            self.count("database.queries")
            return self.call("database.execute", original, *args, **kwargs)

        setattr(obj, attr, query)

    def instrument_dpc(self, dpc) -> None:
        """Proxy assembly plus the template parse and its parse cache."""
        self.wrap(dpc, "process_response", "dpc.process_response")
        cache = dpc.parse_cache
        get, put = cache.get, cache.put
        parse_started: List[Optional[float]] = [None]

        def cache_get(wire):
            template = self.call("template.parse_cache", get, wire)
            self.count("template.parse_cache.lookups")
            if template is None:
                parse_started[0] = perf_counter()
            else:
                self.count("template.parse_cache.hits")
            return template

        def cache_put(wire, template):
            start = parse_started[0]
            if start is not None and not self.paused:
                parse_started[0] = None
                self.close(self.open(_PARSE, start), perf_counter())
            return self.call("template.parse_cache", put, wire, template)

        cache.get, cache.put = cache_get, cache_put

    def instrument_origin_path(self, firewall, channel, server) -> None:
        """Firewall scans, origin-link sends and the application server."""
        self.wrap(firewall, "scan_bytes", "network.firewall")
        self.wrap(channel, "send", "network.channel.send")
        handle = server.handle

        def traced_handle(request):
            response = self.call("appserver.handle", handle, request)
            self.count("appserver.blocks", response.meta["blocks"])
            return response

        server.handle = traced_handle

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        selfs = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= self.ends[index] - self.starts[index]
        return selfs

    def summarize(self) -> Dict[str, object]:
        """Per-layer self time and per-name call counts over measured pages.

        Also returns, per page, the root wall time and the sum of the self
        times of every span stamped with that page (the closure check).
        """
        selfs = self.self_times()
        layer_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        name_self_s: Dict[str, float] = {}
        page_wall: Dict[int, float] = {}
        page_self: Dict[int, float] = {}
        for index, name in enumerate(self.names):
            page = self.pages[index]
            if page < self.first_page:
                continue
            own = selfs[index]
            if own < -1e-9:
                raise AssertionError("span %s has negative self time" % name)
            layer = LAYER_OF[name]
            layer_s[layer] = layer_s.get(layer, 0.0) + own
            name_self_s[name] = name_self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            page_self[page] = page_self.get(page, 0.0) + own
            if name == "page":
                page_wall[page] = self.ends[index] - self.starts[index]
        return {
            "layer_s": layer_s,
            "name_self_s": name_self_s,
            "calls": calls,
            "page_wall": page_wall,
            "page_self": page_self,
        }

    def rows(self):
        """Every span as a CSV row: name,start_s,end_s,parent,page."""
        for index, name in enumerate(self.names):
            yield "%s,%.9f,%.9f,%d,%d" % (
                name,
                self.starts[index],
                self.ends[index],
                self.parents[index],
                self.pages[index],
            )


class PageClock:
    """Page boundaries and page/update timing, shared by both run kinds.

    ``begin_page`` opens the page (a ``page`` span when traced) and
    ``end_page`` closes it; benchmark work between the two calls — oracle
    checks and, in the measured window, host-speed samples — is counted as
    ``excluded_s`` and kept out of every page.
    """

    def __init__(self, spans: Optional[Spans], warmup: int) -> None:
        self.spans = spans
        self.warmup = warmup
        self.page = -1
        self.page_s: List[float] = []
        self.update_s: List[float] = []
        #: When each measured page and update ended (for speed scaling).
        self.page_at: List[float] = []
        self.update_at: List[float] = []
        self.window_start: Optional[float] = None
        self.excluded_s = 0.0
        self._page_start = 0.0
        self._page_span = -1
        self._updates_in_page = 0.0

    def begin_page(self, now: float) -> None:
        """Open page ``self.page + 1`` at ``now``."""
        self.page += 1
        self._page_start = now
        self._updates_in_page = 0.0
        if self.spans is not None:
            self.spans.page = self.page
            self._page_span = self.spans.open("page", now)

    def end_page(self, now: float, serve_s: Optional[float] = None) -> None:
        """Close the current page; record its host time when measured.

        ``serve_s`` is the duration of the per-request entry point; when it
        is ``None`` the page time is the page's wall time less data writes.
        """
        if self.spans is not None:
            self.spans.close(self._page_span, now)
        if self.page == self.warmup - 1:
            self.window_start = now
        elif self.page >= self.warmup:
            if serve_s is None:
                serve_s = now - self._page_start - self._updates_in_page
            self.page_s.append(serve_s)
            self.page_at.append(now)

    def exclude(self, started: float) -> None:
        """Sample host speed (measured window only), then charge benchmark-side
        work since ``started`` to ``excluded_s``."""
        if self.window_start is not None:
            METER.tick()
            self.excluded_s += perf_counter() - started

    def finish(self, now: float) -> float:
        """Close the page opened after the last one; returns window seconds.

        The time from the last page's end to ``now`` (the harness's own
        result bookkeeping) belongs to no page but stays in the window.
        """
        if self.spans is not None:
            self.spans.close(self._page_span, now)
            self.spans.pages[self._page_span] = -1
        return now - self.window_start - self.excluded_s

    def wrap_update(self, table) -> None:
        """Time every ``table.update`` (the whole data-write path)."""
        update = table.update
        spans = self.spans

        def timed_update(*args, **kwargs):
            index = spans.open("database.update", perf_counter()) if spans else -1
            start = perf_counter()
            try:
                return update(*args, **kwargs)
            finally:
                end = perf_counter()
                if spans is not None:
                    spans.close(index, end)
                self._updates_in_page += end - start
                if self.page >= self.warmup:
                    self.update_s.append(end - start)
                    self.update_at.append(end)

        table.update = timed_update


def timed_call(spans: Optional[Spans], name: str, fn: Callable, *args):
    """Call ``fn(*args)``; returns (result, seconds), as a span when traced."""
    index = spans.open(name, perf_counter()) if spans is not None else -1
    start = perf_counter()
    try:
        result = fn(*args)
    finally:
        end = perf_counter()
        if spans is not None:
            spans.close(index, end)
    return result, end - start
