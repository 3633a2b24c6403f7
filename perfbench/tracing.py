"""In-memory spans around the server's layer entry points, and their analysis.

The traced run starts the server through ``traced_server.py``, which calls
:func:`install` before :func:`repro.service.server.serve`.  :func:`install`
replaces each layer's public entry point, at every module attribute or class
attribute its callers look it up by, with a wrapper that records one span
per call.  Nothing under ``src/`` changes.

A span is the tuple ``(id, name, start, end, parent, thread, trace, shared,
extra)``:

* ``start``/``end`` come from ``time.monotonic()`` in the server process;
* ``parent`` is the innermost enclosing span, carried in a context variable.
  The launcher makes ``loop.run_in_executor`` copy the caller's context, so
  work handed to an executor thread keeps its parent and the request's
  trace id (the ``X-Repro-Trace-Id`` the benchmark sent);
* ``shared`` marks a span that serves several requests at once (a
  micro-batch); it starts a subtree of its own;
* ``extra`` is a per-layer count (batch size, rows, points/entries).

Events are zero-length records ``(name, parent, trace, value)`` for counts
taken where the work happens (engine block reads, point-cache lookups).
Spans and events stay in memory and are written as JSON when the server
exits.

:func:`layer_metrics` turns a span file plus the benchmark's per-request
samples into the per-layer metrics ``BENCHMARK.json`` lists.  A span's self
time is its duration minus the part of its interval that its child spans
cover (children on other threads included, clipped to the parent).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span field positions.
ID, NAME, START, END, PARENT, THREAD, TRACE, SHARED, EXTRA = range(9)

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Collects spans and events for one server process."""

    def __init__(self, trace_id: Callable[[], Optional[str]]) -> None:
        self.spans: List[tuple] = []
        self.events: List[tuple] = []
        self._ids = itertools.count(1)
        self._trace_id = trace_id

    def _open(self, shared: bool) -> Tuple[int, Optional[int], contextvars.Token]:
        span_id = next(self._ids)
        parent = None if shared else _CURRENT.get()
        return span_id, parent, _CURRENT.set(span_id)

    def _close(self, span_id, parent, token, name, start, shared, extra) -> None:
        end = time.monotonic()
        _CURRENT.reset(token)
        self.spans.append(
            (span_id, name, start, end, parent, threading.get_ident(),
             self._trace_id(), shared, extra)
        )

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable[[tuple, Any], Any]] = None,
        shared: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call; ``extra(args, result)`` adds a count."""
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent, token = self._open(shared)
                start = time.monotonic()
                value = None
                try:
                    result = await fn(*args, **kwargs)
                    value = extra(args, result) if extra else None
                    return result
                finally:
                    self._close(span_id, parent, token, name, start, shared, value)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, token = self._open(shared)
            start = time.monotonic()
            value = None
            try:
                result = fn(*args, **kwargs)
                value = extra(args, result) if extra else None
                return result
            finally:
                self._close(span_id, parent, token, name, start, shared, value)

        return wrapper

    def count(self, name: str, fn: Callable, value: Callable[[Any], int]) -> Callable:
        """``fn`` recording one event per call with ``value(result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.events.append((name, _CURRENT.get(), self._trace_id(), value(result)))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span and event as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def _patch(owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attribute`` with ``make(original)``, keeping classmethods."""
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))


def _copying_run_in_executor(original: Callable) -> Callable:
    """``run_in_executor`` that runs ``func`` in a copy of the caller's context."""

    @functools.wraps(original)
    def run_in_executor(self, executor, func, *args):
        if executor is None or isinstance(executor, ThreadPoolExecutor):
            return original(self, executor, contextvars.copy_context().run, func, *args)
        return original(self, executor, func, *args)

    return run_in_executor


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of ``repro`` at the names callers use."""
    import asyncio.base_events

    import repro.core.design_point as design_point
    import repro.dse.cache as cache
    import repro.dse.vectorized as vectorized
    import repro.experiments.persistence as persistence
    import repro.experiments.runner as runner
    import repro.service.batching as batching
    import repro.service.columnar as columnar
    import repro.service.jobs as jobs
    import repro.service.queryspec as queryspec
    import repro.service.server as server
    import repro.service.store as store
    import repro.winograd.quantized as quantized

    _patch(asyncio.base_events.BaseEventLoop, "run_in_executor", _copying_run_in_executor)

    def span(name, extra=None, shared=False):
        return lambda fn: tracer.wrap(name, fn, extra=extra, shared=shared)

    _patch(batching.MicroBatcher, "submit", span("service.batching.submit"))
    _patch(
        batching, "evaluate_requests",
        span("dse.batch", extra=lambda args, result: len(result), shared=True),
    )
    _patch(
        vectorized, "evaluate_cell_batch",
        span(
            "dse.vectorized",
            extra=lambda args, result: [
                len(args[3]), sum(point is not None for point in result.points)
            ],
        ),
    )
    for module in (quantized, vectorized, cache, design_point):
        _patch(module, "calibrated_error", span("winograd.quantized.calibrate"))
    _patch(server, "point_to_dict", span("experiments.persistence.encode"))
    for module in (persistence, jobs, store, server):
        _patch(module, "result_to_dict", span("experiments.persistence.encode"))
    for module in (persistence, store):
        _patch(module, "result_from_dict", span("experiments.persistence.encode"))
    _patch(queryspec.QuerySpec, "from_dict", span("service.queryspec.parse"))
    for method in ("query_page", "pareto", "best"):
        _patch(store.ResultStore, method, span("service.store.read"))
    _patch(
        columnar.ColumnarBlock, "read_at",
        lambda fn: tracer.count("service.columnar.read_at", fn, lambda result: 1),
    )
    _patch(store, "query_rows", span("service.query.rows", extra=lambda a, r: len(r[0])))
    _patch(store, "best_row", span("service.query.rows", extra=lambda a, r: 1))
    _patch(
        store, "pareto_rows",
        span("service.query.pareto", extra=lambda a, r: sum(map(len, r[1].values()))),
    )
    _patch(jobs, "plan_shards", span("service.jobs.plan"))
    _patch(jobs, "execute_shard", span("service.jobs.shard"))
    _patch(store.ResultStore, "put_payload", span("service.store.put"))
    _patch(store.ResultStore, "flush_index", span("service.store.flush"))
    _patch(store.ResultStore, "get", span("service.store.load"))
    _patch(
        runner.Evaluator, "__call__",
        span("experiments.runner.probe", extra=lambda a, point: int(point is not None)),
    )
    _patch(
        cache.EvaluationCache, "lookup_point",
        lambda fn: tracer.count(
            "dse.cache.point_lookup", fn, lambda result: int(result is not None)
        ),
    )


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #
def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Self time of every span: duration minus the part children cover.

    Children are matched by ``parent`` id whatever thread they ran on, and
    clipped to the parent's interval, so a child that outlives its parent
    (work handed to another thread and not awaited) only removes the
    overlapping part.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = _union_length(
            (max(child[START], start), min(child[END], end))
            for child in children.get(span[ID], ())
            if child[END] > start and child[START] < end
        )
        result[span[ID]] = (end - start) - covered
    return result


def _roots(spans: Sequence[tuple]) -> Dict[int, tuple]:
    """The outermost ancestor of every span (itself when it has no parent)."""
    by_id = {span[ID]: span for span in spans}
    roots: Dict[int, tuple] = {}
    for span in spans:
        path = []
        node = span
        while node[ID] not in roots and node[PARENT] in by_id:
            path.append(node)
            node = by_id[node[PARENT]]
        root = roots.get(node[ID], node)
        for member in path + [node]:
            roots[member[ID]] = root
    return roots


def request_breakdown(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per trace id: time covered by its spans and time spent queued.

    Only spans outside a shared subtree count.  ``covered`` is the length
    of the union of the request's span intervals across all threads.
    ``queue_wait`` is the part of the gaps in that union that ends where an
    ``service.jobs.shard`` span starts: the time a job waited for the
    worker slot.
    """
    roots = _roots(spans)
    by_trace: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[TRACE] is not None and not roots[span[ID]][SHARED]:
            by_trace[span[TRACE]].append(span)
    breakdown: Dict[str, Dict[str, float]] = {}
    for trace, members in by_trace.items():
        members.sort(key=lambda span: span[START])
        covered = 0.0
        queue_wait = 0.0
        reach = None
        run_start = None
        for span in members:
            if reach is None or span[START] > reach:
                if reach is not None:
                    covered += reach - run_start
                    if span[NAME] == "service.jobs.shard":
                        queue_wait += span[START] - reach
                run_start, reach = span[START], span[END]
            elif span[END] > reach:
                reach = span[END]
        covered += reach - run_start
        breakdown[trace] = {"covered": covered, "queue_wait": queue_wait}
    return breakdown


def served_batch_waits(spans: Sequence[tuple], traces: set) -> List[float]:
    """``submit`` duration minus the batch that served it, per timed request.

    The batch serving a request is the last ``dse.batch`` span that lies
    entirely inside the request's ``service.batching.submit`` interval:
    batches run one at a time on the evaluation thread, so any earlier
    batch inside the interval was still running when the request joined.
    """
    batches = sorted(
        (span[END], span[START]) for span in spans if span[NAME] == "dse.batch"
    )
    ends = [end for end, _start in batches]
    waits = []
    for span in spans:
        if span[NAME] != "service.batching.submit" or span[TRACE] not in traces:
            continue
        position = bisect_right(ends, span[END]) - 1
        served = 0.0
        if position >= 0 and batches[position][1] >= span[START]:
            served = batches[position][0] - batches[position][1]
        waits.append((span[END] - span[START]) - served)
    return waits


def layer_metrics(
    document: Dict[str, list],
    traces: Dict[str, float],
    response_bytes: Sequence[int],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the timed requests.

    ``traces`` maps each timed request's trace id to its client latency in
    seconds.  A span counts when its root span carries a timed trace id
    (batches carry the trace of the request that opened them).  Returns
    ``name -> (value, unit)``: times are milliseconds per operation, counts
    are per operation, ratios are plain.
    """
    spans = [tuple(span) for span in document["spans"]]
    events = [tuple(event) for event in document["events"]]
    ops = max(len(traces), 1)
    roots = _roots(spans)
    timed = set(traces)
    included = [span for span in spans if roots[span[ID]][TRACE] in timed]
    own = self_times(spans)
    included_ids = {span[ID] for span in included}

    def spans_named(*names):
        return [span for span in included if span[NAME] in names]

    def total_ms(names, self_only=False):
        chosen = spans_named(*names)
        seconds = sum(
            own[span[ID]] if self_only else span[END] - span[START] for span in chosen
        )
        return seconds * 1e3 / ops

    def per_op(names):
        return len(spans_named(*names)) / ops

    reads = spans_named("service.store.read")
    read_ids = {span[ID] for span in reads}
    block_reads = sum(
        1 for name, parent, _trace, _value in events
        if name == "service.columnar.read_at" and parent in read_ids
    )
    lookups = [
        value for name, parent, trace, value in events
        if name == "dse.cache.point_lookup"
        and (trace in timed or parent in included_ids)
    ]
    vector_counts = [span[EXTRA] for span in spans_named("dse.vectorized") if span[EXTRA]]
    entries = sum(count[0] for count in vector_counts)
    probes = spans_named("experiments.runner.probe")
    batch_sizes = [span[EXTRA] for span in spans_named("dse.batch") if span[EXTRA]]
    breakdown = request_breakdown(included)
    self_ms = [
        (latency - breakdown.get(trace, {}).get("covered", 0.0)
         - breakdown.get(trace, {}).get("queue_wait", 0.0)) * 1e3
        for trace, latency in traces.items()
    ]
    waits = served_batch_waits(included, timed)
    return {
        "service.server.self_ms": (sum(self_ms) / ops, "ms"),
        "service.server.response_kb": (sum(response_bytes) / 1024 / ops, "KB"),
        "service.batching.wait_ms": (sum(waits) * 1e3 / ops, "ms"),
        "service.batching.batch_size": (
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0, "count"
        ),
        "dse.batch.busy_ms": (total_ms(["dse.batch"], self_only=True), "ms"),
        "dse.vectorized.busy_ms": (total_ms(["dse.vectorized"], self_only=True), "ms"),
        "dse.vectorized.calls": (per_op(["dse.vectorized"]), "count"),
        "dse.vectorized.feasible_ratio": (
            sum(count[1] for count in vector_counts) / entries if entries else 0.0, "ratio"
        ),
        "winograd.quantized.calibrate_ms": (
            total_ms(["winograd.quantized.calibrate"]), "ms"
        ),
        "experiments.persistence.encode_ms": (
            total_ms(["experiments.persistence.encode"], self_only=True), "ms"
        ),
        "service.queryspec.parse_ms": (total_ms(["service.queryspec.parse"]), "ms"),
        "service.store.read_ms": (total_ms(["service.store.read"], self_only=True), "ms"),
        "service.columnar.engine_hit_ratio": (
            1.0 - block_reads / len(reads) if reads else 0.0, "ratio"
        ),
        "service.query.rows_ms": (total_ms(["service.query.rows"]), "ms"),
        "service.query.rows_out": (
            sum(
                span[EXTRA] or 0
                for span in spans_named("service.query.rows", "service.query.pareto")
            ) / ops,
            "count",
        ),
        "service.query.pareto_ms": (total_ms(["service.query.pareto"]), "ms"),
        "service.jobs.plan_ms": (total_ms(["service.jobs.plan"]), "ms"),
        "service.jobs.queue_wait_ms": (
            sum(breakdown.get(trace, {}).get("queue_wait", 0.0) for trace in timed)
            * 1e3 / ops,
            "ms",
        ),
        "service.jobs.shard_ms": (total_ms(["service.jobs.shard"]), "ms"),
        "service.jobs.shards": (per_op(["service.jobs.shard"]), "count"),
        "service.store.put_ms": (total_ms(["service.store.put"]), "ms"),
        "service.store.flush_ms": (total_ms(["service.store.flush"]), "ms"),
        "service.store.load_ms": (total_ms(["service.store.load"]), "ms"),
        "experiments.runner.probe_ms": (total_ms(["experiments.runner.probe"]), "ms"),
        "experiments.runner.probes": (len(probes) / ops, "count"),
        "experiments.runner.useful_ratio": (
            sum(span[EXTRA] or 0 for span in probes) / len(probes) if probes else 0.0,
            "ratio",
        ),
        "dse.cache.point_hit_ratio": (
            sum(lookups) / len(lookups) if lookups else 0.0, "ratio"
        ),
    }
