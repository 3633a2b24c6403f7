"""Stdlib-only asyncio HTTP server for stored and ad-hoc design queries.

``python -m repro serve`` turns the repository from a batch tool into an
online system: campaigns are computed once (by a ``POST /v1/campaign`` or
offline via the CLI), persisted in a :class:`~repro.service.store.ResultStore`,
and every subsequent "what-if" — a Pareto front, a top-k under a budget, a
single candidate design — is answered from the store or from a
micro-batched vectorized evaluation, without the client owning any of the
engine.

Endpoints (all JSON):

``GET  /health``
    Liveness plus store/batcher statistics.
``GET  /v1/results``
    Stored-result metadata; filter with ``?network=&device=&fingerprint=&name=``.
``GET  /v1/results/<key>``
    One full stored result (the versioned persistence payload).
``GET  /v1/results/<key>/report``
    Summary/comparison rows of a stored result (``?metric=`` optional).
``POST /v1/query``
    Filter/select/top-k over a stored result's points (paginated).
``POST /v1/pareto``
    Per-network Pareto fronts of a stored result (paginated).
``POST /v1/best``
    Single best point of a stored result by a metric.
``POST /v1/evaluate``
    Evaluate one ad-hoc design point.  Concurrent requests are coalesced
    by the :class:`~repro.service.batching.MicroBatcher` into stacked
    NumPy batches — responses are bit-identical to the scalar model.
``POST /v1/jobs``
    Submit an :class:`~repro.experiments.ExperimentSpec` as an
    **asynchronous sharded job** (see :mod:`repro.service.jobs`): returns
    a job id immediately while shards evaluate on the worker pool.
``GET /v1/jobs`` / ``GET /v1/jobs/<id>``
    All jobs / one job's state, per-shard progress and ETA.
``DELETE /v1/jobs/<id>``
    Cancel a job's unfinished shards (completed shards stay stored).
``POST /v1/campaign``
    Synchronous wrapper over the job scheduler: submits the spec as a job,
    awaits completion and returns the stored result's key plus a summary.
``POST /v1/leases`` / ``GET /v1/leases``
    The pull-based **worker-fleet protocol** (see :mod:`repro.worker`):
    remote workers acquire leases on pending job shards / observability
    over every outstanding lease.
``POST /v1/leases/<id>/heartbeat|complete|fail``
    Extend a lease's expiry, push a finished shard's result payload, or
    report a worker-side failure (optionally handing the shard back).
    Leases that stop heartbeating expire and their shards re-queue, so a
    killed worker never strands a job.
``GET  /metrics`` / ``GET /v1/stats``
    Prometheus text exposition of the server's metrics / its JSON twin:
    request count + latency histograms per route, micro-batcher occupancy
    and coalesce ratio, store segment count/bytes, job queue depth and
    shard states, fleet lease counters, evaluation-cache hit rates.
    Disabled (404) when the server was started with ``--no-metrics``.

Result selection for ``query``/``pareto``/``best``: pass ``key`` for an
exact result, or ``fingerprint`` (and/or ``network``/``device``/``name``
filters) to use the latest matching stored result.  The three endpoints
share one request vocabulary — the
:class:`~repro.service.queryspec.QuerySpec` fields — and ``query``/
``pareto`` page their responses: ``limit`` (default 1000) caps the rows
returned and ``next_cursor`` (an opaque token, stable across appends and
compactions) continues where the page stopped.  ``GET /v1/jobs`` and
``GET /v1/leases`` page the same way (``?limit=&cursor=``).

Backpressure: with ``--max-pending-evals`` / ``--max-pending-jobs`` set,
a saturated micro-batcher or job queue answers ``429 Too Many Requests``
with a ``Retry-After`` header instead of buffering without bound; the
rejections are counted in the metrics.

Tracing: every request carries an ``X-Repro-Trace-Id`` header (minted
here when the client sent none), echoed on the response, propagated into
job submissions and fleet lease grants, and stamped on every structured
log line the server and workers emit — one id follows one request across
processes.

The full request/response reference, including error shapes, lives in
``docs/http-api.md`` (a test diffs it against :meth:`ResultServer.route_table`).

The HTTP layer is deliberately minimal — HTTP/1.1, ``Content-Length``
bodies, no TLS, no chunked encoding — because the transport is not the
point; the batching scheduler and the store are.  Run it behind a real
proxy if it ever faces the internet.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.design_space import GridEntry
from ..dse.batch import EvalRequest
from ..dse.campaign import CampaignResult
from ..experiments import persistence
from ..experiments.persistence import point_to_dict, result_to_dict
from ..experiments.spec import ExperimentSpec
from ..obs import MetricsRegistry, get_logger
from ..obs.tracing import (
    TRACE_HEADER,
    new_trace_id,
    set_trace_id,
    valid_trace_id,
)
from ..reporting import campaign_report_payload, json_sanitize, jsonable_rows
from .batching import BatcherSaturated, MicroBatcher
from .jobs import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_SHARD_ENTRIES,
    JobManager,
    JobQueueFull,
)
from .queryspec import QuerySpec, decode_cursor, encode_cursor
from .store import ResultStore

__all__ = ["ApiError", "ResultServer", "serve", "DEFAULT_MAX_BODY_BYTES"]

SERVER_NAME = "repro-service/1"

#: Largest request body the server will buffer (32 MiB).  A spec payload
#: is a few KiB and even a Fig. 6-scale shard-result payload is a couple
#: of MiB, so the cap only stops abuse: without it a single request could
#: buffer arbitrary gigabytes into memory before JSON parsing ever ran.
DEFAULT_MAX_BODY_BYTES = 32 << 20

#: Longest request line or header line the server reads (64 KiB, the
#: stream reader's buffer limit).  A longer request line is refused with
#: ``414``, a longer header line with ``431``.
MAX_LINE_BYTES = 64 << 10

#: Most header lines one request may carry; more is refused with ``431``.
#: Every client in this repository sends fewer than ten.
MAX_HEADER_COUNT = 100

#: Largest Winograd input tile (``m + r - 1``) ``/v1/evaluate`` accepts.
#: Transform generation cost grows superlinearly with the tile; an
#: unbounded ``m`` would wedge the single evaluation worker (and every
#: request queued behind it) for tens of seconds.  The paper's space tops
#: out at F(7,3) = tile 9; 16 leaves generous headroom.
MAX_EVALUATE_TILE = 16

#: Deserialized stored results memoized by key (segments are append-only,
#: so a cached result can never go stale).  Small: entries can be large.
RESULT_CACHE_SIZE = 8

#: Rows per ``/v1/query``/``/v1/pareto`` response when the request sets no
#: ``limit`` — large stores no longer produce unbounded responses; follow
#: ``next_cursor`` (or use ``ServiceClient.iter_query``) for the rest.
DEFAULT_PAGE_LIMIT = 1000


#: Default rows per ``GET /v1/jobs`` / ``GET /v1/leases`` page.  Smaller
#: than the query default: listing payloads carry per-job shard tallies.
DEFAULT_LISTING_LIMIT = 500


class ApiError(Exception):
    """A client-visible error with an HTTP status code.

    ``headers`` (e.g. ``Retry-After`` on a 429) are added verbatim to the
    error response.
    """

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers) if headers else {}


class RawResponse:
    """A handler's non-JSON response: raw bytes plus a content type."""

    def __init__(
        self, body: bytes, content_type: str = "text/plain; charset=utf-8"
    ) -> None:
        self.body = body
        self.content_type = content_type


# --------------------------------------------------------------------- #
# Request parsing helpers
# --------------------------------------------------------------------- #
def _field(body: Dict[str, Any], name: str, types: tuple, default: Any, required: bool = False) -> Any:
    """Typed access to an optional/required JSON body field."""
    if name not in body or body[name] is None:
        if required:
            raise ApiError(400, f"missing required field {name!r}")
        return default
    value = body[name]
    if types == (int,) and isinstance(value, bool):
        raise ApiError(400, f"field {name!r} must be an integer, got {value!r}")
    if types == (float,) and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types):
        expected = "/".join(t.__name__ for t in types)
        raise ApiError(400, f"field {name!r} must be {expected}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        # json.loads accepts the non-standard NaN/Infinity tokens; they
        # would flow through the batch math as poison values.
        raise ApiError(400, f"field {name!r} must be finite, got {value!r}")
    return value


def _check_fields(body: Dict[str, Any], known: set, what: str) -> None:
    unknown = set(body) - known
    if unknown:
        raise ApiError(
            400, f"unknown {what} fields {sorted(unknown)}; known fields: {sorted(known)}"
        )


def _receipt_fields(result: CampaignResult) -> Dict[str, Any]:
    """The fields a ``/v1/campaign`` receipt reports of its result."""
    return {
        "evaluations": result.evaluations,
        "feasible": result.feasible,
        "elapsed_seconds": result.elapsed_seconds,
        "summary": jsonable_rows(result.summary_rows()),
    }


class _RequestRefused(Exception):
    """Internal: a request refused before its body is read.

    Raised for a body beyond the configured cap (``413``), an over-long
    request line (``414``) or an over-long or excessive header block
    (``431``).  The connection closes after the error response.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ResultServer:
    """The asyncio HTTP server: a store, a batcher, a job scheduler.

    Micro-batched ``evaluate`` dispatches run on a dedicated single-thread
    executor (CPU-bound work never blocks the event loop); campaigns run
    as sharded jobs on the :class:`~repro.service.jobs.JobManager` worker
    pool (``workers`` processes, or one background thread when 1), so one
    large campaign no longer blocks other campaigns or evaluates.
    """

    #: Declarative route table: ``(method, pattern, handler name)``.
    #: ``{name}`` segments capture one path segment.  Introspectable via
    #: :meth:`route_table` — ``tests/docs`` diffs it against
    #: ``docs/http-api.md`` so the docs cannot silently rot.
    ROUTES: Tuple[Tuple[str, str, str], ...] = (
        ("GET", "/health", "_health"),
        ("GET", "/v1/results", "_list_results"),
        ("GET", "/v1/results/{key}", "_get_result"),
        ("GET", "/v1/results/{key}/report", "_report"),
        ("POST", "/v1/query", "_query"),
        ("POST", "/v1/pareto", "_pareto"),
        ("POST", "/v1/best", "_best"),
        ("POST", "/v1/evaluate", "_evaluate"),
        ("POST", "/v1/campaign", "_campaign"),
        ("POST", "/v1/jobs", "_submit_job"),
        ("GET", "/v1/jobs", "_list_jobs"),
        ("GET", "/v1/jobs/{job_id}", "_job_status"),
        ("DELETE", "/v1/jobs/{job_id}", "_cancel_job"),
        ("POST", "/v1/leases", "_acquire_leases"),
        ("GET", "/v1/leases", "_list_leases"),
        ("POST", "/v1/leases/{lease_id}/heartbeat", "_heartbeat_lease"),
        ("POST", "/v1/leases/{lease_id}/complete", "_complete_lease"),
        ("POST", "/v1/leases/{lease_id}/fail", "_fail_lease"),
        ("GET", "/metrics", "_metrics"),
        ("GET", "/v1/stats", "_stats"),
    )

    def __init__(
        self,
        store: ResultStore,
        host: str = "127.0.0.1",
        port: int = 8787,
        max_batch: int = 256,
        workers: int = 1,
        shard_entries: int = DEFAULT_SHARD_ENTRIES,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        quiet: bool = False,
        metrics: bool = True,
        max_pending_evals: Optional[int] = None,
        max_pending_jobs: Optional[int] = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.store = store
        self.host = host
        self.port = port
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        self.log = get_logger("server", enabled=not quiet)
        self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-eval")
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            executor=self._worker,
            max_pending=max_pending_evals,
            logger=self.log if not quiet else None,
        )
        self.jobs = JobManager(
            store,
            workers=workers,
            max_entries_per_shard=shard_entries,
            lease_ttl_s=lease_ttl_s,
            max_pending_jobs=max_pending_jobs,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.time()
        self.campaigns_run = 0
        self._result_cache: "OrderedDict[str, CampaignResult]" = OrderedDict()
        self.registry: Optional[MetricsRegistry] = None
        if metrics:
            self._init_metrics()

    def _init_metrics(self) -> None:
        """Create the metric families and scrape-time callback gauges.

        Counters and histograms are updated on the request path; anything
        that already lives in a data structure (queue depths, segment
        sizes, fleet counters, cache hit rates) is exported by callback at
        scrape time instead of being mirrored on every update.
        """
        registry = MetricsRegistry()
        self.registry = registry
        self._m_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route pattern and status.",
            ("method", "route", "status"),
        )
        self._m_latency = registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency in seconds, by route pattern.",
            ("route",),
        )
        self._m_rejected = registry.counter(
            "repro_http_rejected_total",
            "Requests answered 429 because a bounded queue was full.",
            ("queue",),
        )
        self._m_store_scan = registry.histogram(
            "repro_store_scan_seconds",
            "Store scan latency in seconds (includes executor queueing).",
            ("op",),
        )
        registry.gauge(
            "repro_batcher_occupancy",
            "Evaluate requests queued behind the micro-batch in flight.",
            callback=lambda: self.batcher.occupancy,
        )
        registry.gauge(
            "repro_batcher_inflight",
            "Evaluate requests dispatched to the executor, unresolved.",
            callback=lambda: self.batcher.inflight,
        )
        registry.gauge(
            "repro_batcher_requests_total",
            "Evaluate requests admitted by the micro-batcher.",
            callback=lambda: self.batcher.stats.requests,
        )
        registry.gauge(
            "repro_batcher_batches_total",
            "Batches the micro-batcher dispatched.",
            callback=lambda: self.batcher.stats.batches,
        )
        registry.gauge(
            "repro_batcher_coalesce_ratio",
            "Mean evaluate requests coalesced per dispatched batch.",
            callback=lambda: self.batcher.stats.mean_batch_size,
        )
        registry.gauge(
            "repro_batcher_rejected_total",
            "Evaluate requests refused because the admission queue was full.",
            callback=lambda: self.batcher.stats.rejected,
        )
        registry.gauge(
            "repro_store_results",
            "Results the store currently indexes.",
            callback=lambda: len(self.store),
        )
        registry.gauge(
            "repro_store_segments",
            "Live on-disk segments.",
            callback=lambda: self.store.stats()["segments"],
        )
        registry.gauge(
            "repro_store_segment_bytes",
            "Total bytes of live on-disk segments.",
            callback=lambda: self.store.stats()["segment_bytes"],
        )
        registry.gauge(
            "repro_jobs_tracked",
            "Jobs tracked by the scheduler, by state.",
            ("state",),
            callback=lambda: {
                (state,): count
                for state, count in self.jobs.stats()["by_state"].items()
            },
        )
        registry.gauge(
            "repro_jobs_queue_depth",
            "Jobs submitted but not yet terminal.",
            callback=self.jobs.active_jobs,
        )
        registry.gauge(
            "repro_jobs_rejected_total",
            "Job submissions refused because the queue bound was reached.",
            callback=lambda: self.jobs.rejected_jobs,
        )
        registry.gauge(
            "repro_job_shards",
            "Shards across all tracked jobs, by state.",
            ("state",),
            callback=lambda: {
                (state,): count
                for state, count in self.jobs.stats()["shard_states"].items()
            },
        )
        registry.gauge(
            "repro_fleet_leases",
            "Fleet lease counters (granted/completed/failed/expired/...).",
            ("event",),
            callback=lambda: {
                (event,): count
                for event, count in self.jobs.ledger.counters.items()
            },
        )
        registry.gauge(
            "repro_fleet_active_leases",
            "Leases currently held by fleet workers.",
            callback=lambda: len(self.jobs.ledger._leases),
        )
        registry.gauge(
            "repro_fleet_workers_seen",
            "Distinct fleet workers the ledger remembers.",
            callback=lambda: self.jobs.ledger.stats()["workers_seen"],
        )
        registry.gauge(
            "repro_fleet_oldest_heartbeat_age_seconds",
            "Age of the stalest active lease's deadline progress (0 = fresh).",
            callback=self._oldest_heartbeat_age,
        )
        registry.gauge(
            "repro_eval_cache_hit_rate",
            "Evaluation-cache hit rate, by cache layer.",
            ("layer",),
            callback=self._cache_hit_rates,
        )
        registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the server process started.",
            callback=lambda: time.time() - self._started,
        )

    def _oldest_heartbeat_age(self) -> float:
        """Seconds since the least-recently-extended active lease moved."""
        now = time.time()
        ages = [
            now - (lease.deadline - lease.ttl_s)
            for lease in self.jobs.ledger._leases.values()
        ]
        return max(ages) if ages else 0.0

    @staticmethod
    def _cache_hit_rates() -> Dict[Tuple[str, ...], float]:
        """Hit rate per evaluation-cache layer (import deferred: the
        global cache only exists once evaluation has actually run)."""
        from ..dse.cache import global_cache

        return {
            (layer,): stats.hit_rate
            for layer, stats in global_cache().stats.items()
        }

    # ------------------------------------------------------------------ #
    @classmethod
    def route_table(cls) -> List[Tuple[str, str]]:
        """Every ``(method, pattern)`` pair the server routes."""
        return [(method, pattern) for method, pattern, _ in cls.ROUTES]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections (sets ``self.port`` when 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        if not self.quiet:
            print(
                f"repro.service listening on http://{self.host}:{self.port} "
                f"(store: {self.store.root}, {len(self.store)} stored results)"
            )

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (starts the server if needed)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, cancel live jobs, drain the batcher and workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.jobs.close()
        await self.batcher.close()
        self._worker.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RequestRefused as error:
                    # Refuse before buffering a byte of the body.  The
                    # unread rest of the request makes the connection
                    # unusable for keep-alive, so it closes after the
                    # error response.
                    data = json.dumps({"error": str(error)}).encode()
                    writer.write(
                        (
                            f"HTTP/1.1 {error.status} {_REASONS[error.status]}\r\n"
                            f"Server: {SERVER_NAME}\r\n"
                            "Content-Type: application/json\r\n"
                            f"Content-Length: {len(data)}\r\n"
                            "Connection: close\r\n"
                            "\r\n"
                        ).encode()
                    )
                    writer.write(data)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, extra = await self._route(method, target, headers, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                if isinstance(payload, RawResponse):
                    data = payload.body
                    content_type = payload.content_type
                else:
                    data = json.dumps(json_sanitize(payload), indent=None).encode()
                    content_type = "application/json"
                extra_lines = "".join(
                    f"{name}: {value}\r\n" for name, value in extra.items()
                )
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                        f"Server: {SERVER_NAME}\r\n"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"{extra_lines}"
                        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                        "\r\n"
                    ).encode()
                )
                writer.write(data)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Server shutdown cancels handler tasks mid-wait_closed;
                # the connection is closed either way — end quietly rather
                # than logging an unhandled-exception traceback.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except ConnectionResetError:
            return None
        except ValueError:  # StreamReader.readline: the line overran the limit
            raise _RequestRefused(
                414, f"request line exceeds the {MAX_LINE_BYTES}-byte limit"
            ) from None
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        header_lines = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise _RequestRefused(
                    431, f"a header line exceeds the {MAX_LINE_BYTES}-byte limit"
                ) from None
            if line in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            if header_lines > MAX_HEADER_COUNT:
                raise _RequestRefused(
                    431, f"request carries more than {MAX_HEADER_COUNT} header lines"
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return None  # malformed framing: drop the connection cleanly
        if length < 0:
            return None
        if length > self.max_body_bytes:
            raise _RequestRefused(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    def _match(self, method: str, path: str) -> Tuple[str, Dict[str, str]]:
        """Resolve ``(method, path)`` against :attr:`ROUTES`.

        Returns the handler name plus captured ``{name}`` path segments.
        Raises a 404 :class:`ApiError` for unknown paths and a 405 when
        the path exists under a different method.
        """
        segments = path.split("/")
        allowed: set = set()
        for route_method, pattern, handler in self.ROUTES:
            parts = pattern.split("/")
            if len(parts) != len(segments):
                continue
            args: Dict[str, str] = {}
            for part, segment in zip(parts, segments):
                if part.startswith("{") and part.endswith("}"):
                    if not segment:
                        break
                    args[part[1:-1]] = segment
                elif part != segment:
                    break
            else:
                if route_method != method:
                    allowed.add(route_method)
                    continue
                return handler, args
        if allowed:
            raise ApiError(
                405, f"method {method} not allowed for {path}; allowed: {sorted(allowed)}"
            )
        raise ApiError(404, f"no route for {method} {path}")

    async def _route(
        self, method: str, target: str, headers: Dict[str, str], raw_body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Parse, dispatch and shield one request.

        Returns ``(status, payload, extra response headers)``.  The trace
        id (taken from the request's ``X-Repro-Trace-Id`` header, minted
        fresh when absent or malformed) is bound to the task context for
        the duration of the dispatch — handlers, the job manager and the
        structured logger all read it from there — and echoed back on the
        response.
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = {key: values[-1] for key, values in parse_qs(split.query).items()}
        trace_id = valid_trace_id(headers.get(TRACE_HEADER.lower())) or new_trace_id()
        token = set_trace_id(trace_id)
        route_pattern = path
        started = time.perf_counter()
        try:
            try:
                body: Dict[str, Any] = {}
                if raw_body:
                    try:
                        body = json.loads(raw_body)
                    except json.JSONDecodeError as error:
                        raise ApiError(400, f"request body is not valid JSON: {error}")
                    if not isinstance(body, dict):
                        raise ApiError(400, "request body must be a JSON object")
                handler_name, args = self._match(method, path)
                route_pattern = self._pattern_of(handler_name)
                response = await getattr(self, handler_name)(args, params, body)
                if (
                    isinstance(response, tuple)
                    and len(response) == 2
                    and isinstance(response[0], int)
                ):
                    status, payload = response
                else:
                    status, payload = 200, response
                extra: Dict[str, str] = {}
            except ApiError as error:
                status, payload, extra = error.status, {"error": error.message}, error.headers
            except Exception as error:  # noqa: BLE001 — the server must not die
                status, payload, extra = 500, {"error": f"{type(error).__name__}: {error}"}, {}
            elapsed = time.perf_counter() - started
            self._observe_request(method, route_pattern, status, elapsed)
            extra = {TRACE_HEADER: trace_id, **extra}
            return status, payload, extra
        finally:
            try:
                token.var.reset(token)
            except ValueError:
                pass  # context moved on (e.g. task switch); nothing to unbind

    def _pattern_of(self, handler_name: str) -> str:
        """The route pattern behind a handler (the metrics route label)."""
        for _, pattern, name in self.ROUTES:
            if name == handler_name:
                return pattern
        return handler_name

    def _observe_request(
        self, method: str, route: str, status: int, elapsed: float
    ) -> None:
        """Count + time one finished request; emit the access-log line.

        Unmatched paths are all labelled ``(unrouted)`` so junk URLs
        cannot mint unbounded metric children.
        """
        patterns = {pattern for _, pattern, _ in self.ROUTES}
        label = route if route in patterns else "(unrouted)"
        if self.registry is not None:
            self._m_requests.labels(method, label, str(status)).inc()
            self._m_latency.labels(label).observe(elapsed)
        self.log.event(
            "http.request",
            method=method,
            route=label,
            status=status,
            ms=round(elapsed * 1e3, 3),
        )

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    async def _health(self, args, params, body) -> Dict[str, Any]:
        """``GET /health`` — liveness plus store/batcher/job statistics."""
        return {
            "status": "ok",
            "server": SERVER_NAME,
            "uptime_seconds": round(time.time() - self._started, 3),
            "store": {
                "root": str(self.store.root),
                "results": len(self.store),
            },
            "batcher": self.batcher.stats.to_dict(),
            "jobs": self.jobs.stats(),
            "campaigns_run": self.campaigns_run,
        }

    async def _list_results(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/results`` — stored-result metadata, filterable."""
        _check_fields(params, {"network", "device", "fingerprint", "name"}, "query")
        records = self.store.query(
            fingerprint=params.get("fingerprint"),
            network=params.get("network"),
            device=params.get("device"),
            name=params.get("name"),
        )
        return {"results": [record.to_dict() for record in records]}

    async def _get_result(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/results/<key>`` — one full stored result payload."""
        key = args["key"]
        result = await self._load_by_key(key)
        loop = asyncio.get_running_loop()
        # Serializing thousands of points is CPU work; keep it off the loop.
        payload = await loop.run_in_executor(None, result_to_dict, result)
        return {"key": key, "result": payload}

    async def _report(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/results/<key>/report`` — summary/comparison rows."""
        key = args["key"]
        _check_fields(params, {"metric"}, "query")
        result = await self._load_by_key(key)
        try:
            report = campaign_report_payload(result, params.get("metric"))
        except (AttributeError, ValueError) as error:
            raise ApiError(400, str(error)) from None
        return {"key": key, "report": report}

    async def _load_by_key(self, key: str) -> CampaignResult:
        """A stored result, memoized by key (append-only store — a cached
        deserialization can never go stale) and loaded off the event loop
        so a multi-thousand-point parse never stalls other requests."""
        cached = self._result_cache.get(key)
        if cached is not None:
            self._result_cache.move_to_end(key)
            return cached
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, self.store.get, key)
        except KeyError:
            raise ApiError(404, f"no stored result with key {key!r}") from None
        self._result_cache[key] = result
        while len(self._result_cache) > RESULT_CACHE_SIZE:
            self._result_cache.popitem(last=False)
        return result

    async def _timed_store_call(self, op: str, fn, *args):
        """Run a store scan off the event loop, timing it into the metrics.

        The measured span includes executor queueing — deliberately: that
        wait is part of the latency a caller experiences when scans back
        up behind each other.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            return await loop.run_in_executor(None, fn, *args)
        finally:
            if self.registry is not None:
                self._m_store_scan.labels(op).observe(time.perf_counter() - started)

    def _query_spec(self, body: Dict[str, Any], allowed: set, what: str) -> QuerySpec:
        """Build the endpoint's :class:`QuerySpec` from a request body.

        ``_check_fields`` keeps the legacy unknown-field message; the
        spec's own validation covers types, metric names, where clauses
        and pagination fields with stable 400 texts.
        """
        _check_fields(body, allowed, what)
        try:
            # null fields mean "unset", exactly like the legacy handlers.
            spec = QuerySpec.from_dict(
                {k: v for k, v in body.items() if v is not None}
            )
        except ValueError as error:
            raise ApiError(400, str(error)) from None
        if spec.limit is None:
            spec = replace(spec, limit=DEFAULT_PAGE_LIMIT)
        return spec

    async def _query(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/query`` — filter/sort/top-k over a stored result.

        Runs as a vectorized column scan on the store's query engine;
        only the returned page of rows is materialized.  ``limit``
        defaults to 1000 and ``next_cursor`` continues the row ordering.
        """
        spec = self._query_spec(
            body,
            {"key", "fingerprint", "network", "device", "name", "metric", "top_k",
             "maximize", "where", "select", "limit", "cursor"},
            "query",
        )
        try:
            page = await self._timed_store_call("query", self.store.query_page, spec)
        except KeyError as error:
            raise ApiError(404, error.args[0]) from None
        except ValueError as error:
            raise ApiError(400, str(error)) from None
        return {
            "key": page.key,
            "count": len(page.rows),
            "total": page.total,
            "points": page.rows,
            "next_cursor": page.next_cursor,
        }

    async def _pareto(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/pareto`` — per-network Pareto fronts of a result.

        Fronts are flattened in network order for pagination; the page is
        regrouped per network in the response.
        """
        spec = self._query_spec(
            body,
            {"key", "fingerprint", "network", "device", "name", "objectives",
             "limit", "cursor"},
            "pareto",
        )
        try:
            page = await self._timed_store_call("pareto", self.store.pareto, spec)
        except KeyError as error:
            raise ApiError(404, error.args[0]) from None
        except ValueError as error:
            message = str(error)
            if message.startswith("unknown metric"):
                message = f"invalid objectives: {message}"
            raise ApiError(400, message) from None
        return {
            "key": page.key,
            "objectives": page.objectives,
            "fronts": page.fronts,
            "total": page.total,
            "next_cursor": page.next_cursor,
        }

    async def _best(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/best`` — the single best stored point by a metric."""
        _field(body, "metric", (str,), None, required=True)
        spec = self._query_spec(
            body,
            {"key", "fingerprint", "network", "device", "name", "metric",
             "maximize", "where", "select"},
            "best",
        )
        try:
            best = await self._timed_store_call("best", self.store.best, spec)
        except KeyError as error:
            raise ApiError(404, error.args[0]) from None
        except ValueError as error:
            raise ApiError(400, str(error)) from None
        return {
            "key": best.key,
            "metric": best.metric,
            "value": best.value,
            "point": best.row,
        }

    async def _evaluate(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/evaluate`` — one ad-hoc design point, micro-batched."""
        _check_fields(
            body,
            {"network", "device", "m", "r", "multiplier_budget", "frequency_mhz",
             "shared_data_transform", "bit_width", "error_budget"},
            "evaluate",
        )
        m = _field(body, "m", (int,), None, required=True)
        r = _field(body, "r", (int,), 3)
        if m >= 1 and r >= 1 and m + r - 1 > MAX_EVALUATE_TILE:
            # Degenerate m/r (< 1) flow through as ordinary per-entry
            # errors; only the expensive-tile case must be stopped here,
            # before it wedges the evaluation worker.
            raise ApiError(
                400,
                f"tile size m + r - 1 = {m + r - 1} exceeds the evaluate limit "
                f"of {MAX_EVALUATE_TILE}",
            )
        request = EvalRequest(
            network=_field(body, "network", (str,), None, required=True),
            device=_field(body, "device", (str,), "xc7vx485t"),
            entry=GridEntry(
                m=m,
                r=r,
                multiplier_budget=_field(body, "multiplier_budget", (int,), None),
                frequency_mhz=_field(body, "frequency_mhz", (float,), 200.0),
                shared_data_transform=_field(body, "shared_data_transform", (bool,), True),
                bit_width=_field(body, "bit_width", (int,), None),
                error_budget=_field(body, "error_budget", (float,), None),
            ),
        )
        # Unknown registry names must fail as a 400 before reaching the
        # batch (where they would poison the whole dispatch).  Membership
        # checks only — resolving would build a full Network per request
        # on the event-loop thread, several times the cost of the batched
        # evaluation itself.
        from ..hw.device import known_devices
        from ..nn.registry import known_networks

        if request.network not in known_networks():
            raise ApiError(
                400, f"unknown network {request.network!r}; known networks: {known_networks()}"
            )
        if request.device not in known_devices():
            raise ApiError(
                400, f"unknown device {request.device!r}; known devices: {known_devices()}"
            )

        from ..obs.tracing import current_trace_id

        try:
            outcome = await self.batcher.submit(request, trace_id=current_trace_id())
        except BatcherSaturated as error:
            if self.registry is not None:
                self._m_rejected.labels("evaluate").inc()
            raise ApiError(429, str(error), headers={"Retry-After": "1"}) from None
        if outcome.point is None:
            return {"feasible": False, "error": outcome.error}
        return {"feasible": True, "point": point_to_dict(outcome.point)}

    @staticmethod
    def _parse_spec(body: Dict[str, Any]) -> ExperimentSpec:
        """The validated ``ExperimentSpec`` of a campaign/job request body."""
        _check_fields(body, {"spec"}, "campaign")
        spec_data = body.get("spec")
        if spec_data is None:
            raise ApiError(400, "missing required field 'spec'")
        try:
            return ExperimentSpec.from_dict(spec_data)
        except (ValueError, TypeError, KeyError) as error:
            # from_dict raises TypeError/KeyError for wrongly-typed fields;
            # all three are client input errors, not server faults.
            raise ApiError(400, f"invalid experiment spec: {error}")

    async def _campaign(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/campaign`` — submit as a job, await it, return receipt.

        A thin synchronous wrapper over the sharded job scheduler; results
        are bit-identical to the historical single-thread execution (shard
        reassembly preserves the canonical point ordering).  The receipt
        comes from the payload the job stored, in one executor call, with
        no read-back.  A job that stored nothing new (the result was
        already stored) answers from the store's copy instead, whose run
        provenance is the storing run's, so every receipt equals the one
        ``GET /v1/results/<key>`` gives.
        """
        spec = self._parse_spec(body)
        job, payload = await self._admitted(self.jobs.run(spec))
        if job.state != "completed":
            raise ApiError(
                500, job.error or f"campaign job {job.id} ended {job.state}"
            )
        assert job.key is not None
        loop = asyncio.get_running_loop()
        if payload is None:
            result = await self._load_by_key(job.key)
            receipt = await loop.run_in_executor(None, _receipt_fields, result)
        else:
            # Called through the module, so a wrapper installed there (the
            # service benchmark's tracing) times this decode too.
            receipt = await loop.run_in_executor(
                None, lambda: _receipt_fields(persistence.result_from_dict(payload))
            )
        self.campaigns_run += 1
        return {
            "key": job.key,
            "fingerprint": job.fingerprint,
            "job_id": job.id,
            **receipt,
        }

    # ------------------------------------------------------------------ #
    # Job endpoints
    # ------------------------------------------------------------------ #
    async def _admitted(self, submission):
        """Await a job submission, mapping saturation to a 429."""
        try:
            return await submission
        except JobQueueFull as error:
            if self.registry is not None:
                self._m_rejected.labels("jobs").inc()
            raise ApiError(
                429,
                str(error),
                headers={"Retry-After": str(max(1, math.ceil(error.retry_after_s)))},
            ) from None

    async def _submit_job(self, args, params, body) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/jobs`` — submit a campaign job; 202 with the job id."""
        spec = self._parse_spec(body)
        job = await self._admitted(self.jobs.submit(spec))
        return 202, {"job": job.to_payload(self.jobs.workers, include_shards=False)}

    @staticmethod
    def _listing_page(
        params: Dict[str, str], rows: List[Dict[str, Any]], kind: str
    ) -> Tuple[List[Dict[str, Any]], Optional[str], int]:
        """Cursor pagination over an ordinal-ordered listing.

        Jobs and leases carry monotonic ordinals inside their ids
        (``job-000012-…``), so a page is "the first ``limit`` rows with an
        ordinal beyond the cursor's".  The token is the same opaque
        base64 cursor ``/v1/query`` uses; ``kind`` is bound inside it so a
        jobs cursor cannot be replayed against the leases listing.
        """
        limit = DEFAULT_LISTING_LIMIT
        if "limit" in params:
            try:
                limit = int(params["limit"])
            except ValueError:
                raise ApiError(400, f"limit must be an integer, got {params['limit']!r}")
            if limit < 1:
                raise ApiError(400, "limit must be >= 1")
        after = -1
        cursor = params.get("cursor")
        if cursor:
            try:
                payload = decode_cursor(cursor)
            except ValueError as error:
                raise ApiError(400, str(error)) from None
            if payload["k"] != kind:
                raise ApiError(400, f"invalid cursor: not a {kind} cursor")
            after = payload["o"]

        def ordinal(row: Dict[str, Any]) -> int:
            return int(str(row["id"]).split("-")[1])

        remaining = [row for row in rows if ordinal(row) > after]
        page = remaining[:limit]
        next_cursor = None
        if len(remaining) > limit:
            next_cursor = encode_cursor(kind, "", ordinal(page[-1]), kind)
        return page, next_cursor, len(rows)

    async def _list_jobs(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/jobs`` — tracked jobs, oldest first, paginated."""
        _check_fields(params, {"limit", "cursor"}, "query")
        rows = [
            job.to_payload(self.jobs.workers, include_shards=False)
            for job in self.jobs.jobs()
        ]
        page, next_cursor, total = self._listing_page(params, rows, "jobs")
        return {
            "jobs": page,
            "count": len(page),
            "total": total,
            "next_cursor": next_cursor,
        }

    def _job_or_404(self, job_id: str):
        """The tracked job, or a clean 404 JSON error for unknown ids."""
        try:
            return self.jobs.get(job_id)
        except KeyError:
            raise ApiError(404, f"no job with id {job_id!r}") from None

    async def _job_status(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — state, per-shard progress and ETA."""
        job = self._job_or_404(args["job_id"])
        return {"job": job.to_payload(self.jobs.workers, include_shards=True)}

    async def _cancel_job(self, args, params, body) -> Dict[str, Any]:
        """``DELETE /v1/jobs/<id>`` — cancel unfinished shards."""
        job = self._job_or_404(args["job_id"])
        cancelled = await self.jobs.cancel(job.id)
        return {
            "cancelled": cancelled,
            "job": job.to_payload(self.jobs.workers, include_shards=False),
        }

    # ------------------------------------------------------------------ #
    # Worker-fleet lease endpoints
    # ------------------------------------------------------------------ #
    async def _acquire_leases(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/leases`` — grant pending job shards to a fleet worker."""
        _check_fields(body, {"worker", "count", "ttl_s"}, "lease acquire")
        worker = _field(body, "worker", (str,), None, required=True)
        if not worker.strip():
            raise ApiError(400, "field 'worker' must be a non-empty worker id")
        count = _field(body, "count", (int,), 1)
        if count < 1:
            raise ApiError(400, "count must be >= 1")
        ttl_s = _field(body, "ttl_s", (float,), None)
        if ttl_s is not None and ttl_s <= 0:
            raise ApiError(400, "ttl_s must be > 0")
        leases = await self.jobs.acquire_leases(worker.strip(), count=count, ttl_s=ttl_s)
        return {
            "leases": leases,
            # Poll-again hint for empty answers; granted workers should
            # come straight back for more once a shard finishes.
            "retry_after_s": 0.5 if not leases else 0.0,
        }

    async def _list_leases(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/leases`` — fleet statistics plus active leases, paginated."""
        _check_fields(params, {"limit", "cursor"}, "query")
        page, next_cursor, total = self._listing_page(
            params, self.jobs.ledger.rows(), "leases"
        )
        return {
            "fleet": self.jobs.ledger.stats(),
            "leases": page,
            "count": len(page),
            "total": total,
            "next_cursor": next_cursor,
        }

    async def _heartbeat_lease(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/leases/<id>/heartbeat`` — extend a lease's expiry."""
        _check_fields(body, set(), "lease heartbeat")
        return await self.jobs.heartbeat_lease(args["lease_id"])

    async def _complete_lease(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/leases/<id>/complete`` — accept a shard's result.

        Idempotent for duplicates of an accepted completion; an expired or
        revoked lease answers ``accepted: false`` (the shard was handed to
        someone else — the late result is discarded).  A payload that does
        not validate as the leased shard's result is a 400.
        """
        _check_fields(body, {"result", "seconds"}, "lease complete")
        result = body.get("result")
        if not isinstance(result, dict):
            raise ApiError(400, "field 'result' must be a result payload object")
        seconds = _field(body, "seconds", (float,), None)
        try:
            return await self.jobs.complete_lease(args["lease_id"], result, seconds)
        except ValueError as error:
            raise ApiError(400, str(error)) from None

    async def _fail_lease(self, args, params, body) -> Dict[str, Any]:
        """``POST /v1/leases/<id>/fail`` — report a worker-side failure.

        ``requeue: true`` hands the shard back for another claimant (a
        shutting-down or transiently broken worker); otherwise the shard —
        and its job — fail with the reported error, exactly like a local
        execution failure.
        """
        _check_fields(body, {"error", "requeue"}, "lease fail")
        error = _field(body, "error", (str,), "worker reported failure")
        requeue = _field(body, "requeue", (bool,), False)
        return await self.jobs.fail_lease(args["lease_id"], error, requeue=requeue)

    # ------------------------------------------------------------------ #
    # Observability endpoints
    # ------------------------------------------------------------------ #
    async def _metrics(self, args, params, body) -> RawResponse:
        """``GET /metrics`` — Prometheus text exposition of every metric."""
        if self.registry is None:
            raise ApiError(404, "metrics are disabled on this server (--no-metrics)")
        loop = asyncio.get_running_loop()
        # Callback gauges stat segment files etc.; keep that off the loop.
        text = await loop.run_in_executor(None, self.registry.exposition)
        return RawResponse(text.encode(), "text/plain; version=0.0.4; charset=utf-8")

    async def _stats(self, args, params, body) -> Dict[str, Any]:
        """``GET /v1/stats`` — the JSON twin of ``/metrics`` for clients."""
        if self.registry is None:
            raise ApiError(404, "metrics are disabled on this server (--no-metrics)")
        loop = asyncio.get_running_loop()
        metrics = await loop.run_in_executor(None, self.registry.to_dict)
        return {"metrics": metrics}


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8787,
    max_batch: int = 256,
    workers: int = 1,
    shard_entries: int = DEFAULT_SHARD_ENTRIES,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    quiet: bool = False,
    metrics: bool = True,
    max_pending_evals: Optional[int] = None,
    max_pending_jobs: Optional[int] = None,
) -> int:
    """Blocking entry point used by ``python -m repro serve``.

    ``workers`` sizes the local campaign-job shard pool (0 = no local
    execution, shards run only on the worker fleet; 1 = a single
    background thread, the pre-sharding behaviour; >= 2 = a process
    pool), ``shard_entries`` caps grid entries per shard (see
    :mod:`repro.service.jobs`) and ``lease_ttl_s`` is how long a fleet
    worker's lease survives without a heartbeat before its shard
    re-queues.  ``metrics=False`` disables the registry and the
    ``/metrics`` + ``/v1/stats`` endpoints; ``max_pending_evals`` /
    ``max_pending_jobs`` bound the evaluate and job admission queues
    (full queues answer 429 with ``Retry-After``).
    """
    store = ResultStore(store_root)
    server = ResultServer(
        store,
        host=host,
        port=port,
        max_batch=max_batch,
        workers=workers,
        shard_entries=shard_entries,
        lease_ttl_s=lease_ttl_s,
        quiet=quiet,
        metrics=metrics,
        max_pending_evals=max_pending_evals,
        max_pending_jobs=max_pending_jobs,
    )

    async def main() -> None:
        """Run the server until interrupted, closing it cleanly."""
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        if not quiet:
            print("repro.service: shutting down")
    return 0
