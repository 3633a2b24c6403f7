"""Thin stdlib HTTP client for the ``repro.service`` server.

Used by the test suite, the service benchmark and the CI smoke step; it
is also the reference for how any other consumer should talk to the
server.  Every call opens its own ``http.client`` connection, so one
:class:`ServiceClient` may be shared freely across threads.

>>> client = ServiceClient(port=8787)
>>> point = client.evaluate("vgg16-d", m=4, multiplier_budget=512)
>>> front = client.pareto(fingerprint=spec.fingerprint())
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, Iterator, List, Optional, Union

from ..core.design_point import DesignPoint
from ..experiments.persistence import point_from_dict
from ..experiments.spec import ExperimentSpec
from ..obs.tracing import TRACE_HEADER, current_trace_id, new_trace_id
from .queryspec import QuerySpec

__all__ = ["ServiceError", "InfeasibleDesignError", "ServiceClient"]


class ServiceError(Exception):
    """An HTTP error response from the service (status + server message).

    ``retry_after_s`` carries the server's ``Retry-After`` header (parsed
    to seconds) when present — set on 429 backpressure responses so a
    caller can sleep exactly as long as the server asked.
    """

    def __init__(
        self, status: int, message: str, retry_after_s: Optional[float] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


class InfeasibleDesignError(ValueError):
    """An ``evaluate`` request whose design is infeasible on the device.

    Subclasses ``ValueError`` because that is what the in-process
    evaluator raises for the same configuration.
    """


class ServiceClient:
    """Synchronous JSON client for one ``repro.service`` endpoint.

    ``retries`` (opt-in, default 0) retries **idempotent GET requests**
    that fail with a connection-level error — refused, reset, timed out —
    with exponential backoff plus jitter.  Non-GET requests are never
    auto-retried: ``POST /v1/leases`` grants leases and ``POST
    .../complete`` stores results, so a blind resend after a lost response
    could double-claim; callers that can retry safely (like the fleet
    worker loop, whose protocol is idempotent by design) do so themselves.
    HTTP error *responses* (4xx/5xx) are never retried — the server
    answered; the answer was no.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout: float = 60.0,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s

    # ------------------------------------------------------------------ #
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        attempts = 1 + (self.retries if method == "GET" else 0)
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, body)
            except (OSError, http.client.HTTPException):
                if attempt + 1 >= attempts:
                    raise
                # Full jitter on an exponential schedule: concurrent
                # clients hitting the same blip spread out instead of
                # re-stampeding the server in lockstep.
                delay = min(self.backoff_max_s, self.backoff_s * (2**attempt))
                time.sleep(delay * (0.5 + random.random() * 0.5))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One HTTP round-trip (no retries); raises ``ServiceError`` on 4xx/5xx.

        Every request carries an ``X-Repro-Trace-Id`` header: the ambient
        trace id when the caller bound one (``with trace_context(): ...``),
        a freshly minted id otherwise.  The server echoes it and stamps it
        on every log line the request touches, across processes.
        """
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {TRACE_HEADER: current_trace_id() or new_trace_id()}
            if payload:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = json.loads(response.read().decode() or "{}")
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    data.get("error", response.reason or "error"),
                    retry_after_s=_parse_retry_after(
                        response.getheader("Retry-After")
                    ),
                )
            return data
        finally:
            connection.close()

    def _request_text(self, path: str) -> str:
        """GET a non-JSON endpoint (``/metrics``) and return its body text."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request(
                "GET", path, headers={TRACE_HEADER: current_trace_id() or new_trace_id()}
            )
            response = connection.getresponse()
            text = response.read().decode()
            if response.status >= 400:
                message = text
                try:
                    message = json.loads(text).get("error", text)
                except (json.JSONDecodeError, AttributeError):
                    pass
                raise ServiceError(response.status, message)
            return text
        finally:
            connection.close()

    @staticmethod
    def _query_string(params: Dict[str, Optional[str]]) -> str:
        from urllib.parse import urlencode

        filtered = {key: value for key, value in params.items() if value is not None}
        return f"?{urlencode(filtered)}" if filtered else ""

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        """The ``/health`` payload: liveness, store, batcher and job stats."""
        return self._request("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` — the server's metrics as JSON.

        Each entry maps a metric family name to its type, help text and
        samples; histogram samples carry ``count``/``sum`` plus
        p50/p95/p99 estimates.  404s (:class:`ServiceError`) when the
        server runs with ``--no-metrics``.
        """
        return self._request("GET", "/v1/stats")["metrics"]

    def metrics_text(self) -> str:
        """``GET /metrics`` — the raw Prometheus text exposition."""
        return self._request_text("/metrics")

    def results(
        self,
        network: Optional[str] = None,
        device: Optional[str] = None,
        fingerprint: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Metadata of stored results matching the filters, oldest first."""
        query = self._query_string(
            {"network": network, "device": device, "fingerprint": fingerprint, "name": name}
        )
        return self._request("GET", f"/v1/results{query}")["results"]

    def result(self, key: str) -> Dict[str, Any]:
        """The full persistence payload of one stored result."""
        return self._request("GET", f"/v1/results/{key}")["result"]

    def report(self, key: str, metric: Optional[str] = None) -> Dict[str, Any]:
        """Summary/comparison rows of a stored result."""
        query = self._query_string({"metric": metric})
        return self._request("GET", f"/v1/results/{key}/report{query}")["report"]

    # ------------------------------------------------------------------ #
    def query_page(
        self, spec: Optional[QuerySpec] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One raw ``POST /v1/query`` page (``points``/``total``/``next_cursor``).

        Pass a :class:`~repro.service.queryspec.QuerySpec` or its fields
        as keywords; rows come back exactly as the server sent them (full
        point dicts, or flat ``{metric: value}`` rows under ``select``).
        """
        body = spec.to_dict() if isinstance(spec, QuerySpec) else _drop_none(fields)
        return self._request("POST", "/v1/query", body)

    def iter_query(
        self, spec: Optional[QuerySpec] = None, **fields: Any
    ) -> Iterator[Any]:
        """All rows of a query, following ``next_cursor`` transparently.

        Yields :class:`DesignPoint` objects (or raw ``select`` rows) one
        page at a time; the cursor pins both the stored result and the
        row ordering, so iteration is stable across concurrent appends
        and compactions.
        """
        body = spec.to_dict() if isinstance(spec, QuerySpec) else _drop_none(fields)
        select = body.get("select")
        while True:
            payload = self._request("POST", "/v1/query", body)
            for row in payload["points"]:
                yield row if select else point_from_dict(row)
            cursor = payload.get("next_cursor")
            if not cursor:
                return
            body = dict(body, cursor=cursor)

    def query(
        self,
        key: Optional[str] = None,
        fingerprint: Optional[str] = None,
        network: Optional[str] = None,
        device: Optional[str] = None,
        name: Optional[str] = None,
        metric: Optional[str] = None,
        top_k: Optional[int] = None,
        maximize: Optional[bool] = None,
        where: Optional[List] = None,
        select: Optional[List[str]] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> List[Any]:
        """Filtered (optionally metric-sorted, top-k) points of a result.

        The legacy keyword shim over the :class:`QuerySpec` surface.
        Without ``limit``/``cursor`` every row is returned (cursors are
        followed internally); with them, exactly one page.  ``where``
        adds column filters and ``select`` projects flat rows instead of
        full points.
        """
        body = _drop_none({
            "key": key, "fingerprint": fingerprint, "network": network,
            "device": device, "name": name, "metric": metric, "top_k": top_k,
            "maximize": maximize, "where": where, "select": select,
            "limit": limit, "cursor": cursor,
        })
        if limit is None and cursor is None:
            return list(self.iter_query(**body))
        payload = self._request("POST", "/v1/query", body)
        if select:
            return payload["points"]
        return [point_from_dict(point) for point in payload["points"]]

    def pareto_page(
        self, spec: Optional[QuerySpec] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One raw ``POST /v1/pareto`` page (``fronts``/``total``/``next_cursor``)."""
        body = spec.to_dict() if isinstance(spec, QuerySpec) else _drop_none(fields)
        return self._request("POST", "/v1/pareto", body)

    def pareto(
        self,
        key: Optional[str] = None,
        fingerprint: Optional[str] = None,
        network: Optional[str] = None,
        name: Optional[str] = None,
        objectives: Optional[List] = None,
        device: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Dict[str, List[DesignPoint]]:
        """Per-network Pareto fronts of a stored result.

        Without ``limit``/``cursor`` the complete fronts are returned
        (pages merged internally); with them, one page's worth regrouped
        per network.
        """
        body: Dict[str, Any] = _drop_none({
            "key": key, "fingerprint": fingerprint, "network": network,
            "name": name, "device": device, "limit": limit, "cursor": cursor,
        })
        if objectives is not None:
            body["objectives"] = [list(pair) for pair in objectives]
        fronts: Dict[str, List[DesignPoint]] = {}
        while True:
            payload = self._request("POST", "/v1/pareto", body)
            for front_name, front in payload["fronts"].items():
                fronts.setdefault(front_name, []).extend(
                    point_from_dict(point) for point in front
                )
            next_cursor = payload.get("next_cursor")
            if limit is not None or cursor is not None or not next_cursor:
                return fronts
            body = dict(body, cursor=next_cursor)

    def best(
        self,
        metric: str,
        key: Optional[str] = None,
        fingerprint: Optional[str] = None,
        network: Optional[str] = None,
        device: Optional[str] = None,
        name: Optional[str] = None,
        maximize: Optional[bool] = None,
        where: Optional[List] = None,
    ) -> DesignPoint:
        """The best stored point by ``metric``."""
        body = _drop_none({
            "key": key, "fingerprint": fingerprint, "network": network,
            "device": device, "name": name, "metric": metric,
            "maximize": maximize, "where": where,
        })
        payload = self._request("POST", "/v1/best", body)
        return point_from_dict(payload["point"])

    # ------------------------------------------------------------------ #
    def evaluate_raw(self, **request: Any) -> Dict[str, Any]:
        """Raw ``POST /v1/evaluate`` response (feasible flag + point/error)."""
        return self._request("POST", "/v1/evaluate", _drop_none(request))

    def evaluate(
        self,
        network: str,
        m: int,
        r: int = 3,
        multiplier_budget: Optional[int] = None,
        frequency_mhz: float = 200.0,
        shared_data_transform: bool = True,
        device: str = "xc7vx485t",
        bit_width: Optional[int] = None,
        error_budget: Optional[float] = None,
    ) -> DesignPoint:
        """Evaluate one ad-hoc design point through the batching server.

        Bit-identical to the in-process scalar evaluator (modulo the
        non-persisted ``engine`` provenance field, which comes back
        ``None`` exactly as a saved-and-reloaded point would).  Raises
        :class:`InfeasibleDesignError` with the server's message when the
        configuration is infeasible or does not fit the device.
        """
        payload = self.evaluate_raw(
            network=network,
            device=device,
            m=m,
            r=r,
            multiplier_budget=multiplier_budget,
            frequency_mhz=frequency_mhz,
            shared_data_transform=shared_data_transform,
            bit_width=bit_width,
            error_budget=error_budget,
        )
        if not payload["feasible"]:
            raise InfeasibleDesignError(payload["error"])
        return point_from_dict(payload["point"])

    def submit_campaign(self, spec: Union[ExperimentSpec, Dict[str, Any]]) -> Dict[str, Any]:
        """Run a campaign server-side and persist it; returns the receipt.

        Synchronous: the call blocks until the sharded job the server
        submits internally completes.  The receipt carries ``key``
        (stored-result content key), ``fingerprint`` (the spec's),
        ``job_id``, counts and summary rows.  For fire-and-forget
        submission use :meth:`submit_job`.
        """
        spec_data = spec.to_dict() if isinstance(spec, ExperimentSpec) else spec
        return self._request("POST", "/v1/campaign", {"spec": spec_data})

    # ------------------------------------------------------------------ #
    def submit_job(self, spec: Union[ExperimentSpec, Dict[str, Any]]) -> Dict[str, Any]:
        """Submit a campaign as an asynchronous sharded job.

        Returns the job payload immediately (``id``, ``state``, shard
        counts); poll with :meth:`job_status` or block with
        :meth:`wait_for_job`.
        """
        spec_data = spec.to_dict() if isinstance(spec, ExperimentSpec) else spec
        return self._request("POST", "/v1/jobs", {"spec": spec_data})["job"]

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """One job's state, per-shard progress and ETA (404 when unknown)."""
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs_page(
        self, limit: Optional[int] = None, cursor: Optional[str] = None
    ) -> Dict[str, Any]:
        """One raw ``GET /v1/jobs`` page (``jobs``/``total``/``next_cursor``)."""
        query = self._query_string(
            {"limit": None if limit is None else str(limit), "cursor": cursor}
        )
        return self._request("GET", f"/v1/jobs{query}")

    def iter_jobs(self, page_size: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        """Every tracked job, following ``next_cursor`` transparently."""
        cursor: Optional[str] = None
        while True:
            payload = self.jobs_page(limit=page_size, cursor=cursor)
            yield from payload["jobs"]
            cursor = payload.get("next_cursor")
            if not cursor:
                return

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the server tracks, oldest submission first."""
        return list(self.iter_jobs())

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job's unfinished shards; returns the final job payload.

        The response's ``cancelled`` flag is ``False`` when the job had
        already reached a terminal state.
        """
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait_for_job(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_interval: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final payload.

        Raises ``TimeoutError`` when ``timeout`` elapses first (the job
        keeps running server-side).
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job_status(job_id)
            if job["state"] in ("completed", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']!r} after {timeout} s "
                    f"(progress {job.get('progress')})"
                )
            time.sleep(poll_interval)

    # ------------------------------------------------------------------ #
    # Worker-fleet lease protocol (used by ``python -m repro worker``)
    # ------------------------------------------------------------------ #
    def acquire_leases(
        self, worker: str, count: int = 1, ttl_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """``POST /v1/leases`` — claim up to ``count`` pending job shards.

        The response carries ``leases`` (each with the complete shard spec
        to execute) and ``retry_after_s``, the server's poll-again hint
        when nothing was claimable.
        """
        body: Dict[str, Any] = {"worker": worker, "count": count}
        if ttl_s is not None:
            body["ttl_s"] = ttl_s
        return self._request("POST", "/v1/leases", body)

    def heartbeat_lease(self, lease_id: str) -> Dict[str, Any]:
        """Extend a lease's expiry; ``alive: false`` means it is lost."""
        return self._request("POST", f"/v1/leases/{lease_id}/heartbeat", {})

    def complete_lease(
        self,
        lease_id: str,
        result: Dict[str, Any],
        seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Push a finished shard's result payload for a held lease."""
        body: Dict[str, Any] = {"result": result}
        if seconds is not None:
            body["seconds"] = seconds
        return self._request("POST", f"/v1/leases/{lease_id}/complete", body)

    def fail_lease(
        self, lease_id: str, error: str, requeue: bool = False
    ) -> Dict[str, Any]:
        """Report a shard failure (``requeue=True`` hands the shard back)."""
        return self._request(
            "POST", f"/v1/leases/{lease_id}/fail", {"error": error, "requeue": requeue}
        )

    def leases(
        self, limit: Optional[int] = None, cursor: Optional[str] = None
    ) -> Dict[str, Any]:
        """``GET /v1/leases`` — fleet statistics plus active leases.

        Paginated like ``/v1/jobs``: pass ``limit``/``cursor`` for one
        page (``next_cursor`` continues), omit both for the first page at
        the server's default size.
        """
        query = self._query_string(
            {"limit": None if limit is None else str(limit), "cursor": cursor}
        )
        return self._request("GET", f"/v1/leases{query}")


def _drop_none(body: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in body.items() if value is not None}


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header (delta-seconds form only)."""
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None
