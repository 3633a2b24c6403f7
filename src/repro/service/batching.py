"""Micro-batching scheduler for concurrent evaluate requests.

An online design-query server receives many small, independent
``evaluate`` requests.  The vectorized engine (:mod:`repro.dse.vectorized`)
evaluates a whole stacked batch for barely more than the cost of one
request, so the profitable schedule is to *wait a tiny window*, coalesce every
request that arrived, and dispatch them as one
:func:`repro.dse.batch.evaluate_requests` call.

:class:`MicroBatcher` implements that schedule on asyncio:

* the first request to arrive opens a collection window of
  ``window_ms`` milliseconds;
* every request arriving inside the window joins the pending batch;
* when the window closes (or the batch hits ``max_batch`` first), the
  batch is dispatched on a worker thread — evaluation is CPU-bound
  Python/NumPy, so it must not block the event loop — and each request's
  future resolves with its own :class:`~repro.dse.batch.BatchOutcome`.

Because :func:`~repro.dse.batch.evaluate_requests` is bit-identical to
scalar per-request evaluation regardless of batch composition, batching
is *invisible* in the responses: a client gets the same bytes whether its
request rode alone or with a thousand others.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dse.batch import BatchOutcome, EvalRequest, evaluate_requests
from ..obs.logging import StructuredLogger

__all__ = ["BatcherSaturated", "BatcherStats", "MicroBatcher"]


class BatcherSaturated(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the admission queue is full.

    The server maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header of :attr:`retry_after_s` seconds — roughly one
    collection window, since that is when capacity next frees up.
    """

    def __init__(self, pending: int, limit: int, retry_after_s: float):
        super().__init__(
            f"micro-batcher saturated: {pending} request(s) pending or in "
            f"flight against a limit of {limit}"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after_s = retry_after_s


@dataclass
class BatcherStats:
    """Aggregate counters of one :class:`MicroBatcher`'s lifetime."""

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0
    errors: int = 0
    rejected: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests coalesced per dispatched batch."""
        return self.requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-ready counters for the ``/health`` payload."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "errors": self.errors,
            "rejected": self.rejected,
        }


class MicroBatcher:
    """Coalesce concurrent evaluation requests into vectorized batches.

    Parameters
    ----------
    window_ms:
        How long the first request of a batch waits for company.  ``0``
        still coalesces whatever arrives within one event-loop tick.
    max_batch:
        Dispatch immediately once this many requests are pending.
    executor:
        Where dispatches run; ``None`` uses the loop's default thread
        pool.  Pass a single-thread executor to serialize evaluation
        against other CPU-bound work (the HTTP server does).
    max_pending:
        Admission bound: requests pending *or in flight* beyond this raise
        :class:`BatcherSaturated` instead of buffering unboundedly.
        ``None`` (the default) keeps the historical unbounded behaviour.
    logger:
        Optional :class:`~repro.obs.logging.StructuredLogger`; when set,
        every dispatch emits a ``batch.dispatch`` event naming the trace
        ids it coalesced.
    """

    def __init__(
        self,
        window_ms: float = 2.0,
        max_batch: int = 256,
        executor: Optional[Executor] = None,
        max_pending: Optional[int] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.window_ms = window_ms
        self.max_batch = max_batch
        self.executor = executor
        self.max_pending = max_pending
        self.logger = logger
        self.stats = BatcherStats()
        self._stats_lock = threading.Lock()
        self._pending: List[
            Tuple[EvalRequest, "asyncio.Future[BatchOutcome]", Optional[str]]
        ] = []
        self._inflight = 0
        self._flush_task: Optional["asyncio.Task"] = None
        self._closed = False

    @property
    def occupancy(self) -> int:
        """Requests currently pending in the open window."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Requests dispatched to the executor but not yet resolved."""
        return self._inflight

    # ------------------------------------------------------------------ #
    async def submit(
        self, request: EvalRequest, trace_id: Optional[str] = None
    ) -> BatchOutcome:
        """Enqueue one request and await its outcome.

        Requests submitted while a window is open join its batch; the
        caller's coroutine resumes when the batch completes.  With
        ``max_pending`` set, a full admission queue raises
        :class:`BatcherSaturated` immediately instead of queueing.
        """
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        occupied = len(self._pending) + self._inflight
        if self.max_pending is not None and occupied >= self.max_pending:
            with self._stats_lock:
                self.stats.rejected += 1
            retry_after = max(self.window_ms / 1000.0, 0.05)
            raise BatcherSaturated(occupied, self.max_pending, retry_after)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[BatchOutcome]" = loop.create_future()
        self._pending.append((request, future, trace_id))
        if len(self._pending) >= self.max_batch:
            self._cancel_window()
            self._dispatch_pending(loop)
        elif self._flush_task is None:
            self._flush_task = loop.create_task(self._window(loop))
        return await future

    async def _window(self, loop: asyncio.AbstractEventLoop) -> None:
        try:
            await asyncio.sleep(self.window_ms / 1000.0)
        except asyncio.CancelledError:
            return
        self._flush_task = None
        self._dispatch_pending(loop)

    def _cancel_window(self) -> None:
        if self._flush_task is not None:
            self._flush_task.cancel()
            self._flush_task = None

    def _dispatch_pending(self, loop: asyncio.AbstractEventLoop) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        with self._stats_lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        requests = [request for request, _, _ in batch]
        futures = [future for _, future, _ in batch]
        if self.logger is not None:
            self.logger.event(
                "batch.dispatch",
                size=len(batch),
                trace_ids=[trace for _, _, trace in batch if trace],
            )
        self._inflight += len(batch)

        # ``evaluate_requests`` is looked up at dispatch time, so a
        # wrapped engine (instrumentation, test spies) sees every batch.
        dispatch = loop.run_in_executor(self.executor, evaluate_requests, requests)

        def finish(done: "asyncio.Future") -> None:
            """Resolve every request future from the batch outcome."""
            self._inflight -= len(futures)
            error = done.exception()
            if error is not None:
                with self._stats_lock:
                    self.stats.errors += len(futures)
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
                return
            for future, outcome in zip(futures, done.result()):
                if not future.done():
                    future.set_result(outcome)

        dispatch.add_done_callback(finish)

    # ------------------------------------------------------------------ #
    async def flush(self) -> None:
        """Dispatch any pending batch now and wait for it to finish."""
        self._cancel_window()
        pending = [future for _, future, _ in self._pending]
        self._dispatch_pending(asyncio.get_running_loop())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self) -> None:
        """Flush outstanding work and refuse further submissions."""
        self._closed = True
        await self.flush()
