"""Adaptive micro-batching scheduler for concurrent evaluate requests.

An online design-query server receives many small, independent
``evaluate`` requests.  The vectorized engine (:mod:`repro.dse.vectorized`)
evaluates a whole stacked batch for barely more than the cost of one
request, so requests that arrive while the engine is busy should leave
together as one :func:`repro.dse.batch.evaluate_requests` call.  A
request that finds the engine idle has nothing to wait for.

:class:`MicroBatcher` implements that schedule on asyncio (adaptive
batching as in Clipper, Crankshaw et al., NSDI 2017):

* at most one batch is in flight, on a worker thread — evaluation is
  CPU-bound Python/NumPy, so it must not block the event loop;
* a request submitted while nothing is in flight dispatches at once,
  as a batch of one;
* requests submitted while a batch is in flight queue; when that batch
  finishes (by result or by exception) the oldest ``max_batch`` of them
  dispatch together as the next batch;
* each request's future resolves with its own
  :class:`~repro.dse.batch.BatchOutcome`.

Batch size therefore follows load: one request under light traffic, and
everything that arrived during the last evaluation under heavy traffic.
Because :func:`~repro.dse.batch.evaluate_requests` is bit-identical to
scalar per-request evaluation regardless of batch composition, batching
is *invisible* in the responses: a client gets the same bytes whether its
request rode alone or with a thousand others.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from ..dse.batch import BatchOutcome, EvalRequest, evaluate_requests
from ..obs.logging import StructuredLogger

__all__ = ["BatcherSaturated", "BatcherStats", "MicroBatcher"]

#: One queued request: what to evaluate, where its outcome goes, its trace
#: id and the context it was submitted in.
_Queued = Tuple[
    EvalRequest, "asyncio.Future[BatchOutcome]", Optional[str], contextvars.Context
]


class BatcherSaturated(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the admission queue is full.

    The server maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header of one second: capacity frees up as soon as
    the batch in flight returns, which takes milliseconds.
    """

    def __init__(self, pending: int, limit: int):
        super().__init__(
            f"micro-batcher saturated: {pending} request(s) pending or in "
            f"flight against a limit of {limit}"
        )
        self.pending = pending
        self.limit = limit


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
    max_batch:
        Cap on the size of one dispatched batch; a longer queue leaves
        in arrival order over several batches.
    executor:
        Where dispatches run; ``None`` uses the loop's default thread
        pool.  Pass a single-thread executor to serialize evaluation
        against other CPU-bound work (the HTTP server does).
    max_pending:
        Admission bound: requests queued *or in flight* beyond this raise
        :class:`BatcherSaturated` instead of buffering unboundedly.
        ``None`` (the default) keeps the historical unbounded behaviour.
    logger:
        Optional :class:`~repro.obs.logging.StructuredLogger`; when set,
        every dispatch emits a ``batch.dispatch`` event naming the trace
        ids it coalesced.
    """

    def __init__(
        self,
        max_batch: int = 256,
        executor: Optional[Executor] = None,
        max_pending: Optional[int] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.max_batch = max_batch
        self.executor = executor
        self.max_pending = max_pending
        self.logger = logger
        self.stats = BatcherStats()
        self._stats_lock = threading.Lock()
        self._queue: Deque[_Queued] = deque()
        self._running: Optional["asyncio.Future"] = None
        self._inflight = 0
        self._closed = False

    @property
    def occupancy(self) -> int:
        """Requests queued behind the batch in flight."""
        return len(self._queue)

    @property
    def inflight(self) -> int:
        """Requests dispatched to the executor but not yet resolved."""
        return self._inflight

    # ------------------------------------------------------------------ #
    async def submit(
        self, request: EvalRequest, trace_id: Optional[str] = None
    ) -> BatchOutcome:
        """Enqueue one request and await its outcome.

        On an idle batcher the request dispatches in this call; otherwise
        it rides the next batch.  With ``max_pending`` set, a full
        admission queue raises :class:`BatcherSaturated` immediately
        instead of queueing.
        """
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        occupied = len(self._queue) + self._inflight
        if self.max_pending is not None and occupied >= self.max_pending:
            with self._stats_lock:
                self.stats.rejected += 1
            raise BatcherSaturated(occupied, self.max_pending)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[BatchOutcome]" = loop.create_future()
        self._queue.append((request, future, trace_id, contextvars.copy_context()))
        if self._running is None:
            self._dispatch(loop)
        return await future

    def _dispatch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Send the oldest ``max_batch`` queued requests as one batch.

        The batch runs in the context its first request was submitted in,
        so the ``batch.dispatch`` event and the executor call carry that
        request's trace id even when the dispatch comes from the previous
        batch's completion.
        """
        size = min(len(self._queue), self.max_batch)
        batch = [self._queue.popleft() for _ in range(size)]
        batch[0][3].run(self._send, loop, batch)

    def _send(self, loop: asyncio.AbstractEventLoop, batch: List[_Queued]) -> None:
        with self._stats_lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        requests = [request for request, _, _, _ in batch]
        futures = [future for _, future, _, _ in batch]
        if self.logger is not None:
            self.logger.event(
                "batch.dispatch",
                size=len(batch),
                trace_ids=[trace for _, _, trace, _ in batch if trace],
            )

        # ``evaluate_requests`` is looked up at dispatch time, so a
        # wrapped engine (instrumentation, test spies) sees every batch.
        self._running = loop.run_in_executor(self.executor, evaluate_requests, requests)
        self._inflight = len(batch)

        def finish(done: "asyncio.Future") -> None:
            """Resolve the batch's futures, then send whatever queued meanwhile."""
            self._running = None
            self._inflight = 0
            error = done.exception()
            if error is not None:
                with self._stats_lock:
                    self.stats.errors += len(futures)
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
            else:
                for future, outcome in zip(futures, done.result()):
                    if not future.done():
                        future.set_result(outcome)
            if self._queue:
                self._dispatch(loop)

        self._running.add_done_callback(finish)

    # ------------------------------------------------------------------ #
    async def flush(self) -> None:
        """Wait for the batch in flight and for everything queued behind it."""
        while self._running is not None:
            await asyncio.wait((self._running,))

    async def close(self) -> None:
        """Finish outstanding work and refuse further submissions."""
        self._closed = True
        await self.flush()
