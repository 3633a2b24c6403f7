"""Sharded campaign job scheduler with a pull-based worker-fleet protocol.

PR 4's ``POST /v1/campaign`` executed every submitted experiment on one
worker thread: a Fig. 6-scale campaign parked every other campaign (and
every ``evaluate`` behind the shared worker) until it finished.  This
module turns a submitted :class:`~repro.experiments.ExperimentSpec` into a
**job** — a set of independent *shards* scheduled onto a pool of workers —
so many campaigns make progress concurrently and a single big one no
longer monopolises the service.

How a spec becomes shards
-------------------------
:func:`plan_shards` splits a grid-strategy spec per ``(network, device)``
cell and, for large grids, into contiguous chunks of at most
``max_entries_per_shard`` grid entries per cell
(:func:`repro.dse.engine.chunk_entries`).  Each shard is itself a complete, re-runnable
:class:`~repro.experiments.ExperimentSpec` — one network, one device, the
chunk's entries encoded as singleton sweeps — so a shard has everything a
stored result needs: a spec, a deterministic
:meth:`~repro.experiments.ExperimentSpec.fingerprint` and the exact
canonical evaluation order.  Non-grid strategies (random, pareto-refine,
custom) are adaptive and cannot be split without changing their search, so
they run as a single whole-spec shard.

Execution: the local pool and the worker fleet
----------------------------------------------
Shards execute on whichever claimant grabs them first:

* **The local pool** — a ``ProcessPoolExecutor`` (``workers >= 2``) or a
  single background thread (``workers == 1``), evaluating grid shards
  through the vectorized engine (:mod:`repro.dse.vectorized`).
  ``workers == 0`` disables local execution entirely: shards then run
  only on the fleet.
* **The pull-based worker fleet** — remote ``python -m repro worker``
  processes (:mod:`repro.worker`) that *lease* pending shards over HTTP
  (``POST /v1/leases``), execute them with the very same
  :func:`execute_shard` entry point, and push the payload back
  (``POST /v1/leases/<id>/complete``).  The :class:`LeaseLedger` tracks
  every outstanding lease with an expiry deadline; workers extend it by
  heartbeating, and a lease whose deadline passes (dead or partitioned
  worker) is **re-queued automatically** — the shard goes back to
  ``pending`` and the next claimant (local slot or another worker's
  acquire) re-executes it.  A shard whose leases keep expiring, or whose
  completions keep being rejected, fails the job after
  ``max_lease_attempts`` grants, so one poisoned shard cannot spin the
  fleet forever.

Because a shard is a self-contained deterministic spec, it does not matter
*who* executes it: the stored payload — and therefore the assembled
campaign — is bit-identical for any mix of local and fleet execution, any
fleet size, and any number of expiry re-queues.

Reassembly and resumption
-------------------------
Each completed shard's serialized payload is streamed into the
:class:`~repro.service.store.ResultStore` immediately, so a partially
finished campaign is already queryable — and **resumable**: resubmitting a
spec skips every shard whose fingerprint the store already holds (and
completes instantly when the whole result itself is stored); one index
lookup answers both questions.  A plan of one shard whose spec is the
job's spec (every non-grid strategy) is done once that shard is stored:
its result is the job's result.  Otherwise, when every shard lands, the
payloads are concatenated in plan order — shard order is exactly the
grid's canonical order, so the assembled result is **bit-identical**
(pickled bytes, same ordering) to a single-thread ``run_experiment`` of
the original spec — and stored under the spec's fingerprint.

The scheduler is asyncio-native: :meth:`JobManager.submit` returns
immediately with a :class:`Job` whose state, per-shard progress and ETA
the HTTP layer reports; pending shards queue (never rejected) and
``DELETE``-ing a job cancels its un-started shards — revoking their
outstanding leases — while keeping the store consistent.
:meth:`JobManager.run` submits and waits, and hands back the payload the
job stored, so ``POST /v1/campaign`` builds its receipt without reading
the result back.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.design_space import GridEntry, SweepSpec
from ..dse.engine import chunk_entries
from ..experiments.persistence import RESULT_SCHEMA, result_to_dict
from ..experiments.spec import ExperimentSpec, StrategySpec, canonical_json_hash
from ..obs.tracing import current_trace_id
from .store import ResultStore

__all__ = [
    "DEFAULT_SHARD_ENTRIES",
    "DEFAULT_LEASE_TTL_S",
    "MAX_SHARD_LEASE_ATTEMPTS",
    "JobQueueFull",
    "ShardPlan",
    "ShardRun",
    "Job",
    "JobManager",
    "Lease",
    "LeaseLedger",
    "plan_shards",
    "execute_shard",
]


class JobQueueFull(RuntimeError):
    """Raised by :meth:`JobManager.submit` when too many jobs are active.

    The server maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` hint: jobs drain at shard-execution speed, so the
    caller should back off for seconds, not milliseconds.
    """

    def __init__(self, active: int, limit: int, retry_after_s: float = 2.0):
        super().__init__(
            f"job queue full: {active} active job(s) against a limit of {limit}"
        )
        self.active = active
        self.limit = limit
        self.retry_after_s = retry_after_s

#: Grid entries per shard before a (network, device) cell is split further.
#: Part of the shard identity: changing it changes shard fingerprints, so
#: resumption only reuses shards planned with the same value (the assembled
#: campaign result still deduplicates regardless).
DEFAULT_SHARD_ENTRIES = 512

#: Terminal job states (no further transitions once reached).
TERMINAL_STATES = ("completed", "failed", "cancelled")

#: Terminal jobs retained for status queries before the oldest are
#: evicted (a serve-forever process must not accumulate Job objects).
MAX_TERMINAL_JOBS = 256

#: Every state a shard can be in.  ``leased`` means a fleet worker holds
#: the shard under an unexpired lease.
SHARD_STATES = (
    "pending",
    "leased",
    "running",
    "completed",
    "skipped",
    "failed",
    "cancelled",
)

#: Shard states from which no further transition happens.
SHARD_TERMINAL = ("completed", "skipped", "failed", "cancelled")

#: Default seconds a lease stays valid without a heartbeat.  Workers
#: heartbeat at a fraction of this, so only a dead (or partitioned) worker
#: lets a lease lapse.
DEFAULT_LEASE_TTL_S = 60.0

#: Bounds on the per-acquire ``ttl_s`` override a worker may request.
MIN_LEASE_TTL_S = 0.2
MAX_LEASE_TTL_S = 3600.0

#: Lease grants per shard before the scheduler gives up and fails the job
#: (a shard that kills every worker that touches it must not spin forever).
MAX_SHARD_LEASE_ATTEMPTS = 5

#: Recently closed leases remembered so duplicate complete/fail/heartbeat
#: calls get an idempotent answer instead of "unknown lease".
MAX_CLOSED_LEASES = 512

#: Distinct worker identities remembered in the fleet statistics.
MAX_TRACKED_WORKERS = 64


def _entry_sweep(entry: GridEntry) -> SweepSpec:
    """The singleton :class:`SweepSpec` expanding to exactly ``entry``."""
    return SweepSpec(
        m_values=(entry.m,),
        multiplier_budgets=(entry.multiplier_budget,),
        frequencies_mhz=(entry.frequency_mhz,),
        shared_data_transform=(entry.shared_data_transform,),
        r=entry.r,
        bit_widths=(entry.bit_width,),
        error_budget=entry.error_budget,
    )


@dataclass(frozen=True)
class ShardPlan:
    """One schedulable unit of a job: a spec slice plus its identity.

    ``spec`` is a complete, independently re-runnable experiment spec whose
    evaluation order matches the parent spec's canonical order over this
    shard's slice; ``fingerprint`` is ``spec.fingerprint()``, the key the
    result store indexes the shard's result under (what makes resumption a
    pure store lookup).
    """

    index: int
    networks: Tuple[str, ...]
    devices: Tuple[str, ...]
    entries: int
    spec: ExperimentSpec
    fingerprint: str


def plan_shards(
    spec: ExperimentSpec, max_entries_per_shard: int = DEFAULT_SHARD_ENTRIES
) -> List[ShardPlan]:
    """Split ``spec`` into deterministic, independently executable shards.

    Grid-strategy specs shard per ``(network, device)`` cell, each cell
    chunked into contiguous runs of at most ``max_entries_per_shard`` grid
    entries (in the spec's canonical order); concatenating shard results in
    plan order therefore reproduces the whole-spec result ordering exactly.
    Non-grid strategies are adaptive, so they return a single whole-spec
    shard.

    The plan depends only on the spec and ``max_entries_per_shard`` — never
    on worker count — so shard fingerprints are stable across resubmissions
    and server restarts, which is what makes crash resumption a store
    lookup.
    """
    if max_entries_per_shard < 1:
        raise ValueError("max_entries_per_shard must be >= 1")
    if spec.strategy.name != "grid":
        return [
            ShardPlan(
                index=0,
                networks=tuple(spec.networks),
                devices=tuple(spec.devices),
                entries=spec.grid_size,
                spec=spec,
                fingerprint=spec.fingerprint(),
            )
        ]
    entries = [entry for sweep in spec.sweeps for entry in sweep.configurations()]
    chunks = chunk_entries(entries, max_entries_per_shard)
    shards: List[ShardPlan] = []
    for network in spec.networks:
        for device in spec.devices:
            for chunk_index, chunk in enumerate(chunks):
                shard_spec = replace(
                    spec,
                    networks=(network,),
                    devices=(device,),
                    sweeps=tuple(_entry_sweep(entry) for entry in chunk),
                    strategy=StrategySpec("grid"),
                    name=f"{spec.name}::shard/{network}@{device}/{chunk_index:04d}",
                )
                shards.append(
                    ShardPlan(
                        index=len(shards),
                        networks=(network,),
                        devices=(device,),
                        entries=len(chunk),
                        spec=shard_spec,
                        fingerprint=shard_spec.fingerprint(),
                    )
                )
    return shards


def execute_shard(spec_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one shard spec payload, returning its result payload.

    The single shard-execution entry point shared by every executor: local
    pool workers (process or thread) and remote fleet workers
    (:mod:`repro.worker`) all run exactly this function, which is what
    makes "who executed the shard" invisible in the stored bytes.  Takes
    and returns plain dicts — the spec's ``to_dict`` form in, the result's
    versioned persistence payload out — so the boundary is cheap to pickle
    and start-method agnostic.  Grid shards evaluate through the
    vectorized engine, which is bit-identical to the scalar model;
    non-grid shards run the spec exactly as the single-thread campaign
    endpoint used to.
    """
    from ..experiments.runner import run_experiment

    return result_to_dict(run_experiment(ExperimentSpec.from_dict(spec_payload)))


@dataclass
class ShardRun:
    """Runtime state of one shard within a job.

    State transitions are funnelled through :meth:`set_state`, which wakes
    the shard's scheduler task (``_drive_shard``) and, on a terminal
    state, releases anyone blocked in :meth:`wait_terminal` — that is how
    a remote lease completion unblocks the job runner without the local
    pool ever touching the shard.
    """

    plan: ShardPlan
    #: One of :data:`SHARD_STATES`.
    state: str = "pending"
    seconds: Optional[float] = None
    error: Optional[str] = None
    key: Optional[str] = None
    #: Who executed (or holds) the shard: ``"local"`` or a fleet worker id.
    worker: Optional[str] = None
    #: Lease grants so far (0 while the shard never left the local path).
    attempts: int = 0
    payload: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: Whether this run's put appended the shard's block (``False`` when
    #: the store already held its key, with another run's provenance).
    appended: bool = False
    _wake: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    _terminal: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def set_state(self, state: str) -> None:
        """Transition to ``state``, waking waiters (terminal states latch)."""
        self.state = state
        self._wake.set()
        if state in SHARD_TERMINAL:
            self._terminal.set()

    async def state_changed(self) -> None:
        """Block until the next :meth:`set_state` after this call started."""
        await self._wake.wait()
        self._wake.clear()

    async def wait_terminal(self) -> None:
        """Block until the shard reaches a terminal state."""
        await self._terminal.wait()

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready per-shard progress row for the job-status endpoint."""
        return {
            "index": self.plan.index,
            "networks": list(self.plan.networks),
            "devices": list(self.plan.devices),
            "entries": self.plan.entries,
            "fingerprint": self.plan.fingerprint,
            "state": self.state,
            "worker": self.worker,
            "attempts": self.attempts,
            "seconds": None if self.seconds is None else round(self.seconds, 6),
            "error": self.error,
            "key": self.key,
        }


class Job:
    """One submitted campaign: its shards, lifecycle state and receipt.

    States move ``queued -> running -> completed | failed | cancelled``.
    ``key`` holds the content key of the job's stored result once the job
    completes: the assembled result, or the one shard's result when the
    plan is a single shard whose spec is the job's spec.  ``error``
    carries the first shard failure message when it fails.  ``await
    job.wait()`` blocks until a terminal state.

    ``payload`` is the result payload the job appended to the store, kept
    only for the caller of :meth:`JobManager.run` that waits on it; it
    stays ``None`` when nobody waits, and when the job stored nothing new
    (the result was already stored, so its provenance is another run's).
    """

    def __init__(
        self,
        job_id: str,
        spec: ExperimentSpec,
        shards: Sequence[ShardPlan],
        trace_id: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.fingerprint = spec.fingerprint()
        self.trace_id = trace_id
        self.shards = [ShardRun(plan) for plan in shards]
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.key: Optional[str] = None
        self.error: Optional[str] = None
        self.payload: Optional[Dict[str, Any]] = None
        self._awaited = False
        self._done = asyncio.Event()
        self._cancelled = False
        self._tasks: List["asyncio.Task"] = []
        self._runner: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def shard_counts(self) -> Dict[str, int]:
        """Shard tally by state (every state key present, zero or not)."""
        counts = {state: 0 for state in SHARD_STATES}
        for shard in self.shards:
            counts[shard.state] += 1
        counts["total"] = len(self.shards)
        return counts

    def progress(self) -> float:
        """Fraction of grid entries whose shard already finished (0..1)."""
        total = sum(shard.plan.entries for shard in self.shards)
        if total == 0:
            return 1.0
        finished = sum(
            shard.plan.entries
            for shard in self.shards
            if shard.state in ("completed", "skipped")
        )
        return finished / total

    def eta_seconds(self, workers: int) -> Optional[float]:
        """Projected seconds until completion, from observed shard durations.

        ``None`` until at least one shard has actually executed (skipped
        shards carry no timing signal).
        """
        durations = [shard.seconds for shard in self.shards if shard.seconds is not None]
        if not durations or self.done:
            return None
        remaining = sum(
            1 for shard in self.shards if shard.state in ("pending", "leased", "running")
        )
        mean = sum(durations) / len(durations)
        return round(mean * remaining / max(1, workers), 6)

    async def wait(self, timeout: Optional[float] = None) -> "Job":
        """Block until the job is terminal; raises ``TimeoutError`` on expiry."""
        await asyncio.wait_for(self._done.wait(), timeout)
        return self

    def to_payload(self, workers: int, include_shards: bool = True) -> Dict[str, Any]:
        """JSON-ready job status (the ``GET /v1/jobs/<id>`` body)."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "fingerprint": self.fingerprint,
            "trace_id": self.trace_id,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "shards": self.shard_counts(),
            "progress": round(self.progress(), 6),
            "eta_seconds": self.eta_seconds(workers),
            "key": self.key,
            "error": self.error,
        }
        if include_shards:
            payload["shard_states"] = [shard.to_payload() for shard in self.shards]
        return payload


@dataclass
class Lease:
    """One outstanding claim a fleet worker holds on a shard.

    ``deadline`` is the wall-clock instant after which the scheduler
    considers the worker dead and re-queues the shard; heartbeats push it
    forward by ``ttl_s``.
    """

    id: str
    worker: str
    job: Job
    shard: ShardRun
    ttl_s: float
    granted: float
    deadline: float
    heartbeats: int = 0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready lease row for the fleet-status endpoint."""
        return {
            "id": self.id,
            "worker": self.worker,
            "job_id": self.job.id,
            "shard_index": self.shard.plan.index,
            "fingerprint": self.shard.plan.fingerprint,
            "entries": self.shard.plan.entries,
            "ttl_s": self.ttl_s,
            "granted": self.granted,
            "deadline": self.deadline,
            "heartbeats": self.heartbeats,
        }


class LeaseLedger:
    """Bookkeeping for the pull-based fleet: availability, leases, history.

    Event-loop confined (every caller runs on the scheduler's loop), so no
    locking: an acquire observes shard states that cannot change under it.
    The ledger only *tracks* — shard state transitions stay with
    :class:`JobManager`, which is the single writer of shard states.
    """

    def __init__(self, ttl_s: float = DEFAULT_LEASE_TTL_S) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be > 0")
        self.ttl_s = ttl_s
        self._available: Deque[Tuple[Job, ShardRun]] = deque()
        self._leases: Dict[str, Lease] = {}
        #: Recently closed leases: id -> {"outcome", "key"} for idempotent
        #: duplicate complete/fail/heartbeat answers.
        self._closed: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._workers: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._ids = itertools.count(1)
        self.counters: Dict[str, int] = {
            "granted": 0,
            "completed": 0,
            "failed": 0,
            "expired": 0,
            "requeued": 0,
            "heartbeats": 0,
            "sweep_errors": 0,
        }

    # ------------------------------------------------------------------ #
    def offer(self, job: Job, shard: ShardRun) -> None:
        """Make a pending shard claimable by the fleet."""
        self._available.append((job, shard))

    def pop_available(self) -> Optional[Tuple[Job, ShardRun]]:
        """The oldest genuinely claimable (job, shard) pair, if any.

        Entries claimed meanwhile by the local pool (or whose job went
        terminal) are lazily discarded here — shard ``state`` is the one
        claim token, so a stale deque entry is harmless.
        """
        while self._available:
            job, shard = self._available.popleft()
            if shard.state == "pending" and not job.done and not job._cancelled:
                return job, shard
        return None

    def prune_available(self) -> None:
        """Drop stale availability entries (run from the expiry sweep)."""
        self._available = deque(
            (job, shard)
            for job, shard in self._available
            if shard.state == "pending" and not job.done and not job._cancelled
        )

    # ------------------------------------------------------------------ #
    def grant(self, worker: str, job: Job, shard: ShardRun, ttl_s: float) -> Lease:
        """Register a new lease on ``shard`` for ``worker``."""
        now = time.time()
        lease = Lease(
            id=f"lease-{next(self._ids):06d}-{os.urandom(3).hex()}",
            worker=worker,
            job=job,
            shard=shard,
            ttl_s=ttl_s,
            granted=now,
            deadline=now + ttl_s,
        )
        self._leases[lease.id] = lease
        self.counters["granted"] += 1
        self._touch_worker(worker)
        return lease

    def get(self, lease_id: str) -> Optional[Lease]:
        """The active lease with ``lease_id``, if any."""
        return self._leases.get(lease_id)

    def pop(self, lease_id: str) -> Optional[Lease]:
        """Remove and return an active lease (``None`` when not active)."""
        return self._leases.pop(lease_id, None)

    def heartbeat(self, lease: Lease) -> None:
        """Push a lease's expiry deadline forward by its TTL."""
        lease.deadline = time.time() + lease.ttl_s
        lease.heartbeats += 1
        self.counters["heartbeats"] += 1
        self._touch_worker(lease.worker)

    def close(self, lease: Lease, outcome: str, key: Optional[str] = None) -> None:
        """Record a lease's final outcome for idempotent duplicate calls."""
        self._closed[lease.id] = {"outcome": outcome, "key": key}
        while len(self._closed) > MAX_CLOSED_LEASES:
            self._closed.popitem(last=False)

    def closed_outcome(self, lease_id: str) -> Optional[Dict[str, Any]]:
        """The recorded outcome of a recently closed lease, if remembered."""
        return self._closed.get(lease_id)

    def due(self, now: float) -> List[Lease]:
        """Every active lease whose deadline has passed."""
        return [lease for lease in self._leases.values() if lease.deadline < now]

    # ------------------------------------------------------------------ #
    def _touch_worker(self, worker: str) -> None:
        entry = self._workers.pop(worker, None) or {"leases_granted": 0}
        entry["last_seen"] = time.time()
        entry["leases_granted"] = entry.get("leases_granted", 0)
        self._workers[worker] = entry
        while len(self._workers) > MAX_TRACKED_WORKERS:
            self._workers.popitem(last=False)

    def record_worker_grant(self, worker: str) -> None:
        """Bump a worker's granted-lease counter in the fleet stats."""
        self._touch_worker(worker)
        self._workers[worker]["leases_granted"] += 1

    def sweep_interval(self) -> float:
        """Seconds the expiry sweeper should sleep before its next pass."""
        ttl = min(
            (lease.ttl_s for lease in self._leases.values()), default=self.ttl_s
        )
        return max(0.02, min(1.0, ttl / 4.0))

    def stats(self) -> Dict[str, Any]:
        """Fleet statistics for ``/health`` and ``GET /v1/leases``."""
        active: Dict[str, int] = {}
        for lease in self._leases.values():
            active[lease.worker] = active.get(lease.worker, 0) + 1
        return {
            "lease_ttl_s": self.ttl_s,
            "available_shards": sum(
                1
                for job, shard in self._available
                if shard.state == "pending" and not job.done
            ),
            "active_leases": len(self._leases),
            "workers_seen": len(self._workers),
            "active_by_worker": active,
            **self.counters,
        }

    def rows(self) -> List[Dict[str, Any]]:
        """Every active lease as a JSON-ready row, oldest grant first."""
        return [
            lease.to_payload()
            for lease in sorted(self._leases.values(), key=lambda item: item.granted)
        ]


class JobManager:
    """Owns shard scheduling across the local pool and the worker fleet.

    All coordination runs on the event loop that calls :meth:`submit`;
    shard evaluation and store I/O run in executors, so the loop never
    blocks on CPU-bound work.  ``workers == 1`` schedules shards onto one
    background thread (the pre-sharding service behaviour, minus the
    head-of-line blocking: shards from different jobs interleave);
    ``workers >= 2`` fans shards out over a ``ProcessPoolExecutor``;
    ``workers == 0`` disables local execution — shards then run only on
    the pull-based fleet (:mod:`repro.worker`), and a job waits until
    workers connect.  Pending shards are *always* claimable by the fleet,
    whichever local pool exists: local slots and remote acquires compete
    for the same ``pending`` state, first claimant wins.  Submitting more
    work than there are claimants simply queues shards — jobs are accepted
    immediately.  With ``max_pending_jobs`` set, submissions beyond that
    many non-terminal jobs raise :class:`JobQueueFull` instead of growing
    the queue unboundedly (the HTTP layer answers 429/Retry-After).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        max_entries_per_shard: int = DEFAULT_SHARD_ENTRIES,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_lease_attempts: int = MAX_SHARD_LEASE_ATTEMPTS,
        max_pending_jobs: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = fleet-only, no local pool)")
        if max_entries_per_shard < 1:
            raise ValueError("max_entries_per_shard must be >= 1")
        if max_lease_attempts < 1:
            raise ValueError("max_lease_attempts must be >= 1")
        if max_pending_jobs is not None and max_pending_jobs < 1:
            raise ValueError("max_pending_jobs must be >= 1 (or None for unbounded)")
        self.store = store
        self.workers = workers
        self.max_entries_per_shard = max_entries_per_shard
        self.max_lease_attempts = max_lease_attempts
        self.max_pending_jobs = max_pending_jobs
        self.rejected_jobs = 0
        self.ledger = LeaseLedger(ttl_s=lease_ttl_s)
        self._jobs: Dict[str, Job] = {}
        self._pool: Optional[Executor] = None
        # Admission gate sized to the pool: shards wait here (state
        # "pending") rather than in the executor's opaque queue, so the
        # reported pending/running split is accurate and waiting shards
        # stay trivially cancellable.  Created lazily so it binds to the
        # loop that actually runs the jobs.  Absent at workers == 0.
        self._slots: Optional[asyncio.Semaphore] = None
        self._sweeper: Optional["asyncio.Task"] = None
        self._closed = False
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    def _executor(self) -> Executor:
        """The local shard pool, created lazily on first use."""
        if self.workers < 1:
            raise RuntimeError("local execution is disabled (workers=0)")
        if self._pool is None:
            if self.workers == 1:
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-jobs"
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def stats(self) -> Dict[str, Any]:
        """Aggregate job + fleet counters for the ``/health`` payload."""
        by_state: Dict[str, int] = {}
        shard_states: Dict[str, int] = {state: 0 for state in SHARD_STATES}
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
            for shard in job.shards:
                shard_states[shard.state] += 1
        return {
            "workers": self.workers,
            "max_entries_per_shard": self.max_entries_per_shard,
            "jobs": len(self._jobs),
            "active_jobs": self.active_jobs(),
            "rejected_jobs": self.rejected_jobs,
            "by_state": by_state,
            "shard_states": shard_states,
            "fleet": self.ledger.stats(),
        }

    def active_jobs(self) -> int:
        """Tracked jobs not yet in a terminal state (the queue depth)."""
        return sum(1 for job in self._jobs.values() if not job.done)

    # ------------------------------------------------------------------ #
    async def submit(self, spec: ExperimentSpec) -> Job:
        """Plan and schedule a campaign job; returns without waiting.

        The shard plan is computed off the event loop (grid expansion and
        per-shard fingerprinting are CPU work).  The returned job is
        already tracked: poll it via :meth:`get`, block on ``job.wait()``.
        """
        if self._closed:
            raise RuntimeError("JobManager is closed")
        if self.max_pending_jobs is not None:
            active = self.active_jobs()
            if active >= self.max_pending_jobs:
                self.rejected_jobs += 1
                raise JobQueueFull(active, self.max_pending_jobs)
        loop = asyncio.get_running_loop()
        if self._slots is None and self.workers >= 1:
            self._slots = asyncio.Semaphore(self.workers)
        self._ensure_sweeper()
        shards = await loop.run_in_executor(
            None, plan_shards, spec, self.max_entries_per_shard
        )
        job = Job(
            f"job-{next(self._ids):06d}-{os.urandom(3).hex()}",
            spec,
            shards,
            trace_id=current_trace_id(),
        )
        self._evict_terminal()
        self._jobs[job.id] = job
        job._runner = asyncio.ensure_future(self._run_job(job))
        return job

    async def run(self, spec: ExperimentSpec) -> Tuple[Job, Optional[Dict[str, Any]]]:
        """Submit ``spec``, wait for its job and take the payload it stored.

        The payload is ``None`` unless the job itself appended its result:
        a result that was already stored (a resubmission, or an identical
        job that stored it first) must be read from the store, whose copy
        carries the provenance of the run that stored it.  The job keeps
        no payload once this returns, so tracked terminal jobs hold none.
        """
        job = await self.submit(spec)
        job._awaited = True
        try:
            await job.wait()
            return job, job.payload
        finally:
            job._awaited = False
            job.payload = None

    def _evict_terminal(self) -> None:
        """Drop the oldest terminal jobs beyond :data:`MAX_TERMINAL_JOBS`."""
        terminal = [job_id for job_id, job in self._jobs.items() if job.done]
        for job_id in terminal[: max(0, len(terminal) - MAX_TERMINAL_JOBS)]:
            del self._jobs[job_id]

    def get(self, job_id: str) -> Job:
        """The tracked job with ``job_id``; raises ``KeyError`` when unknown."""
        return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every tracked job, oldest submission first."""
        return list(self._jobs.values())

    async def cancel(self, job_id: str) -> bool:
        """Cancel a job's unfinished shards; ``False`` if already terminal.

        Shards already stored stay in the store (they are valid,
        independently re-runnable results that a resubmission will reuse);
        a shard mid-execution on a worker — local or fleet — finishes but
        its output is discarded un-stored (a fleet worker's late
        ``complete`` is rejected because its lease was revoked).
        """
        job = self.get(job_id)
        if job.done:
            return False
        await self._cancel_and_finalize(job)
        return job.state == "cancelled"

    async def _cancel_and_finalize(self, job: Job) -> None:
        """Cancel a job's tasks and guarantee it reaches a terminal state.

        Cancelling the runner matters: a cancel landing while the runner
        is still in its resume-check window (no shard tasks spawned yet)
        must interrupt that await too, not wait for the whole campaign.
        A runner cancelled before it ever started executing never enters
        its ``finally``, so the terminal bookkeeping is applied here when
        the runner did not get to do it itself.
        """
        job._cancelled = True
        self._revoke_leases(job)
        for task in job._tasks:
            task.cancel()
        runner = job._runner
        if runner is not None:
            runner.cancel()
            try:
                await runner
            except asyncio.CancelledError:
                pass
        if not job._done.is_set():
            for shard in job.shards:
                if shard.state in ("pending", "leased", "running"):
                    shard.set_state("cancelled")
            job.state = "cancelled"
            job.finished = time.time()
            job._done.set()
        await job.wait()

    def _revoke_leases(self, job: Job) -> None:
        """Drop every outstanding lease of ``job`` (cancel path).

        The holding workers keep computing until their next protocol call,
        which answers "lease revoked" — their output is discarded, exactly
        like a local worker whose job was cancelled mid-shard.
        """
        for lease_id, lease in list(self.ledger._leases.items()):
            if lease.job is job:
                self.ledger.pop(lease_id)
                self.ledger.close(lease, "cancelled")

    async def close(self) -> None:
        """Cancel every live job, the expiry sweeper and the worker pool."""
        self._closed = True
        for job in list(self._jobs.values()):
            if not job.done:
                await self._cancel_and_finalize(job)
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------ #
    # Lease protocol (called by the HTTP layer, on the scheduler's loop)
    # ------------------------------------------------------------------ #
    async def acquire_leases(
        self, worker: str, count: int = 1, ttl_s: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Grant up to ``count`` leases on pending shards to ``worker``.

        Returns JSON-ready lease payloads, each carrying the complete
        shard spec (``shard.spec``) the worker must execute.  An empty
        list means nothing is claimable right now — the worker should poll
        again after a short delay.  ``ttl_s`` overrides the server's
        default lease TTL, clamped to sane bounds.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        ttl = self.ledger.ttl_s if ttl_s is None else ttl_s
        ttl = min(max(ttl, MIN_LEASE_TTL_S), MAX_LEASE_TTL_S)
        self._ensure_sweeper()
        granted: List[Dict[str, Any]] = []
        for _ in range(count):
            claim = self.ledger.pop_available()
            if claim is None:
                break
            job, shard = claim
            shard.attempts += 1
            shard.worker = worker
            shard.set_state("leased")
            lease = self.ledger.grant(worker, job, shard, ttl)
            self.ledger.record_worker_grant(worker)
            granted.append(
                {
                    "id": lease.id,
                    "worker": worker,
                    "ttl_s": ttl,
                    "deadline": lease.deadline,
                    "job_id": job.id,
                    "trace_id": job.trace_id,
                    "shard": {
                        "index": shard.plan.index,
                        "fingerprint": shard.plan.fingerprint,
                        "entries": shard.plan.entries,
                        "networks": list(shard.plan.networks),
                        "devices": list(shard.plan.devices),
                        "spec": shard.plan.spec.to_dict(),
                    },
                }
            )
        return granted

    async def heartbeat_lease(self, lease_id: str) -> Dict[str, Any]:
        """Extend a lease's expiry; tells the worker whether it still holds it.

        ``alive: false`` means the lease expired, was revoked (job
        cancelled) or was never granted — the worker must abandon the
        shard (its eventual ``complete`` would be rejected anyway).
        """
        lease = self.ledger.get(lease_id)
        if lease is None:
            closed = self.ledger.closed_outcome(lease_id)
            reason = closed["outcome"] if closed else "unknown-lease"
            return {"alive": False, "reason": reason}
        self.ledger.heartbeat(lease)
        return {"alive": True, "deadline": lease.deadline, "ttl_s": lease.ttl_s}

    async def complete_lease(
        self,
        lease_id: str,
        payload: Dict[str, Any],
        seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Accept a fleet worker's shard result and finish the shard.

        The payload is validated against the leased shard (its embedded
        spec must fingerprint to the shard's spec — a worker cannot
        complete shard A with shard B's result), stored through
        :meth:`~repro.service.store.ResultStore.put_payload` off the event
        loop, and the shard transitions to ``completed``, unblocking the
        job runner.  Idempotent: a duplicate complete of an
        already-completed lease answers ``accepted: true, duplicate:
        true``; a complete after expiry/revocation is rejected
        (``accepted: false`` with the reason) because the shard was — or
        will be — re-executed by someone else.

        Raises ``ValueError`` for an invalid payload (the HTTP layer maps
        it to a 400), including one the store refuses.  The attempt
        counts against the shard's lease-attempt budget: the shard
        re-queues while attempts remain, and fails with the validation
        message once they are spent.
        """
        lease = self.ledger.pop(lease_id)
        if lease is None:
            closed = self.ledger.closed_outcome(lease_id)
            if closed and closed["outcome"] == "completed":
                return {"accepted": True, "duplicate": True, "key": closed["key"]}
            reason = closed["outcome"] if closed else "unknown-lease"
            return {"accepted": False, "duplicate": False, "reason": reason, "key": None}
        job, shard = lease.job, lease.shard
        if shard.state != "leased":
            # Cancelled (or otherwise finished) while the worker computed.
            self.ledger.close(lease, shard.state)
            return {
                "accepted": False,
                "duplicate": False,
                "reason": f"shard-{shard.state}",
                "key": None,
            }
        loop = asyncio.get_running_loop()
        try:
            self._validate_shard_payload(shard, payload)
            key, appended = await loop.run_in_executor(
                None, self.store._put_appended, payload
            )
        except Exception as error:
            # Invalid completion: the shard still needs executing, unless
            # this was its last attempt.
            self.ledger.close(lease, "invalid")
            self.ledger.counters["failed"] += 1
            if shard.state == "leased":
                if shard.attempts < self.max_lease_attempts:
                    shard.worker = None
                    shard.set_state("pending")
                    self.ledger.offer(job, shard)
                    self.ledger.counters["requeued"] += 1
                else:
                    shard.error = (
                        f"lease completion rejected after {shard.attempts} grants "
                        f"(last worker {lease.worker!r}): {error}"
                    )
                    shard.set_state("failed")
            raise
        if shard.state == "leased":  # a cancel may have landed during the await
            shard.key = key
            shard.payload = payload
            shard.appended = appended
            shard.seconds = seconds
            shard.set_state("completed")
        self.ledger.close(lease, "completed", key)
        self.ledger.counters["completed"] += 1
        return {
            "accepted": True,
            "duplicate": False,
            "key": key,
            "job_id": job.id,
            "shard_index": shard.plan.index,
        }

    async def fail_lease(
        self, lease_id: str, error: str, requeue: bool = False
    ) -> Dict[str, Any]:
        """Report a worker-side shard failure (or hand the shard back).

        ``requeue=False`` (an execution error): the shard — and therefore
        the job — fails with the worker's error message, exactly as a
        local execution failure would.  ``requeue=True`` (the worker is
        shutting down, or hit a transient environment problem): the shard
        goes back to ``pending`` for the next claimant, counting against
        its lease-attempt budget.
        """
        lease = self.ledger.pop(lease_id)
        if lease is None:
            closed = self.ledger.closed_outcome(lease_id)
            reason = closed["outcome"] if closed else "unknown-lease"
            return {"accepted": False, "reason": reason, "requeued": False}
        job, shard = lease.job, lease.shard
        requeued = False
        if shard.state == "leased":
            if requeue and shard.attempts < self.max_lease_attempts:
                shard.worker = None
                shard.set_state("pending")
                self.ledger.offer(job, shard)
                self.ledger.counters["requeued"] += 1
                requeued = True
            else:
                shard.error = error
                shard.set_state("failed")
        self.ledger.close(lease, "requeued" if requeued else "failed")
        self.ledger.counters["failed"] += 0 if requeued else 1
        return {"accepted": True, "reason": None, "requeued": requeued}

    @staticmethod
    def _validate_shard_payload(shard: ShardRun, payload: Dict[str, Any]) -> None:
        """Reject a completion whose payload is not this shard's result.

        Beyond what :meth:`~repro.service.store.ResultStore.put_payload`
        checks, the fields :meth:`_assemble` reads must have their types,
        so a one-shard job, whose shard result is the job's result, accepts
        exactly the payloads a multi-shard job could assemble.
        """
        if not isinstance(payload, dict):
            raise ValueError("lease completion payload must be a result mapping")
        if payload.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"lease completion payload has schema {payload.get('schema')!r}; "
                f"expected {RESULT_SCHEMA!r}"
            )
        evaluations = payload.get("evaluations")
        if not isinstance(evaluations, int) or isinstance(evaluations, bool):
            raise ValueError(
                f"lease completion payload evaluations must be an integer, "
                f"got {evaluations!r}"
            )
        if not isinstance(payload.get("points"), list):
            raise ValueError("lease completion payload points must be a list")
        if not isinstance(payload.get("cache_stats") or {}, dict):
            raise ValueError("lease completion payload cache_stats must be a mapping")
        spec_data = payload.get("spec")
        if not isinstance(spec_data, dict):
            raise ValueError("lease completion payload has no embedded spec mapping")
        fingerprint = canonical_json_hash(
            {
                k: v
                for k, v in spec_data.items()
                if k not in ExperimentSpec.EXECUTION_ONLY_FIELDS
            }
        )
        if fingerprint != shard.plan.fingerprint:
            raise ValueError(
                f"lease completion payload fingerprints to {fingerprint[:12]}…, "
                f"not the leased shard's {shard.plan.fingerprint[:12]}…"
            )

    # ------------------------------------------------------------------ #
    # Lease expiry sweep
    # ------------------------------------------------------------------ #
    def _ensure_sweeper(self) -> None:
        """Start (or restart) the lease-expiry sweep task on this loop."""
        if self._closed:
            return
        if self._sweeper is None or self._sweeper.done():
            self._sweeper = asyncio.ensure_future(self._sweep_forever())

    async def _sweep_forever(self) -> None:
        """Periodically expire overdue leases until the manager closes."""
        while not self._closed:
            await asyncio.sleep(self.ledger.sweep_interval())
            try:
                self._sweep_once()
            except Exception:  # noqa: BLE001 — the sweeper must survive
                self.ledger.counters["sweep_errors"] += 1

    def _sweep_once(self) -> None:
        """Re-queue (or fail) every shard whose lease deadline has passed."""
        now = time.time()
        for lease in self.ledger.due(now):
            self.ledger.pop(lease.id)
            self.ledger.close(lease, "expired")
            self.ledger.counters["expired"] += 1
            job, shard = lease.job, lease.shard
            if job.done or job._cancelled or shard.state != "leased":
                continue
            if shard.attempts >= self.max_lease_attempts:
                shard.error = (
                    f"lease expired after {shard.attempts} grants "
                    f"(last worker {lease.worker!r}); giving up on the shard"
                )
                shard.set_state("failed")
            else:
                shard.worker = None
                shard.set_state("pending")
                self.ledger.offer(job, shard)
                self.ledger.counters["requeued"] += 1
        self.ledger.prune_available()

    # ------------------------------------------------------------------ #
    async def _run_job(self, job: Job) -> None:
        """Drive one job: resume check, shard fan-out, the job's result.

        One index pass answers both resume checks.  When the whole result
        is stored (the job ran to completion before), the job completes at
        once, storing nothing.  Otherwise every shard the store holds is
        skipped and the rest run.  A plan of one shard whose spec is the
        job's spec then takes that shard's stored result as its own; any
        other plan assembles its shards (:meth:`_assemble`).  The payload
        the job appended goes to a waiting :meth:`run` caller only.
        """
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.started = time.time()
        try:
            if job._cancelled:
                raise asyncio.CancelledError
            stored = await loop.run_in_executor(
                None,
                self.store.find_many,
                [job.fingerprint, *(shard.plan.fingerprint for shard in job.shards)],
            )
            record = stored.get(job.fingerprint)
            if record is not None:
                for shard in job.shards:
                    shard.set_state("skipped")
                job.key = record.key
                job.state = "completed"
                return
            for shard in job.shards:
                record = stored.get(shard.plan.fingerprint)
                if record is not None:
                    shard.key = record.key
                    shard.set_state("skipped")
            if job._cancelled:
                raise asyncio.CancelledError
            pending = [shard for shard in job.shards if shard.state == "pending"]
            job._tasks = [
                asyncio.ensure_future(self._drive_shard(job, shard)) for shard in pending
            ]
            if job._tasks:
                await asyncio.gather(*job._tasks, return_exceptions=True)
            if job._cancelled:
                raise asyncio.CancelledError
            failed = [shard for shard in job.shards if shard.state == "failed"]
            if failed:
                job.error = failed[0].error
                job.state = "failed"
                return
            shard = job.shards[0] if len(job.shards) == 1 else None
            if shard is not None and shard.plan.fingerprint == job.fingerprint:
                # The shard's spec is the job's: its stored result is the job's.
                job.key = shard.key
                payload = shard.payload if shard.appended else None
            else:
                job.key, payload = await loop.run_in_executor(None, self._assemble, job)
            if job._awaited:
                job.payload = payload
            job.state = "completed"
        except asyncio.CancelledError:
            for shard in job.shards:
                if shard.state in ("pending", "leased", "running"):
                    shard.set_state("cancelled")
            job.state = "cancelled"
        except Exception as error:  # noqa: BLE001 — job must reach a terminal state
            job.error = f"{type(error).__name__}: {error}"
            job.state = "failed"
        finally:
            job.finished = time.time()
            for shard in job.shards:
                shard.payload = None  # free assembled payloads
            job._done.set()

    async def _drive_shard(self, job: Job, shard: ShardRun) -> None:
        """Own one shard's lifecycle until it reaches a terminal state.

        The shard is offered to the fleet immediately and stays claimable
        the whole time it is ``pending``; when a local pool exists, this
        task also competes for it through the worker-count semaphore.
        Whoever claims first wins — a lease flips the state to ``leased``
        and this task just waits for the remote completion (or for the
        expiry sweep to hand the shard back).
        """
        self.ledger.offer(job, shard)
        try:
            while True:
                if shard.state in SHARD_TERMINAL:
                    return
                if shard.state == "pending" and self.workers >= 1:
                    if await self._try_run_local(job, shard):
                        return
                    continue  # lost the claim — re-read the state
                await shard.state_changed()
        except asyncio.CancelledError:
            if shard.state in ("pending", "leased", "running"):
                shard.set_state("cancelled")
            raise

    async def _try_run_local(self, job: Job, shard: ShardRun) -> bool:
        """Execute one shard on the local pool if it is still unclaimed.

        Admission goes through the worker-count semaphore, so a shard is
        ``pending`` while it waits for a slot and ``running`` only while a
        worker actually holds it — the progress a job reports distinguishes
        queued work from in-flight work truthfully.  Returns ``False``
        when the fleet claimed (or finished) the shard while this task was
        waiting for a slot.
        """
        loop = asyncio.get_running_loop()
        assert self._slots is not None  # created by submit() when workers >= 1
        async with self._slots:
            if shard.state != "pending":
                return False
            shard.worker = "local"
            shard.set_state("running")
            started = time.perf_counter()
            try:
                payload = await loop.run_in_executor(
                    self._executor(), execute_shard, shard.plan.spec.to_dict()
                )
                shard.key, shard.appended = await loop.run_in_executor(
                    None, self.store._put_appended, payload
                )
                shard.payload = payload
                shard.seconds = time.perf_counter() - started
                shard.set_state("completed")
            except Exception as error:  # noqa: BLE001 — reported via job state
                shard.seconds = time.perf_counter() - started
                shard.error = f"{type(error).__name__}: {error}"
                shard.set_state("failed")
            return True

    def _assemble(self, job: Job) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Concatenate shard payloads in plan order and store the result.

        Pure payload-level work (list concatenation plus one store append):
        no design points are materialized here, which keeps the parent
        process cheap — the whole point of fanning shards out.  Shard order
        is the grid's canonical order, so the assembled payload is
        bit-identical to a single-thread run of the spec (and deduplicates
        against one in the store) no matter which mix of local pool and
        fleet workers produced the shards.  Returns the key and the
        assembled payload, or ``None`` in its place when the key was
        already stored.
        """
        points: List[Dict[str, Any]] = []
        evaluations = 0
        hits = 0
        misses = 0
        for shard in job.shards:
            payload = shard.payload
            if payload is None:  # skipped — resumed from the store
                payload = self.store.get_payload(shard.key)
            points.extend(payload["points"])
            evaluations += payload["evaluations"]
            stats = payload.get("cache_stats") or {}
            hits += stats.get("hits", 0)
            misses += stats.get("misses", 0)
        assembled = {
            "schema": RESULT_SCHEMA,
            "spec": job.spec.to_dict(),
            "evaluations": evaluations,
            "elapsed_seconds": time.time() - (job.started or job.created),
            "cache_stats": {"hits": hits, "misses": misses},
            "points": points,
        }
        key, appended = self.store._put_appended(assembled)
        return key, assembled if appended else None
