"""Memoised evaluation layer for the design-space campaign engine.

A design-space grid re-uses the same expensive sub-computations over and over:
the transform operator counts depend only on ``(m, r)``, the engine resource
model only on ``(m, r, P, shared, device, calibration)``, and the workload
complexity terms only on the network and ``(m, r, P)`` — yet the seed
``explore`` loop recomputed all of them for every budget x frequency
combination.  :class:`EvaluationCache` memoises each of those layers plus the
fully evaluated :class:`~repro.core.design_point.DesignPoint` itself, keyed on
``(network, device, calibration, m, r, budget, frequency, shared)``, so that
repeated probes are near-free.  Grids run on the vectorized engine
(:mod:`repro.dse.vectorized`) and never read it; the search strategies
that probe one configuration at a time (random, pareto-refine) do,
through :func:`repro.dse.engine.evaluate_design_cached`.

Networks are mutable and unhashable, so cache keys use
:func:`network_fingerprint` — a content hash over the network's name and
layer stack.  Mutating a network between sweeps therefore changes its key and
cannot serve stale results.

Every memoised value is produced by calling the *same* model functions with
the *same* arguments the uncached path uses, so cached and uncached
evaluations are bit-identical — a property the test suite locks down.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.complexity import (
    implementation_transform_complexity,
    multiplication_complexity,
    spatial_multiplications,
)
from ..core.throughput import LatencyReport, network_latency
from ..hw.calibration import Calibration
from ..hw.device import FpgaDevice
from ..hw.engine import EngineConfig, EngineModel, build_engine
from ..nn.model import Network
from ..winograd.numerical import ErrorStats
from ..winograd.op_count import TransformOpCounts, count_transform_ops
from ..winograd.quantized import calibrated_error

__all__ = ["CacheStats", "EvaluationCache", "network_fingerprint", "global_cache"]


def network_fingerprint(network: Network) -> str:
    """Stable content hash of a network's evaluation-relevant structure.

    Covers the name (used for design-point provenance) and the full layer
    stack, so two structurally identical networks share cache entries while
    any layer edit produces a fresh key.
    """
    hasher = hashlib.sha256()
    hasher.update(network.name.encode())
    for layer in network.layers:
        hasher.update(b"|")
        hasher.update(repr(layer).encode())
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache layer (or the aggregate)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total probes: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits + other.hits, misses=self.misses + other.misses)

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since an ``earlier`` snapshot of this cache."""
        return CacheStats(hits=self.hits - earlier.hits, misses=self.misses - earlier.misses)


class EvaluationCache:
    """Layered memo for design-point evaluation.

    The layers, coarsest to finest:

    * ``points`` — fully evaluated design points (or the ``ValueError`` an
      infeasible configuration raised, so repeated infeasible probes are
      also free);
    * ``engines`` — :func:`repro.hw.engine.build_engine` results, keyed
      independently of clock frequency (resources and pipeline depth do not
      depend on it; the config is re-attached per request);
    * ``latency`` — :func:`repro.core.throughput.network_latency` reports;
    * ``op_counts`` / ``complexity`` — transform operator counts per
      ``(m, r)`` and the Section III workload terms;
    * ``accuracy`` — the per-``(m, r, bit_width)`` numerical-error
      calibration table (:func:`repro.winograd.quantized.calibrated_error`).
    """

    DEFAULT_MAX_POINTS = 16384

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS) -> None:
        #: Bound applied to every memo layer (FIFO eviction, 0 = unbounded).
        #: It matters most for the per-configuration layers (design points,
        #: latency reports) and the per-network complexity/engine layers,
        #: whose key spaces grow with each distinct grid entry or workload
        #: evaluated; the shared (m, r) op-count layer never gets near it.
        self.max_points = max_points
        self._evict_lock = threading.Lock()
        #: Serializes hit/miss counter updates.  Memo reads/writes are
        #: individually atomic under the GIL, but ``stats.hits += 1`` is a
        #: read-modify-write that loses updates under thread interleaving —
        #: and the result-serving HTTP server shares one cache across
        #: request threads, so the accounting must stay exact (lookups ==
        #: hits + misses) no matter how many threads probe concurrently.
        self._stats_lock = threading.Lock()
        self._op_counts: Dict[Tuple, TransformOpCounts] = {}
        self._engines: Dict[Tuple, EngineModel] = {}
        self._latency: Dict[Tuple, LatencyReport] = {}
        self._spatial: Dict[str, int] = {}
        self._mults: Dict[Tuple, float] = {}
        self._impl_transform: Dict[Tuple, float] = {}
        self._accuracy: Dict[Tuple, ErrorStats] = {}
        self._points: Dict[Tuple, Tuple[str, Any]] = {}
        self.stats: Dict[str, CacheStats] = {
            name: CacheStats()
            for name in (
                "points", "engines", "latency", "op_counts", "complexity", "accuracy",
            )
        }

    # ------------------------------------------------------------------ #
    def _memo(self, store: Dict, key: Tuple, stat: str, factory: Callable[[], Any]) -> Any:
        stats = self.stats[stat]
        try:
            value = store[key]
        except KeyError:
            with self._stats_lock:
                stats.misses += 1
            # The factory runs outside any lock so concurrent misses never
            # serialize on model evaluation; two threads racing the same
            # key each compute the (bit-identical) value and the last
            # store wins — both count as misses, keeping lookups ==
            # hits + misses exact.
            value = store[key] = factory()
            self._evict_over_bound(store)
            return value
        with self._stats_lock:
            stats.hits += 1
        return value

    # ------------------------------------------------------------------ #
    def op_counts(self, m: int, r: int, prefer_canonical: bool = True) -> TransformOpCounts:
        """Transform operator counts for ``F(m x m, r x r)``."""
        return self._memo(
            self._op_counts,
            (m, r, prefer_canonical),
            "op_counts",
            lambda: count_transform_ops(m, r, prefer_canonical),
        )

    def engine(
        self, config: EngineConfig, device: FpgaDevice, calibration: Calibration
    ) -> EngineModel:
        """Engine model for ``config``; frequency-agnostic under the hood."""
        key = (
            config.m,
            config.r,
            config.parallel_pes,
            config.shared_data_transform,
            config.precision,
            config.buffer_kbits,
            device,
            calibration,
        )
        counts = self.op_counts(config.m, config.r)
        engine = self._memo(
            self._engines,
            key,
            "engines",
            lambda: build_engine(config, device=device, calibration=calibration, op_counts=counts),
        )
        if engine.config != config or engine.device is not device:
            # Re-attach the requester's config and device: the cached engine
            # may have been built at a different clock frequency (resources
            # and pipeline depth are frequency-independent) or with an equal
            # but distinct device object (e.g. across process boundaries);
            # sharing the caller's objects keeps serialized design points
            # byte-identical to an uncached evaluation.
            engine = replace(engine, config=config, device=device)
        return engine

    def latency(
        self,
        fingerprint: str,
        network: Network,
        m: int,
        pes: float,
        frequency_mhz: float,
        r: int,
        pipeline_depth: int,
    ) -> LatencyReport:
        """Eq. (9) latency report for one configuration on one network."""
        key = (fingerprint, m, pes, frequency_mhz, r, pipeline_depth)
        report = self._memo(
            self._latency,
            key,
            "latency",
            lambda: network_latency(
                network,
                m=m,
                pes=pes,
                frequency_mhz=frequency_mhz,
                r=r,
                pipeline_depth=pipeline_depth,
            ),
        )
        return report

    def spatial_multiplications(self, fingerprint: str, network: Network) -> int:
        """Spatial-convolution multiplication count of the workload."""
        return self._memo(
            self._spatial,
            fingerprint,
            "complexity",
            lambda: spatial_multiplications(network),
        )

    def multiplication_complexity(self, fingerprint: str, network: Network, m: int) -> float:
        """Eq. (4) element-wise multiplication count for tile size ``m``."""
        return self._memo(
            self._mults,
            (fingerprint, m),
            "complexity",
            lambda: multiplication_complexity(network, m),
        )

    def implementation_transform_complexity(
        self, fingerprint: str, network: Network, m: int, parallel_pes: int
    ) -> float:
        """Eq. (7) implementation transform complexity.

        For uniform-kernel networks the per-``(m, r)`` operator counts are
        supplied from the cache, which skips the transform regeneration that
        dominates the uncached call; mixed-kernel networks fall back to the
        plain call (still memoised per ``(network, m, P)``).
        """
        uniform_r = network.uniform_kernel_size()

        def compute() -> float:
            """Cache-miss path: evaluate the transform complexity model."""
            if uniform_r is not None:
                return implementation_transform_complexity(
                    network, m, parallel_pes, op_counts=self.op_counts(m, uniform_r)
                )
            return implementation_transform_complexity(network, m, parallel_pes)

        return self._memo(
            self._impl_transform,
            (fingerprint, m, parallel_pes),
            "complexity",
            compute,
        )

    def tile_error_stats(self, m: int, r: int, bit_width: Optional[int]) -> ErrorStats:
        """Calibrated numerical error of the ``(m, r, bit_width)`` cell.

        Backed by the deterministic module-level calibration table, so
        concurrent misses (and separate caches) always observe
        bit-identical statistics.
        """
        return self._memo(
            self._accuracy,
            (m, r, bit_width),
            "accuracy",
            lambda: calibrated_error(m, r, bit_width),
        )

    # ------------------------------------------------------------------ #
    def lookup_point(self, key: Tuple) -> Optional[Tuple[str, Any]]:
        """Raw design-point lookup: ``("ok", point)``, ``("err", msg)`` or None."""
        entry = self._points.get(key)
        with self._stats_lock:
            if entry is None:
                self.stats["points"].misses += 1
            else:
                self.stats["points"].hits += 1
        return entry

    def store_point(self, key: Tuple, entry: Tuple[str, Any]) -> None:
        """Record a design-point outcome (``("ok", point)``/``("err", …)``)."""
        self._points[key] = entry
        self._evict_over_bound(self._points)

    def _evict_over_bound(self, store: Dict) -> None:
        """Best-effort FIFO eviction down to ``max_points`` entries.

        Concurrent explorers may share this cache (the process-global one in
        particular); eviction is serialized under a lock and tolerates keys
        vanishing or the dict changing shape underneath — worst case the
        bound is enforced on the next store, never an exception.
        """
        if not self.max_points or len(store) <= self.max_points:
            return
        with self._evict_lock:
            while len(store) > self.max_points:
                try:
                    del store[next(iter(store))]
                except (KeyError, StopIteration, RuntimeError):
                    break

    # ------------------------------------------------------------------ #
    @property
    def total(self) -> CacheStats:
        """Aggregate hit/miss counters across all layers."""
        total = CacheStats()
        for stats in self.stats.values():
            total = total + stats
        return total

    @property
    def entries(self) -> int:
        """Number of memoised values across all layers."""
        return (
            len(self._op_counts)
            + len(self._engines)
            + len(self._latency)
            + len(self._spatial)
            + len(self._mults)
            + len(self._impl_transform)
            + len(self._accuracy)
            + len(self._points)
        )

    def clear(self) -> None:
        """Drop every memoised value and reset the counters."""
        for store in (
            self._op_counts,
            self._engines,
            self._latency,
            self._spatial,
            self._mults,
            self._impl_transform,
            self._accuracy,
            self._points,
        ):
            store.clear()
        for stats in self.stats.values():
            stats.hits = 0
            stats.misses = 0

    def __repr__(self) -> str:
        total = self.total
        return (
            f"EvaluationCache(entries={self.entries}, hits={total.hits}, "
            f"misses={total.misses})"
        )


#: Process-wide cache shared by default across sweeps and campaigns.
_GLOBAL_CACHE = EvaluationCache()


def global_cache() -> EvaluationCache:
    """The process-wide :class:`EvaluationCache` used when none is supplied."""
    return _GLOBAL_CACHE
