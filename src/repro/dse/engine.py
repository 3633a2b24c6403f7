"""Grid evaluation behind ``explore`` and campaigns, plus the per-probe path.

Two pieces live here:

* :func:`iter_explore` — a streaming iterator over the cross-product of
  networks x devices x sweep configurations.  Every ``(network, device)``
  cell is evaluated in one call to the vectorized engine
  (:func:`repro.dse.vectorized.evaluate_cell_batch`), which is
  bit-identical to the scalar model, and the feasible design points are
  yielded in deterministic order.
* :func:`evaluate_design_cached` — a drop-in for
  :func:`repro.core.design_point.evaluate_design` that routes every
  sub-computation through an :class:`~repro.dse.cache.EvaluationCache`.
  Results are bit-identical to the uncached path (the cache only memoises
  calls the uncached path would make with the same arguments).  Search
  strategies that probe one configuration at a time (random,
  pareto-refine) evaluate through it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..core.design_point import DesignPoint, evaluate_design
from ..core.design_space import GridEntry, SweepSpec
from ..hw.calibration import Calibration, DEFAULT_CALIBRATION
from ..hw.device import FpgaDevice, resolve_device, virtex7_485t
from ..nn.model import Network
from ..nn.registry import resolve_network
from . import vectorized
from .cache import EvaluationCache, global_cache, network_fingerprint

__all__ = [
    "chunk_entries",
    "evaluate_design_cached",
    "iter_explore",
]

NetworkLike = Union[Network, str]
DeviceLike = Union[FpgaDevice, str]
SpecLike = Union[SweepSpec, Sequence[SweepSpec]]
CacheLike = Union[EvaluationCache, None, bool]


def chunk_entries(entries: Sequence[GridEntry], chunk_size: int) -> List[Tuple[GridEntry, ...]]:
    """Split ``entries`` into contiguous chunks of at most ``chunk_size``.

    Order-preserving: concatenating the chunks reproduces ``entries``
    exactly, which is what lets the service's job scheduler
    (:mod:`repro.service.jobs`) reassemble chunk results into the grid's
    canonical evaluation order.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    entries = list(entries)
    return [
        tuple(entries[start : start + chunk_size])
        for start in range(0, len(entries), chunk_size)
    ]


# --------------------------------------------------------------------- #
# Cached single-point evaluation
# --------------------------------------------------------------------- #
def evaluate_design_cached(
    network: Network,
    m: int,
    r: int = 3,
    parallel_pes: Optional[int] = None,
    multiplier_budget: Optional[int] = None,
    frequency_mhz: float = 200.0,
    shared_data_transform: bool = True,
    device: Optional[FpgaDevice] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    include_pipeline_depth: bool = True,
    name: Optional[str] = None,
    cache: CacheLike = None,
    fingerprint: Optional[str] = None,
    bit_width: Optional[int] = None,
) -> DesignPoint:
    """Memoised twin of :func:`repro.core.design_point.evaluate_design`.

    Identical semantics and results; repeated evaluations with overlapping
    ``(m, r)``, engine or workload sub-problems are served from ``cache``
    (the process-wide cache when ``None``; ``False`` falls through to the
    uncached evaluator).  Infeasible configurations raise the same
    ``ValueError`` as the uncached path — and the failure itself is
    memoised, so re-probing an infeasible corner of the grid is free.
    """
    if cache is False:
        return evaluate_design(
            network,
            m=m,
            r=r,
            parallel_pes=parallel_pes,
            multiplier_budget=multiplier_budget,
            frequency_mhz=frequency_mhz,
            shared_data_transform=shared_data_transform,
            device=device,
            calibration=calibration,
            include_pipeline_depth=include_pipeline_depth,
            name=name,
            bit_width=bit_width,
        )
    cache = cache if cache is not None else global_cache()
    device = device or virtex7_485t()
    fingerprint = fingerprint or network_fingerprint(network)
    key = (
        fingerprint,
        device,
        calibration,
        m,
        r,
        parallel_pes,
        multiplier_budget,
        frequency_mhz,
        shared_data_transform,
        include_pipeline_depth,
        name,
        bit_width,
    )
    entry = cache.lookup_point(key)
    if entry is not None:
        status, value = entry
        if status == "err":
            # Replay the original exception class and args so callers see
            # the same error whether the probe was cached or not.
            error_type, error_args = value
            raise error_type(*error_args)
        return _detached(value)

    try:
        point = evaluate_design(
            network,
            m=m,
            r=r,
            parallel_pes=parallel_pes,
            multiplier_budget=multiplier_budget,
            frequency_mhz=frequency_mhz,
            shared_data_transform=shared_data_transform,
            device=device,
            calibration=calibration,
            include_pipeline_depth=include_pipeline_depth,
            name=name,
            components=_CachedComponents(cache, fingerprint),
            bit_width=bit_width,
        )
    except ValueError as error:
        cache.store_point(key, ("err", (type(error), error.args)))
        raise
    cache.store_point(key, ("ok", point))
    return _detached(point)


def _detached(point: DesignPoint) -> DesignPoint:
    """Copy of a cached point whose mutable latency mapping is private.

    Cached points (and the latency reports they embed) are shared across
    callers and processes-lifetime; handing each caller its own
    ``group_latency_ms`` dict means mutating a result can never corrupt
    later cache hits.  Everything else on the point is immutable or
    provenance-only.
    """
    latency = point.latency
    return replace(
        point,
        latency=replace(latency, group_latency_ms=dict(latency.group_latency_ms)),
    )


class _CachedComponents:
    """Component provider backed by an :class:`EvaluationCache`.

    Plugged into :func:`repro.core.design_point.evaluate_design` so the
    cached and uncached evaluators share one body — the only difference is
    where each sub-model result comes from.
    """

    def __init__(self, cache: EvaluationCache, fingerprint: str) -> None:
        self._cache = cache
        self._fingerprint = fingerprint

    def engine(self, config, device, calibration):
        """Memoised engine resource/performance model for ``config``."""
        return self._cache.engine(config, device, calibration)

    def latency(self, network, m, pes, frequency_mhz, r, pipeline_depth):
        """Memoised per-network latency report."""
        return self._cache.latency(
            self._fingerprint, network, m, pes, frequency_mhz, r, pipeline_depth
        )

    def spatial_multiplications(self, network):
        """Memoised spatial multiplication count of ``network``."""
        return self._cache.spatial_multiplications(self._fingerprint, network)

    def multiplication_complexity(self, network, m):
        """Memoised Winograd multiplication complexity for tile ``m``."""
        return self._cache.multiplication_complexity(self._fingerprint, network, m)

    def implementation_transform_complexity(self, network, m, parallel_pes):
        """Memoised implementation transform operation count."""
        return self._cache.implementation_transform_complexity(
            self._fingerprint, network, m, parallel_pes
        )

    def tile_error_stats(self, m, r, bit_width):
        """Memoised calibration-table entry for ``(m, r, bit_width)``."""
        return self._cache.tile_error_stats(m, r, bit_width)


def _evaluate_entry(
    network: Network,
    device: FpgaDevice,
    calibration: Calibration,
    entry: GridEntry,
    skip_infeasible: bool,
    cache: CacheLike,
    fingerprint: Optional[str],
) -> Optional[DesignPoint]:
    """Evaluate one grid entry with the seed ``explore`` feasibility rules.

    The scalar twin of one entry of :func:`iter_explore`: infeasible
    configurations return ``None`` when ``skip_infeasible`` (or raise the
    model's ``ValueError`` otherwise), as do designs that exceed the
    device or miss the entry's ``error_budget``.
    """
    try:
        point = evaluate_design_cached(
            network,
            m=entry.m,
            r=entry.r,
            multiplier_budget=entry.multiplier_budget,
            frequency_mhz=entry.frequency_mhz,
            shared_data_transform=entry.shared_data_transform,
            device=device,
            calibration=calibration,
            cache=cache,
            fingerprint=fingerprint,
            bit_width=entry.bit_width,
        )
    except ValueError:
        if skip_infeasible:
            return None
        raise
    if skip_infeasible and not point.resources.fits(device):
        return None
    if (
        skip_infeasible
        and entry.error_budget is not None
        and point.max_rel_error > entry.error_budget
    ):
        return None
    return point


def _ensure_tuple(value, scalar_types: tuple) -> tuple:
    """Wrap a bare scalar (a name would otherwise iterate per character)
    into a one-element tuple; materialize any other iterable."""
    if isinstance(value, scalar_types):
        return (value,)
    return tuple(value)


def _normalize_specs(spec: SpecLike) -> Tuple[SweepSpec, ...]:
    specs = _ensure_tuple(spec, (SweepSpec,))
    if not specs or not all(isinstance(item, SweepSpec) for item in specs):
        raise TypeError("spec must be a SweepSpec or a non-empty sequence of SweepSpecs")
    return specs


def _normalize_networks(networks: Union[NetworkLike, Sequence[NetworkLike]]) -> List[Network]:
    resolved = [
        resolve_network(network) for network in _ensure_tuple(networks, (Network, str))
    ]
    if not resolved:
        raise ValueError("at least one network is required")
    return resolved


def _normalize_devices(
    devices: Union[DeviceLike, Sequence[DeviceLike], None]
) -> List[FpgaDevice]:
    if devices is None:
        return [virtex7_485t()]
    resolved = [
        resolve_device(device) for device in _ensure_tuple(devices, (FpgaDevice, str))
    ]
    if not resolved:
        raise ValueError("at least one device is required")
    return resolved


# --------------------------------------------------------------------- #
# Grid evaluation
# --------------------------------------------------------------------- #
def iter_explore(
    networks: Union[NetworkLike, Sequence[NetworkLike]],
    spec: SpecLike = SweepSpec(),
    devices: Union[DeviceLike, Sequence[DeviceLike], None] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    skip_infeasible: bool = True,
) -> Iterator[DesignPoint]:
    """Stream design points for a networks x devices x sweeps cross-product.

    Points are yielded in deterministic order — network-major, then device,
    then sweep-spec, then the spec's canonical grid order.  ``networks``
    and ``devices`` accept registry names (see
    :func:`repro.nn.registry.get_network` /
    :func:`repro.hw.device.get_device`) as well as concrete objects.

    Each ``(network, device)`` cell is evaluated as one stacked NumPy batch
    (:func:`repro.dse.vectorized.evaluate_cell_batch`): the points, the
    skipped entries and, with ``skip_infeasible=False``, the ``ValueError``
    raised after the points that precede the failing entry are exactly
    those of evaluating every entry through the scalar
    :func:`repro.core.design_point.evaluate_design`.  No
    :class:`~repro.dse.cache.EvaluationCache` is read or written.
    """
    nets = _normalize_networks(networks)
    devs = _normalize_devices(devices)
    entries: List[GridEntry] = [
        entry for one_spec in _normalize_specs(spec) for entry in one_spec.configurations()
    ]
    if not entries:
        return
    for network in nets:
        for device in devs:
            # Looked up on the module at call time, so a wrapped engine
            # (instrumentation, test spies) sees every cell.
            batch = vectorized.evaluate_cell_batch(
                network, device, calibration, entries, skip_infeasible
            )
            yield from batch.feasible()
            if batch.pending_error is not None:
                raise batch.pending_error
