"""Execution of declarative experiments: the evaluator + ``run_experiment``.

The :class:`Evaluator` is the boundary between a search strategy and the
evaluation machinery: strategies decide *which* configurations to probe,
the evaluator owns *how* a probe happens — registry resolution, the
vectorized grid engine, the memoising
:class:`~repro.dse.cache.EvaluationCache` behind single probes and
feasibility filtering — and keeps the bookkeeping (evaluation counts,
cache statistics) every run reports.

:func:`run_experiment` ties it together: resolve the spec's strategy, hand
it an evaluator, collect the points into a
:class:`~repro.dse.campaign.CampaignResult` (with the spec embedded for
persistence).  The legacy ``Campaign.run()``/``run_campaign`` entry points
are thin shims over the same machinery with :class:`GridStrategy`, so both
vocabularies produce byte-identical results.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..core.design_point import DesignPoint
from ..core.design_space import GridEntry, SweepSpec
from ..hw.calibration import Calibration, DEFAULT_CALIBRATION
from ..hw.device import FpgaDevice, resolve_device
from ..nn.model import Network
from ..nn.registry import resolve_network
from ..core.pareto import ObjectiveLike
from ..dse.cache import CacheStats, EvaluationCache, global_cache, network_fingerprint
from ..dse.campaign import CampaignResult, DEFAULT_OBJECTIVES
from ..dse.engine import CacheLike, _evaluate_entry, iter_explore
from .spec import ExperimentSpec
from .strategies import SearchStrategy, resolve_strategy

__all__ = ["Evaluator", "run_experiment"]


class Evaluator:
    """Evaluation service handed to a :class:`SearchStrategy`.

    Callable: ``evaluator(network, device, entry)`` evaluates one
    :class:`GridEntry` on one (network, device) cell — through the
    memoising cache when enabled — returning the :class:`DesignPoint`, or
    ``None`` when the configuration is infeasible and the experiment skips
    infeasible points.  ``networks``/``devices`` are the resolved objects
    (strategies should iterate these), ``sweeps`` the sweep grids and
    ``objectives`` the experiment's ``(metric, maximize)`` pairs for
    front-guided searches.

    Bulk path: :meth:`iter_grid` streams the full cross-product through
    :func:`repro.dse.engine.iter_explore`, one vectorized batch per cell —
    this is what :class:`GridStrategy` uses, and it never touches the
    cache.

    Bookkeeping: ``evaluations`` counts grid entries probed (feasible or
    not) and ``stats`` accumulates the cache hits/misses of this run's
    single probes.
    """

    def __init__(
        self,
        networks: Sequence[Union[Network, str]],
        devices: Sequence[Union[FpgaDevice, str]],
        sweeps: Sequence[SweepSpec],
        calibration: Calibration = DEFAULT_CALIBRATION,
        skip_infeasible: bool = True,
        objectives: Sequence[ObjectiveLike] = DEFAULT_OBJECTIVES,
        cache: CacheLike = None,
    ) -> None:
        self.networks: List[Network] = [resolve_network(network) for network in networks]
        self.devices: List[FpgaDevice] = [resolve_device(device) for device in devices]
        if not self.networks:
            raise ValueError("at least one network is required")
        if not self.devices:
            raise ValueError("at least one device is required")
        self.sweeps: Tuple[SweepSpec, ...] = tuple(sweeps)
        if not self.sweeps:
            raise ValueError("at least one sweep is required")
        self.calibration = calibration
        self.skip_infeasible = skip_infeasible
        self.objectives: Tuple[ObjectiveLike, ...] = tuple(objectives)
        self.stats = CacheStats()
        self.evaluations = 0
        self._use_cache = cache is not False
        self._serving_cache = (
            cache if isinstance(cache, EvaluationCache) else global_cache()
        ) if self._use_cache else False
        # Fingerprints memoise lazily on first per-point probe: grid-only
        # runs (the legacy Campaign path) never need them.
        self._fingerprints: dict = {}

    # ------------------------------------------------------------------ #
    def grid_entries(self) -> List[GridEntry]:
        """Concatenated grid entries of every sweep, canonical order."""
        return [entry for sweep in self.sweeps for entry in sweep.configurations()]

    @property
    def grid_size(self) -> int:
        """Total configurations in the full cross-product."""
        per_cell = sum(sweep.size for sweep in self.sweeps)
        return len(self.networks) * len(self.devices) * per_cell

    # ------------------------------------------------------------------ #
    def __call__(
        self,
        network: Union[Network, str],
        device: Union[FpgaDevice, str],
        entry: GridEntry,
    ) -> Optional[DesignPoint]:
        network = resolve_network(network)
        device = resolve_device(device)
        fingerprint = None
        if self._use_cache:
            fingerprint = self._fingerprints.get(id(network))
            if fingerprint is None:
                fingerprint = network_fingerprint(network)
                # Only memoise the experiment's own resolved networks: a
                # name passed directly resolves to a fresh object per call,
                # and keying those by id would grow the memo unboundedly.
                if any(network is known for known in self.networks):
                    self._fingerprints[id(network)] = fingerprint
        self.evaluations += 1
        if self._use_cache:
            before = self._serving_cache.total
        point = _evaluate_entry(
            network,
            device,
            self.calibration,
            entry,
            self.skip_infeasible,
            self._serving_cache,
            fingerprint,
        )
        if self._use_cache:
            delta = self._serving_cache.total.delta_since(before)
            self.stats.hits += delta.hits
            self.stats.misses += delta.misses
        return point

    def iter_grid(self) -> Iterator[DesignPoint]:
        """Stream the full grid through the vectorized engine.

        The whole grid is accounted to ``evaluations`` when consumption
        starts, so a partially consumed stream still reports the scheduled
        grid, not the subset drained.  Strategies that probe selectively
        should call the evaluator per entry instead.
        """
        self.evaluations += self.grid_size
        yield from iter_explore(
            self.networks,
            self.sweeps,
            devices=self.devices,
            calibration=self.calibration,
            skip_infeasible=self.skip_infeasible,
        )


def run_experiment(
    spec: ExperimentSpec,
    cache: CacheLike = None,
    strategy: Optional[SearchStrategy] = None,
) -> CampaignResult:
    """Execute a declarative experiment and aggregate the results.

    The spec's strategy (grid / random / pareto-refine / any registered
    name) decides which configurations are probed.  The grid strategy
    evaluates each cell as one vectorized batch; strategies that probe one
    configuration at a time memoise through the process-wide cache unless
    the spec (or the ``cache`` override) disables it.

    Parameters
    ----------
    cache:
        Overrides the spec's ``cache`` setting for single probes: an
        :class:`~repro.dse.cache.EvaluationCache` to memoise into,
        ``False`` to disable caching, ``None`` to follow the spec.
    strategy:
        Overrides the spec's strategy with a concrete instance — handy for
        strategies that are not (yet) registered by name.

    Returns the same :class:`~repro.dse.campaign.CampaignResult` the legacy
    campaign API produces, with ``result.spec`` set so
    ``result.save(path)`` persists a fully re-runnable artifact.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"expected an ExperimentSpec, got {type(spec).__name__}")
    solver = strategy if strategy is not None else resolve_strategy(spec.strategy)
    if cache is None:
        cache = None if spec.cache else False
    evaluator = Evaluator(
        networks=spec.networks,
        devices=spec.devices,
        sweeps=spec.sweeps,
        calibration=spec.calibration,
        skip_infeasible=spec.skip_infeasible,
        objectives=spec.objectives,
        cache=cache,
    )
    started = time.perf_counter()
    points = list(solver.search(spec, evaluator))
    elapsed = time.perf_counter() - started
    return CampaignResult(
        campaign=spec.to_campaign(),
        points=points,
        evaluations=evaluator.evaluations,
        elapsed_seconds=elapsed,
        cache_stats=evaluator.stats,
        spec=spec,
    )
