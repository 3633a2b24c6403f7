"""Pluggable search strategies over a declarative experiment's design space.

A :class:`SearchStrategy` decides *which* grid configurations get evaluated
and in what order; the evaluation itself (vectorized grid batches, cached
single probes, feasibility) lives behind the :class:`~repro.experiments.runner.Evaluator` handed to
``search``.  The protocol is deliberately tiny —

``search(spec, evaluate) -> iterator of DesignPoints``

— so a new solver (simulated annealing, Bayesian optimisation, a service
backend) plugs in by registering one class:

* :class:`GridStrategy` — exhaustive enumeration, byte-identical to the
  legacy ``Campaign.run()`` results (same points, same order);
* :class:`RandomStrategy` — seeded subsampling of huge grids, preserving
  canonical ordering of the chosen entries;
* :class:`ParetoRefineStrategy` — a coarse strided pass over every sweep
  axis, then iterative evaluation of the full-grid neighbourhood of the
  current Pareto front: near-identical fronts for materially fewer
  evaluations (``benchmarks/bench_strategies.py`` quantifies it).

Strategies resolve by name through :func:`register_strategy` /
:func:`get_strategy`, so experiment specs can reference them declaratively.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from ..core.design_point import DesignPoint
from ..core.design_space import GridEntry, SweepSpec
from ..core.pareto import pareto_front

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import Evaluator
    from .spec import ExperimentSpec, StrategySpec

__all__ = [
    "SearchStrategy",
    "GridStrategy",
    "RandomStrategy",
    "ParetoRefineStrategy",
    "STRATEGIES",
    "register_strategy",
    "known_strategies",
    "get_strategy",
    "resolve_strategy",
]


@runtime_checkable
class SearchStrategy(Protocol):
    """Protocol every search strategy implements.

    ``spec`` is the declarative experiment (``None`` when driven through the
    legacy ``Campaign`` shim); ``evaluate`` is the experiment's
    :class:`~repro.experiments.runner.Evaluator` — call it with
    ``(network, device, entry)`` for one configuration (``None`` means the
    entry was infeasible and skipped), or use its bulk helpers
    (``iter_grid``, ``grid_entries``) and resolved ``networks`` /
    ``devices`` / ``sweeps`` / ``objectives`` views.
    """

    def search(
        self, spec: "Optional[ExperimentSpec]", evaluate: "Evaluator"
    ) -> Iterator[DesignPoint]:
        """Yield the design points this strategy chooses to evaluate."""
        ...


@dataclass(frozen=True)
class GridStrategy:
    """Exhaustive enumeration of the full grid in canonical order.

    Delegates to the evaluator's streaming grid walk, which evaluates each
    ``(network, device)`` cell as one vectorized batch — the engine behind
    ``Campaign.run()`` and ``explore`` too, bit-identical to the scalar
    model.
    """

    def search(
        self, spec: "Optional[ExperimentSpec]", evaluate: "Evaluator"
    ) -> Iterator[DesignPoint]:
        """Stream the full grid through the vectorized bulk path."""
        return evaluate.iter_grid()


@dataclass(frozen=True)
class RandomStrategy:
    """Seeded uniform subsample of the grid entries.

    Samples ``samples`` distinct sweep configurations (without replacement;
    the whole grid when it is smaller) and evaluates the *same* subset for
    every (network, device) cell, preserving canonical entry order — so runs
    are deterministic for a given seed and per-network results stay
    comparable.
    """

    samples: int = 64
    seed: int = 2019

    def __post_init__(self) -> None:
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def search(
        self, spec: "Optional[ExperimentSpec]", evaluate: "Evaluator"
    ) -> Iterator[DesignPoint]:
        """Evaluate the seeded entry subsample on every cell, grid order."""
        entries = evaluate.grid_entries()
        if self.samples >= len(entries):
            chosen = list(entries)
        else:
            rng = random.Random(self.seed)
            indexes = sorted(rng.sample(range(len(entries)), self.samples))
            chosen = [entries[index] for index in indexes]
        for network in evaluate.networks:
            for device in evaluate.devices:
                for entry in chosen:
                    point = evaluate(network, device, entry)
                    if point is not None:
                        yield point


def _coarse_indexes(length: int, stride: int) -> List[int]:
    """Strided axis subsample that always keeps the first and last value."""
    if length == 0:
        return []
    return sorted(set(range(0, length, stride)) | {length - 1})


def _sweep_axes(sweep: SweepSpec) -> Tuple[tuple, ...]:
    """The six grid axes of a sweep in :meth:`SweepSpec.configurations` order."""
    return (
        tuple(sweep.m_values),
        tuple(sweep.effective_r_values),
        tuple(sweep.multiplier_budgets),
        tuple(sweep.frequencies_mhz),
        tuple(sweep.shared_data_transform),
        tuple(sweep.bit_widths),
    )


def _entry_at(sweep: SweepSpec, axes: Tuple[tuple, ...], index: Tuple[int, ...]) -> GridEntry:
    """The grid entry at ``index``, carrying the sweep's ``error_budget``."""
    values = (axis[i] for axis, i in zip(axes, index))
    return GridEntry(*values, error_budget=sweep.error_budget)


@dataclass(frozen=True)
class ParetoRefineStrategy:
    """Coarse grid pass, then refinement around the current Pareto front.

    Per (network, device) cell and per sweep: evaluate a strided subsample
    of every axis (stride ``coarse``; first and last values always
    included), compute the Pareto front on the experiment's objectives,
    then repeatedly evaluate every not-yet-probed full-grid neighbour
    within ``neighborhood`` index steps of a front member until the front
    stops moving (or ``max_rounds`` is hit).  Points are emitted in
    canonical grid order per cell, so output ordering is deterministic.

    With smooth objective landscapes (the paper's throughput / efficiency
    trade-offs are monotone along most axes) this reaches the exhaustive
    front — or lands within a small tolerance of it — while probing a
    fraction of the grid; ``benchmarks/bench_strategies.py`` asserts both.
    """

    coarse: int = 2
    neighborhood: int = 1
    max_rounds: int = 8

    def __post_init__(self) -> None:
        for label, value in (
            ("coarse", self.coarse),
            ("neighborhood", self.neighborhood),
            ("max_rounds", self.max_rounds),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{label} must be an integer >= 1, got {value!r}")

    def search(
        self, spec: "Optional[ExperimentSpec]", evaluate: "Evaluator"
    ) -> Iterator[DesignPoint]:
        """Coarse pass + Pareto-front neighbourhood refinement per cell."""
        objectives = evaluate.objectives
        for network in evaluate.networks:
            for device in evaluate.devices:
                for sweep in evaluate.sweeps:
                    yield from self._refine_cell(network, device, sweep, objectives, evaluate)

    # ------------------------------------------------------------------ #
    def _refine_cell(
        self, network, device, sweep: SweepSpec, objectives, evaluate: "Evaluator"
    ) -> Iterator[DesignPoint]:
        axes = _sweep_axes(sweep)
        if any(len(axis) == 0 for axis in axes):
            return
        evaluated: Dict[Tuple[int, ...], Optional[DesignPoint]] = {}

        def probe(index: Tuple[int, ...]) -> None:
            """Evaluate one grid index at most once."""
            if index not in evaluated:
                evaluated[index] = evaluate(network, device, _entry_at(sweep, axes, index))

        for index in itertools.product(
            *(_coarse_indexes(len(axis), self.coarse) for axis in axes)
        ):
            probe(index)

        for _ in range(self.max_rounds):
            front_points = pareto_front(
                [point for point in evaluated.values() if point is not None], objectives
            )
            front_ids = {id(point) for point in front_points}
            fresh: List[Tuple[int, ...]] = []
            for index, point in evaluated.items():
                if point is None or id(point) not in front_ids:
                    continue
                for neighbor in itertools.product(
                    *(
                        range(max(0, i - self.neighborhood), min(len(axis), i + self.neighborhood + 1))
                        for axis, i in zip(axes, index)
                    )
                ):
                    if neighbor not in evaluated:
                        fresh.append(neighbor)
            if not fresh:
                break
            for index in sorted(set(fresh)):
                probe(index)

        for index in sorted(evaluated):
            point = evaluated[index]
            if point is not None:
                yield point


# --------------------------------------------------------------------- #
# Strategy registry — specs resolve strategies declaratively by name.
# --------------------------------------------------------------------- #
StrategyFactory = Callable[..., SearchStrategy]

#: Known strategy factories, keyed by canonical name.
STRATEGIES: Dict[str, StrategyFactory] = {
    "grid": GridStrategy,
    "random": RandomStrategy,
    "pareto-refine": ParetoRefineStrategy,
}


def register_strategy(name: str, factory: StrategyFactory, overwrite: bool = False) -> None:
    """Register a strategy factory under ``name`` (collision raises).

    ``factory`` is called with the spec's strategy params as keyword
    arguments and must return an object implementing :class:`SearchStrategy`.
    """
    if not isinstance(name, str) or not name:
        raise TypeError("name must be a non-empty string")
    if not callable(factory):
        raise TypeError("factory must be callable")
    if not overwrite and name in STRATEGIES:
        raise ValueError(
            f"strategy {name!r} is already registered; pass overwrite=True to replace it"
        )
    STRATEGIES[name] = factory


def known_strategies() -> List[str]:
    """Sorted strategy names the registry can build."""
    return sorted(STRATEGIES)


def get_strategy(name: str, **params: Any) -> SearchStrategy:
    """Build a strategy by registry name with keyword parameters."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; known strategies: {known_strategies()}"
        ) from None
    try:
        strategy = factory(**params)
    except TypeError as error:
        raise ValueError(f"invalid parameters for strategy {name!r}: {error}") from None
    return strategy


def resolve_strategy(strategy: "Union[SearchStrategy, StrategySpec, str]") -> SearchStrategy:
    """Pass through a strategy object, or build one from a spec/name."""
    from .spec import StrategySpec

    if isinstance(strategy, str):
        return get_strategy(strategy)
    if isinstance(strategy, StrategySpec):
        return get_strategy(strategy.name, **strategy.params)
    if isinstance(strategy, SearchStrategy):
        return strategy
    raise TypeError(
        f"expected a strategy, StrategySpec or name, got {type(strategy).__name__}"
    )
