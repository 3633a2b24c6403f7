"""Pareto-frontier extraction over design points.

The paper's Section III discussion is, in essence, a two-objective trade-off
(multiplication savings vs. transform overhead; throughput vs. resources /
power).  This module provides a small generic multi-objective Pareto filter
over :class:`~repro.core.design_point.DesignPoint` collections so the DSE can
report the non-dominated configurations for any metric combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .design_point import DesignPoint

__all__ = ["Objective", "dominates", "pareto_front", "pareto_rank"]


@dataclass(frozen=True)
class Objective:
    """One optimisation objective: a design-point metric and a direction."""

    metric: str
    maximize: bool = True

    def value(self, point: DesignPoint) -> float:
        """The objective's metric read off ``point`` (ValueError if unknown)."""
        try:
            return float(getattr(point, self.metric))
        except AttributeError as error:
            raise ValueError(f"unknown metric {self.metric!r}") from error

    def better(self, a: float, b: float) -> bool:
        """Whether value ``a`` is strictly better than ``b``."""
        return a > b if self.maximize else a < b

    def no_worse(self, a: float, b: float) -> bool:
        """Whether value ``a`` is at least as good as ``b``."""
        return a >= b if self.maximize else a <= b


ObjectiveLike = Union[Objective, str, Tuple[str, bool]]


def _normalize(objectives: Sequence[ObjectiveLike]) -> List[Objective]:
    normalized: List[Objective] = []
    for objective in objectives:
        if isinstance(objective, Objective):
            normalized.append(objective)
        elif isinstance(objective, str):
            normalized.append(Objective(objective, True))
        else:
            metric, maximize = objective
            normalized.append(Objective(metric, maximize))
    if not normalized:
        raise ValueError("at least one objective is required")
    return normalized


def dominates(
    a: DesignPoint, b: DesignPoint, objectives: Sequence[ObjectiveLike]
) -> bool:
    """Whether design ``a`` Pareto-dominates design ``b``.

    ``a`` dominates ``b`` when it is no worse in every objective and strictly
    better in at least one.
    """
    objs = _normalize(objectives)
    strictly_better = False
    for objective in objs:
        value_a = objective.value(a)
        value_b = objective.value(b)
        if not objective.no_worse(value_a, value_b):
            return False
        if objective.better(value_a, value_b):
            strictly_better = True
    return strictly_better


def pareto_front(
    points: Iterable[DesignPoint], objectives: Sequence[ObjectiveLike]
) -> List[DesignPoint]:
    """Return the non-dominated subset of ``points`` for the given objectives.

    The result preserves the input ordering of the surviving points and
    equals testing every pair with :func:`dominates`.  It is the maxima
    sweep of Kung, Luccio and Preparata (JACM 22(4), 1975): values are read
    once per point, negated where minimised, and visited in descending
    lexicographic order, where a dominator always comes first — so each
    candidate is tested only against the front kept so far.
    """
    points = list(points)
    if len(points) < 2:
        return points
    objs = _normalize(objectives)
    values = [
        [
            objective.value(point) if objective.maximize else -objective.value(point)
            for objective in objs
        ]
        for point in points
    ]
    # A NaN never compares no-worse: its point neither dominates nor is
    # dominated, so it survives and stays out of the sweep.
    survivors = {index for index, row in enumerate(values) if any(map(math.isnan, row))}
    kept: List[List[float]] = []
    for index in sorted(
        (index for index in range(len(points)) if index not in survivors),
        key=values.__getitem__,
        reverse=True,
    ):
        row = values[index]
        # Every value no worse and not all equal: strictly better in one.
        if not any(other != row and all(a >= b for a, b in zip(other, row)) for other in kept):
            kept.append(row)
            survivors.add(index)
    return [point for index, point in enumerate(points) if index in survivors]


def pareto_rank(
    points: Iterable[DesignPoint], objectives: Sequence[ObjectiveLike]
) -> Dict[str, int]:
    """Assign a Pareto rank (0 = frontier) to every design point by name.

    Iteratively peels fronts, as in NSGA-style non-dominated sorting.  Useful
    for ordering a large sweep for presentation.
    """
    remaining = list(points)
    ranks: Dict[str, int] = {}
    rank = 0
    while remaining:
        front = pareto_front(remaining, objectives)
        if not front:  # safety: should not happen with a finite set
            for point in remaining:
                ranks[point.name] = rank
            break
        for point in front:
            ranks[point.name] = rank
        remaining = [point for point in remaining if point not in front]
        rank += 1
    return ranks
