"""The row-at-a-time oracle behind the query equivalence suites.

Every stored result answers ``query``/``pareto``/``best`` through
:class:`repro.service.query.ColumnarEngine`, which scans NumPy columns.
:class:`ReferenceEngine` here answers the same
:class:`~repro.service.queryspec.QuerySpec` over a decoded result payload
in plain Python: its loops mirror the legacy ``select`` / ``sorted`` /
``pareto_front`` / ``best_by`` code, its Pareto front compares every
pair, and it spells its error messages out itself.  It plugs into the
same ``query_rows`` / ``pareto_rows`` / ``best_row`` executors, so the
suites can demand identical rows, order, totals and error messages
(:func:`outcome` puts either side's answer in comparable form).

pytest imports ``tests/conftest.py`` with this directory on ``sys.path``
(its default ``prepend`` import mode), so test modules import it as
``query_oracle``.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.queryspec import DERIVED_METRICS, QuerySpec, resolve_metric

__all__ = ["ReferenceEngine", "outcome"]

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _non_numeric(path: str) -> ValueError:
    return ValueError(f"column {path!r} holds non-numeric values")


def _not_stored(path: str) -> ValueError:
    return ValueError(f"column {path!r} is not stored in this result")


def outcome(read: Callable[[], Any]) -> Tuple[str, str]:
    """What ``read()`` answers, in comparable form: its JSON, or its error."""
    try:
        return "ok", json.dumps(read())
    except (KeyError, ValueError) as error:
        return type(error).__name__, str(error)


def _numeric_sort_key(value: Any) -> Tuple[bool, Any]:
    """Total-order sort key matching NumPy's (NaN sorts greatest)."""
    is_nan = isinstance(value, float) and math.isnan(value)
    return (is_nan, 0.0 if is_nan else value)


class ReferenceEngine:
    """Plain-Python query execution over a decoded result payload."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.points: List[Dict[str, Any]] = payload.get("points", [])
        self.rows = len(self.points)

    # -- value access -------------------------------------------------- #
    def value(self, index: int, metric: str) -> Any:
        """A metric's raw value for row ``index`` (dotted-path lookup)."""
        path, _kind = resolve_metric(metric)
        point = self.points[index]
        if path.startswith("derived:"):
            numerator, denominator = DERIVED_METRICS[path.split(":", 1)[1]]
            return self.value(index, numerator) / self.value(index, denominator)
        value: Any = point
        for part in path.split("."):
            try:
                value = value[part]
            except KeyError:
                # Payloads written before this column existed lack the key.
                raise _not_stored(path) from None
        return value

    def _numeric_value(self, index: int, metric: str) -> Any:
        value = self.value(index, metric)
        if isinstance(value, str) or isinstance(value, dict):
            path, _ = resolve_metric(metric)
            raise _non_numeric(path)
        if value is None:
            # Nullable numeric columns (``bit_width``) compare as NaN.
            return float("nan")
        return value

    def name_at(self, index: int) -> str:
        """The design-point name stored at row ``index``."""
        return self.points[index]["name"]

    # -- filtering ----------------------------------------------------- #
    def match_indices(self, spec: QuerySpec, use_device: bool = True) -> List[int]:
        """Row indices matching the spec's network/device/where filters."""
        indices = []
        for index, point in enumerate(self.points):
            if spec.network is not None and point["workload_name"] != spec.network:
                continue
            if use_device and spec.device is not None and point["device_name"] != spec.device:
                continue
            keep = True
            for metric, op, value in spec.where:
                _path, kind = resolve_metric(metric)
                if kind == "str":
                    row_value = self.value(index, metric)
                else:
                    row_value = self._numeric_value(index, metric)
                if not _OPS[op](row_value, value):
                    keep = False
                    break
            if keep:
                indices.append(index)
        return indices

    # -- ordering ------------------------------------------------------ #
    def sort_rows(self, indices: List[int], metric: str, maximize: bool) -> List[int]:
        """``indices`` stably sorted by ``metric``, descending if maximize."""
        _path, kind = resolve_metric(metric)
        if kind == "str":
            key = lambda i: self.value(i, metric)  # noqa: E731
        else:
            key = lambda i: _numeric_sort_key(self._numeric_value(i, metric))  # noqa: E731
        return sorted(indices, key=key, reverse=maximize)

    # -- grouping / pareto --------------------------------------------- #
    def network_groups(self) -> List[Tuple[str, List[int]]]:
        """(workload name, row indices) per network, first-appearance order."""
        groups: Dict[str, List[int]] = {}
        for index, point in enumerate(self.points):
            groups.setdefault(point["workload_name"], []).append(index)
        return list(groups.items())

    def front_indices(
        self, indices: List[int], objectives: Sequence[Tuple[str, bool]]
    ) -> List[int]:
        """Non-dominated subset of ``indices``, stored order preserved."""
        values = [
            [float(self._numeric_value(i, metric)) for metric, _max in objectives]
            for i in indices
        ]

        def dominates(a: List[float], b: List[float]) -> bool:
            """True when ``a`` is no worse everywhere and better somewhere."""
            better = False
            for (_, maximize), va, vb in zip(objectives, a, b):
                if (va < vb) if maximize else (va > vb):
                    return False
                if (va > vb) if maximize else (va < vb):
                    better = True
            return better

        kept = []
        for row, candidate in enumerate(values):
            if any(
                dominates(other, candidate)
                for other_row, other in enumerate(values)
                if other_row != row
            ):
                continue
            kept.append(indices[row])
        return kept

    # -- best ---------------------------------------------------------- #
    def best(self, indices: List[int], metric: str, maximize: bool) -> Tuple[int, float]:
        """(row index, value) of the extreme row by ``metric`` in ``indices``."""
        resolve_metric(metric)
        best_index: Optional[int] = None
        best_value = 0.0
        for index in indices:
            value = float(self._numeric_value(index, metric))
            if math.isnan(value):
                raise ValueError(
                    f"metric {metric!r} is NaN for design point {self.name_at(index)!r}"
                )
            if best_index is None or (
                value > best_value if maximize else value < best_value
            ):
                best_index = index
                best_value = value
        if best_index is None:
            raise ValueError("no design points to choose from")
        return best_index, best_value

    # -- materialization ----------------------------------------------- #
    def materialize(
        self, indices: Sequence[int], select: Optional[Tuple[str, ...]]
    ) -> List[Dict[str, Any]]:
        """Rows as dicts — full point payloads, or the ``select`` projection."""
        if select is None:
            return [self.points[i] for i in indices]
        return [
            {metric: self.value(i, metric) for metric in select} for i in indices
        ]
