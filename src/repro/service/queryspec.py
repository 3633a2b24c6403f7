"""The unified query contract for the whole read surface.

One frozen, JSON-round-trippable :class:`QuerySpec` describes every read
the service answers — which stored result (``key`` / ``fingerprint`` /
``network`` / ``device`` / ``name``), which rows (``where`` filters),
which order (``metric`` + ``maximize``), which columns (``select``),
and which page (``top_k`` / ``limit`` / ``cursor``).  The same object is
consumed by :meth:`ResultStore.query <repro.service.store.ResultStore.query>`,
the ``/v1/query``-family HTTP handlers and
:class:`~repro.service.client.ServiceClient`, so the three layers cannot
drift apart; the legacy keyword forms everywhere are thin shims that
build a ``QuerySpec``.

This module is deliberately stdlib-only (no NumPy): the client imports it
too, and a query *description* needs no array machinery.

Metric namespace
----------------
A metric is any scalar design-point column: the top-level fields of the
persisted point dict (``throughput_gops``, ``device_name``, ...), the
dotted nested scalars (``latency.pipeline_depth``, ``resources.luts``),
the ``total_latency_ms`` alias, and the derived
``multiplication_saving_factor`` (spatial / Winograd multiplications).
:func:`resolve_metric` is the single authority for metric names: the
query engine, the HTTP layer and the client all reject the same names
with the same message.

Cursors
-------
A cursor is an opaque base64url token addressing "the next row" of a
paginated query: the stored result's content key, the segment it lived
in when the page was cut, the rank offset into the query's row ordering,
and a hash binding it to the query shape.  Segments are append-only and
a stored result is immutable, so a cursor stays valid across appends —
and across compaction, because continuation re-resolves the result by
key.  Reusing a cursor with different filters/sort/select is rejected
(the binding hash will not match) instead of silently returning rows
from a different ordering.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "QuerySpec",
    "QueryPage",
    "ParetoPage",
    "BestResult",
    "resolve_metric",
    "encode_cursor",
    "decode_cursor",
    "SCALAR_COLUMNS",
    "METRIC_ALIASES",
    "DERIVED_METRICS",
    "WHERE_OPS",
]

#: Every scalar column of the persisted design-point schema, as a dotted
#: path into the point dict, with its comparison kind (``num`` / ``str``
#: / ``bool``).  Order follows the canonical ``point_to_dict`` layout.
SCALAR_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("name", "str"),
    ("m", "num"),
    ("r", "num"),
    ("parallel_pes", "num"),
    ("multipliers", "num"),
    ("frequency_mhz", "num"),
    ("shared_data_transform", "bool"),
    ("device_name", "str"),
    ("precision", "str"),
    ("latency.m", "num"),
    ("latency.r", "num"),
    ("latency.parallel_pes", "num"),
    ("latency.frequency_mhz", "num"),
    ("latency.pipeline_depth", "num"),
    ("latency.total_latency_ms", "num"),
    ("latency.spatial_ops", "num"),
    ("resources.luts", "num"),
    ("resources.registers", "num"),
    ("resources.dsp_slices", "num"),
    ("resources.bram_kbits", "num"),
    ("resources.multipliers", "num"),
    ("throughput_gops", "num"),
    ("multiplier_efficiency", "num"),
    ("power_watts", "num"),
    ("power_efficiency", "num"),
    ("spatial_multiplications", "num"),
    ("winograd_multiplications", "num"),
    ("implementation_transform_ops", "num"),
    ("workload_name", "str"),
    ("bit_width", "num"),
    ("max_rel_error", "num"),
    ("mean_rel_error", "num"),
)

#: Design-point attribute names that are aliases of a nested column (the
#: legacy API sorted on ``total_latency_ms`` via the point property).
METRIC_ALIASES: Dict[str, str] = {
    "total_latency_ms": "latency.total_latency_ms",
}

#: Derived metrics computed from two columns (numerator, denominator).
DERIVED_METRICS: Dict[str, Tuple[str, str]] = {
    "multiplication_saving_factor": (
        "spatial_multiplications",
        "winograd_multiplications",
    ),
}

#: Comparison operators a ``where`` filter may use.
WHERE_OPS: Tuple[str, ...] = ("==", "!=", "<", "<=", ">", ">=")

_COLUMN_KINDS: Dict[str, str] = dict(SCALAR_COLUMNS)


def resolve_metric(metric: str) -> Tuple[str, str]:
    """Resolve a metric name to ``(column_path, kind)``.

    ``kind`` is ``num``/``str``/``bool``; derived metrics resolve to
    ``("derived:<name>", "num")``.  Raises ``ValueError`` with the same
    ``unknown metric`` message the legacy getattr-based path produced.
    """
    if not isinstance(metric, str):
        raise ValueError(f"unknown metric {metric!r}")
    path = METRIC_ALIASES.get(metric, metric)
    if path in _COLUMN_KINDS:
        return path, _COLUMN_KINDS[path]
    if metric in DERIVED_METRICS:
        return f"derived:{metric}", "num"
    raise ValueError(f"unknown metric {metric!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuerySpec:
    """One declarative read over the result store (frozen, JSON-ready).

    Result selection: ``key`` wins; a ``cursor`` re-addresses the result
    its first page came from; otherwise the newest stored result matching
    ``fingerprint``/``network``/``device``/``name`` is used.  ``network``
    and ``device`` additionally filter rows (fronts, for Pareto reads).

    Row shape: ``where`` is a tuple of ``(metric, op, value)`` filters
    (all must hold), ``metric``+``maximize`` sort (stable; ``maximize``
    defaults to the metric's known direction), ``select`` projects flat
    ``{metric: value}`` rows instead of full point dicts, ``top_k`` caps
    the ordered row set, and ``limit``/``cursor`` paginate what is left.
    """

    key: Optional[str] = None
    fingerprint: Optional[str] = None
    name: Optional[str] = None
    network: Optional[str] = None
    device: Optional[str] = None
    where: Tuple[Tuple[str, str, Any], ...] = ()
    metric: Optional[str] = None
    maximize: Optional[bool] = None
    objectives: Optional[Tuple[Tuple[str, bool], ...]] = None
    select: Optional[Tuple[str, ...]] = None
    top_k: Optional[int] = None
    limit: Optional[int] = None
    cursor: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalize list-ish inputs to hashable tuples, then validate.
        object.__setattr__(
            self, "where", tuple(tuple(clause) for clause in (self.where or ()))
        )
        if self.objectives is not None:
            object.__setattr__(
                self, "objectives", tuple(tuple(pair) for pair in self.objectives)
            )
        if self.select is not None:
            object.__setattr__(self, "select", tuple(self.select))
        self._validate()

    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        for attr in ("key", "fingerprint", "name", "network", "device", "cursor"):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"field {attr!r} must be str, got {type(value).__name__}"
                )
        for attr in ("top_k", "limit"):
            value = getattr(self, attr)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"field {attr!r} must be int, got {type(value).__name__}"
                )
            if value < 1:
                raise ValueError(f"{attr} must be >= 1")
        if self.maximize is not None and not isinstance(self.maximize, bool):
            raise ValueError(
                f"field 'maximize' must be bool, got {type(self.maximize).__name__}"
            )
        if self.metric is not None:
            resolve_metric(self.metric)
        elif self.maximize is not None:
            raise ValueError("maximize requires a metric")
        for clause in self.where:
            if len(clause) != 3:
                raise ValueError(
                    "where must be a list of [metric, op, value] triples"
                )
            metric, op, value = clause
            _, kind = resolve_metric(metric)
            if op not in WHERE_OPS:
                raise ValueError(
                    f"unknown where operator {op!r}; expected one of {list(WHERE_OPS)}"
                )
            if kind == "num":
                if not _is_number(value):
                    raise ValueError(
                        f"where value for {metric!r} must be a number, got {value!r}"
                    )
            elif op not in ("==", "!="):
                raise ValueError(
                    f"where operator {op!r} requires a numeric metric, "
                    f"and {metric!r} is {kind}"
                )
            elif kind == "str" and not isinstance(value, str):
                raise ValueError(
                    f"where value for {metric!r} must be a string, got {value!r}"
                )
            elif kind == "bool" and not isinstance(value, bool):
                raise ValueError(
                    f"where value for {metric!r} must be a boolean, got {value!r}"
                )
        if self.objectives is not None:
            if not all(
                len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], bool)
                for pair in self.objectives
            ):
                # The bool check matters: a truthy non-bool ("min", 1)
                # would silently flip the optimization direction.
                raise ValueError(
                    "objectives must be a list of [metric, maximize-bool] pairs"
                )
        if self.select is not None:
            for metric in self.select:
                resolve_metric(metric)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form with unset fields omitted; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value is None or value == ():
                continue
            if spec_field.name in ("where", "objectives"):
                value = [list(item) for item in value]
            elif spec_field.name == "select":
                value = list(value)
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuerySpec":
        """Build and validate a spec from its JSON form (``ValueError`` on bad input)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"query spec must be a mapping, got {type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown query fields {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        kwargs = dict(data)
        for listy, what in (("where", "[metric, op, value] triples"),
                            ("objectives", "[metric, maximize-bool] pairs")):
            if kwargs.get(listy) is not None:
                value = kwargs[listy]
                if not isinstance(value, list) or not all(
                    isinstance(item, (list, tuple)) for item in value
                ):
                    raise ValueError(f"{listy} must be a list of {what}")
        if kwargs.get("select") is not None:
            select = kwargs["select"]
            if not isinstance(select, list) or not all(
                isinstance(item, str) for item in select
            ):
                raise ValueError("select must be a list of metric names")
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    def binding_hash(self, mode: str) -> str:
        """Hash of the fields a cursor must hold fixed between pages.

        Result identity (``key``) travels separately inside the cursor;
        everything that shapes the row *ordering* — filters, sort,
        projection, objectives and the query mode — is bound here, so a
        cursor cannot be replayed against a different ordering.
        """
        bound = {
            "mode": mode,
            "network": self.network,
            "device": self.device,
            "where": [list(clause) for clause in self.where],
            "metric": self.metric,
            "maximize": self.maximize,
            "objectives": None
            if self.objectives is None
            else [list(pair) for pair in self.objectives],
            "select": None if self.select is None else list(self.select),
            "top_k": self.top_k,
        }
        canonical = json.dumps(bound, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# Cursor codec
# --------------------------------------------------------------------- #
_CURSOR_VERSION = 1


def encode_cursor(key: str, segment: str, offset: int, binding: str) -> str:
    """Opaque continuation token: result key + segment + row rank + binding."""
    payload = {
        "v": _CURSOR_VERSION,
        "k": key,
        "s": segment,
        "o": offset,
        "q": binding,
    }
    raw = json.dumps(payload, separators=(",", ":")).encode()
    return base64.urlsafe_b64encode(raw).decode().rstrip("=")


def decode_cursor(cursor: str) -> Dict[str, Any]:
    """Decode/validate a cursor token; ``ValueError`` for anything malformed."""
    if not isinstance(cursor, str) or not cursor:
        raise ValueError("invalid cursor: not a token")
    padded = cursor + "=" * (-len(cursor) % 4)
    try:
        raw = base64.urlsafe_b64decode(padded.encode())
        payload = json.loads(raw)
    except (binascii.Error, UnicodeDecodeError, json.JSONDecodeError, ValueError):
        raise ValueError("invalid cursor: not a cursor token") from None
    if not isinstance(payload, dict) or payload.get("v") != _CURSOR_VERSION:
        raise ValueError("invalid cursor: unsupported cursor version")
    if not isinstance(payload.get("k"), str) or not isinstance(payload.get("q"), str):
        raise ValueError("invalid cursor: missing result binding")
    offset = payload.get("o")
    if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
        raise ValueError("invalid cursor: bad row offset")
    return payload


# --------------------------------------------------------------------- #
# Page results
# --------------------------------------------------------------------- #
@dataclass
class QueryPage:
    """One page of a filtered/sorted query: rows + continuation state."""

    key: str
    rows: List[Dict[str, Any]]
    total: int
    next_cursor: Optional[str] = None


@dataclass
class ParetoPage:
    """One page of per-network Pareto fronts (flattened in network order)."""

    key: str
    objectives: List[List[Any]]
    fronts: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    total: int = 0
    next_cursor: Optional[str] = None


@dataclass
class BestResult:
    """The single best row by a metric, with the comparison value."""

    key: str
    metric: str
    value: float
    row: Dict[str, Any]
