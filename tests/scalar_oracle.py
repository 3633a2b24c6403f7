"""The scalar oracle behind the grid identity suites.

Every grid in ``repro`` — ``iter_explore``, ``explore``, ``Campaign.run``,
the grid strategy and ``evaluate_requests`` — runs on the vectorized
engine (:func:`repro.dse.vectorized.evaluate_cell_batch`).  The helpers
here evaluate the same entries one at a time through the scalar
:func:`repro.core.design_point.evaluate_design`, uncached, under the seed
``explore`` feasibility rules, so the suites can demand pickled-bytes
identity, identical skips and the same error on the same entry.

pytest imports ``tests/conftest.py`` with this directory on ``sys.path``
(its default ``prepend`` import mode), so test modules import it as
``scalar_oracle``.
"""

from __future__ import annotations

import pickle
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.design_point import DesignPoint
from repro.dse import DOES_NOT_FIT, EXCEEDS_ERROR_BUDGET, BatchOutcome, EvalRequest, iter_explore
from repro.dse.engine import (
    _evaluate_entry,
    _normalize_devices,
    _normalize_networks,
    _normalize_specs,
)
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.device import resolve_device
from repro.nn.registry import resolve_network


def scalar_explore(
    networks,
    spec,
    devices=None,
    calibration=DEFAULT_CALIBRATION,
    skip_infeasible: bool = True,
) -> Iterable[DesignPoint]:
    """What ``iter_explore`` yields, one scalar evaluation per entry."""
    entries = [entry for sweep in _normalize_specs(spec) for entry in sweep.configurations()]
    for network in _normalize_networks(networks):
        for device in _normalize_devices(devices):
            for entry in entries:
                point = _evaluate_entry(
                    network, device, calibration, entry, skip_infeasible,
                    cache=False, fingerprint=None,
                )
                if point is not None:
                    yield point


def scalar_outcome(request: EvalRequest) -> BatchOutcome:
    """What ``evaluate_requests`` answers for one request, scalar."""
    device = resolve_device(request.device)
    entry = request.entry
    try:
        point = _evaluate_entry(
            resolve_network(request.network), device, request.calibration, entry,
            skip_infeasible=False, cache=False, fingerprint=None,
        )
    except ValueError as error:
        return BatchOutcome(error=str(error))
    if not point.resources.fits(device):
        return BatchOutcome(error=DOES_NOT_FIT.format(device=device.name))
    if entry.error_budget is not None and point.max_rel_error > entry.error_budget:
        return BatchOutcome(
            error=EXCEEDS_ERROR_BUDGET.format(error=point.max_rel_error, budget=entry.error_budget)
        )
    return BatchOutcome(point=point)


class Run(NamedTuple):
    """Pickled points produced before the run ended, and how it ended."""

    blobs: List[bytes]
    error: Optional[Tuple[str, str]]


def pickled_run(produce: Callable[[], Iterable[DesignPoint]]) -> Run:
    """Drain ``produce()``, pickling each point; capture the error it raises."""
    blobs: List[bytes] = []
    try:
        for point in produce():
            blobs.append(pickle.dumps(point))
    except (ValueError, ZeroDivisionError) as error:
        return Run(blobs, (type(error).__name__, str(error)))
    return Run(blobs, None)


def engine_run(networks, spec, devices=None, skip_infeasible: bool = True) -> Run:
    """One ``iter_explore`` run, drained."""
    return pickled_run(
        lambda: iter_explore(networks, spec, devices=devices, skip_infeasible=skip_infeasible)
    )


def oracle_run(networks, spec, devices=None, skip_infeasible: bool = True) -> Run:
    """The oracle's twin of :func:`engine_run`."""
    return pickled_run(
        lambda: scalar_explore(networks, spec, devices=devices, skip_infeasible=skip_infeasible)
    )


def assert_matches_oracle(networks, spec, devices=None, skip_infeasible: bool = True) -> int:
    """``iter_explore`` ≡ the oracle: same points, same order, same error.

    Returns how many points the run produced.
    """
    expected = oracle_run(networks, spec, devices, skip_infeasible)
    got = engine_run(networks, spec, devices, skip_infeasible)
    assert got.error == expected.error, "paths must fail identically"
    assert got.blobs == expected.blobs, "points must be bit-identical and same-order"
    return len(expected.blobs)
