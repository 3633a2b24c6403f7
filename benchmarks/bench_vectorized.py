"""Vectorized batch engine benchmark — scalar vs NumPy cell evaluation.

Runs the paper's full Fig. 6-scale campaign — 3 networks x 2 devices x
(tile size ``m`` x multiplier budget x frequency) — two ways:

* the *scalar* path: every grid entry through
  :func:`repro.dse.evaluate_design_cached` under the seed ``explore``
  feasibility rules, with a fresh :class:`~repro.dse.EvaluationCache` per
  run (memoised but cold, the strongest non-vectorized configuration);
* the *vectorized* path: ``Campaign.run()``, which evaluates each
  ``(network, device)`` cell as stacked NumPy array operations
  (:mod:`repro.dse.vectorized`).

The two sides are timed in alternating repeats (``REPEATS`` of each);
``speedup`` is best-of over best-of.  Asserts the two paths return
byte-identical design points, and (in full mode) that the vectorized
engine is at least ``MIN_SPEEDUP`` times faster.  Every full-mode run
appends a machine-readable trend record — with every repeat's seconds and
the quartiles of the per-repeat speedups — to ``BENCH_dse.json`` at the
repository root (override the path with ``REPRO_BENCH_RECORD``, or set it
in fast mode to record smoke runs too); ``benchmarks/check_regression.py``
gates CI on the recorded speedup.

Set ``REPRO_BENCH_FAST=1`` to shrink the grid for smoke runs; smoke mode
skips the wall-clock assertion and (by default) the trend record.
"""

import json
import os
import pickle
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

from conftest import emit, record_trend

from repro.core.design_space import SweepSpec, frequency_range
from repro.dse import Campaign, EvaluationCache, network_fingerprint
from repro.dse.engine import _evaluate_entry
from repro.reporting import format_table

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

NETWORK_NAMES = ("vgg16-d", "alexnet", "resnet18")
DEVICE_NAMES = ("xc7vx485t", "xc7vx690t")

#: Single source of truth for the speedup floor — the same bounds
#: ``check_regression.py`` enforces against the recorded trend.
BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"

if FAST:
    SPEC = SweepSpec(
        m_values=(2, 3, 4),
        multiplier_budgets=(256, 512, None),
        frequencies_mhz=(150.0, 200.0),
    )
    MIN_SPEEDUP = None
else:
    # The Fig. 6 plane: every tile size the paper plots, a dense multiplier-
    # budget axis, the full frequency ladder, plus the whole-device budget.
    SPEC = SweepSpec(
        m_values=(2, 3, 4, 5, 6, 7),
        multiplier_budgets=tuple(range(100, 3001, 100)) + (None,),
        frequencies_mhz=frequency_range(100.0, 300.0, 50.0),
    )
    MIN_SPEEDUP = json.loads(BASELINES_PATH.read_text())["dse_vectorized"]["metrics"][
        "speedup"
    ]["min"]

#: Where the trend record lands (repo root) unless REPRO_BENCH_RECORD is set.
DEFAULT_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


#: Alternating timed repeats of each side (full mode).
REPEATS = 2 if FAST else 7


def scalar_points(campaign, cache):
    """The campaign's grid, one scalar evaluation per entry, in grid order.

    ``cache`` is an :class:`EvaluationCache` to memoise into, or ``False``
    for the uncached scalar model.
    """
    entries = [entry for sweep in campaign.resolved_sweeps() for entry in sweep.configurations()]
    points = []
    for network in campaign.resolved_networks():
        fingerprint = network_fingerprint(network) if cache is not False else None
        for device in campaign.resolved_devices():
            for entry in entries:
                point = _evaluate_entry(
                    network, device, campaign.calibration, entry,
                    campaign.skip_infeasible, cache, fingerprint,
                )
                if point is not None:
                    points.append(point)
    return points


def _seconds(run_once):
    """Wall clock of one call plus its result."""
    started = time.perf_counter()
    result = run_once()
    return time.perf_counter() - started, result


def test_vectorized_speedup_over_scalar(benchmark):
    campaign = Campaign(networks=NETWORK_NAMES, devices=DEVICE_NAMES, sweeps=(SPEC,))

    # One untimed run of each side builds the process-wide memos both
    # share (transform registry, calibration table); then alternate the
    # sides so host-speed drift hits both alike.
    scalar_points(campaign, EvaluationCache())
    campaign.run()
    scalar_runs, vectorized_runs = [], []
    for _ in range(REPEATS):
        scalar_runs.append(_seconds(lambda: scalar_points(campaign, EvaluationCache())))
        vectorized_runs.append(_seconds(lambda: campaign.run().points))
    benchmark(campaign.run)

    scalar_seconds = min(seconds for seconds, _ in scalar_runs)
    vectorized_seconds = min(seconds for seconds, _ in vectorized_runs)
    speedup = scalar_seconds / vectorized_seconds
    pair_speedups = [
        scalar / vectorized
        for (scalar, _), (vectorized, _) in zip(scalar_runs, vectorized_runs)
    ]
    quartiles = statistics.quantiles(pair_speedups, n=4, method="inclusive")
    scalar_result = scalar_runs[-1][1]
    vectorized_result = vectorized_runs[-1][1]
    grid = campaign.grid_size
    emit(
        "Vectorized batch engine vs scalar path "
        f"({len(NETWORK_NAMES)} networks x {len(DEVICE_NAMES)} devices, {grid} configs, "
        f"best of {REPEATS} alternating repeats)",
        format_table(
            [
                {
                    "path": "scalar (cold cache)",
                    "time_ms": scalar_seconds * 1e3,
                    "points": len(scalar_result),
                    "us_per_eval": scalar_seconds / grid * 1e6,
                    "speedup": 1.0,
                },
                {
                    "path": "vectorized (numpy batch)",
                    "time_ms": vectorized_seconds * 1e3,
                    "points": len(vectorized_result),
                    "us_per_eval": vectorized_seconds / grid * 1e6,
                    "speedup": speedup,
                },
            ],
            precision=2,
        ),
    )
    print(
        "per-repeat speedup quartiles: "
        + " / ".join(f"{value:.2f}x" for value in quartiles)
    )

    assert [pickle.dumps(point) for point in vectorized_result] == [
        pickle.dumps(point) for point in scalar_result
    ], "vectorized engine must reproduce the scalar path bit-for-bit"

    if not FAST or os.environ.get("REPRO_BENCH_RECORD"):
        path = record_trend(
            {
                "benchmark": "dse_vectorized",
                "mode": "fast" if FAST else "full",
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "networks": list(NETWORK_NAMES),
                "devices": list(DEVICE_NAMES),
                "grid": grid,
                "feasible_points": len(vectorized_result),
                "repeats": REPEATS,
                "scalar_seconds": round(scalar_seconds, 6),
                "vectorized_seconds": round(vectorized_seconds, 6),
                "scalar_repeat_seconds": [round(seconds, 6) for seconds, _ in scalar_runs],
                "vectorized_repeat_seconds": [
                    round(seconds, 6) for seconds, _ in vectorized_runs
                ],
                "speedup": round(speedup, 2),
                "speedup_quartiles": [round(value, 2) for value in quartiles],
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            default_path=DEFAULT_RECORD_PATH,
            env_var="REPRO_BENCH_RECORD",
        )
        print(f"trend record appended to {path}")

    if MIN_SPEEDUP is not None:
        assert speedup >= MIN_SPEEDUP, (
            f"vectorized {vectorized_seconds * 1e3:.1f} ms vs scalar "
            f"{scalar_seconds * 1e3:.1f} ms — only {speedup:.2f}x "
            f"(need >= {MIN_SPEEDUP}x)"
        )


def test_vectorized_matches_serial_without_cache():
    """Equality must not depend on cache state: the uncached scalar oracle
    vs the batch engine."""
    spec = SweepSpec(
        m_values=(2, 4, 6),
        multiplier_budgets=(300, 900, None),
        frequencies_mhz=(100.0, 250.0),
        shared_data_transform=(True, False),
    )
    campaign = Campaign(networks=("vgg16-d", "alexnet"), devices=DEVICE_NAMES, sweeps=(spec,))
    scalar = scalar_points(campaign, cache=False)
    vectorized = campaign.run().points
    assert [pickle.dumps(point) for point in scalar] == [
        pickle.dumps(point) for point in vectorized
    ]
