"""Every grid path must be bit-identical to the scalar oracle.

Grids run on the vectorized engine (:mod:`repro.dse.vectorized`) whichever
entry point drives them — ``iter_explore``, ``explore``, ``Campaign.run``
or a grid-strategy ``run_experiment``.  Each must reproduce the scalar
model (``tests/scalar_oracle.py``) *exactly* — same floats, same ordering,
same skips, same error on the same entry — so these tests compare pickled
bytes rather than approximate values: a single ULP of drift anywhere in
the latency, power, complexity or accuracy math fails the suite.  Coverage
spans seeded random sweeps over three networks and two devices (with
``r_values``, ``bit_widths`` and ``error_budget``), the edge grids
(single-point grids, explicit ``r_values=()``, degenerate frequency
ranges) and hand-made degenerate entries.
"""

import pickle
import random

import pytest
from scalar_oracle import (
    Run,
    assert_matches_oracle,
    engine_run,
    oracle_run,
    pickled_run,
    scalar_explore,
)

from repro.core.design_space import GridEntry, SweepSpec, explore, frequency_range
from repro.dse import (
    Campaign,
    EvalRequest,
    evaluate_cell_batch,
    evaluate_requests,
    iter_explore,
)
from repro.dse.engine import _evaluate_entry
from repro.experiments import ExperimentSpec, run_experiment
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.device import get_device
from repro.nn import get_network
from repro.service.jobs import execute_shard

NETWORKS = ("vgg16-d", "alexnet", "resnet18")
DEVICES = ("xc7vx485t", "xc7vx690t")


def assert_list_path_matches(got: Run, expected: Run):
    """A list-returning path raises before returning any point."""
    assert got.error == expected.error, "paths must fail identically"
    assert got.blobs == ([] if expected.error else expected.blobs)


class TestSeededRandomSweeps:
    def random_spec(self, rng: random.Random) -> SweepSpec:
        m_values = tuple(rng.sample(range(1, 8), rng.randint(1, 3)))
        budgets = tuple(
            rng.sample([None, 4, 16, 64, 144, 256, 400, 576, 1024, 2048], rng.randint(1, 4))
        )
        frequencies = tuple(
            float(rng.choice((50, 100, 150, 200, 250, 300))) for _ in range(rng.randint(1, 3))
        )
        shared = tuple(rng.sample((True, False), rng.randint(1, 2)))
        return SweepSpec(
            m_values=m_values,
            multiplier_budgets=budgets,
            frequencies_mhz=frequencies,
            shared_data_transform=shared,
            r_values=rng.choice((None, None, (2, 3), (3, 5))),
            bit_widths=rng.choice(((None,), (None, 8), (8, 16), (12,))),
            error_budget=rng.choice((None, None, 1e-3, 0.05)),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sweep_bit_identical(self, seed):
        """``iter_explore``, ``explore``, ``Campaign.run`` and a grid
        ``run_experiment`` all reproduce the oracle, cell by cell."""
        rng = random.Random(2019 + seed)
        spec = self.random_spec(rng)
        networks = rng.sample(NETWORKS, rng.randint(1, 3))
        devices = rng.sample(DEVICES, rng.randint(1, 2))
        skip = rng.random() < 0.7

        cells = {
            (network, device): oracle_run(network, spec, device, skip)
            for network in networks
            for device in devices
        }
        # The oracle of the whole cross-product: cells in network-major
        # order, up to the first cell that raises.
        blobs, error = [], None
        for cell in cells.values():
            blobs += cell.blobs
            if cell.error is not None:
                error = cell.error
                break
        expected = Run(blobs, error)

        got = engine_run(networks, spec, devices, skip)
        assert got.error == expected.error, "paths must fail identically"
        assert got.blobs == expected.blobs, "points must be bit-identical and same-order"
        for (network, device), cell in cells.items():
            assert_list_path_matches(
                pickled_run(
                    lambda: explore(
                        get_network(network), spec, get_device(device), skip_infeasible=skip
                    )
                ),
                cell,
            )
        assert_list_path_matches(
            pickled_run(
                lambda: Campaign(
                    networks=networks, devices=devices, sweeps=(spec,), skip_infeasible=skip
                ).run().points
            ),
            expected,
        )
        assert_list_path_matches(
            pickled_run(
                lambda: run_experiment(
                    ExperimentSpec(
                        networks=networks, devices=devices, sweeps=(spec,), skip_infeasible=skip
                    )
                ).points
            ),
            expected,
        )

    def test_fig6_scale_sweep_bit_identical(self):
        spec = SweepSpec(
            m_values=(2, 3, 4, 5, 6),
            multiplier_budgets=(100, 400, 900, 1600, None),
            frequencies_mhz=frequency_range(100.0, 300.0, 100.0),
            shared_data_transform=(True, False),
        )
        produced = assert_matches_oracle(NETWORKS, spec, DEVICES)
        assert produced > 100  # the sweep must actually exercise the table


class TestEdgeGrids:
    def test_single_point_grid(self):
        spec = SweepSpec(m_values=(4,), multiplier_budgets=(512,), frequencies_mhz=(200.0,))
        produced = assert_matches_oracle("alexnet", spec, "xc7vx485t")
        assert produced == 1

    def test_explicit_empty_r_values_sweeps_nothing(self):
        spec = SweepSpec(r_values=())
        assert spec.size == 0
        produced = assert_matches_oracle("vgg16-d", spec, None)
        assert produced == 0

    def test_r_values_sweep(self):
        spec = SweepSpec(
            m_values=(2, 3, 4), r_values=(2, 3), multiplier_budgets=(256, None)
        )
        assert_matches_oracle(("vgg16-d", "alexnet"), spec, DEVICES)

    def test_infeasible_budget_raises_identically_mid_stream(self):
        spec = SweepSpec(
            m_values=(2, 6), multiplier_budgets=(256, 4), frequencies_mhz=(200.0,)
        )
        oracle = oracle_run("vgg16-d", spec, "xc7vx485t", skip_infeasible=False)
        engine = engine_run("vgg16-d", spec, "xc7vx485t", skip_infeasible=False)
        assert oracle.error == ("ValueError", "multiplier budget 4 cannot host one F(2,3) PE")
        assert oracle.blobs  # the entries before the failing one are yielded first
        assert engine == oracle  # same prefix of yielded points, same error

    def test_device_too_small_raises_identically(self):
        spec = SweepSpec(m_values=(40,), multiplier_budgets=(None,))
        oracle = oracle_run("alexnet", spec, "xc7vx485t", skip_infeasible=False)
        engine = engine_run("alexnet", spec, "xc7vx485t", skip_infeasible=False)
        assert engine == oracle
        assert "cannot host a single F(40x40, 3x3) PE" in oracle.error[1]

    def test_infeasible_entries_skipped_identically(self):
        spec = SweepSpec(m_values=(2, 6, 40), multiplier_budgets=(4, 256, None))
        assert_matches_oracle("vgg16-d", spec, DEVICES, skip_infeasible=True)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), 0.0, -50.0))
    def test_degenerate_frequencies_rejected_identically(self, bad):
        # Degenerate frequency axes are rejected by SweepSpec validation —
        # before any evaluation runs, so every path fails identically.
        with pytest.raises(ValueError):
            SweepSpec(frequencies_mhz=(bad,))
        with pytest.raises(ValueError):
            frequency_range(100.0, bad)

    def test_handmade_degenerate_entries_match_scalar(self):
        """Entries bypassing SweepSpec validation still mirror the scalar path."""
        network = get_network("alexnet")
        device = get_device("xc7vx485t")
        entries = [
            GridEntry(4, 3, 512, float("nan"), True),  # NaN propagates, like the scalar model
            GridEntry(4, 3, 512, 0.0, True),  # "frequency must be positive"
            GridEntry(2, 3, 4, 200.0, True),  # budget too small
            GridEntry(4, 3, 800, 250.0, True),  # feasible
        ]
        scalar = [
            _evaluate_entry(
                network, device, DEFAULT_CALIBRATION, entry, skip_infeasible=True,
                cache=False, fingerprint=None,
            )
            for entry in entries
        ]
        batch = evaluate_cell_batch(network, device, DEFAULT_CALIBRATION, entries)
        assert batch.pending_error is None
        assert len(batch.points) == len(scalar)
        for scalar_point, batch_point in zip(scalar, batch.points):
            assert (scalar_point is None) == (batch_point is None)
            if scalar_point is not None:
                assert pickle.dumps(scalar_point) == pickle.dumps(batch_point)

        # Not skipping: the same points before the same failing entry.
        def scalar_strict():
            for entry in entries:
                yield _evaluate_entry(
                    network, device, DEFAULT_CALIBRATION, entry, skip_infeasible=False,
                    cache=False, fingerprint=None,
                )

        strict = evaluate_cell_batch(
            network, device, DEFAULT_CALIBRATION, entries, skip_infeasible=False
        )
        expected = pickled_run(scalar_strict)
        error = strict.pending_error
        assert expected.error == (type(error).__name__, str(error))
        assert len(expected.blobs) == 1  # the NaN-frequency entry precedes the failure
        assert expected.blobs == [pickle.dumps(point) for point in strict.feasible()]


class TestBatchModelTwins:
    """The standalone batch twins must track their scalar counterparts."""

    def test_batch_max_parallel_pes_matches_scalar(self):
        from repro.hw.engine import batch_max_parallel_pes, max_parallel_pes

        budgets = list(range(0, 3000, 97))
        for m in (1, 2, 4, 7):
            batch = batch_max_parallel_pes(m, 3, budgets).tolist()
            assert batch == [max_parallel_pes(m, 3, budget) for budget in budgets]
        with pytest.raises(ValueError):
            batch_max_parallel_pes(2, 3, [256, -1])

    def test_batch_estimate_fmax_matches_scalar(self):
        from repro.hw.frequency import batch_estimate_fmax, estimate_fmax

        levels = list(range(-1, 20))
        batch = batch_estimate_fmax(levels).tolist()
        assert batch == [estimate_fmax(level).fmax_mhz for level in levels]


#: The grid every routing test evaluates: two networks x two devices.
ROUTED_NETWORKS = ("alexnet", "vgg16-d")
ROUTED_SPEC = SweepSpec(m_values=(2, 3), multiplier_budgets=(256, 512))
ROUTED_CELLS = [
    (network, device, ROUTED_SPEC.size) for network in ROUTED_NETWORKS for device in DEVICES
]


def _routed_campaign():
    return Campaign(networks=ROUTED_NETWORKS, devices=DEVICES, sweeps=(ROUTED_SPEC,))


def _routed_experiment():
    return ExperimentSpec(networks=ROUTED_NETWORKS, devices=DEVICES, sweeps=(ROUTED_SPEC,))


def _routed_requests():
    return [
        EvalRequest(network, device, entry)
        for network in ROUTED_NETWORKS
        for device in DEVICES
        for entry in ROUTED_SPEC.configurations()
    ]


#: Every entry point that evaluates grid entries, each returning how many
#: feasible points it produced for the routed grid.
GRID_ENTRY_POINTS = {
    "iter_explore": lambda: len(
        list(iter_explore(ROUTED_NETWORKS, ROUTED_SPEC, devices=DEVICES))
    ),
    "explore": lambda: sum(
        len(explore(get_network(network), ROUTED_SPEC, get_device(device)))
        for network in ROUTED_NETWORKS
        for device in DEVICES
    ),
    "Campaign.run": lambda: _routed_campaign().run().feasible,
    "run_experiment": lambda: run_experiment(_routed_experiment()).feasible,
    "execute_shard": lambda: len(execute_shard(_routed_experiment().to_dict())["points"]),
    "evaluate_requests": lambda: sum(
        outcome.feasible for outcome in evaluate_requests(_routed_requests())
    ),
}


@pytest.fixture()
def batch_cells(monkeypatch):
    """Record each ``evaluate_cell_batch`` call as (network, device, entries)."""
    import repro.dse.vectorized as vectorized_mod

    cells = []
    original = vectorized_mod.evaluate_cell_batch

    def spy(network, device, calibration, entries, *args, **kwargs):
        cells.append((network.name, device.name, len(entries)))
        return original(network, device, calibration, entries, *args, **kwargs)

    monkeypatch.setattr(vectorized_mod, "evaluate_cell_batch", spy)
    return cells


class TestGridRouting:
    def test_each_cell_is_one_batch_engine_call(self, batch_cells):
        points = list(iter_explore(ROUTED_NETWORKS, ROUTED_SPEC, devices=DEVICES))
        assert batch_cells == ROUTED_CELLS  # one call per (network, device) cell
        expected = scalar_explore(ROUTED_NETWORKS, ROUTED_SPEC, devices=DEVICES)
        assert [pickle.dumps(p) for p in points] == [pickle.dumps(p) for p in expected]

    @pytest.mark.parametrize("entry_point", sorted(GRID_ENTRY_POINTS))
    def test_entry_point_never_evaluates_point_by_point(
        self, batch_cells, monkeypatch, entry_point
    ):
        """Every grid-evaluating entry point runs one batch per cell and
        never falls back to the per-point (cached scalar) path."""
        import repro.dse.engine as engine_mod

        expected = len(list(scalar_explore(ROUTED_NETWORKS, ROUTED_SPEC, devices=DEVICES)))

        def per_point(*args, **kwargs):
            raise AssertionError("grid entries must not be evaluated point by point")

        monkeypatch.setattr(engine_mod, "evaluate_design_cached", per_point)
        assert GRID_ENTRY_POINTS[entry_point]() == expected
        assert batch_cells == ROUTED_CELLS

    def test_stream_evaluates_cell_by_cell_and_can_be_abandoned(self, batch_cells):
        """A cell is evaluated only when the stream reaches it, so a consumer
        that stops early never pays for the rest of the grid."""
        stream = iter_explore(ROUTED_NETWORKS, ROUTED_SPEC, devices=DEVICES)
        assert batch_cells == []  # nothing runs before the first point is asked for
        first = next(stream)
        assert batch_cells == ROUTED_CELLS[:1]
        stream.close()
        assert batch_cells == ROUTED_CELLS[:1]
        oracle = next(iter(scalar_explore(ROUTED_NETWORKS, ROUTED_SPEC, devices=DEVICES)))
        assert pickle.dumps(first) == pickle.dumps(oracle)
