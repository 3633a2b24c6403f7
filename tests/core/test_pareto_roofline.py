"""Tests for the Pareto-frontier and roofline analyses."""

import random
from types import SimpleNamespace

import pytest

from repro.core.design_space import sweep_tile_sizes
from repro.core.pareto import Objective, dominates, pareto_front, pareto_rank
from repro.core.roofline import layer_operational_intensity, roofline_report
from repro.hw.device import FpgaDevice
from repro.nn import ConvLayer


@pytest.fixture(scope="module")
def sweep_points(vgg16_module):
    return sweep_tile_sizes(vgg16_module, m_values=(2, 3, 4, 5, 6))


@pytest.fixture(scope="module")
def vgg16_module():
    from repro.nn import vgg16_d

    return vgg16_d()


class TestObjective:
    def test_direction(self):
        maximize = Objective("throughput_gops", True)
        minimize = Objective("power_watts", False)
        assert maximize.better(2.0, 1.0)
        assert minimize.better(1.0, 2.0)
        assert maximize.no_worse(2.0, 2.0)

    def test_unknown_metric(self, sweep_points):
        with pytest.raises(ValueError):
            Objective("bogus").value(sweep_points[0])


class TestPareto:
    def test_dominance(self, sweep_points):
        by_m = {point.m: point for point in sweep_points}
        # Higher m has both higher throughput and higher power: no dominance
        # in the (throughput max, power min) plane.
        objectives = [("throughput_gops", True), ("power_watts", False)]
        assert not dominates(by_m[4], by_m[2], objectives)
        assert not dominates(by_m[2], by_m[4], objectives)
        # With throughput only, m=4 dominates m=2.
        assert dominates(by_m[4], by_m[2], ["throughput_gops"])

    def test_front_contains_extremes(self, sweep_points):
        objectives = [("throughput_gops", True), ("power_watts", False)]
        front = pareto_front(sweep_points, objectives)
        names = {point.name for point in front}
        best_throughput = max(sweep_points, key=lambda p: p.throughput_gops)
        lowest_power = min(sweep_points, key=lambda p: p.power_watts)
        assert best_throughput.name in names
        assert lowest_power.name in names

    def test_front_is_mutually_non_dominated(self, sweep_points):
        objectives = [("throughput_gops", True), ("power_watts", False)]
        front = pareto_front(sweep_points, objectives)
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b, objectives)

    def test_single_objective_front(self, sweep_points):
        front = pareto_front(sweep_points, ["throughput_gops"])
        assert len(front) == 1

    def test_rank_zero_is_front(self, sweep_points):
        objectives = [("throughput_gops", True), ("power_watts", False)]
        ranks = pareto_rank(sweep_points, objectives)
        front_names = {point.name for point in pareto_front(sweep_points, objectives)}
        assert {name for name, rank in ranks.items() if rank == 0} == front_names
        assert set(ranks) == {point.name for point in sweep_points}

    def test_requires_objective(self, sweep_points):
        with pytest.raises(ValueError):
            pareto_front(sweep_points, [])

    @pytest.mark.parametrize("seed", range(25))
    def test_front_matches_pairwise_dominates(self, seed):
        # Oracle: a point survives unless another object dominates it.  The
        # value pool forces ties, signed zeros, infinities and NaNs; some
        # points appear twice in the input.
        rng = random.Random(seed)
        pool = (0.0, -0.0, 1.0, 2.5, float("inf"), float("-inf"), float("nan"))
        points = [
            SimpleNamespace(
                name=f"p{index}",
                **{metric: rng.choice(pool + (rng.uniform(-3, 3),)) for metric in "abc"},
            )
            for index in range(rng.randint(0, 40))
        ]
        points += rng.sample(points, min(3, len(points)))
        objectives = [(metric, rng.random() < 0.5) for metric in "abc"[: rng.randint(1, 3)]]
        expected = [
            point
            for point in points
            if not any(dominates(other, point, objectives) for other in points if other is not point)
        ]
        assert [id(p) for p in pareto_front(points, objectives)] == [id(p) for p in expected]


class TestRoofline:
    def test_operational_intensity_positive(self, small_layer):
        intensity = layer_operational_intensity(small_layer)
        assert intensity > 0

    def test_intensity_grows_with_channels(self):
        thin = ConvLayer("thin", 3, 64, 56, 56, padding=1)
        thick = ConvLayer("thick", 256, 256, 56, 56, padding=1)
        assert layer_operational_intensity(thick) > layer_operational_intensity(thin)

    def test_no_reuse_lowers_intensity(self, small_layer):
        assert layer_operational_intensity(small_layer, tile_reuse=False) < (
            layer_operational_intensity(small_layer, tile_reuse=True)
        )

    def test_report_structure(self, vgg16_module):
        report = roofline_report(vgg16_module, m=4, parallel_pes=19)
        assert report.peak_gops == pytest.approx(2 * 9 * 16 * 19 * 0.2, rel=1e-6)
        assert len(report.layers) == 13
        assert 0 < report.attainable_fraction() <= 1.0

    def test_low_bandwidth_makes_layers_bandwidth_bound(self, vgg16_module):
        starved = FpgaDevice(
            name="starved",
            luts=303_600,
            registers=607_200,
            dsp_slices=2_800,
            bram_kbits=37_080,
            dram_bandwidth_gbps=0.5,
        )
        report = roofline_report(vgg16_module, m=4, parallel_pes=19, device=starved)
        assert not report.all_compute_bound
        assert len(report.bandwidth_bound_layers) > 0

    def test_high_bandwidth_compute_bound(self, vgg16_module):
        generous = FpgaDevice(
            name="generous",
            luts=303_600,
            registers=607_200,
            dsp_slices=2_800,
            bram_kbits=37_080,
            dram_bandwidth_gbps=200.0,
        )
        report = roofline_report(vgg16_module, m=4, parallel_pes=19, device=generous)
        assert report.all_compute_bound
        assert report.attainable_fraction() == pytest.approx(1.0)

    def test_kernel_size_filter(self, vgg16_module):
        report = roofline_report(vgg16_module, m=2, parallel_pes=4, only_kernel_size=5)
        assert report.layers == []
