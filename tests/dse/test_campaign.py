"""Tests for the campaign engine: Campaign/CampaignResult, reporting, registries."""

import pytest

from repro.core.design_space import SweepSpec, frequency_range
from repro.dse import (
    Campaign,
    CampaignResult,
    EvaluationCache,
    iter_explore,
    run_campaign,
)
from repro.hw.device import FpgaDevice, get_device, resolve_device, virtex7_485t
from repro.nn import get_network, known_networks, register_network, resolve_network
from repro.reporting import (
    campaign_comparison_table,
    campaign_summary_table,
    campaign_to_csv,
)

SPEC = SweepSpec(
    m_values=(2, 3, 4),
    multiplier_budgets=(256, 512),
    frequencies_mhz=(200.0,),
)


@pytest.fixture(scope="module")
def result() -> CampaignResult:
    campaign = Campaign(
        networks=("vgg16-d", "alexnet"),
        devices=("xc7vx485t", "xc7vx690t"),
        sweeps=(SPEC,),
        name="unit",
    )
    return campaign.run()


class TestRegistries:
    def test_get_network_builds_fresh_instances(self):
        first = get_network("vgg16-d")
        second = get_network("vgg16-d")
        assert first is not second
        assert first.name == second.name == "vgg16-d"

    def test_known_networks_and_unknown_error(self):
        assert {"vgg16-d", "alexnet", "resnet18"} <= set(known_networks())
        with pytest.raises(KeyError, match="unknown network"):
            get_network("lenet-1998")

    def test_register_and_resolve(self, tiny_network):
        register_network("tiny-test", lambda: tiny_network)
        try:
            assert resolve_network("tiny-test") is tiny_network
            assert resolve_network(tiny_network) is tiny_network
        finally:
            from repro.nn.registry import NETWORK_BUILDERS

            NETWORK_BUILDERS.pop("tiny-test")
        with pytest.raises(TypeError):
            resolve_network(42)

    def test_resolve_device(self):
        device = virtex7_485t()
        assert resolve_device(device) is device
        assert resolve_device("xc7vx690t") == get_device("xc7vx690t")
        with pytest.raises(KeyError):
            resolve_device("no-such-fpga")
        with pytest.raises(TypeError):
            resolve_device(3.14)

    def test_resolve_device_exported_from_hw(self):
        from repro.hw import resolve_device as from_hw

        assert from_hw is resolve_device

    def test_register_network_collision_guard(self, tiny_network):
        with pytest.raises(ValueError, match="already registered"):
            register_network("vgg16-d", lambda: tiny_network)
        assert get_network("vgg16-d").name == "vgg16-d"  # untouched
        register_network("vgg16-d-tmp", lambda: tiny_network)
        try:
            with pytest.raises(ValueError, match="overwrite=True"):
                register_network("vgg16-d-tmp", lambda: tiny_network)
            register_network("vgg16-d-tmp", lambda: tiny_network, overwrite=True)
        finally:
            from repro.nn.registry import NETWORK_BUILDERS

            NETWORK_BUILDERS.pop("vgg16-d-tmp")
        with pytest.raises(TypeError):
            register_network("", lambda: tiny_network)
        with pytest.raises(TypeError):
            register_network("not-callable", 42)

    def test_register_device_mirrors_network_registry(self):
        from repro.hw import DEVICES, known_devices, register_device

        assert {"xc7vx485t", "xc7vx690t"} <= set(known_devices())
        custom = FpgaDevice(
            name="unit-test-fpga",
            luts=10_000,
            registers=20_000,
            dsp_slices=100,
            bram_kbits=1_000,
        )
        register_device("unit-test-fpga", custom)
        try:
            assert resolve_device("unit-test-fpga") == custom
            assert "unit-test-fpga" in known_devices()
            with pytest.raises(ValueError, match="already registered"):
                register_device("unit-test-fpga", custom)
            register_device("unit-test-fpga", custom, overwrite=True)
        finally:
            DEVICES.pop("unit-test-fpga")
        with pytest.raises(TypeError):
            register_device("bad", "not-a-device")
        with pytest.raises(TypeError):
            register_device("", custom)


class TestSweepSpecExtensions:
    def test_r_values_expand_the_grid(self):
        spec = SweepSpec(m_values=(2, 3), r_values=(3, 5), multiplier_budgets=(512,))
        assert spec.effective_r_values == (3, 5)
        assert spec.size == 4
        entries = list(spec.configurations())
        assert [(entry.m, entry.r) for entry in entries] == [
            (2, 3), (2, 5), (3, 3), (3, 5),
        ]

    def test_default_r_values_fall_back_to_r(self):
        spec = SweepSpec(m_values=(4,), r=3)
        assert spec.effective_r_values == (3,)
        assert spec.size == 1

    def test_sweepspec_generator_fields_survive(self):
        spec = SweepSpec(m_values=(2, 3), multiplier_budgets=iter([256, 512]))
        assert spec.multiplier_budgets == (256, 512)
        assert spec.size == 4
        assert len(list(spec.configurations())) == 4
        run = Campaign(networks="alexnet", sweeps=spec).run()
        assert run.evaluations == 4
        assert run.feasible == 4

    def test_sweepspec_scalar_fields_wrap(self):
        spec = SweepSpec(m_values=4, multiplier_budgets=512,
                         frequencies_mhz=150.0, shared_data_transform=False, r_values=3)
        assert spec.m_values == (4,)
        assert spec.multiplier_budgets == (512,)
        assert spec.frequencies_mhz == (150.0,)
        assert spec.shared_data_transform == (False,)
        assert spec.effective_r_values == (3,)
        assert spec.size == 1

    def test_campaign_objectives_normalized(self):
        from repro.reporting import campaign_summary_table

        pairs = (("throughput_gops", True), ("power_efficiency", True))
        run = Campaign(
            networks=("alexnet",),
            sweeps=(SweepSpec(m_values=(2, 3)),),
            objectives=(pair for pair in pairs),
        ).run()
        first = run.pareto_fronts()
        second = run.pareto_fronts()  # re-reads objectives; must not exhaust
        assert first.keys() == second.keys()
        assert campaign_summary_table(run)
        # A single bare ("metric", maximize) pair is one objective, not two.
        single = Campaign(networks=("alexnet",), objectives=("total_latency_ms", False))
        assert single.objectives == (("total_latency_ms", False),)

    def test_empty_r_values_means_sweep_nothing(self):
        spec = SweepSpec(m_values=(2, 3), r_values=())
        assert spec.effective_r_values == ()
        assert spec.size == 0
        assert list(spec.configurations()) == []

    def test_frequency_range_inclusive(self):
        assert frequency_range(100.0, 300.0, 50.0) == (100.0, 150.0, 200.0, 250.0, 300.0)
        assert frequency_range(200.0, 200.0) == (200.0,)
        with pytest.raises(ValueError):
            frequency_range(200.0, 100.0, 50.0)
        with pytest.raises(ValueError):
            frequency_range(100.0, 200.0, 0.0)

    def test_frequency_range_edge_cases_raise(self):
        with pytest.raises(ValueError, match="step must be positive"):
            frequency_range(100.0, 200.0, -25.0)
        with pytest.raises(ValueError, match="positive"):
            frequency_range(0.0, 200.0)
        with pytest.raises(ValueError, match="positive"):
            frequency_range(100.0, -5.0)
        with pytest.raises(ValueError, match="finite"):
            frequency_range(100.0, float("nan"))
        with pytest.raises(ValueError, match="finite"):
            frequency_range(100.0, float("inf"), 50.0)
        with pytest.raises(ValueError, match="number"):
            frequency_range(100.0, "300", 50.0)

    @pytest.mark.parametrize(
        "field_name",
        ["m_values", "multiplier_budgets", "frequencies_mhz", "shared_data_transform"],
    )
    def test_empty_sweep_axes_raise(self, field_name):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(**{field_name: ()})

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"m_values": (0,)}, "m_values"),
            ({"m_values": (2.5,)}, "m_values"),
            ({"r": 0}, "kernel"),
            ({"r_values": (3, -1)}, "kernel"),
            ({"multiplier_budgets": (0,)}, "multiplier_budgets"),
            ({"multiplier_budgets": (256.0,)}, "multiplier_budgets"),
            ({"frequencies_mhz": (0.0,)}, "frequencies_mhz"),
            ({"frequencies_mhz": (-150.0,)}, "frequencies_mhz"),
            ({"frequencies_mhz": (float("nan"),)}, "frequencies_mhz"),
            ({"shared_data_transform": (1,)}, "shared_data_transform"),
        ],
    )
    def test_out_of_domain_sweep_values_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SweepSpec(**kwargs)

    def test_valid_edge_values_still_accepted(self):
        spec = SweepSpec(
            m_values=(1,),
            multiplier_budgets=(1, None),
            frequencies_mhz=(0.5,),
            r_values=(1, 3),
        )
        assert spec.size == 4

    def test_with_frequency_range(self):
        spec = SweepSpec(m_values=(4,)).with_frequency_range(100.0, 200.0, 50.0)
        assert spec.frequencies_mhz == (100.0, 150.0, 200.0)
        assert spec.m_values == (4,)


class TestIterExplore:
    def test_accepts_names_and_streams_in_order(self):
        points = list(
            iter_explore(
                "vgg16-d",
                SweepSpec(m_values=(2, 3), multiplier_budgets=(256,)),
                devices="xc7vx485t",
            )
        )
        assert [point.m for point in points] == [2, 3]
        assert all(point.device_name == "xc7vx485t" for point in points)

    def test_network_major_ordering(self, result):
        names = [point.workload_name for point in result.points]
        assert names == sorted(names, key=("vgg16-d", "alexnet").index)

    def test_empty_networks_rejected(self):
        with pytest.raises(ValueError):
            list(iter_explore([], SPEC))

    def test_bad_executor_config(self):
        """Grids have one executor, the vectorized engine, and read no cache:
        an ``executor=`` argument, or a ``cache=`` on a grid entry point,
        is refused rather than silently ignored."""
        from repro.core.design_space import explore
        from repro.experiments import ExperimentSpec, run_experiment
        from repro.experiments.runner import Evaluator

        network = get_network("alexnet")
        spec = SweepSpec(m_values=(2,))
        campaign = Campaign(networks=("alexnet",), sweeps=(spec,))
        legacy = {"mode": "process", "max_workers": 2}
        calls = {
            "iter_explore executor": lambda: iter_explore(network, spec, executor=legacy),
            "explore executor": lambda: explore(network, spec, executor=legacy),
            "Campaign.run executor": lambda: campaign.run(executor=legacy),
            "run_campaign executor": lambda: run_campaign(campaign, executor=legacy),
            "run_experiment executor": lambda: run_experiment(
                ExperimentSpec(networks=("alexnet",), sweeps=(spec,)), executor=legacy
            ),
            "Evaluator executor": lambda: Evaluator(
                [network], [virtex7_485t()], [spec], executor=legacy
            ),
            "iter_explore cache": lambda: iter_explore(network, spec, cache=EvaluationCache()),
            "explore cache": lambda: explore(network, spec, cache=EvaluationCache()),
            "Campaign.run cache": lambda: campaign.run(cache=EvaluationCache()),
            "run_campaign cache": lambda: run_campaign(campaign, cache=EvaluationCache()),
        }
        for label, call in calls.items():
            try:
                call()
            except TypeError as error:
                assert "unexpected keyword argument" in str(error), label
            else:
                pytest.fail(f"{label} accepted a removed argument")


class TestCampaignResult:
    def test_counts(self, result):
        assert result.evaluations == result.campaign.grid_size == 2 * 2 * SPEC.size
        assert result.feasible == len(result.points)
        assert result.feasible + result.skipped == result.evaluations
        assert result.elapsed_seconds > 0
        # A grid is one vectorized batch per cell and reads no cache.
        assert result.cache_stats.lookups == 0

    def test_groupings(self, result):
        by_network = result.by_network()
        assert set(by_network) == {"vgg16-d", "alexnet"}
        assert sum(len(points) for points in by_network.values()) == result.feasible
        by_cell = result.by_cell()
        assert set(by_cell) == {
            (network, device)
            for network in ("vgg16-d", "alexnet")
            for device in ("xc7vx485t", "xc7vx690t")
        }

    def test_pareto_fronts_per_network(self, result):
        fronts = result.pareto_fronts()
        assert set(fronts) == {"vgg16-d", "alexnet"}
        for name, front in fronts.items():
            assert front
            cell_points = result.by_network()[name]
            assert all(any(member is point for point in cell_points) for member in front)

    def test_best_and_best_by_metric(self, result):
        best = result.best("throughput_gops")
        assert best.throughput_gops == max(p.throughput_gops for p in result.points)
        fastest = result.best("total_latency_ms")  # direction inferred (minimize)
        assert fastest.total_latency_ms == min(p.total_latency_ms for p in result.points)
        picks = result.best_by_metric()
        assert set(picks) == {"vgg16-d", "alexnet"}
        for name, by_metric in picks.items():
            assert by_metric["throughput_gops"].workload_name == name

    def test_comparison_rows(self, result):
        rows = result.comparison_rows("throughput_gops")
        assert [row["network"] for row in rows] == ["vgg16-d", "alexnet"]
        for row in rows:
            assert set(row) == {"network", "xc7vx485t", "xc7vx690t"}

    def test_run_campaign_function_matches_method(self):
        campaign = Campaign(networks=("alexnet",), sweeps=(SweepSpec(m_values=(2,)),))
        assert run_campaign(campaign).points == campaign.run().points

    def test_generator_inputs_survive(self):
        """One-shot iterables are normalized at construction, so the grid
        accounting and the run read the same (non-exhausted) inputs."""
        campaign = Campaign(
            networks=(name for name in ("alexnet", "vgg16-d")),
            sweeps=(spec for spec in (SweepSpec(m_values=(2, 3)),)),
        )
        assert campaign.grid_size == 4
        run = campaign.run()
        assert run.evaluations == 4
        assert run.feasible == 4
        assert run.skipped == 0

    def test_scalar_string_inputs(self):
        campaign = Campaign(networks="alexnet", devices="xc7vx690t", sweeps=SweepSpec(m_values=(2, 3)))
        assert campaign.grid_size == 2
        run = campaign.run()
        assert run.feasible == 2
        assert {point.workload_name for point in run.points} == {"alexnet"}
        assert {point.device_name for point in run.points} == {"xc7vx690t"}

    def test_cache_stats_are_per_run_not_cumulative(self):
        from repro.experiments import ExperimentSpec, StrategySpec, run_experiment

        spec = ExperimentSpec(
            networks=("alexnet",),
            sweeps=(SweepSpec(m_values=(2, 3)),),
            strategy=StrategySpec("random", {"samples": 2}),
        )
        cache = EvaluationCache()
        first = run_experiment(spec, cache=cache)
        second = run_experiment(spec, cache=cache)
        assert first.cache_stats.misses > 0
        # Every probe of the second run is a whole-point cache hit, and
        # the counters describe that run alone, not the process lifetime.
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hits == second.evaluations
        assert second.cache_stats.lookups < first.cache_stats.lookups

    def test_cache_disabled_reports_zero_stats(self):
        from repro.experiments import ExperimentSpec, StrategySpec, run_experiment

        spec = ExperimentSpec(
            networks=("alexnet",),
            sweeps=(SweepSpec(m_values=(2,)),),
            strategy=StrategySpec("random", {"samples": 1}),
        )
        run = run_experiment(spec, cache=False)
        assert run.feasible == 1
        assert run.cache_stats.lookups == 0


class TestCampaignReporting:
    def test_summary_table(self, result):
        table = campaign_summary_table(result)
        assert "network" in table and "best_gops" in table
        assert "vgg16-d" in table and "xc7vx690t" in table
        assert "feasible points" in table  # default title

    def test_comparison_table(self, result):
        table = campaign_comparison_table(result, metric="power_efficiency")
        assert "power_efficiency" in table
        assert "vgg16-d" in table and "alexnet" in table

    def test_csv_export(self, result):
        csv_text = campaign_to_csv(result)
        lines = csv_text.strip().splitlines()
        assert len(lines) == result.feasible + 1
        header = lines[0].split(",")
        assert {"network", "device", "design", "throughput_gops"} <= set(header)

    def test_csv_keeps_group_columns_of_every_network(self):
        """Different networks report different per-group latency columns;
        the export must union them instead of taking the first row's keys."""
        run = Campaign(
            networks=("vgg16-d", "resnet18"), sweeps=(SweepSpec(m_values=(4,)),)
        ).run()
        header = set(campaign_to_csv(run).splitlines()[0].split(","))
        expected = set()
        for point in run.points:
            expected |= set(point.summary_row())
        assert expected <= header


class TestCacheBehaviour:
    def test_fingerprint_changes_on_mutation(self, tiny_network):
        from repro.dse import network_fingerprint
        from repro.nn import ConvLayer

        before = network_fingerprint(tiny_network)
        tiny_network.add(ConvLayer("extra", 16, 16, 16, 16))
        after = network_fingerprint(tiny_network)
        assert before != after

    def test_infeasible_error_is_negatively_cached(self, tiny_network):
        from repro.dse import evaluate_design_cached

        cache = EvaluationCache()
        with pytest.raises(ValueError, match="cannot host") as first:
            evaluate_design_cached(tiny_network, m=4, multiplier_budget=10, cache=cache)
        misses = cache.stats["points"].misses
        with pytest.raises(ValueError, match="cannot host") as second:
            evaluate_design_cached(tiny_network, m=4, multiplier_budget=10, cache=cache)
        assert cache.stats["points"].misses == misses
        assert cache.stats["points"].hits >= 1
        # The replay preserves the exception class and args exactly.
        assert type(second.value) is type(first.value)
        assert second.value.args == first.value.args

    def test_mutating_result_latency_does_not_poison_cache(self, vgg16):
        from repro.dse import evaluate_design_cached

        cache = EvaluationCache()
        first = evaluate_design_cached(vgg16, m=4, cache=cache)
        original = dict(first.group_latency_ms)
        # Mutate through both the accessor and the raw latency report.
        first.group_latency_ms["Conv1"] = 0.0
        first.latency.group_latency_ms["Conv1"] = -1.0
        second = evaluate_design_cached(vgg16, m=4, cache=cache)
        assert cache.stats["points"].hits == 1
        assert second.group_latency_ms == original
        assert second.latency.group_latency_ms == original
        assert second.latency.group_latency_ms is not first.latency.group_latency_ms

    def test_cache_false_falls_through_to_uncached(self, vgg16):
        from repro.core.design_point import evaluate_design
        from repro.dse import evaluate_design_cached

        cached_off = evaluate_design_cached(vgg16, m=4, multiplier_budget=700, cache=False)
        plain = evaluate_design(vgg16, m=4, multiplier_budget=700)
        assert cached_off == plain

    def test_concurrent_eviction_is_safe(self, vgg16):
        import threading

        from repro.dse import evaluate_design_cached

        cache = EvaluationCache(max_points=3)
        errors = []

        def hammer(base):
            try:
                for offset in range(8):
                    evaluate_design_cached(
                        vgg16, m=4, multiplier_budget=400 + base + offset, cache=cache
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(100 * i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache._points) <= 3 + len(threads)  # bound enforced (best effort)

    def test_clear_resets_everything(self, tiny_network):
        from repro.dse import evaluate_design_cached

        cache = EvaluationCache()
        evaluate_design_cached(tiny_network, m=2, multiplier_budget=64, cache=cache)
        assert cache.entries > 0
        cache.clear()
        assert cache.entries == 0
        assert cache.total.lookups == 0

    def test_stats_hit_rate(self):
        from repro.dse import CacheStats

        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.hits, stats.misses = 3, 1
        assert stats.hit_rate == 0.75
        combined = stats + CacheStats(hits=1, misses=3)
        assert combined.lookups == 8
        assert combined.delta_since(stats) == CacheStats(hits=1, misses=3)

    def test_point_and_latency_layers_are_bounded(self, vgg16):
        from repro.dse import evaluate_design_cached

        cache = EvaluationCache(max_points=2)
        for budget in (256, 512, 700, 1024):
            evaluate_design_cached(vgg16, m=4, multiplier_budget=budget, cache=cache)
        assert len(cache._points) == 2
        assert len(cache._latency) <= 2
        # The oldest entry was evicted: re-evaluating it misses again.
        misses = cache.stats["points"].misses
        evaluate_design_cached(vgg16, m=4, multiplier_budget=256, cache=cache)
        assert cache.stats["points"].misses == misses + 1
        # The newest entry is still held: hit.
        hits = cache.stats["points"].hits
        evaluate_design_cached(vgg16, m=4, multiplier_budget=1024, cache=cache)
        assert cache.stats["points"].hits == hits + 1
