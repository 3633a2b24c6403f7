"""ExperimentSpec / StrategySpec: validation, normalization, JSON round-trip."""

import json
import pickle

import pytest

from repro.core.design_space import SweepSpec, frequency_range
from repro.dse import Campaign
from repro.experiments import EXPERIMENT_SCHEMA, ExperimentSpec, StrategySpec
from repro.hw.calibration import Calibration, PowerCalibration, ResourceCalibration
from repro.hw.device import get_device
from repro.nn import get_network


FULL_SPEC = ExperimentSpec(
    name="full",
    networks=("vgg16-d", "alexnet"),
    devices=("xc7vx485t", "xc7vx690t"),
    sweeps=(
        SweepSpec(m_values=(2, 3, 4), multiplier_budgets=(256, 512, None)),
        SweepSpec(m_values=(4,), frequencies_mhz=frequency_range(150, 250, 50)),
    ),
    strategy=StrategySpec("random", {"samples": 16, "seed": 7}),
    objectives=(("throughput_gops", True), ("total_latency_ms", False)),
    metrics=("throughput_gops", "power_watts"),
    skip_infeasible=True,
    calibration=Calibration(
        resources=ResourceCalibration(luts_per_transform_add=31.5),
        power=PowerCalibration(static_watts=1.25),
    ),
    cache=False,
)


class TestStrategySpec:
    def test_defaults_and_param_freezing(self):
        spec = StrategySpec("grid")
        assert spec.params == {}
        spec = StrategySpec("random", {"samples": 8, "values": [1, 2, [3, 4]]})
        assert spec.params["values"] == (1, 2, (3, 4))

    def test_round_trip(self):
        spec = StrategySpec("random", {"samples": 8, "seed": 3, "values": [1, 2]})
        assert StrategySpec.from_dict(spec.to_dict()) == spec
        assert StrategySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_bare_name(self):
        assert StrategySpec.from_dict("grid") == StrategySpec("grid")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            StrategySpec("")
        with pytest.raises(ValueError):
            StrategySpec("grid", {"fn": print})  # non-JSON parameter value
        with pytest.raises(ValueError):
            StrategySpec("grid", {3: "x"})
        with pytest.raises(ValueError):
            StrategySpec.from_dict({"name": "grid", "bogus": 1})
        with pytest.raises(ValueError):
            StrategySpec.from_dict({"params": {}})


class TestValidation:
    def test_scalars_wrap_and_names_resolve_from_objects(self):
        spec = ExperimentSpec(
            networks=get_network("alexnet"), devices=get_device("xc7vx690t")
        )
        assert spec.networks == ("alexnet",)
        assert spec.devices == ("xc7vx690t",)

    def test_strategy_name_shorthand(self):
        spec = ExperimentSpec(networks="alexnet", strategy="pareto-refine")
        assert spec.strategy == StrategySpec("pareto-refine")

    def test_objective_normalization(self):
        spec = ExperimentSpec(
            networks="alexnet", objectives=("throughput_gops", ("power_watts", False))
        )
        assert spec.objectives == (("throughput_gops", True), ("power_watts", False))
        single = ExperimentSpec(networks="alexnet", objectives=("total_latency_ms", False))
        assert single.objectives == (("total_latency_ms", False),)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"networks": ()},
            {"networks": ("alexnet",), "devices": ()},
            {"networks": ("alexnet",), "sweeps": ()},
            {"networks": ("alexnet",), "sweeps": (42,)},
            {"networks": ("alexnet",), "strategy": 42},
            {"networks": ("alexnet",), "objectives": ()},
            {"networks": ("alexnet",), "metrics": ()},
            {"networks": ("alexnet",), "calibration": "default"},
            {"networks": ("alexnet",), "cache": "yes"},
            {"networks": ("alexnet",), "name": ""},
            {"networks": (42,)},
        ],
    )
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)

    def test_grid_size(self):
        assert FULL_SPEC.grid_size == 2 * 2 * (9 + 3)

    def test_with_strategy(self):
        spec = ExperimentSpec(networks="alexnet")
        refined = spec.with_strategy("pareto-refine", coarse=3)
        assert refined.strategy == StrategySpec("pareto-refine", {"coarse": 3})
        assert refined.networks == spec.networks
        with pytest.raises(ValueError):
            spec.with_strategy(StrategySpec("grid"), coarse=3)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            ExperimentSpec(networks=("vgg16-d",)),
            ExperimentSpec(networks=("alexnet",), strategy="pareto-refine"),
            FULL_SPEC,
        ],
        ids=["default", "strategy-name", "fully-populated"],
    )
    def test_dict_and_json_round_trip_equality(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        # Through an actual JSON encode/decode (tuples become lists).
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_schema_tag_embedded(self):
        assert FULL_SPEC.to_dict()["schema"] == EXPERIMENT_SCHEMA

    def test_file_round_trip(self, tmp_path):
        path = FULL_SPEC.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == FULL_SPEC

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(FULL_SPEC)) == FULL_SPEC

    def test_from_dict_accepts_every_constructor_objective_form(self):
        # Hand-written spec files may use bare metric names or the
        # single-pair shorthand; from_dict must accept what the
        # constructor accepts.
        bare = ExperimentSpec.from_dict(
            {"networks": ["alexnet"], "objectives": ["throughput_gops"]}
        )
        assert bare.objectives == (("throughput_gops", True),)
        single_pair = ExperimentSpec.from_dict(
            {"networks": ["alexnet"], "objectives": ["total_latency_ms", False]}
        )
        assert single_pair.objectives == (("total_latency_ms", False),)
        mixed = ExperimentSpec.from_dict(
            {"networks": ["alexnet"], "objectives": ["throughput_gops", ["power_watts", False]]}
        )
        assert mixed.objectives == (("throughput_gops", True), ("power_watts", False))
        with pytest.raises(ValueError, match="objectives"):
            ExperimentSpec.from_dict({"networks": ["alexnet"], "objectives": "throughput_gops"})

    def test_unknown_fields_raise(self):
        data = FULL_SPEC.to_dict()
        data["grid"] = True
        with pytest.raises(ValueError, match="unknown experiment fields"):
            ExperimentSpec.from_dict(data)

    def test_unknown_sweep_fields_raise(self):
        with pytest.raises(ValueError, match="unknown SweepSpec fields"):
            SweepSpec.from_dict({"m_values": [2], "tile": 4})

    def test_wrong_schema_raises(self):
        data = FULL_SPEC.to_dict()
        data["schema"] = "repro.experiment/999"
        with pytest.raises(ValueError, match="unsupported experiment schema"):
            ExperimentSpec.from_dict(data)


class TestCampaignInterop:
    def test_to_campaign_matches_fields(self):
        campaign = FULL_SPEC.to_campaign()
        assert isinstance(campaign, Campaign)
        assert campaign.networks == FULL_SPEC.networks
        assert campaign.devices == FULL_SPEC.devices
        assert campaign.sweeps == FULL_SPEC.sweeps
        assert campaign.objectives == FULL_SPEC.objectives
        assert campaign.name == FULL_SPEC.name
        assert campaign.calibration == FULL_SPEC.calibration

    def test_from_campaign_records_names(self):
        campaign = Campaign(
            networks=(get_network("alexnet"), "vgg16-d"),
            devices=(get_device("xc7vx485t"),),
            name="legacy",
        )
        spec = ExperimentSpec.from_campaign(campaign)
        assert spec.networks == ("alexnet", "vgg16-d")
        assert spec.devices == ("xc7vx485t",)
        assert spec.strategy == StrategySpec("grid")
        assert spec.name == "legacy"
        # And the derived spec is itself round-trippable.
        assert ExperimentSpec.from_json(spec.to_json()) == spec
