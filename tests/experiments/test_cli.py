"""The ``python -m repro`` command line: run, report, list, error paths."""

import json

import pytest

from repro.core.design_space import SweepSpec
from repro.dse import CampaignResult, EvaluationCache
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.cli import main

SPEC = ExperimentSpec(
    name="cli-unit",
    networks=("alexnet",),
    devices=("xc7vx485t",),
    sweeps=(SweepSpec(m_values=(2, 3), multiplier_budgets=(256,)),),
)


@pytest.fixture()
def spec_path(tmp_path):
    return SPEC.save(tmp_path / "spec.json")


class TestRun:
    def test_run_prints_report_and_saves(self, spec_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        csv_path = tmp_path / "points.csv"
        code = main(["run", str(spec_path), "-o", str(out_path), "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cli-unit" in captured.out
        assert "Best by metric" in captured.out
        loaded = CampaignResult.load(out_path)
        in_process = run_experiment(SPEC, cache=EvaluationCache())
        assert loaded.points == in_process.points
        assert loaded.pareto_fronts() == in_process.pareto_fronts()
        header = csv_path.read_text().splitlines()[0]
        assert "throughput_gops" in header

    def test_run_quiet_only_reports_artifacts(self, spec_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main(["run", str(spec_path), "-q", "-o", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "Best by metric" not in captured.out
        assert out_path.exists()

    def test_run_no_cache_and_executor_override(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--no-cache"]) == 0
        assert "feasible=2" in capsys.readouterr().out
        # Every grid runs on the vectorized engine: there is no executor
        # to override, and argparse rejects the old flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(spec_path), "--executor", "serial"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --executor" in capsys.readouterr().err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"networks": ["alexnet"], "bogus": 1}))
        assert main(["run", str(path)]) == 2
        assert "unknown experiment fields" in capsys.readouterr().err

    def test_unknown_network_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"networks": ["lenet-1998"]}))
        assert main(["run", str(path)]) == 2
        assert "unknown network" in capsys.readouterr().err


class TestReport:
    def test_report_reprints_saved_result(self, spec_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["run", str(spec_path), "-q", "-o", str(out_path)])
        capsys.readouterr()
        assert main(["report", str(out_path), "--metric", "power_efficiency"]) == 0
        captured = capsys.readouterr()
        assert "power_efficiency" in captured.out
        assert "alexnet" in captured.out

    def test_report_csv_export(self, spec_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["run", str(spec_path), "-q", "-o", str(out_path)])
        csv_path = tmp_path / "points.csv"
        assert main(["report", str(out_path), "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().count("\n") >= 2


class TestList:
    @pytest.mark.parametrize(
        "what,expected",
        [
            ("networks", "vgg16-d"),
            ("devices", "xc7vx485t"),
            ("strategies", "pareto-refine"),
        ],
    )
    def test_list_subcommands(self, what, expected, capsys):
        assert main(["list", what]) == 0
        assert expected in capsys.readouterr().out.splitlines()


class TestExampleSpec:
    def test_shipped_example_spec_loads_and_is_round_trippable(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / "experiment_spec.json"
        spec = ExperimentSpec.load(path)
        assert spec.networks
        assert ExperimentSpec.from_json(spec.to_json()) == spec
