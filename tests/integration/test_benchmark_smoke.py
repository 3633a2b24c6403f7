"""Smoke-run every benchmark script in fast mode.

The ``benchmarks/bench_*.py`` files double as the reproduction report, but
their filenames do not match pytest's default collection patterns, so
nothing ran them in tier-1 — an import error or a drifted API could hide
there until someone ran the benchmark harness by hand.  This test executes
each benchmark file in a subprocess with ``--benchmark-disable`` (every
benchmarked function runs exactly once, untimed) and ``REPRO_BENCH_FAST=1``
(scripts with scalable grids shrink them), turning the whole harness into a
CI-friendly smoke target.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benchmark_suite_is_discovered():
    """The repository ships benchmark scripts and this smoke test sees them."""
    assert len(BENCH_FILES) >= 10
    assert any(path.name == "bench_vectorized.py" for path in BENCH_FILES)


def _subprocess_env():
    env = dict(os.environ)
    env["REPRO_BENCH_FAST"] = "1"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@pytest.mark.slow
@pytest.mark.parametrize("bench_file", BENCH_FILES, ids=lambda path: path.stem)
def test_benchmark_runs_in_fast_mode(bench_file):
    env = _subprocess_env()
    process = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(bench_file),
            "-q",
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = process.stdout + process.stderr
    assert process.returncode == 0, f"{bench_file.name} failed:\n{output}"
    match = re.search(r"(\d+) passed", output)
    assert match and int(match.group(1)) >= 1, (
        f"{bench_file.name} collected no tests:\n{output}"
    )


@pytest.mark.slow
def test_cli_runs_a_spec_end_to_end(tmp_path):
    """``python -m repro run`` on a tiny spec file is part of the smoke target.

    Exercises the whole declarative path in a fresh interpreter: spec file ->
    strategy -> evaluation -> report -> persisted result -> ``report``
    reload, the same flow CI and users drive.
    """
    import json

    spec_path = tmp_path / "tiny_spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "smoke",
                "networks": ["alexnet"],
                "devices": ["xc7vx485t"],
                "sweeps": [{"m_values": [2, 3], "multiplier_budgets": [256]}],
                "strategy": {"name": "grid", "params": {}},
            }
        )
    )
    result_path = tmp_path / "result.json"
    env = _subprocess_env()
    run = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(spec_path), "-o", str(result_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, f"CLI run failed:\n{run.stdout}{run.stderr}"
    assert "Best by metric" in run.stdout
    assert result_path.exists()
    report = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(result_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert report.returncode == 0, f"CLI report failed:\n{report.stdout}{report.stderr}"
    assert "alexnet" in report.stdout
