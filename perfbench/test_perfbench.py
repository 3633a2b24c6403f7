"""Self-test of the service benchmark.

Run with ``python3 -m pytest perfbench -q``.  The unit tests check the span
arithmetic on synthetic spans; the smoke tests drive every workload for a
tiny op count through a real server, untraced and traced, and check that
the output names every metric of ``BENCHMARK.json`` with its unit, that the
answers were verified, and that no operation failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import request_breakdown, self_times, served_batch_waits  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Tiny op counts: one block of each workload's class mix.
SMOKE_OPS = {"evaluate": 24, "query": 28, "search": 8}


def span(span_id, name, start, end, parent=None, thread=1, trace="t", shared=False,
         extra=None):
    return (span_id, name, start, end, parent, thread, trace, shared, extra)


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        span(1, "parent", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),
        span(4, "a.inner", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_clips_children_that_run_on_other_threads():
    spans = [
        span(1, "request", 0.0, 10.0, thread=1),
        span(2, "executor", 2.0, 5.0, parent=1, thread=2),
        span(3, "detached", 8.0, 14.0, parent=1, thread=3),
        span(4, "executor.inner", 4.0, 6.0, parent=2, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(6.0)
    assert own[4] == pytest.approx(2.0)


def test_request_breakdown_splits_covered_time_and_queue_wait():
    spans = [
        span(1, "service.jobs.plan", 0.0, 1.0, trace="r1", thread=1),
        span(2, "service.jobs.shard", 4.0, 6.0, trace="r1", thread=2),
        span(3, "service.store.put", 6.0, 7.0, trace="r1", thread=1),
        span(4, "service.store.load", 8.0, 9.0, trace="r1", thread=1),
        span(5, "dse.batch", 0.0, 9.0, trace="r1", shared=True),
        span(6, "dse.vectorized", 1.0, 2.0, parent=5, trace="r1"),
    ]
    breakdown = request_breakdown(spans)
    # plan [0,1] + shard..put [4,7] + load [8,9]; the batch subtree is shared.
    assert breakdown["r1"]["covered"] == pytest.approx(5.0)
    # Only the gap that ends where the shard starts is queueing.
    assert breakdown["r1"]["queue_wait"] == pytest.approx(3.0)


def test_served_batch_is_the_last_batch_inside_the_submit():
    spans = [
        span(1, "dse.batch", 0.5, 2.0, shared=True, trace="a"),
        span(2, "dse.batch", 2.0, 3.0, shared=True, trace="b"),
        span(3, "service.batching.submit", 0.0, 2.1, trace="a"),
        span(4, "service.batching.submit", 0.4, 3.2, trace="b"),
        span(5, "service.batching.submit", 9.0, 9.5, trace="untimed"),
    ]
    waits = served_batch_waits(spans, {"a", "b"})
    assert waits == pytest.approx([2.1 - 1.5, 2.8 - 1.0])


def _run(workload: str, trace: int) -> tuple:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--ops", str(SMOKE_OPS[workload]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=str(HERE.parent),
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE_OPS))
def test_workload_smoke_run(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert result["failed"] == 0 and result["correct"]
    phases = 2 if trace else 1
    assert result["attempted"] == phases * SMOKE_OPS[workload]
    verified = [line for line in report if " verified=" in line]
    assert len(verified) == phases
    for line in verified:
        assert int(line.split(" verified=")[1].split()[0]) >= 1


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
