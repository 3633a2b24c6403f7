"""Heterogeneous batch evaluation + the asyncio micro-batcher.

The load-bearing property everywhere: a request's outcome never depends
on which other requests share its batch — batched evaluation is
bit-identical (pickled bytes) to evaluating each request alone through
the scalar oracle (``tests/scalar_oracle.py``).  The scheduling tests hold
batches in flight with :class:`batch_gate.BatchGate` instead of timing them.
"""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import random

import batch_gate
import pytest
from scalar_oracle import scalar_explore, scalar_outcome

from repro.core.design_space import GridEntry, SweepSpec
from repro.dse import BatchOutcome, EvalRequest, evaluate_requests, iter_explore
from repro.obs.logging import StructuredLogger
from repro.obs.tracing import trace_context
from repro.service import MicroBatcher

SPEC = SweepSpec(
    m_values=(2, 3, 4),
    multiplier_budgets=(64, 256, 512, None),
    frequencies_mhz=(150.0, 200.0),
)
ENTRIES = list(SPEC.configurations())


def interleaved_requests() -> list:
    """Every (network, device) cell interleaved entry-by-entry."""
    return [
        EvalRequest(network, device, entry)
        for entry in ENTRIES
        for network in ("vgg16-d", "alexnet")
        for device in ("xc7vx485t", "xc7vx690t")
    ]


def serial_reference(requests) -> list:
    """Each request evaluated alone through the scalar oracle."""
    return [scalar_outcome(request) for request in requests]


def settled(awaitable):
    """``awaitable`` under a bound: a stranded future fails the test, not hangs it."""
    return asyncio.wait_for(awaitable, batch_gate.HOLD_LIMIT_S)


def assert_outcomes_identical(got, expected) -> None:
    assert [outcome.error for outcome in got] == [outcome.error for outcome in expected]
    assert [
        pickle.dumps(outcome.point) for outcome in got
    ] == [pickle.dumps(outcome.point) for outcome in expected]


class TestEvaluateRequests:
    def test_bit_identical_to_serial(self):
        requests = interleaved_requests()
        assert_outcomes_identical(
            evaluate_requests(requests), serial_reference(requests)
        )

    def test_matches_iter_explore_per_cell(self):
        requests = [EvalRequest("vgg16-d", "xc7vx485t", entry) for entry in ENTRIES]
        outcomes = evaluate_requests(requests)
        feasible = [pickle.dumps(outcome.point) for outcome in outcomes if outcome.feasible]
        for explored in (
            iter_explore("vgg16-d", SPEC, devices="xc7vx485t"),
            scalar_explore("vgg16-d", SPEC, devices="xc7vx485t"),
        ):
            assert feasible == [pickle.dumps(point) for point in explored]

    def test_batch_composition_is_invisible(self):
        """A request's outcome is the same in any shuffled superset batch."""
        requests = interleaved_requests()
        alone = evaluate_requests([requests[7]])[0]
        shuffled = list(requests)
        random.Random(2019).shuffle(shuffled)
        batched = evaluate_requests(shuffled)
        index = shuffled.index(requests[7])
        assert pickle.dumps(batched[index].point) == pickle.dumps(alone.point)

    def test_infeasible_outcomes_carry_scalar_messages(self):
        # budget too small for one PE: same message the scalar path raises.
        tiny_budget = EvalRequest(
            "vgg16-d", "xc7vx485t", GridEntry(4, 3, 16, 200.0, True)
        )
        outcome = evaluate_requests([tiny_budget])[0]
        assert not outcome.feasible
        assert "cannot host one F(4,3) PE" in outcome.error
        assert outcome.error == scalar_outcome(tiny_budget).error
        with pytest.raises(ValueError, match="cannot host one"):
            next(
                scalar_explore(
                    "vgg16-d",
                    SweepSpec(
                        m_values=(4,), multiplier_budgets=(16,), frequencies_mhz=(200.0,)
                    ),
                    devices="xc7vx485t",
                    skip_infeasible=False,
                )
            )

    def test_serial_and_vectorized_report_same_errors(self):
        requests = interleaved_requests() + [
            EvalRequest("vgg16-d", "xc7vx485t", GridEntry(2, 3, 4, 200.0, True)),
        ]
        assert_outcomes_identical(evaluate_requests(requests), serial_reference(requests))

    def test_outcome_shape(self):
        outcome = evaluate_requests(
            [EvalRequest("alexnet", "xc7vx485t", ENTRIES[0])]
        )[0]
        assert isinstance(outcome, BatchOutcome)
        assert outcome.feasible
        assert outcome.error is None

    def test_empty_batch(self):
        assert evaluate_requests([]) == []


class TestMicroBatcher:
    def drive(self, requests, **kwargs):
        """Submit all requests concurrently; return (outcomes, batcher)."""

        async def main():
            batcher = MicroBatcher(**kwargs)
            outcomes = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            await batcher.close()
            return outcomes, batcher

        return asyncio.run(main())

    def test_coalesced_outcomes_bit_identical(self):
        requests = interleaved_requests()
        outcomes, batcher = self.drive(requests)
        assert_outcomes_identical(outcomes, serial_reference(requests))
        # Concurrent submissions actually coalesced.
        assert batcher.stats.requests == len(requests)
        assert batcher.stats.batches < len(requests)
        assert batcher.stats.largest_batch > 1

    def test_max_batch_dispatches_early(self, monkeypatch):
        """Seven requests queued behind a held batch leave as 4 then 3."""
        gate = batch_gate.install(monkeypatch)
        requests = interleaved_requests()[:8]

        async def main():
            batcher = MicroBatcher(max_batch=4)
            tasks = [asyncio.ensure_future(batcher.submit(request)) for request in requests]
            await asyncio.sleep(0)
            assert (batcher.inflight, batcher.occupancy) == (1, 7)
            gate.open()
            outcomes = await settled(asyncio.gather(*tasks))
            await batcher.close()
            return outcomes, batcher

        outcomes, batcher = asyncio.run(main())
        assert gate.batches == [requests[:1], requests[1:5], requests[5:]]
        assert batcher.stats.largest_batch == 4
        assert_outcomes_identical(outcomes, serial_reference(requests))

    def test_single_request(self):
        outcomes, batcher = self.drive([EvalRequest("vgg16-d", "xc7vx485t", ENTRIES[1])])
        assert outcomes[0].feasible
        assert batcher.stats.batches == 1

    def test_idle_batcher_dispatches_at_once(self, monkeypatch):
        gate = batch_gate.install(monkeypatch)
        request = EvalRequest("alexnet", "xc7vx485t", ENTRIES[0])

        async def main():
            batcher = MicroBatcher()
            task = asyncio.ensure_future(batcher.submit(request))
            await asyncio.sleep(0)
            # Nothing waits for company: the request is already with the engine.
            assert (batcher.occupancy, batcher.inflight) == (0, 1)
            gate.open()
            outcome = await settled(task)
            assert (batcher.occupancy, batcher.inflight) == (0, 0)
            return outcome

        assert_outcomes_identical([asyncio.run(main())], serial_reference([request]))
        assert gate.batches == [[request]]

    def test_arrivals_during_a_batch_ride_the_next_together(self, monkeypatch):
        gate = batch_gate.install(monkeypatch)
        requests = interleaved_requests()[:6]

        async def main():
            batcher = MicroBatcher()
            first = asyncio.ensure_future(batcher.submit(requests[0]))
            await asyncio.sleep(0)
            rest = [asyncio.ensure_future(batcher.submit(r)) for r in requests[1:]]
            await asyncio.sleep(0)
            assert (batcher.inflight, batcher.occupancy) == (1, 5)
            gate.open()
            outcomes = await settled(asyncio.gather(first, *rest))
            await batcher.close()
            return outcomes, batcher

        outcomes, batcher = asyncio.run(main())
        assert batcher.stats.batches == 2
        assert batcher.stats.largest_batch == 5
        assert gate.batches == [requests[:1], requests[1:]]
        assert_outcomes_identical(outcomes, serial_reference(requests))

    def test_failed_batch_does_not_strand_the_queue(self, monkeypatch):
        gate = batch_gate.install(monkeypatch, batch_gate.BatchGate(fail_first=True))
        requests = interleaved_requests()[:4]

        async def main():
            batcher = MicroBatcher()
            tasks = [asyncio.ensure_future(batcher.submit(request)) for request in requests]
            await asyncio.sleep(0)
            gate.open()
            outcomes = await settled(asyncio.gather(*tasks, return_exceptions=True))
            await batcher.close()
            return outcomes, batcher

        outcomes, batcher = asyncio.run(main())
        assert isinstance(outcomes[0], RuntimeError)
        assert "engine fault" in str(outcomes[0])
        assert_outcomes_identical(outcomes[1:], serial_reference(requests[1:]))
        assert batcher.stats.errors == 1
        assert (batcher.stats.batches, batcher.inflight, batcher.occupancy) == (2, 0, 0)

    def test_queued_batch_runs_in_its_first_requests_trace_context(self, monkeypatch):
        gate = batch_gate.install(monkeypatch)
        stream = io.StringIO()
        requests = interleaved_requests()[:3]
        traces = ["trace-first", "trace-second", "trace-third"]

        async def main():
            batcher = MicroBatcher(logger=StructuredLogger("batching", stream=stream))
            tasks = []
            for request, trace in zip(requests, traces):
                with trace_context(trace):
                    tasks.append(
                        asyncio.ensure_future(batcher.submit(request, trace_id=trace))
                    )
                await asyncio.sleep(0)
            gate.open()
            await settled(asyncio.gather(*tasks))
            await batcher.close()

        asyncio.run(main())
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        dispatches = [line for line in lines if line["event"] == "batch.dispatch"]
        assert [(line["trace_id"], line["trace_ids"]) for line in dispatches] == [
            ("trace-first", ["trace-first"]),
            ("trace-second", ["trace-second", "trace-third"]),
        ]

    def test_close_resolves_inflight_and_queued(self, monkeypatch):
        gate = batch_gate.install(monkeypatch)
        requests = interleaved_requests()[:5]

        async def main():
            batcher = MicroBatcher(max_batch=2)
            tasks = [asyncio.ensure_future(batcher.submit(request)) for request in requests]
            await asyncio.sleep(0)
            closing = asyncio.ensure_future(batcher.close())
            for _ in range(5):
                await asyncio.sleep(0)
            assert not closing.done()  # the first batch is still held
            gate.open()
            await settled(closing)
            assert (batcher.inflight, batcher.occupancy) == (0, 0)
            assert all(task.done() for task in tasks)
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(requests[0])
            return [task.result() for task in tasks], batcher

        outcomes, batcher = asyncio.run(main())
        assert batcher.stats.batches == 3
        assert_outcomes_identical(outcomes, serial_reference(requests))

    def test_closed_batcher_refuses(self):
        async def main():
            batcher = MicroBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(EvalRequest("vgg16-d", "xc7vx485t", ENTRIES[0]))

        asyncio.run(main())

    def test_stats_dict(self):
        _, batcher = self.drive(interleaved_requests()[:4])
        stats = batcher.stats.to_dict()
        assert stats["requests"] == 4
        assert stats["errors"] == 0
        assert stats["mean_batch_size"] >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
