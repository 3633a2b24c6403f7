"""Heterogeneous batch evaluation + the asyncio micro-batcher.

The load-bearing property everywhere: a request's outcome never depends
on which other requests share its batch — batched evaluation is
bit-identical (pickled bytes) to evaluating each request alone through
the scalar oracle (``tests/scalar_oracle.py``).
"""

from __future__ import annotations

import asyncio
import pickle
import random

import pytest
from scalar_oracle import scalar_explore, scalar_outcome

from repro.core.design_space import GridEntry, SweepSpec
from repro.dse import BatchOutcome, EvalRequest, evaluate_requests, iter_explore
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
        outcomes, batcher = self.drive(requests, window_ms=1.0)
        assert_outcomes_identical(outcomes, serial_reference(requests))
        # Concurrent submissions actually coalesced.
        assert batcher.stats.requests == len(requests)
        assert batcher.stats.batches < len(requests)
        assert batcher.stats.largest_batch > 1

    def test_max_batch_dispatches_early(self):
        requests = interleaved_requests()[:8]
        outcomes, batcher = self.drive(
            requests, window_ms=60_000.0, max_batch=4
        )
        # A pathological window would hang forever; max_batch=4 must cut
        # batches loose at 4 pending (the final flush drains any tail).
        assert batcher.stats.batches >= 2
        assert batcher.stats.largest_batch <= 4
        assert all(outcome.feasible for outcome in outcomes)

    def test_single_request(self):
        outcomes, batcher = self.drive(
            [EvalRequest("vgg16-d", "xc7vx485t", ENTRIES[1])], window_ms=0.0
        )
        assert outcomes[0].feasible
        assert batcher.stats.batches == 1

    def test_closed_batcher_refuses(self):
        async def main():
            batcher = MicroBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(EvalRequest("vgg16-d", "xc7vx485t", ENTRIES[0]))

        asyncio.run(main())

    def test_stats_dict(self):
        _, batcher = self.drive(interleaved_requests()[:4], window_ms=1.0)
        stats = batcher.stats.to_dict()
        assert stats["requests"] == 4
        assert stats["errors"] == 0
        assert stats["mean_batch_size"] >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="window_ms"):
            MicroBatcher(window_ms=-1.0)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
