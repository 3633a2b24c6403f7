"""Accuracy as a DSE objective: scalar/vectorized identity and budgets.

The ``bit_widths`` sweep axis and the ``error_budget`` constraint ride the
same bit-identity contract as every other grid dimension: the vectorized
engine must produce byte-for-byte the scalar oracle's points
(``tests/scalar_oracle.py``), skip the same entries, and report the same
error strings.  The calibration table behind ``max_rel_error`` is a
process-wide memo, so these tests also pin its first-writer-wins thread
behaviour.
"""

import pickle
import threading

import pytest
from scalar_oracle import assert_matches_oracle, engine_run, oracle_run, scalar_outcome

from repro.core.design_point import evaluate_design
from repro.core.design_space import GridEntry, SweepSpec
from repro.dse import (
    EXCEEDS_ERROR_BUDGET,
    EvalRequest,
    EvaluationCache,
    evaluate_requests,
    iter_explore,
)
from repro.winograd.quantized import calibrated_error, clear_calibration
from repro.nn import get_network

#: The single cell the identity checks run on.
NETWORK, DEVICE = "vgg16-d", "xc7vx485t"


class TestBitWidthAxisIdentity:
    def test_mixed_backends_bit_identical(self):
        spec = SweepSpec(
            m_values=(2, 3, 4, 6),
            multiplier_budgets=(None, 1024),
            bit_widths=(None, 8, 12, 16),
        )
        assert assert_matches_oracle(NETWORK, spec, DEVICE) > 0

    def test_point_names_carry_backend_suffix(self):
        points = list(
            iter_explore(NETWORK, SweepSpec(m_values=(4,), bit_widths=(None, 8)), devices=DEVICE)
        )
        names = [point.name for point in points]
        assert names == ["F(4x4,3x3)-P19", "F(4x4,3x3)-P19-Q8"]
        assert points[0].bit_width is None
        assert points[1].bit_width == 8
        assert points[1].max_rel_error > points[0].max_rel_error

    def test_headroom_infeasible_entries_skipped_identically(self):
        # F(7x7, 3x3) at 16 bits exhausts the int64 accumulator headroom:
        # both paths must drop exactly that entry.
        spec = SweepSpec(m_values=(2, 7), bit_widths=(16,))
        assert assert_matches_oracle(NETWORK, spec, DEVICE) == 1  # only F(2x2) survives at Q16

    def test_headroom_failure_raises_identically_when_not_skipping(self):
        spec = SweepSpec(m_values=(7,), bit_widths=(16,))
        oracle = oracle_run(NETWORK, spec, DEVICE, skip_infeasible=False)
        assert engine_run(NETWORK, spec, DEVICE, skip_infeasible=False) == oracle
        assert oracle.error is not None
        assert "headroom exhausted" in oracle.error[1]


class TestErrorBudget:
    def test_budget_filters_identically(self):
        spec = SweepSpec(m_values=(2, 4, 6), bit_widths=(8, 16), error_budget=1e-3)
        count = assert_matches_oracle(NETWORK, spec, DEVICE)
        survivors = list(iter_explore(NETWORK, spec, devices=DEVICE))
        assert count == len(survivors)
        assert all(point.max_rel_error <= 1e-3 for point in survivors)

    def test_request_outcomes_carry_exact_scalar_message(self):
        requests = [
            EvalRequest("vgg16-d", "xc7vx485t", GridEntry(4, 3, None, 200.0, True, 8, 1e-9)),
            EvalRequest("vgg16-d", "xc7vx485t", GridEntry(4, 3, None, 200.0, True, 8, None)),
        ]
        vectorized = evaluate_requests(requests)
        assert [outcome.error for outcome in vectorized] == [
            scalar_outcome(request).error for request in requests
        ]
        assert not vectorized[0].feasible
        stats = calibrated_error(4, 3, 8)
        assert vectorized[0].error == EXCEEDS_ERROR_BUDGET.format(
            error=stats.max_rel, budget=1e-9
        )
        assert vectorized[1].feasible

    def test_invalid_budget_rejected_by_spec(self):
        with pytest.raises(ValueError, match="error_budget must be None or a positive"):
            SweepSpec(error_budget=-1.0)

    def test_invalid_bit_width_rejected_by_spec(self):
        with pytest.raises(ValueError, match="bit_width must be None or an integer"):
            SweepSpec(bit_widths=(64,))


class TestSpecSerialization:
    def test_round_trip_preserves_accuracy_axis(self):
        spec = SweepSpec(m_values=(2, 4), bit_widths=(8, 16), error_budget=0.05)
        restored = SweepSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert tuple(restored.bit_widths) == (8, 16)
        assert restored.error_budget == 0.05

    def test_default_axis_keeps_legacy_fingerprint(self):
        # Specs that never touch the accuracy axis must serialize exactly
        # as before the axis existed, so stored fingerprints stay stable.
        data = SweepSpec(m_values=(2, 4)).to_dict()
        assert "bit_widths" not in data
        assert "error_budget" not in data


class TestCacheAccuracyLayer:
    def test_cache_key_distinguishes_bit_widths(self):
        cache = EvaluationCache()
        network = get_network("vgg16-d")
        from repro.dse import evaluate_design_cached

        float_point = evaluate_design_cached(network, 4, cache=cache)
        quant_point = evaluate_design_cached(network, 4, cache=cache, bit_width=8)
        assert float_point.bit_width is None
        assert quant_point.bit_width == 8
        assert float_point.max_rel_error != quant_point.max_rel_error

    def test_accuracy_layer_counts_hits(self):
        cache = EvaluationCache()
        network = get_network("vgg16-d")
        from repro.dse import evaluate_design_cached

        evaluate_design_cached(network, 4, cache=cache, bit_width=8)
        before = cache.stats["accuracy"].hits
        evaluate_design_cached(network, 4, cache=cache, bit_width=8, frequency_mhz=150.0)
        assert cache.stats["accuracy"].hits == before + 1

    def test_threaded_calibration_is_bit_identical(self):
        clear_calibration()
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def worker(index):
            barrier.wait()
            results[index] = calibrated_error(4, 3, 8)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # setdefault publishes exactly one ErrorStats per key: every
        # thread must observe the same object, hence the same floats.
        assert all(stats is results[0] for stats in results)
        assert pickle.dumps(results[0]) == pickle.dumps(calibrated_error(4, 3, 8))


class TestScalarEvaluateDesign:
    def test_rejects_invalid_bit_width_before_budget_errors(self):
        network = get_network("vgg16-d")
        # Both arguments are invalid; the bit_width domain check must win,
        # because the vectorized path replicates that exact order.
        with pytest.raises(ValueError, match="bit_width must be None or an integer"):
            evaluate_design(network, 2, multiplier_budget=1, bit_width=99)

    def test_float_point_still_measures_float32_error(self):
        network = get_network("vgg16-d")
        point = evaluate_design(network, 4)
        assert point.bit_width is None
        assert 0.0 < point.max_rel_error < 1e-6
