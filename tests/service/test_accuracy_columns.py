"""Accuracy columns across the service surface.

``bit_width`` / ``max_rel_error`` / ``mean_rel_error`` must flow from the
evaluator through the columnar store and out of every read endpoint —
and results written *before* those columns existed must stay loadable
and queryable (schema evolution by appended columns).
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from query_oracle import ReferenceEngine

np = pytest.importorskip("numpy")

from repro.core.design_space import SweepSpec
from repro.dse import EXCEEDS_ERROR_BUDGET
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import result_to_dict
from repro.service import (
    InfeasibleDesignError,
    QuerySpec,
    ResultServer,
    ResultStore,
    ServiceClient,
)
from repro.service import columnar
from repro.service.columnar import ColumnarBlock, encode_block, iter_blocks, read_block_bytes
from repro.service.query import ColumnarEngine
from repro.winograd.quantized import calibrated_error

SPEC = ExperimentSpec(
    networks=("vgg16-d",),
    devices=("xc7vx485t",),
    sweeps=(SweepSpec(m_values=(2, 3, 4), bit_widths=(None, 8, 12, 16)),),
    name="accuracy-columns",
)

#: The three legacy point/scalar layouts: everything before the accuracy
#: columns were appended.
OLD_POINT_KEYS = columnar.POINT_KEYS[:-3]
OLD_SCALAR_PATHS = columnar._SCALAR_PATHS[:-3]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live server over a columnar store + a client."""
    store = ResultStore(tmp_path_factory.mktemp("store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(store, port=0, quiet=True)
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10.0)
    client = ServiceClient(port=server.port)
    yield server, client, store
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(10.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)


@pytest.fixture(scope="module")
def stored(service):
    _, client, _ = service
    return client.submit_campaign(SPEC)


class TestEvaluateEndpoint:
    def test_point_carries_accuracy_fields(self, service):
        _, client, _ = service
        point = client.evaluate("vgg16-d", m=4, bit_width=8)
        assert point.bit_width == 8
        assert point.name.endswith("-Q8")
        stats = calibrated_error(4, 3, 8)
        assert point.max_rel_error == stats.max_rel
        assert point.mean_rel_error == stats.mean_rel

    def test_float_default_unchanged(self, service):
        _, client, _ = service
        point = client.evaluate("vgg16-d", m=4)
        assert point.bit_width is None
        assert not point.name.endswith("-Q8")
        assert 0.0 < point.max_rel_error < 1e-6

    def test_error_budget_rejection_carries_scalar_message(self, service):
        _, client, _ = service
        with pytest.raises(InfeasibleDesignError) as excinfo:
            client.evaluate("vgg16-d", m=4, bit_width=8, error_budget=1e-9)
        stats = calibrated_error(4, 3, 8)
        assert str(excinfo.value) == EXCEEDS_ERROR_BUDGET.format(
            error=stats.max_rel, budget=1e-9
        )

    def test_invalid_bit_width_is_an_infeasible_outcome(self, service):
        _, client, _ = service
        payload = client.evaluate_raw(network="vgg16-d", m=4, bit_width=99)
        assert payload["feasible"] is False
        assert "bit_width must be None or an integer" in payload["error"]


class TestQueryEndpoints:
    def test_where_filters_on_bit_width(self, service, stored):
        _, client, _ = service
        rows = client.query(
            key=stored["key"],
            where=[["bit_width", "==", 8]],
            select=["name", "bit_width", "max_rel_error"],
        )
        assert rows
        assert all(row["bit_width"] == 8 for row in rows)
        assert all(row["name"].endswith("-Q8") for row in rows)

    def test_select_returns_none_for_float_points(self, service, stored):
        _, client, _ = service
        rows = client.query(
            key=stored["key"], select=["name", "bit_width", "max_rel_error"]
        )
        float_rows = [row for row in rows if not row["name"].endswith(
            ("-Q8", "-Q12", "-Q16"))]
        assert float_rows
        assert all(row["bit_width"] is None for row in float_rows)
        assert all(row["max_rel_error"] > 0.0 for row in rows)

    def test_sort_by_accuracy_metric(self, service, stored):
        _, client, _ = service
        rows = client.query(
            key=stored["key"],
            metric="max_rel_error",
            maximize=False,
            select=["max_rel_error"],
        )
        errors = [row["max_rel_error"] for row in rows]
        assert errors == sorted(errors)

    def test_three_objective_pareto_front(self, service, stored):
        _, client, _ = service
        payload = client.pareto(
            key=stored["key"],
            objectives=[
                ["throughput_gops", True],
                ["resources.luts", False],
                ["max_rel_error", False],
            ],
        )
        front = payload["vgg16-d"]
        assert front
        # The float datapath is the accuracy anchor: its tiny float32
        # error is pareto-optimal on the accuracy axis, so at least one
        # non-quantized design must survive; quantized points survive on
        # the throughput/resource axes.
        assert any(point.bit_width is None for point in front)

    def test_errors_reproducible_from_calibration(self, service, stored):
        _, client, _ = service
        rows = client.query(
            key=stored["key"],
            where=[["bit_width", "==", 16]],
            select=["m", "r", "max_rel_error", "mean_rel_error"],
        )
        assert rows
        for row in rows:
            stats = calibrated_error(row["m"], row["r"], 16)
            assert row["max_rel_error"] == stats.max_rel
            assert row["mean_rel_error"] == stats.mean_rel


def _legacy_payload():
    """A campaign payload as code before the accuracy columns wrote it."""
    payload = result_to_dict(
        run_experiment(
            ExperimentSpec(
                networks=("vgg16-d",),
                sweeps=(SweepSpec(m_values=(2, 3)),),
                name="legacy",
            )
        )
    )
    for point in payload["points"]:
        for key in ("bit_width", "max_rel_error", "mean_rel_error"):
            point.pop(key)
    return payload


def _write_legacy_block(tmp_path, payload, monkeypatch):
    """Encode ``payload`` exactly as the pre-accuracy encoder did."""
    with monkeypatch.context() as patch:
        patch.setattr(columnar, "POINT_KEYS", OLD_POINT_KEYS)
        patch.setattr(columnar, "_SCALAR_PATHS", OLD_SCALAR_PATHS)
        block_bytes = encode_block({"key": "legacy"}, payload)
    segment = tmp_path / "segment-000000.col"
    segment.write_bytes(block_bytes)
    (offset, _header), = iter_blocks(segment)
    return ColumnarBlock.read_at(segment, offset)


class TestSchemaEvolution:
    def test_old_columnar_block_still_loads(self, tmp_path, monkeypatch):
        payload = _legacy_payload()
        block = _write_legacy_block(tmp_path, payload, monkeypatch)
        assert not block.opaque
        assert "bit_width" not in block.columns()
        assert block.payload() == payload

    def test_encoder_writes_pre_accuracy_layout_as_old_encoder_did(
        self, tmp_path, monkeypatch
    ):
        payload = _legacy_payload()
        block = _write_legacy_block(tmp_path, payload, monkeypatch)
        assert encode_block({"key": "legacy"}, payload) == read_block_bytes(
            block.path, block.offset
        )
        store = ResultStore(tmp_path / "store")
        key = store.put_payload(payload)
        assert not store._block(key).opaque
        assert store.get_payload(key) == payload

    def test_missing_column_query_rejected_identically(self, tmp_path, monkeypatch):
        payload = _legacy_payload()
        block = _write_legacy_block(tmp_path, payload, monkeypatch)
        columnar_engine = ColumnarEngine(block)
        reference_engine = ReferenceEngine(payload)
        spec = QuerySpec(where=(("bit_width", "==", 8),))
        errors = []
        for engine in (columnar_engine, reference_engine):
            with pytest.raises(ValueError) as excinfo:
                engine.match_indices(spec)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1] == (
            "column 'bit_width' is not stored in this result"
        )

    def test_old_and_new_blocks_coexist_in_one_store(self, tmp_path):
        store = ResultStore(tmp_path / "mixed")
        legacy = _legacy_payload()
        key_old = store.put_payload(legacy)
        new_payload = result_to_dict(
            run_experiment(
                ExperimentSpec(
                    networks=("vgg16-d",),
                    sweeps=(SweepSpec(m_values=(2,), bit_widths=(8,)),),
                    name="modern",
                )
            )
        )
        key_new = store.put_payload(new_payload)
        assert store.get_payload(key_old) == legacy
        assert store.get_payload(key_new) == new_payload


class TestEngineParityOnNulls:
    """Nullable bit_width: both engines agree on filters, sorts, selects."""

    @pytest.fixture(scope="class")
    def payload(self):
        return result_to_dict(
            run_experiment(
                ExperimentSpec(
                    networks=("vgg16-d",),
                    sweeps=(SweepSpec(m_values=(2, 3, 4), bit_widths=(None, 8, 16)),),
                    name="nulls",
                )
            )
        )

    @pytest.fixture(scope="class")
    def engines(self, tmp_path_factory, payload):
        tmp_path = tmp_path_factory.mktemp("nulls")
        segment = tmp_path / "segment-000000.col"
        segment.write_bytes(encode_block({"key": "nulls"}, payload))
        (offset, _header), = iter_blocks(segment)
        block = ColumnarBlock.read_at(segment, offset)
        assert block.columns()["bit_width"] == "optint"
        return ColumnarEngine(block), ReferenceEngine(payload)

    @pytest.mark.parametrize(
        "clause",
        [
            ("bit_width", "==", 8),
            ("bit_width", "!=", 8),
            ("bit_width", ">=", 12),
            ("max_rel_error", "<", 1e-3),
        ],
    )
    def test_filters_agree(self, engines, clause):
        columnar_engine, reference_engine = engines
        spec = QuerySpec(where=(clause,))
        assert (
            columnar_engine.match_indices(spec).tolist()
            == reference_engine.match_indices(spec)
        )

    @pytest.mark.parametrize("maximize", [True, False])
    def test_sort_on_nullable_column_agrees(self, engines, maximize):
        columnar_engine, reference_engine = engines
        all_rows = list(range(columnar_engine.rows))
        assert (
            columnar_engine.sort_rows(
                np.array(all_rows, dtype=np.int64), "bit_width", maximize
            ).tolist()
            == reference_engine.sort_rows(all_rows, "bit_width", maximize)
        )

    def test_select_materializes_null_identically(self, engines):
        columnar_engine, reference_engine = engines
        select = ("name", "bit_width", "mean_rel_error")
        rows = list(range(columnar_engine.rows))
        assert (
            columnar_engine.materialize(np.array(rows, dtype=np.int64), select)
            == reference_engine.materialize(rows, select)
        )
