"""Columnar store: oracle equivalence, cursors, compaction, robustness.

The binary columnar format is an *internal* representation: every
externally visible behaviour (payload round trips, query/pareto/best
pages, pagination cursors, compaction) must be indistinguishable from the
plain-Python :class:`ReferenceEngine` (``tests/query_oracle.py``) run
over the decoded payload, which serves as the oracle here.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest
from query_oracle import ReferenceEngine, outcome

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import result_to_dict
from repro.service import QuerySpec, ResultStore
from repro.service.query import ColumnarEngine, best_row, pareto_rows, query_rows
from repro.service.store import ENVELOPE_SCHEMA, result_key

JSONL_FIXTURE = Path(__file__).parent / "data" / "jsonl_store"


def tiny_spec(name, networks=("vgg16-d",), devices=("xc7vx485t",)):
    return ExperimentSpec(
        networks=networks,
        devices=devices,
        sweeps=(
            SweepSpec(
                m_values=(2, 3),
                multiplier_budgets=(256, 512),
                frequencies_mhz=(150.0, 200.0),
            ),
        ),
        name=name,
    )


#: A spec with no feasible point: one multiplier hosts no processing element.
ZERO_POINT_SPEC = ExperimentSpec(
    networks=("alexnet",),
    sweeps=(SweepSpec(m_values=(2,), multiplier_budgets=(1,)),),
)


@pytest.fixture(scope="module")
def payload_a():
    return result_to_dict(
        run_experiment(tiny_spec("col-a", networks=("vgg16-d", "alexnet")))
    )


@pytest.fixture(scope="module")
def payload_b():
    return result_to_dict(
        run_experiment(tiny_spec("col-b", networks=("alexnet",), devices=("xc7vx690t",)))
    )


@pytest.fixture()
def store_ab(tmp_path, payload_a, payload_b):
    """A columnar store holding both results, ``payload_b`` newest."""
    store = ResultStore(tmp_path)
    for payload in (payload_a, payload_b):
        store.put_payload(payload)
    return store


def fixture_payload(name):
    """The payload of the JSONL fixture's result named ``name``."""
    for path in sorted((JSONL_FIXTURE / "segments").glob("segment-*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                envelope = json.loads(line)
            except json.JSONDecodeError:
                continue  # the torn tail
            if envelope["result"]["spec"]["name"] == name:
                return envelope["result"]
    raise LookupError(name)


@pytest.fixture(
    scope="module", params=["float", "quantized", "pre-accuracy", "zero-point"]
)
def newest(request, payload_b):
    """One alexnet-only result per point layout the store serves."""
    if request.param == "float":
        return payload_b
    if request.param == "quantized":  # nullable bit_width
        return result_to_dict(
            run_experiment(
                ExperimentSpec(
                    networks=("alexnet",),
                    sweeps=(SweepSpec(m_values=(2, 3, 4), bit_widths=(None, 8, 16)),),
                    name="col-quantized",
                )
            )
        )
    if request.param == "pre-accuracy":
        return fixture_payload("legacy-pre-accuracy")
    payload = result_to_dict(run_experiment(ZERO_POINT_SPEC))
    assert payload["points"] == []
    return payload


@pytest.fixture()
def layout_store(tmp_path, payload_a, newest):
    """A store holding ``payload_a`` and then ``newest``."""
    store = ResultStore(tmp_path)
    for payload in (payload_a, newest):
        store.put_payload(payload)
    return store


def canon(value):
    """Byte-level comparison form (dict order significant via JSON dump)."""
    return json.dumps(value, sort_keys=False)


def page_shape(page):
    """A page minus the cursor token (tokens embed segment names)."""
    return {
        "key": page.key,
        "rows": page.rows,
        "total": page.total,
        "has_more": page.next_cursor is not None,
    }


def oracle_page(payload, spec):
    """:func:`page_shape` of ``spec``'s first page, from the reference engine."""
    rows, total, next_start = query_rows(ReferenceEngine(payload), spec, 0, spec.limit)
    return {
        "key": result_key(payload),
        "rows": rows,
        "total": total,
        "has_more": next_start is not None,
    }


def default_objectives(payload):
    """The stored spec's campaign objectives (what ``pareto`` defaults to)."""
    return ExperimentSpec.from_dict(payload["spec"]).to_campaign().objectives


def drain(store, spec):
    """All pages of a query, following cursors; returns (rows, totals)."""
    rows, totals, cursor = [], [], None
    while True:
        page = store.query_page(
            QuerySpec(**{**spec.to_dict(), "cursor": cursor}) if cursor else spec
        )
        rows.extend(page.rows)
        totals.append(page.total)
        cursor = page.next_cursor
        if cursor is None:
            return rows, totals


class TestEngines:
    def test_engine_kinds_match_storage(self, store_ab, payload_a):
        engine = store_ab._engine_for(result_key(payload_a))
        assert isinstance(engine, ColumnarEngine)
        assert not engine.block.opaque


NUMERIC_METRICS = (
    "throughput_gops",
    "total_latency_ms",
    "power_efficiency",
    "multiplier_efficiency",
    "resources.dsp_slices",
    "latency.pipeline_depth",
    "multiplication_saving_factor",
)

#: The columns a pre-accuracy result does not store (``bit_width`` is
#: nullable in a quantized one).
ACCURACY_METRICS = ("bit_width", "max_rel_error", "mean_rel_error")

#: ``where`` thresholds for the accuracy columns, which ``payload_a``
#: (float only) cannot supply a useful median for.
ACCURACY_THRESHOLDS = {"bit_width": 8, "max_rel_error": 1e-3, "mean_rel_error": 1e-4}


class TestJsonlEquivalence:
    """Seeded property tests: columnar answers == reference-engine answers.

    Each runs over a store holding ``payload_a`` and then one result per
    point layout (``newest``): float, quantized, pre-accuracy and
    zero-point.  Answers and errors alike must match the oracle run over
    the payload the store resolves a spec to.
    """

    def test_random_queries_identical(self, layout_store, payload_a, newest):
        rng = random.Random(0xC01)
        points = payload_a["points"]
        networks = sorted({p["workload_name"] for p in points})
        metrics = NUMERIC_METRICS + ACCURACY_METRICS

        def value_of(point, metric):
            node = point
            for part in metric.replace("total_latency_ms", "latency.total_latency_ms").split("."):
                node = node[part]
            return node

        for _ in range(120):
            fields = {}
            if rng.random() < 0.5:
                fields["network"] = rng.choice(networks)
            if rng.random() < 0.3:
                fields["name"] = "col-a"  # experiment name: pins the record
            metric = rng.choice(metrics + (None,))
            if metric:
                fields["metric"] = metric
                if rng.random() < 0.5:
                    fields["maximize"] = rng.random() < 0.5
                if rng.random() < 0.5:
                    fields["top_k"] = rng.randint(1, len(points))
            if rng.random() < 0.4:
                where_metric = rng.choice(NUMERIC_METRICS[:4] + ACCURACY_METRICS)
                if where_metric in ACCURACY_THRESHOLDS:
                    threshold = ACCURACY_THRESHOLDS[where_metric]
                else:
                    sample = [value_of(p, where_metric) for p in points]
                    threshold = sorted(sample)[len(sample) // 2]
                fields["where"] = [
                    [where_metric, rng.choice(["<", "<=", ">", ">=", "==", "!="]), threshold]
                ]
            if rng.random() < 0.4:
                fields["select"] = rng.sample(metrics, rng.randint(1, 3))
            if rng.random() < 0.6:
                fields["limit"] = rng.randint(1, len(points) + 2)

            spec = QuerySpec(**fields)
            # Newest matching record: only payload_a holds vgg16-d.
            pinned_a = fields.get("name") == "col-a" or fields.get("network") == "vgg16-d"
            payload = payload_a if pinned_a else newest
            expected = outcome(lambda: oracle_page(payload, spec))
            assert outcome(lambda: page_shape(layout_store.query_page(spec))) == expected, fields
            if expected[0] != "ok":
                continue
            # Full drain through cursors must agree page-for-page too.
            rows, total, _ = query_rows(ReferenceEngine(payload), spec)
            drained, totals = drain(layout_store, spec)
            assert canon(drained) == canon(rows), fields
            assert set(totals) == {total}, fields

    def test_pareto_identical(self, layout_store, payload_a, newest):
        objective_sets = (
            None,  # result's own campaign objectives
            [["throughput_gops", True], ["power_watts", False]],
            [["total_latency_ms", False], ["resources.dsp_slices", False], ["throughput_gops", True]],
            [["throughput_gops", True], ["max_rel_error", False]],
        )
        for objectives in objective_sets:
            for network in (None, "vgg16-d"):
                for limit in (None, 1, 3, 1000):
                    spec = QuerySpec(network=network, objectives=objectives, limit=limit)
                    payload = payload_a if network == "vgg16-d" else newest

                    def page():
                        answer = layout_store.pareto(spec)
                        return [
                            answer.key,
                            answer.objectives,
                            answer.fronts,
                            answer.total,
                            answer.next_cursor is None,
                        ]

                    def oracle():
                        echo, fronts, total, next_start = pareto_rows(
                            ReferenceEngine(payload), spec, default_objectives(payload), 0, limit
                        )
                        return [result_key(payload), echo, fronts, total, next_start is None]

                    assert outcome(page) == outcome(oracle), (objectives, network, limit)

    def test_best_identical(self, layout_store, newest):
        for metric in NUMERIC_METRICS + ACCURACY_METRICS:
            for maximize in (None, True, False):
                spec = QuerySpec(metric=metric, maximize=maximize)

                def best():
                    answer = layout_store.best(spec)
                    return [answer.key, answer.metric, answer.value, answer.row]

                def oracle():
                    row, value = best_row(ReferenceEngine(newest), spec)
                    return [result_key(newest), metric, value, row]

                assert outcome(best) == outcome(oracle), (metric, maximize)

    def test_error_parity(self, layout_store, newest):
        for spec, message in (
            (QuerySpec(network="not-a-network"), '{"network": "not-a-network"}'),
            (QuerySpec(key="0" * 16), "no stored result with key '0000000000000000'"),
        ):
            with pytest.raises(KeyError, match=message):
                layout_store.query_page(spec)
        # Engine-level errors match the reference engine's word for word.
        for spec in (
            QuerySpec(metric="device_name"),
            QuerySpec(metric="throughput_gops", where=[["m", ">", 99]]),
            QuerySpec(metric="bit_width", where=[["max_rel_error", ">=", 0]]),
        ):
            assert outcome(lambda: layout_store.best(spec).row) == outcome(
                lambda: best_row(ReferenceEngine(newest), spec)[0]
            ), spec
        for spec in (
            QuerySpec(where=[["bit_width", "==", 8]]),
            QuerySpec(where=[["m", ">", 99], ["bit_width", "==", 8]]),
            QuerySpec(metric="mean_rel_error", select=["name", "max_rel_error"]),
        ):
            assert outcome(lambda: page_shape(layout_store.query_page(spec))) == outcome(
                lambda: oracle_page(newest, spec)
            ), spec


class TestCursors:
    def test_cursor_stable_across_appends(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        spec = QuerySpec(
            name="col-a", metric="throughput_gops", maximize=True, limit=5
        )
        baseline, _ = drain(store, spec)

        first = store.query_page(spec)
        assert len(first.rows) == 5 and first.next_cursor is not None
        # A new result lands between pages; the cursor pins the original.
        store.put_payload(payload_b)
        rest, _ = drain(store, QuerySpec(cursor=first.next_cursor, limit=5,
                                         metric="throughput_gops", maximize=True))
        assert canon(first.rows + rest) == canon(baseline)

    def test_cursor_bound_to_query_shape(self, tmp_path, payload_a):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        page = store.query_page(QuerySpec(metric="throughput_gops", limit=2))
        with pytest.raises(ValueError, match="issued for a different query"):
            store.query_page(
                QuerySpec(metric="power_watts", limit=2, cursor=page.next_cursor)
            )

    def test_cursor_bound_to_result(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        key_a = store.put_payload(payload_a)
        key_b = store.put_payload(payload_b)
        page = store.query_page(QuerySpec(key=key_a, metric="throughput_gops", limit=2))
        with pytest.raises(ValueError, match="belongs to a different result"):
            store.query_page(
                QuerySpec(key=key_b, metric="throughput_gops", limit=2,
                          cursor=page.next_cursor)
            )

    def test_limit_slices_totals(self, tmp_path, payload_a):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        total = store.query_page(QuerySpec()).total
        page = store.query_page(QuerySpec(limit=3))
        assert len(page.rows) == 3
        assert page.total == total
        rows, totals = drain(store, QuerySpec(limit=3))
        assert len(rows) == total
        assert set(totals) == {total}


class TestCompactReaderSafety:
    def test_compact_while_memmap_reader_paginated(self, tmp_path, payload_a, payload_b):
        """The satellite bugfix: compaction must not yank segments from
        under a reader holding memory-mapped blocks mid-pagination."""
        store = ResultStore(tmp_path, segment_max_records=1)
        key = store.put_payload(payload_a)
        store.put_payload(payload_b)

        spec = QuerySpec(key=key, metric="throughput_gops", limit=4)
        baseline, _ = drain(store, spec)

        # A reader mid-iteration: first page fetched, engine (and its
        # memory map) live in the cache, old segment inode mapped.
        engine = store._engine_for(key)
        assert isinstance(engine, ColumnarEngine)
        first = store.query_page(spec)
        assert first.next_cursor is not None

        stats = store.compact()
        assert stats["kept"] == 2

        # The held engine still reads the (unlinked) old inode.
        assert engine.name_at(0) == payload_a["points"][0]["name"]
        assert len(engine.match_indices(QuerySpec())) == len(payload_a["points"])

        # Continuing the pagination re-resolves by key and agrees byte-
        # for-byte with the pre-compaction drain.
        rest, _ = drain(
            store,
            QuerySpec(key=key, metric="throughput_gops", limit=4,
                      cursor=first.next_cursor),
        )
        assert canon(first.rows + rest) == canon(baseline)

    def test_trash_drained_on_reopen(self, tmp_path, payload_a):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        trash = tmp_path / "segments" / ".trash"
        trash.mkdir()
        (trash / "segment-000099.col").write_bytes(b"leftover")
        del store
        reopened = ResultStore(tmp_path)
        assert list(trash.iterdir()) == []
        assert len(reopened) == 1

    def test_compact_drops_superseded_and_renumbers(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path, segment_max_records=1)
        keys = [store.put_payload(p) for p in (payload_a, payload_b)]
        before = {key: canon(store.get_payload(key)) for key in keys}
        stats = store.compact()
        assert stats == {"kept": 2, "dropped": 0}
        segments = sorted(p.name for p in (tmp_path / "segments").glob("segment-*"))
        assert segments == ["segment-000001.col", "segment-000002.col"]
        assert {key: canon(store.get_payload(key)) for key in keys} == before


class TestRobustness:
    def test_foreign_payload_refused_but_kept_by_jsonl_import(
        self, tmp_path, payload_a, payload_b
    ):
        # A payload the strict column encoder cannot represent (a point
        # with a non-canonical key) is refused, and nothing is appended.
        payload = copy.deepcopy(payload_a)
        payload["points"][0]["custom_annotation"] = {"note": "hand-edited"}
        store = ResultStore(tmp_path / "live")
        store.put_payload(payload_b)
        segments = tmp_path / "live" / "segments"
        before = {path.name: path.read_bytes() for path in segments.glob("segment-*")}
        with pytest.raises(
            ValueError,
            match=r"point 0 fits no stored point layout \(unknown keys \['custom_annotation'\]\)",
        ):
            store.put_payload(payload)
        assert {path.name: path.read_bytes() for path in segments.glob("segment-*")} == before
        assert len(store) == 1
        # The refusal leaves the append cursor alone.
        key_a = store.put_payload(payload_a)
        assert store.record(key_a).segment == "segment-000001.col"

        # A legacy JSONL store holding the same payload still imports it,
        # as an opaque block that reads back byte-identical by key; its
        # queries are refused with an error that names the key.
        key = result_key(payload)
        envelope = {
            "schema": ENVELOPE_SCHEMA,
            "meta": {
                "key": key,
                "fingerprint": "f" * 64,
                "name": payload["spec"]["name"],
                "networks": payload["spec"]["networks"],
                "devices": payload["spec"]["devices"],
                "points": len(payload["points"]),
                "evaluations": payload["evaluations"],
                "sequence": 1,
                "created": 0.0,
            },
            "result": payload,
        }
        legacy = tmp_path / "legacy" / "segments"
        legacy.mkdir(parents=True)
        (legacy / "segment-000001.jsonl").write_text(json.dumps(envelope) + "\n")
        imported = ResultStore(tmp_path / "legacy")
        assert imported._block(key).opaque
        assert canon(imported.get_payload(key)) == canon(payload)
        refused = f"stored result '{key}' has no column layout to query: point 0"
        for read in (
            lambda: imported.query_page(QuerySpec(key=key, metric="throughput_gops")),
            lambda: imported.pareto(QuerySpec(key=key)),
            lambda: imported.best(QuerySpec(key=key, metric="power_efficiency")),
        ):
            with pytest.raises(ValueError, match=refused):
                read()

    def test_zero_point_result_answers_like_oracle(self, tmp_path):
        """Regression: an empty result once answered numeric reads with
        ``column 'throughput_gops' holds non-numeric values``."""
        payload = result_to_dict(run_experiment(ZERO_POINT_SPEC))
        assert payload["points"] == [] and payload["evaluations"] == 1
        store = ResultStore(tmp_path)
        key = store.put_payload(payload)
        # The encoder types every column of an empty result as a string,
        # as it always has: stored blocks of empty results look like this.
        assert store._block(key).columns()["throughput_gops"] == "str"
        for spec in (
            QuerySpec(metric="throughput_gops"),
            QuerySpec(where=[["m", ">=", 2]]),
            QuerySpec(where=[["bit_width", "==", 8]], select=["multiplication_saving_factor"]),
            QuerySpec(metric="name", maximize=True, limit=1),
        ):
            page = store.query_page(spec)
            assert (page.rows, page.total, page.next_cursor) == ([], 0, None)
            assert canon(page_shape(page)) == canon(oracle_page(payload, spec))
        front = store.pareto(
            QuerySpec(objectives=[["throughput_gops", True], ["max_rel_error", False]])
        )
        assert (front.fronts, front.total) == ({}, 0)
        for spec in (QuerySpec(metric="throughput_gops"), QuerySpec(metric="device_name")):
            with pytest.raises(ValueError, match="no design points to choose from"):
                store.best(spec)
            with pytest.raises(ValueError, match="no design points to choose from"):
                best_row(ReferenceEngine(payload), spec)

    def test_torn_block_tail_skipped_and_healed(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        key = store.put_payload(payload_a)
        segment = next((tmp_path / "segments").glob("segment-*.col"))
        with segment.open("ab") as handle:
            handle.write(b"\x00\x01torn-partial-block")
        del store

        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]
        assert canon(reopened.get_payload(key)) == canon(payload_a)
        # Appending after a torn tail rolls over; nothing is overwritten.
        key_b = reopened.put_payload(payload_b)
        assert sorted(reopened.keys()) == sorted([key, key_b])
        assert canon(reopened.get_payload(key)) == canon(payload_a)
        assert canon(reopened.get_payload(key_b)) == canon(payload_b)

    def test_bulk_ingest_deferred_flush_heals(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        store.put_payload(payload_b)
        # Nothing follows the puts: a fresh open finds both records in
        # the appended blocks alone.
        del store
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 2
