"""Opening a legacy JSONL store imports it into columnar segments.

``data/jsonl_store`` was written by ``ResultStore(root,
segment_max_records=2, format="jsonl")`` at commit
dcc6d35b192257ffa0173669cfa5df5c072b1d28, the last commit whose store
still wrote JSONL segments.  It holds three single-network results in two
segments:

* ``legacy-float`` and ``legacy-quantized`` (``bit_widths=(None, 8)``);
* ``legacy-pre-accuracy``, whose points lack ``bit_width`` /
  ``max_rel_error`` / ``mean_rel_error`` as results written before those
  columns existed do, so it imports in the pre-accuracy column layout;
* a torn, newline-less envelope appended to the last segment.

``data/segment-000003.col`` is what the same commit's store appended to a
copy of that fixture when reopened with ``format="columnar"``: one more
result (``columnar-tail``, sequence 4) in a columnar segment.

``data/opaque-import.col`` is the segment the store at commit
3abd18f4e25970f6124a2e6b9627ba25f50e52c5 wrote when it opened a copy of
``data/jsonl_store``.  That encoder refused the pre-accuracy layout, so
``legacy-pre-accuracy`` sits in it as an opaque (JSON body) block.

Every test opens a copy: opening the fixture itself would import it.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest
from query_oracle import ReferenceEngine, outcome

from repro.experiments import ExperimentSpec
from repro.service import QuerySpec, ResultStore, StoreRecord
from repro.service.columnar import (
    ColumnarBlock,
    encode_block,
    encode_opaque_block,
    iter_blocks,
    read_block_bytes,
    segment_extent,
)
from repro.service.query import ColumnarEngine, best_row, pareto_rows, query_rows

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "jsonl_store"
COLUMNAR_TAIL = DATA / "segment-000003.col"
OPAQUE_IMPORT = DATA / "opaque-import.col"

PRE_ACCURACY = "legacy-pre-accuracy"


def canon(value):
    """Byte-level comparison form (dict key order significant)."""
    return json.dumps(value)


def legacy_payloads():
    """Content key -> payload, parsed straight from the fixture's JSONL lines."""
    payloads = {}
    for path in sorted((FIXTURE / "segments").glob("segment-*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                envelope = json.loads(line)
            except json.JSONDecodeError:
                continue  # the torn tail
            payloads[envelope["meta"]["key"]] = envelope["result"]
    return payloads


def legacy_records():
    """The fixture's ``index.json`` records, by key."""
    data = json.loads((FIXTURE / "index.json").read_text())
    return {key: StoreRecord.from_dict(entry) for key, entry in data["records"].items()}


def snapshot(root: Path):
    """Relative path -> (bytes, mtime_ns) of every file under ``root``."""
    return {
        str(path.relative_to(root)): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture()
def copied(tmp_path):
    """A fresh copy of the legacy store, not yet opened."""
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    return root


def test_fixture_is_legacy_jsonl():
    names = sorted(path.name for path in (FIXTURE / "segments").iterdir())
    assert names == ["segment-000001.jsonl", "segment-000002.jsonl"]
    assert not (FIXTURE / "segments" / "segment-000002.jsonl").read_bytes().endswith(b"\n")
    assert len(legacy_payloads()) == len(legacy_records()) == 3


def test_payloads_byte_identical(copied):
    store = ResultStore(copied)
    expected = legacy_payloads()
    assert sorted(store.keys()) == sorted(expected)
    for key, payload in expected.items():
        assert canon(store.get_payload(key)) == canon(payload)


def test_index_meta_kept(copied):
    store = ResultStore(copied)
    for key, legacy in legacy_records().items():
        record = store.record(key)
        assert record.segment.endswith(".col")
        assert {**record.to_dict(), "segment": None, "offset": None} == {
            **legacy.to_dict(),
            "segment": None,
            "offset": None,
        }
    oldest_first = sorted(legacy_records().values(), key=lambda record: record.sequence)
    assert store.keys() == [record.key for record in oldest_first]


def test_only_columnar_segments_remain(copied):
    ResultStore(copied)
    segments = copied / "segments"
    assert sorted(path.name for path in segments.iterdir()) == [".trash", "segment-000001.col"]
    assert list((segments / ".trash").iterdir()) == []
    # The torn envelope is gone: every byte belongs to a complete block.
    path = segments / "segment-000001.col"
    assert segment_extent(path) == (3, path.stat().st_size)
    assert sorted(header["meta"]["key"] for _offset, header in iter_blocks(path)) == sorted(
        legacy_payloads()
    )


def test_pre_accuracy_result_imports_columnar_and_answers_like_oracle(copied):
    store = ResultStore(copied)
    payloads = legacy_payloads()
    for key in payloads:
        assert not store._block(key).opaque, key
        assert isinstance(store._engine_for(key), ColumnarEngine), key

    key = store.query(name=PRE_ACCURACY)[0].key
    payload = payloads[key]
    oracle = ReferenceEngine(payload)
    spec = QuerySpec(name=PRE_ACCURACY, metric="throughput_gops", limit=3)
    page = store.query_page(spec)
    rows, total, next_start = query_rows(oracle, spec, 0, 3)
    assert (page.key, canon(page.rows), page.total) == (key, canon(rows), total)
    assert (page.next_cursor is None) == (next_start is None)

    objectives = ExperimentSpec.from_dict(payload["spec"]).to_campaign().objectives
    front = store.pareto(QuerySpec(name=PRE_ACCURACY))
    _echo, fronts, _total, _next = pareto_rows(oracle, QuerySpec(), objectives)
    assert canon(front.fronts) == canon(fronts)

    best = store.best(QuerySpec(name=PRE_ACCURACY, metric="power_efficiency"))
    row, value = best_row(oracle, QuerySpec(metric="power_efficiency"))
    assert (canon(best.row), best.value) == (canon(row), value)

    # The accuracy columns it predates are rejected, as on the oracle.
    with pytest.raises(ValueError, match="'bit_width' is not stored in this result"):
        store.query_page(QuerySpec(name=PRE_ACCURACY, where=[["bit_width", "==", 8]]))


#: Reads every stored result must answer as the oracle does, errors
#: included (the pre-accuracy result stores no accuracy column).
READS = (
    QuerySpec(),
    QuerySpec(metric="throughput_gops", limit=3),
    QuerySpec(
        metric="power_efficiency", maximize=False, top_k=2, select=["name", "power_efficiency"]
    ),
    QuerySpec(where=[["m", ">=", 3]], metric="total_latency_ms"),
    QuerySpec(where=[["bit_width", "==", 8]]),
    QuerySpec(metric="max_rel_error"),
    QuerySpec(select=["name", "bit_width", "multiplication_saving_factor"]),
)
OBJECTIVES = (
    None,
    [["throughput_gops", True], ["resources.luts", False]],
    [["throughput_gops", True], ["max_rel_error", False]],
)
BEST_METRICS = (
    "throughput_gops",
    "power_efficiency",
    "total_latency_ms",
    "bit_width",
    "mean_rel_error",
)


def assert_reads_match_oracle(store, key, payload):
    """Every query, Pareto and best read of ``key`` answers as the oracle does."""
    oracle = ReferenceEngine(payload)
    for spec in READS:
        spec = QuerySpec(**{**spec.to_dict(), "key": key})

        def oracle_page():
            rows, total, next_start = query_rows(oracle, spec, 0, spec.limit)
            return [key, rows, total, next_start is None]

        def page():
            answer = store.query_page(spec)
            return [answer.key, answer.rows, answer.total, answer.next_cursor is None]

        assert outcome(page) == outcome(oracle_page), (key, spec)
    defaults = ExperimentSpec.from_dict(payload["spec"]).to_campaign().objectives
    for objectives in OBJECTIVES:
        spec = QuerySpec(key=key, objectives=objectives)

        def oracle_front():
            return pareto_rows(oracle, spec, defaults)[:3]

        def front():
            answer = store.pareto(spec)
            return [answer.objectives, answer.fronts, answer.total]

        assert outcome(front) == outcome(oracle_front), (key, objectives)
    for metric in BEST_METRICS:
        spec = QuerySpec(key=key, metric=metric)

        def best():
            answer = store.best(spec)
            return [answer.row, answer.value]

        assert outcome(best) == outcome(lambda: best_row(oracle, spec)), (key, metric)


def open_parent_opaque_import(tmp_path):
    """A store over a copy of ``data/opaque-import.col``."""
    root = tmp_path / "store"
    (root / "segments").mkdir(parents=True)
    shutil.copy(OPAQUE_IMPORT, root / "segments" / "segment-000001.col")
    return ResultStore(root)


def test_parent_opaque_block_answers_every_read_like_oracle(tmp_path):
    store = open_parent_opaque_import(tmp_path)
    payloads = legacy_payloads()
    assert sorted(store.keys()) == sorted(payloads)
    pre_accuracy = store.query(name=PRE_ACCURACY)[0].key
    assert [key for key in payloads if store._block(key).opaque] == [pre_accuracy]

    for key, payload in payloads.items():
        assert canon(store.get_payload(key)) == canon(payload)
        assert_reads_match_oracle(store, key, payload)

    with pytest.raises(ValueError, match="'bit_width' is not stored in this result"):
        store.query_page(QuerySpec(name=PRE_ACCURACY, where=[["bit_width", "==", 8]]))


def test_compact_re_encodes_an_opaque_block_that_now_fits(tmp_path):
    """Regression: compaction used to copy a legacy opaque block verbatim.

    Its payload now fits the pre-accuracy column layout, so ``compact()``
    encodes it into columns, keeping its key, sequence and payload bytes.
    """
    store = open_parent_opaque_import(tmp_path)
    key = store.query(name=PRE_ACCURACY)[0].key
    assert store._block(key).opaque
    records = {name: store.record(name) for name in store.keys()}
    payloads = {name: canon(store.get_payload(name)) for name in store.keys()}

    assert store.compact() == {"kept": 3, "dropped": 0}
    for reopened in (store, ResultStore(store.root)):
        assert not any(reopened._block(name).opaque for name in reopened.keys())
        assert {name: reopened.record(name).sequence for name in reopened.keys()} == {
            name: record.sequence for name, record in records.items()
        }
        assert {name: canon(reopened.get_payload(name)) for name in reopened.keys()} == payloads
    for name, payload in legacy_payloads().items():
        assert_reads_match_oracle(store, name, payload)
    with pytest.raises(ValueError, match="'bit_width' is not stored in this result"):
        store.query_page(QuerySpec(name=PRE_ACCURACY, where=[["bit_width", "==", 8]]))


def test_compact_keeps_an_opaque_block_the_encoder_refuses(tmp_path):
    """An opaque block whose payload fits no column layout is copied verbatim."""
    store = open_parent_opaque_import(tmp_path)
    key = store.query(name=PRE_ACCURACY)[0].key
    path = store.root / "segments" / store.record(key).segment
    refused = store.get_payload(key)
    refused["points"][0]["annotation"] = "from a newer worker"
    with pytest.raises(ValueError, match="fits no stored point layout"):
        encode_block({}, refused)
    # The same segment with that payload in the opaque block's place.
    meta = store._block(key).meta
    blob = encode_opaque_block(meta, refused)
    path.write_bytes(
        b"".join(
            blob if name == key else read_block_bytes(path, store.record(name).offset)
            for name in store.keys()
        )
    )

    store = ResultStore(store.root)
    assert store.compact() == {"kept": 3, "dropped": 0}
    assert read_block_bytes(path, store.record(key).offset) == blob
    assert canon(store.get_payload(key)) == canon(refused)


def test_second_open_changes_nothing(copied):
    first = ResultStore(copied)
    before = snapshot(copied)
    second = ResultStore(copied)
    assert snapshot(copied) == before
    assert second.keys() == first.keys()


def test_mixed_segments_import_into_one_numbering(copied):
    shutil.copy(COLUMNAR_TAIL, copied / "segments" / COLUMNAR_TAIL.name)
    (tail_offset, tail_header), = iter_blocks(COLUMNAR_TAIL)
    tail_key = tail_header["meta"]["key"]
    tail_payload = ColumnarBlock.read_at(COLUMNAR_TAIL, tail_offset).payload()

    store = ResultStore(copied, segment_max_records=2)
    segments = sorted(path.name for path in (copied / "segments").glob("segment-*"))
    assert segments == ["segment-000001.col", "segment-000002.col"]
    # One numbering, oldest sequence first, the columnar block included.
    legacy = sorted(legacy_records().values(), key=lambda record: record.sequence)
    assert store.keys() == [record.key for record in legacy] + [tail_key]
    assert [store.record(key).segment for key in store.keys()] == [
        "segment-000001.col",
        "segment-000001.col",
        "segment-000002.col",
        "segment-000002.col",
    ]
    assert store.record(tail_key).sequence == 4
    expected = {**legacy_payloads(), tail_key: tail_payload}
    for key, payload in expected.items():
        assert canon(store.get_payload(key)) == canon(payload)
    # New results continue the numbering after the imported ones.
    key = store.put_payload({**tail_payload, "evaluations": tail_payload["evaluations"] + 1})
    assert (store.record(key).sequence, store.record(key).segment) == (5, "segment-000003.col")
