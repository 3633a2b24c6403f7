"""ResultStore: content addressing, querying, the index rebuilt on open, compaction."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import result_to_dict
from repro.service import ResultStore
from repro.service.columnar import COLUMNAR_SCHEMA, ColumnarBlock, iter_blocks, read_block_bytes
from test_store_import import snapshot


def stored_blocks(root):
    """``(segment name, block header)`` for every complete block on disk."""
    return [
        (path.name, header)
        for path in sorted((root / "segments").glob("segment-*.col"))
        for _offset, header in iter_blocks(path)
    ]


def renamed(payload, name):
    """``payload`` under another spec name: a distinct result and key."""
    return {**payload, "spec": {**payload["spec"], "name": name}}


def tiny_spec(name: str = "tiny", networks=("vgg16-d",), devices=("xc7vx485t",)) -> ExperimentSpec:
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


@pytest.fixture(scope="module")
def result():
    return run_experiment(tiny_spec())


@pytest.fixture(scope="module")
def other_result():
    return run_experiment(tiny_spec(name="other", networks=("alexnet",), devices=("xc7vx690t",)))


class TestPutGet:
    def test_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = store.put(result)
        loaded = store.get(key)
        # A store read equals a CampaignResult.save()/load() round trip
        # bit-for-bit (same persistence schema underneath).
        result.save(tmp_path / "ref.json")
        reference = type(result).load(tmp_path / "ref.json")
        assert [pickle.dumps(point) for point in loaded.points] == [
            pickle.dumps(point) for point in reference.points
        ]
        assert loaded.spec == result.spec
        assert loaded.evaluations == result.evaluations

    def test_content_addressing_dedups(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = store.put(result)
        assert store.put(result) == key
        assert len(store) == 1
        assert len(stored_blocks(tmp_path)) == 1

    def test_rerun_of_same_spec_dedups(self, tmp_path, result):
        # A fresh evaluation of the same spec differs only in run
        # provenance (timings, cache stats), which the content key
        # excludes — so the second put is a no-op.
        store = ResultStore(tmp_path)
        key = store.put(result)
        rerun = run_experiment(result.spec)
        assert rerun.elapsed_seconds != result.elapsed_seconds
        assert store.put(rerun) == key
        assert len(store) == 1

    def test_rerun_under_other_executor_dedups(self, tmp_path, result):
        # A spec file written by an older version may still name an
        # executor mode; the key is ignored on load and excluded from the
        # content key and the fingerprint, so its rerun dedups too.
        store = ResultStore(tmp_path)
        key = store.put(result)
        legacy = dict(result.spec.to_dict(), executor={"mode": "process", "max_workers": 2})
        legacy_spec = ExperimentSpec.from_dict(legacy)
        rerun = run_experiment(legacy_spec)
        assert legacy_spec.fingerprint() == result.spec.fingerprint()
        assert store.put(rerun) == key
        assert len(store) == 1

    def test_distinct_results_distinct_keys(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        first = store.put(result)
        second = store.put(other_result)
        assert first != second
        assert len(store) == 2
        assert store.keys() == [first, second]

    @pytest.mark.parametrize("stored", [1, 200])
    def test_put_appends_only_its_own_block(self, tmp_path, result, stored):
        """A put costs one block append, whatever the store's size.

        Every file but the active segment keeps its bytes and mtime; the
        active segment's old bytes are a prefix of its new ones, and the
        new tail is exactly the new block.
        """
        store = ResultStore(tmp_path)
        payload = result_to_dict(result)
        for index in range(stored):
            store.put_payload(renamed(payload, f"fill-{index}"))
        before = snapshot(tmp_path)
        key = store.put_payload(renamed(payload, "last"))
        after = snapshot(tmp_path)

        record = store.record(key)
        active = f"segments/{record.segment}"
        assert active in before  # an append, not a rollover
        assert {name: data for name, data in after.items() if name != active} == {
            name: data for name, data in before.items() if name != active
        }
        old, new = before[active][0], after[active][0]
        assert new[: len(old)] == old
        assert record.offset == len(old)
        assert new[len(old) :] == read_block_bytes(tmp_path / active, record.offset)

    def test_put_refuses_a_field_get_cannot_load(self, tmp_path, result):
        """Regression: a top-level field the loader does not read is refused.

        The store used to append such a payload, after which ``get`` of its
        key raised ``unknown campaign-result fields ['note']``.
        """
        store = ResultStore(tmp_path)
        store.put(result)
        before = snapshot(tmp_path)
        payload = {**renamed(result_to_dict(result), "noted"), "note": "from a newer worker"}
        with pytest.raises(ValueError, match=r"unknown campaign-result fields \['note'\]"):
            store.put_payload(payload)
        assert snapshot(tmp_path) == before
        assert len(store) == 1
        # Without the field the same result stores and loads back.
        del payload["note"]
        assert store.get(store.put_payload(payload)).spec.name == "noted"

    def test_put_appended_reports_whether_it_appended(self, tmp_path, result):
        store = ResultStore(tmp_path)
        payload = result_to_dict(result)
        key, appended = store._put_appended(payload)
        assert appended and key == store.put_payload(payload)
        assert store._put_appended(result_to_dict(run_experiment(result.spec))) == (key, False)
        assert len(stored_blocks(tmp_path)) == 1

    def test_get_unknown_key_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyError):
            store.get("no-such-key")

    def test_block_schema_tag(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(result)
        [(segment, header)] = stored_blocks(tmp_path)
        assert segment == "segment-000001.col"
        assert header["schema"] == COLUMNAR_SCHEMA
        assert header["meta"]["fingerprint"] == result.spec.fingerprint()


class TestQuery:
    def test_filters(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        first = store.put(result)
        second = store.put(other_result)
        assert [r.key for r in store.query(network="vgg16-d")] == [first]
        assert [r.key for r in store.query(device="xc7vx690t")] == [second]
        assert [r.key for r in store.query(name="other")] == [second]
        assert [r.key for r in store.query(fingerprint=result.spec.fingerprint())] == [first]
        assert store.query(network="resnet18") == []
        assert len(store.query()) == 2

    def test_latest_prefers_newest(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        store.put(result)
        store.put(other_result)
        assert store.latest().spec.name == "other"
        assert store.latest(network="vgg16-d").spec.name == "tiny"
        assert store.latest(network="resnet18") is None


class TestIndexSelfHealing:
    def test_reopen_uses_index(self, tmp_path, result):
        key = ResultStore(tmp_path).put(result)
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]
        assert reopened.get(key).evaluations == result.evaluations

    @pytest.mark.parametrize("leftover", ["missing", "corrupt", "stale"])
    def test_leftover_index_file_ignored_and_compacted_away(
        self, tmp_path, result, other_result, leftover
    ):
        """Older versions kept an ``index.json`` beside the segments.

        Whatever it holds, opening reads the blocks instead, and
        ``compact()`` deletes it (and its ``.tmp`` sibling).
        """
        store = ResultStore(tmp_path)
        first = store.put(result)
        second = store.put(other_result)
        index = tmp_path / "index.json"
        if leftover == "corrupt":
            index.write_text("{not json")
        elif leftover == "stale":
            # What an older version wrote after the first put only.
            record = store.record(first).to_dict()
            index.write_text(
                json.dumps(
                    {
                        "schema": "repro.result-store-index/1",
                        "next_sequence": 2,
                        "records": {first: record},
                    }
                )
            )
        (tmp_path / "index.json.tmp").write_text("{torn")
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [first, second]
        assert reopened.get(second).points
        reopened.compact()
        assert not index.exists()
        assert not (tmp_path / "index.json.tmp").exists()
        assert ResultStore(tmp_path).keys() == [first, second]

    def test_block_on_disk_is_served_and_kept(self, tmp_path, result, other_result):
        """Every block on disk is a stored result: a put needs no other write.

        A fresh open serves both blocks, and ``compact()`` keeps both.
        """
        store = ResultStore(tmp_path)
        first = store.put(result)
        second = store.put(other_result)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["segments"]
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [first, second]
        assert reopened.get(second).points
        stats = reopened.compact()
        assert stats == {"kept": 2, "dropped": 0}
        assert ResultStore(tmp_path).keys() == [first, second]

    def test_torn_segment_tail_skipped(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        first = store.put(result)
        # Simulate a crash mid-append: the first bytes of a block at the tail.
        segment = next((tmp_path / "segments").glob("*.col"))
        block = segment.read_bytes()
        with segment.open("ab") as handle:
            handle.write(block[: len(block) // 2])
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [first]
        assert reopened.put(other_result) != first
        assert len(reopened) == 2

    def test_append_after_torn_tail_is_not_lost(self, tmp_path, result, other_result):
        """A put onto a segment with a torn tail must not land behind it —
        a block appended after the torn bytes is invisible to the next
        segment walk, so a later rebuild would permanently drop it."""
        store = ResultStore(tmp_path)
        first = store.put(result)
        segment = next((tmp_path / "segments").glob("*.col"))
        with segment.open("ab") as handle:
            handle.write(b"RCB1 torn")
        reopened = ResultStore(tmp_path)
        second = reopened.put(other_result)
        assert reopened.get(second).points
        # The new block survives a full rescan.
        rebuilt = ResultStore(tmp_path)
        rebuilt.rebuild_index()
        assert sorted(rebuilt.keys()) == sorted([first, second])
        assert rebuilt.get(second).points

    def test_put_after_corrupt_block_survives_reopen(self, tmp_path, result, other_result):
        """A block that fails its CRC ends its segment's readable part.

        The corrupt result is not served, and a put made after the reopen
        lands where the next open reads it, not behind the bad block.
        """
        store = ResultStore(tmp_path)
        corrupt = store.put(result)
        store.put(other_result)
        segment = tmp_path / "segments" / "segment-000001.col"
        block = ColumnarBlock.read_at(segment, store.record(corrupt).offset)
        data = bytearray(segment.read_bytes())
        data[block.body_start + block.body_len - 1] ^= 0xFF  # inside the string pool
        segment.write_bytes(bytes(data))

        reopened = ResultStore(tmp_path)
        with pytest.raises(KeyError):
            reopened.get_payload(corrupt)
        third = reopened.put_payload(renamed(result_to_dict(result), "third"))
        assert reopened.record(third).segment != segment.name

        again = ResultStore(tmp_path)
        assert third in again.keys()
        assert again.get(third).points
        with pytest.raises(KeyError):
            again.get_payload(corrupt)


class TestCompaction:
    def test_compact_drops_dead_weight(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path, segment_max_records=1)
        first = store.put(result)
        second = store.put(other_result)
        # Duplicate the first block manually (a superseded copy) plus junk.
        segment = tmp_path / "segments" / "segment-000001.col"
        content = segment.read_bytes()
        with segment.open("ab") as handle:
            handle.write(b"not a block at all\n")
        (tmp_path / "segments" / "segment-000099.col").write_bytes(content)
        store.rebuild_index()
        stats = store.compact()
        assert stats == {"kept": 2, "dropped": 2}
        assert sorted(store.keys()) == sorted([first, second])
        # Segments are renumbered from 1 and contain only live blocks.
        assert [(name, header["meta"]["key"]) for name, header in stored_blocks(tmp_path)] == [
            ("segment-000001.col", first),
            ("segment-000002.col", second),
        ]
        assert store.get(first).evaluations == result.evaluations
        assert ResultStore(tmp_path).keys() == store.keys()

    def test_segment_rollover(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path, segment_max_records=1)
        store.put(result)
        store.put(other_result)
        assert len(list((tmp_path / "segments").glob("segment-*"))) == 2
