"""ResultStore: content addressing, querying, index self-healing, compaction."""

from __future__ import annotations

import pickle

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.service import ResultStore
from repro.service.columnar import COLUMNAR_SCHEMA, iter_blocks


def stored_blocks(root):
    """``(segment name, block header)`` for every complete block on disk."""
    return [
        (path.name, header)
        for path in sorted((root / "segments").glob("segment-*.col"))
        for _offset, header in iter_blocks(path)
    ]


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

    def test_missing_index_rebuilds(self, tmp_path, result):
        key = ResultStore(tmp_path).put(result)
        (tmp_path / "index.json").unlink()
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]
        assert (tmp_path / "index.json").exists()

    def test_corrupt_index_rebuilds(self, tmp_path, result):
        key = ResultStore(tmp_path).put(result)
        (tmp_path / "index.json").write_text("{not json")
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]

    def test_crash_orphaned_envelope_recovered(self, tmp_path, result, other_result):
        """A put whose index write was lost (crash) must be recovered.

        The envelope hit the segment but index.json predates it; the
        count-validation on open must detect the divergence, rebuild and
        surface the orphan — and compact() must keep it.
        """
        store = ResultStore(tmp_path)
        first = store.put(result)
        index_before = (tmp_path / "index.json").read_bytes()
        second = store.put(other_result)
        # Simulate the crash: the second put's index write never landed.
        (tmp_path / "index.json").write_bytes(index_before)
        reopened = ResultStore(tmp_path)
        assert sorted(reopened.keys()) == sorted([first, second])
        assert reopened.get(second).points
        stats = reopened.compact()
        assert stats["kept"] == 2
        assert sorted(reopened.keys()) == sorted([first, second])

    def test_torn_segment_tail_skipped(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        first = store.put(result)
        # Simulate a crash mid-append: the first bytes of a block at the tail.
        segment = next((tmp_path / "segments").glob("*.col"))
        block = segment.read_bytes()
        with segment.open("ab") as handle:
            handle.write(block[: len(block) // 2])
        (tmp_path / "index.json").unlink()
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
