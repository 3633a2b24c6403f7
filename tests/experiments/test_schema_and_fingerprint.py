"""Result-schema error reporting + spec fingerprinting.

Before the :mod:`repro.service` store ingests third-party result files,
``CampaignResult.load`` must fail descriptively — naming the found vs.
supported schema version — on both unknown and missing ``schema`` fields.
Spec fingerprints are the store's primary key, so their stability and
sensitivity are locked here too.
"""

from __future__ import annotations

import json

import pytest

from repro.core.design_space import SweepSpec
from repro.dse import Campaign, CampaignResult
from repro.experiments import ExperimentSpec
from repro.experiments.persistence import RESULT_SCHEMA, result_to_dict


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    result = Campaign(
        networks=("alexnet",),
        sweeps=(
            SweepSpec(
                m_values=(2, 3), multiplier_budgets=(256,), frequencies_mhz=(200.0,)
            ),
        ),
    ).run()
    path = tmp_path_factory.mktemp("results") / "result.json"
    result.save(path)
    return path


class TestLoadSchemaErrors:
    def test_unknown_schema_names_found_and_supported(self, saved, tmp_path):
        data = json.loads(saved.read_text())
        data["schema"] = "repro.campaign-result/999"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as excinfo:
            CampaignResult.load(path)
        message = str(excinfo.value)
        assert "repro.campaign-result/999" in message  # what was found
        assert RESULT_SCHEMA in message  # what is supported

    def test_missing_schema_names_supported(self, saved, tmp_path):
        data = json.loads(saved.read_text())
        del data["schema"]
        path = tmp_path / "unversioned.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as excinfo:
            CampaignResult.load(path)
        message = str(excinfo.value)
        assert "no 'schema' field" in message
        assert RESULT_SCHEMA in message

    def test_valid_schema_still_loads(self, saved):
        result = CampaignResult.load(saved)
        assert result.points
        assert result_to_dict(result)["schema"] == RESULT_SCHEMA


class TestSpecFingerprint:
    SPEC = ExperimentSpec(networks=("vgg16-d",), name="fp")

    def test_stable_across_round_trip(self):
        clone = ExperimentSpec.from_dict(self.SPEC.to_dict())
        assert clone.fingerprint() == self.SPEC.fingerprint()

    def test_stable_across_equivalent_construction(self):
        # Concrete objects and registry names fingerprint identically.
        from repro.nn import vgg16_d

        by_object = ExperimentSpec(networks=(vgg16_d(),), name="fp")
        assert by_object.fingerprint() == self.SPEC.fingerprint()

    def test_sensitive_to_semantic_changes(self):
        fingerprints = {
            self.SPEC.fingerprint(),
            ExperimentSpec(networks=("alexnet",), name="fp").fingerprint(),
            ExperimentSpec(networks=("vgg16-d",), name="other").fingerprint(),
            ExperimentSpec(
                networks=("vgg16-d",),
                name="fp",
                sweeps=(SweepSpec(m_values=(2,)),),
            ).fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_insensitive_to_execution_tuning(self):
        # The cache only memoises, so specs differing solely in how
        # evaluation executes describe the same search — one fingerprint.
        uncached = ExperimentSpec(networks=("vgg16-d",), name="fp", cache=False)
        assert uncached.fingerprint() == self.SPEC.fingerprint()

    def test_shape(self):
        fingerprint = self.SPEC.fingerprint()
        assert isinstance(fingerprint, str)
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")


class TestLegacyExecutorKey:
    """Specs written while execution modes existed carry an ``executor`` key.

    Spec files, stored results and payloads from workers running older
    code must load and hash exactly as the same spec without the key.
    """

    SPEC = ExperimentSpec(
        networks=("alexnet",),
        sweeps=(
            SweepSpec(m_values=(2, 3), multiplier_budgets=(256,), frequencies_mhz=(200.0,)),
        ),
        name="legacy-executor",
    )
    #: ``SPEC.fingerprint()`` as computed by the last version that wrote
    #: ``"executor"`` into every serialized spec.
    FINGERPRINT = "a2fb8d52a8431a0189327f5f5146956a61ecc0ae086b3c1d42247432677504e4"
    LEGACY_EXECUTORS = (
        None,
        {
            "mode": "process",
            "max_workers": 2,
            "chunk_size": None,
            "min_grid_for_processes": 64,
            "min_grid_for_vectorized": 32,
        },
    )

    @staticmethod
    def validation_outcome(shard, payload):
        from repro.service.jobs import JobManager

        try:
            JobManager._validate_shard_payload(shard, payload)
        except ValueError as error:
            return str(error)
        return None

    @pytest.mark.parametrize("executor", LEGACY_EXECUTORS, ids=("null", "mapping"))
    def test_legacy_executor_key_loads_and_hashes_unchanged(self, executor):
        from repro.experiments import run_experiment
        from repro.service.jobs import ShardRun, execute_shard, plan_shards
        from repro.service.store import result_key

        current = self.SPEC.to_dict()
        assert "executor" not in current
        legacy = dict(current, executor=executor)

        loaded = ExperimentSpec.from_dict(legacy)
        assert loaded == self.SPEC
        assert loaded.fingerprint() == self.SPEC.fingerprint() == self.FINGERPRINT

        payload = result_to_dict(run_experiment(self.SPEC))
        assert result_key(dict(payload, spec=legacy)) == result_key(payload)

        # A completion payload from a worker whose spec still carries the key.
        [own] = plan_shards(self.SPEC)
        other = plan_shards(ExperimentSpec(networks=("vgg16-d",), name="other"))[0]
        shard_payload = execute_shard(own.spec.to_dict())
        legacy_shard_payload = dict(
            shard_payload, spec=dict(shard_payload["spec"], executor=executor)
        )
        for plan in (own, other):
            assert self.validation_outcome(ShardRun(plan=plan), legacy_shard_payload) == (
                self.validation_outcome(ShardRun(plan=plan), shard_payload)
            )
        assert self.validation_outcome(ShardRun(plan=own), legacy_shard_payload) is None
        assert "fingerprints to" in self.validation_outcome(
            ShardRun(plan=other), legacy_shard_payload
        )
