"""Sharded campaign job scheduler: planning, identity, lifecycle edges.

The acceptance-critical test is
``test_job_results_bit_identical_to_single_thread``: the assembled result
of a sharded job — thread or process pool — must be byte-for-byte the
single-thread ``run_experiment`` result (after both sides pass through the
persistence round trip, which drops only the non-persisted ``engine``
provenance).  The lifecycle suite covers the edges the ISSUE names: cancel
mid-campaign leaves the store consistent, resubmit-after-crash skips
completed shards, a saturated pool queues instead of rejecting, and
unknown job ids 404 cleanly over HTTP.
"""

from __future__ import annotations

import asyncio
import pickle
import threading

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import point_from_dict, point_to_dict
from repro.service import (
    JobManager,
    ResultServer,
    ResultStore,
    ServiceClient,
    ServiceError,
    plan_shards,
)

SPEC = ExperimentSpec(
    networks=("vgg16-d", "alexnet"),
    devices=("xc7vx485t",),
    sweeps=(
        SweepSpec(
            m_values=(2, 3, 4),
            multiplier_budgets=(256, 512),
            frequencies_mhz=(150.0, 200.0),
        ),
    ),
    name="jobs-test",
)

#: Enough shards that a cancel lands mid-campaign, not after the fact.
WIDE_SPEC = ExperimentSpec(
    networks=("vgg16-d", "alexnet"),
    devices=("xc7vx485t",),
    sweeps=(
        SweepSpec(
            m_values=(2, 3, 4),
            multiplier_budgets=(256, 512, None),
            frequencies_mhz=(150.0, 200.0, 250.0),
        ),
    ),
    name="jobs-wide",
)


def normalize(point):
    """A point as the wire sees it: persistence round trip (engine=None)."""
    return pickle.dumps(point_from_dict(point_to_dict(point)))


def run_async(coro):
    """Run a coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


# --------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------- #
class TestPlanning:
    def test_shards_cover_grid_in_serial_order(self):
        """Concatenated shard entries reproduce the spec's canonical grid."""
        shards = plan_shards(SPEC, max_entries_per_shard=5)
        expected = [
            (network, device, entry)
            for network in SPEC.networks
            for device in SPEC.devices
            for sweep in SPEC.sweeps
            for entry in sweep.configurations()
        ]
        actual = []
        for shard in shards:
            assert len(shard.networks) == 1 and len(shard.devices) == 1
            for sweep in shard.spec.sweeps:
                for entry in sweep.configurations():
                    actual.append((shard.networks[0], shard.devices[0], entry))
        assert actual == expected
        assert [shard.index for shard in shards] == list(range(len(shards)))
        assert all(shard.entries <= 5 for shard in shards)

    def test_plan_is_deterministic(self):
        """Same spec + shard size => same shard fingerprints, always."""
        first = plan_shards(SPEC, max_entries_per_shard=5)
        second = plan_shards(SPEC, max_entries_per_shard=5)
        assert [s.fingerprint for s in first] == [s.fingerprint for s in second]
        assert [s.spec for s in first] == [s.spec for s in second]

    def test_shard_size_changes_fingerprints_not_final_result(self):
        coarse = plan_shards(SPEC, max_entries_per_shard=100)
        fine = plan_shards(SPEC, max_entries_per_shard=3)
        assert len(coarse) < len(fine)
        assert {s.fingerprint for s in coarse}.isdisjoint(
            {s.fingerprint for s in fine}
        )

    def test_non_grid_strategy_is_one_whole_spec_shard(self):
        spec = SPEC.with_strategy("random", samples=8, seed=7)
        shards = plan_shards(spec, max_entries_per_shard=2)
        assert len(shards) == 1
        assert shards[0].spec == spec
        assert shards[0].fingerprint == spec.fingerprint()

    def test_shard_specs_are_valid_json_artifacts(self):
        """Every shard spec round-trips like any hand-written spec file."""
        for shard in plan_shards(SPEC, max_entries_per_shard=7):
            assert ExperimentSpec.from_dict(shard.spec.to_dict()) == shard.spec


# --------------------------------------------------------------------- #
# Bit identity and resumption
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference():
    """The campaign run single-thread, in-process (the ground truth)."""
    return run_experiment(SPEC)


@pytest.mark.parametrize("workers", [1, 2], ids=["thread", "processes"])
def test_job_results_bit_identical_to_single_thread(tmp_path, reference, workers):
    """Sharded results must be pickled-bytes identical to the serial path."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=workers, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await job.wait(timeout=120)
            assert job.state == "completed", job.error
            return store.get(job.key)
        finally:
            await manager.close()

    result = run_async(scenario())
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]
    assert result.evaluations == reference.evaluations == SPEC.grid_size
    assert result.spec == SPEC


def test_shards_stream_into_store_and_resubmit_skips(tmp_path, reference):
    """Completed shards persist individually; resubmission reuses them."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=1, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await job.wait(timeout=120)
            assert job.state == "completed"
            shard_keys = {s.key for s in job.shards}
            # Every shard is its own queryable stored result + the assembly.
            assert shard_keys <= set(store.keys())
            assert len(store) == len(job.shards) + 1

            again = await manager.submit(SPEC)
            await again.wait(timeout=120)
            counts = again.shard_counts()
            assert counts["skipped"] == counts["total"]
            assert counts["completed"] == 0
            assert again.key == job.key
            assert len(store) == len(job.shards) + 1  # nothing duplicated
        finally:
            await manager.close()

    run_async(scenario())


def test_index_written_once_per_job_that_stores_results(tmp_path, monkeypatch):
    """``index.json`` is rewritten once by a job that appends, never by one that does not.

    A two-shard grid job defers both shard puts and writes the index with
    its assembled put; a one-shard random job's assembled put dedups
    against its shard, so the job-end flush writes it.  A resubmission is
    answered from the store and appends nothing.
    """
    grid = ExperimentSpec(
        networks=("vgg16-d", "alexnet"),
        devices=("xc7vx485t",),
        sweeps=(
            SweepSpec(m_values=(2,), multiplier_budgets=(256,), frequencies_mhz=(200.0,)),
        ),
        name="jobs-index-writes",
    )
    random_spec = grid.with_strategy("random", samples=4, seed=7)
    store = ResultStore(tmp_path)
    writes = []
    write_index = store._write_index
    monkeypatch.setattr(store, "_write_index", lambda: (writes.append(1), write_index()))

    async def scenario():
        manager = JobManager(store, workers=1)
        try:
            counts = []
            for spec, shards in ((grid, 2), (grid, 2), (random_spec, 1), (random_spec, 1)):
                before = len(writes)
                job = await manager.submit(spec)
                await job.wait(timeout=120)
                assert job.state == "completed", job.error
                assert len(job.shards) == shards
                counts.append(len(writes) - before)
            return counts
        finally:
            await manager.close()

    assert run_async(scenario()) == [1, 0, 1, 0]
    # What the jobs stored is what a fresh open of the store sees.
    assert set(ResultStore(tmp_path).keys()) == set(store.keys())


def test_resubmit_after_crash_skips_completed_shards(tmp_path, reference):
    """A fresh manager over the same store resumes from stored shards.

    Simulates a crash-restart: shard results were stored, the assembled
    result was not.  The new manager must skip exactly the stored shards,
    evaluate the rest and assemble the identical final result.
    """
    store = ResultStore(tmp_path)
    shards = plan_shards(SPEC, max_entries_per_shard=5)
    # "Crash" after two shards: persist their results out-of-band.
    for plan in shards[:2]:
        store.put(run_experiment(plan.spec))

    async def scenario():
        manager = JobManager(store, workers=1, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await job.wait(timeout=120)
            assert job.state == "completed"
            counts = job.shard_counts()
            assert counts["skipped"] == 2
            assert counts["completed"] == len(shards) - 2
            return store.get(job.key)
        finally:
            await manager.close()

    result = run_async(scenario())
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]


def test_cancel_mid_campaign_leaves_store_consistent(tmp_path):
    """Cancelling mid-run stops pending shards; the store stays sound."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=1, max_entries_per_shard=1)
        try:
            job = await manager.submit(WIDE_SPEC)
            while job.shard_counts()["completed"] < 1 and not job.done:
                await asyncio.sleep(0.005)
            await manager.cancel(job.id)
            return job
        finally:
            await manager.close()

    job = run_async(scenario())
    if job.state == "completed":  # machine outran the cancel — nothing to check
        pytest.skip("job completed before cancellation landed")
    assert job.state == "cancelled"
    counts = job.shard_counts()
    assert counts["cancelled"] >= 1
    assert counts["pending"] == counts["running"] == 0
    assert job.finished is not None

    # The store holds only whole, loadable shard results — every shard the
    # job counted completed, plus at most writes that were already in
    # flight when the cancel landed (those are valid results too; a
    # resubmission reuses them).  A cold reopen rebuilds the same index.
    fresh = ResultStore(tmp_path)
    assert len(fresh) >= counts["completed"]
    assert fresh.rebuild_index() == len(fresh)
    for key in fresh.keys():
        reloaded = fresh.get(key)
        assert reloaded.points or reloaded.evaluations


def test_cancelled_job_resumes_from_its_completed_shards(tmp_path):
    """After a cancel, resubmission reuses every shard that finished."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=1, max_entries_per_shard=1)
        try:
            job = await manager.submit(WIDE_SPEC)
            while job.shard_counts()["completed"] < 2 and not job.done:
                await asyncio.sleep(0.005)
            await manager.cancel(job.id)
            completed = job.shard_counts()["completed"]

            resumed = await manager.submit(WIDE_SPEC)
            await resumed.wait(timeout=240)
            assert resumed.state == "completed"
            assert resumed.shard_counts()["skipped"] >= completed
            return store.get(resumed.key)
        finally:
            await manager.close()

    result = run_async(scenario())
    reference = run_experiment(WIDE_SPEC)
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]


def test_saturated_pool_queues_jobs_instead_of_rejecting(tmp_path):
    """More jobs than workers: all accepted immediately, all complete."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=1, max_entries_per_shard=5)
        try:
            specs = [
                ExperimentSpec(
                    networks=("vgg16-d",),
                    sweeps=SPEC.sweeps,
                    name=f"queued-{index}",
                )
                for index in range(3)
            ]
            jobs = []
            for spec in specs:
                job = await manager.submit(spec)  # returns without blocking
                assert job.state in ("queued", "running")
                jobs.append(job)
            await asyncio.gather(*(job.wait(timeout=240) for job in jobs))
            assert all(job.state == "completed" for job in jobs)
            assert len({job.key for job in jobs}) == 3  # distinct results
        finally:
            await manager.close()

    run_async(scenario())


def test_failed_shard_fails_the_job_with_the_scalar_error(tmp_path):
    """An infeasible entry under skip_infeasible=False fails cleanly."""
    spec = ExperimentSpec(
        networks=("vgg16-d",),
        sweeps=(SweepSpec(m_values=(6,), multiplier_budgets=(1,)),),
        skip_infeasible=False,
        name="jobs-failing",
    )

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=1)
        try:
            job = await manager.submit(spec)
            await job.wait(timeout=60)
            return job
        finally:
            await manager.close()

    job = run_async(scenario())
    assert job.state == "failed"
    assert "multiplier budget 1" in job.error
    assert job.key is None


# --------------------------------------------------------------------- #
# HTTP job API
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live server (workers=1, small shards) + client, over a socket."""
    store = ResultStore(tmp_path_factory.mktemp("job-store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(
        store, port=0, workers=1, shard_entries=5, quiet=True
    )
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
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(30.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)


class TestJobHttpApi:
    def test_submit_status_wait_roundtrip(self, service, reference):
        _, client, store = service
        job = client.submit_job(SPEC)
        assert job["state"] in ("queued", "running")
        assert job["shards"]["total"] == len(plan_shards(SPEC, 5))
        final = client.wait_for_job(job["id"], timeout=240)
        assert final["state"] == "completed"
        assert final["progress"] == 1.0
        assert {shard["state"] for shard in final["shard_states"]} <= {
            "completed",
            "skipped",
        }
        result = store.get(final["key"])
        assert [pickle.dumps(p) for p in result.points] == [
            normalize(p) for p in reference.points
        ]

    def test_campaign_wrapper_returns_job_backed_receipt(self, service, reference):
        _, client, _ = service
        receipt = client.submit_campaign(SPEC)
        assert receipt["feasible"] == reference.feasible
        assert receipt["evaluations"] == reference.evaluations
        assert receipt["fingerprint"] == SPEC.fingerprint()
        assert receipt["job_id"].startswith("job-")

    def test_unknown_job_id_is_clean_404_json(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.job_status("job-does-not-exist")
        assert excinfo.value.status == 404
        assert "job-does-not-exist" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client.cancel_job("job-does-not-exist")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("DELETE", "/v1/evaluate")
        assert excinfo.value.status == 405

    def test_invalid_spec_is_400(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs", {"spec": {"nope": True}})
        assert excinfo.value.status == 400

    def test_jobs_listing_includes_submissions(self, service):
        _, client, _ = service
        listed = client.jobs()
        assert listed, "previous tests submitted jobs"
        assert all("id" in job and "state" in job for job in listed)

    def test_health_reports_job_stats(self, service):
        _, client, _ = service
        payload = client.health()
        assert payload["jobs"]["workers"] == 1
        assert payload["jobs"]["jobs"] >= 1
