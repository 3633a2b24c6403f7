"""Worker-fleet lease protocol: the JobManager side, no HTTP involved.

The acceptance-critical pair:

* ``test_fleet_only_completion_bit_identical`` — a job executed entirely
  by remote claimants assembles to the same pickled bytes as the serial
  ``run_experiment`` path;
* ``test_dead_worker_lease_expiry_requeues`` — a worker that acquires and
  vanishes loses its lease to the expiry sweep and the *same submitted
  job* re-executes the shard to completion, no resubmission involved.

Around them, the chaos edges the ISSUE names: duplicate completion is
idempotent, completion after expiry/cancel is rejected and the store stays
consistent, heartbeats genuinely extend leases, ``fail(requeue=)`` takes
both exits, and a shard whose leases keep expiring, or whose completions
keep being refused, fails the job instead of spinning forever.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import point_from_dict, point_to_dict
from repro.service import JobManager, ResultStore, execute_shard

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
    name="fleet-test",
)

TERMINAL = ("completed", "skipped", "failed", "cancelled")


def normalize(point):
    """A point as the wire sees it: persistence round trip (engine=None)."""
    return pickle.dumps(point_from_dict(point_to_dict(point)))


def run_async(coro, timeout=120.0):
    """Run a coroutine on a fresh loop with a hard safety timeout."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


async def fleet_drain(manager, job, worker="fleet-w", batch=8):
    """Act as a remote worker: acquire, execute, complete, until done."""
    loop = asyncio.get_running_loop()
    completions = 0
    while not job.done:
        leases = await manager.acquire_leases(worker, count=batch)
        if not leases:
            await asyncio.sleep(0.02)
            continue
        for lease in leases:
            payload = await loop.run_in_executor(
                None, execute_shard, lease["shard"]["spec"]
            )
            response = await manager.complete_lease(lease["id"], payload, 0.01)
            assert response["accepted"], response
            completions += 1
    await job.wait(60)
    return completions


@pytest.fixture()
def reference():
    """The campaign run single-thread, in-process (the ground truth)."""
    return run_experiment(SPEC)


# --------------------------------------------------------------------- #
# Fleet-only execution
# --------------------------------------------------------------------- #
def test_fleet_only_completion_bit_identical(tmp_path, reference):
    """workers=0: every shard runs via leases; bytes match the serial run."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            completions = await fleet_drain(manager, job)
            assert job.state == "completed", job.error
            counts = job.shard_counts()
            assert completions == counts["total"] == counts["completed"]
            assert all(shard.worker == "fleet-w" for shard in job.shards)
            return store.get(job.key)
        finally:
            await manager.close()

    result = run_async(scenario())
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]
    assert result.evaluations == reference.evaluations == SPEC.grid_size


def test_workers_zero_waits_for_fleet(tmp_path):
    """With no local pool and no fleet, a job just waits (never fails)."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.3)
            assert not job.done
            counts = job.shard_counts()
            assert counts["pending"] == counts["total"]
            await fleet_drain(manager, job)
            assert job.state == "completed"
        finally:
            await manager.close()

    run_async(scenario())


def test_lease_payload_carries_runnable_spec(tmp_path):
    """A granted lease contains everything a stranger needs to execute."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            [lease] = await manager.acquire_leases("w1", count=1)
            shard = lease["shard"]
            spec = ExperimentSpec.from_dict(shard["spec"])
            assert spec.fingerprint() == shard["fingerprint"]
            assert spec.grid_size == shard["entries"]
            assert lease["deadline"] > lease["ttl_s"] > 0
            run = job.shards[shard["index"]]
            assert run.state == "leased" and run.worker == "w1"
            assert run.attempts == 1
        finally:
            await manager.close()

    run_async(scenario())


def test_acquire_on_empty_queue_returns_nothing(tmp_path):
    async def scenario():
        manager = JobManager(ResultStore(tmp_path), workers=0)
        try:
            assert await manager.acquire_leases("w1", count=4) == []
        finally:
            await manager.close()

    run_async(scenario())


# --------------------------------------------------------------------- #
# Expiry, re-queue, idempotence
# --------------------------------------------------------------------- #
def test_dead_worker_lease_expiry_requeues(tmp_path, reference):
    """A vanished worker's shards re-run to completion on the SAME job."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(
            store, workers=0, max_entries_per_shard=5, lease_ttl_s=0.3
        )
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            # The doomed worker grabs two shards and is never heard from.
            doomed = await manager.acquire_leases("doomed", count=2)
            assert len(doomed) == 2
            doomed_indices = {lease["shard"]["index"] for lease in doomed}
            # Expiry sweep fires within ~ttl + sweep interval.
            deadline = asyncio.get_running_loop().time() + 10.0
            while any(
                job.shards[i].state == "leased" for i in doomed_indices
            ):
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)
            for index in doomed_indices:
                assert job.shards[index].state == "pending"
                assert job.shards[index].attempts == 1
            # A healthy worker drains everything — including the re-queued
            # shards — with no resubmission.
            await fleet_drain(manager, job, worker="healthy")
            assert job.state == "completed", job.error
            stats = manager.ledger.stats()
            assert stats["expired"] >= 2 and stats["requeued"] >= 2
            for index in doomed_indices:
                assert job.shards[index].state == "completed"
                assert job.shards[index].worker == "healthy"
                assert job.shards[index].attempts == 2
            # A dangling complete from the dead worker is rejected.
            late = await manager.complete_lease(
                doomed[0]["id"], {"schema": "bogus"}, None
            )
            assert late == {
                "accepted": False,
                "duplicate": False,
                "reason": "expired",
                "key": None,
            }
            return store.get(job.key)
        finally:
            await manager.close()

    result = run_async(scenario())
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]


def test_duplicate_completion_is_idempotent(tmp_path):
    """Completing the same lease twice answers the same key, stores once."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            [lease] = await manager.acquire_leases("w1", count=1)
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                None, execute_shard, lease["shard"]["spec"]
            )
            first = await manager.complete_lease(lease["id"], payload, 0.01)
            assert first["accepted"] and not first["duplicate"]
            stored_after_first = len(store)
            second = await manager.complete_lease(lease["id"], payload, 0.01)
            assert second == {
                "accepted": True,
                "duplicate": True,
                "key": first["key"],
            }
            assert len(store) == stored_after_first
            assert job.shards[lease["shard"]["index"]].state == "completed"
        finally:
            await manager.close()

    run_async(scenario())


def test_heartbeat_keeps_lease_alive_past_ttl(tmp_path):
    """A heartbeating worker holds a lease far beyond one TTL."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(
            store, workers=0, max_entries_per_shard=5, lease_ttl_s=0.3
        )
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            [lease] = await manager.acquire_leases("w1", count=1)
            for _ in range(12):  # ~1.2 s, four TTLs
                await asyncio.sleep(0.1)
                answer = await manager.heartbeat_lease(lease["id"])
                assert answer["alive"], answer
            run = job.shards[lease["shard"]["index"]]
            assert run.state == "leased" and run.attempts == 1
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                None, execute_shard, lease["shard"]["spec"]
            )
            response = await manager.complete_lease(lease["id"], payload, 1.2)
            assert response["accepted"]
        finally:
            await manager.close()

    run_async(scenario())

    # Unknown lease ids answer dead, not 500.
    async def unknown():
        manager = JobManager(ResultStore(tmp_path), workers=0)
        try:
            answer = await manager.heartbeat_lease("lease-nope")
            assert answer == {"alive": False, "reason": "unknown-lease"}
        finally:
            await manager.close()

    run_async(unknown())


def test_max_lease_attempts_fails_poisoned_shard(tmp_path):
    """A shard that kills every claimant fails the job, not the fleet."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(
            store,
            workers=0,
            max_entries_per_shard=100,  # one shard per network cell
            lease_ttl_s=0.25,
            max_lease_attempts=2,
        )
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            # Lease and abandon until the attempts budget is spent.
            deadline = asyncio.get_running_loop().time() + 20.0
            while not job.done:
                assert asyncio.get_running_loop().time() < deadline
                await manager.acquire_leases("crashy", count=4)
                await asyncio.sleep(0.1)
            assert job.state == "failed"
            assert "lease expired after 2 grants" in (job.error or "")
            failed = [s for s in job.shards if s.state == "failed"]
            assert failed and all(s.attempts == 2 for s in failed)
        finally:
            await manager.close()

    run_async(scenario())


def test_invalid_completions_spend_the_attempt_budget(tmp_path):
    """A worker the server keeps refusing fails the shard, not spins it."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(
            store, workers=0, max_entries_per_shard=100, max_lease_attempts=2
        )
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            loop = asyncio.get_running_loop()
            [lease] = await manager.acquire_leases("stale-worker", count=1)
            index = lease["shard"]["index"]
            # The right shard's result, in a point layout the store refuses.
            foreign = await loop.run_in_executor(
                None, execute_shard, lease["shard"]["spec"]
            )
            foreign["points"][0]["annotation"] = "from a newer worker"
            with pytest.raises(ValueError, match="fits no stored point layout"):
                await manager.complete_lease(lease["id"], foreign, 0.01)
            assert job.shards[index].state == "pending"
            assert len(store) == 0
            # Junk until the budget is spent: the second grant is the last.
            for _ in range(10):
                leases = [
                    item
                    for item in await manager.acquire_leases("stale-worker", count=4)
                    if item["shard"]["index"] == index
                ]
                if not leases:
                    break
                with pytest.raises(ValueError, match="schema 'junk'"):
                    await manager.complete_lease(leases[0]["id"], {"schema": "junk"}, None)
            shard = job.shards[index]
            assert (shard.state, shard.attempts) == ("failed", 2)
            assert "lease completion rejected after 2 grants" in shard.error
            assert "schema 'junk'" in shard.error
            # The other shards complete; the job then fails with the shard.
            while not job.done:
                for other in await manager.acquire_leases("w2", count=4):
                    payload = await loop.run_in_executor(
                        None, execute_shard, other["shard"]["spec"]
                    )
                    await manager.complete_lease(other["id"], payload, 0.01)
                await asyncio.sleep(0.02)
            assert job.state == "failed"
            assert "lease completion rejected after 2 grants" in (job.error or "")
        finally:
            await manager.close()

    run_async(scenario())


# --------------------------------------------------------------------- #
# fail_lease and validation
# --------------------------------------------------------------------- #
def test_fail_lease_requeue_hands_shard_back(tmp_path):
    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            [lease] = await manager.acquire_leases("w1", count=1)
            index = lease["shard"]["index"]
            response = await manager.fail_lease(
                lease["id"], "shutting down", requeue=True
            )
            assert response == {"accepted": True, "reason": None, "requeued": True}
            assert job.shards[index].state == "pending"
            # The shard is immediately claimable again.
            again = await manager.acquire_leases("w2", count=20)
            assert index in {item["shard"]["index"] for item in again}
            assert job.shards[index].attempts == 2
        finally:
            await manager.close()

    run_async(scenario())


def test_fail_lease_fatal_fails_job_like_local_error(tmp_path):
    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            [lease] = await manager.acquire_leases("w1", count=1)
            response = await manager.fail_lease(
                lease["id"], "RuntimeError: device exploded", requeue=False
            )
            assert response["accepted"] and not response["requeued"]
            failed_index = lease["shard"]["index"]
            assert job.shards[failed_index].state == "failed"
            # Like the local pool, the job settles once every shard does:
            # drain the survivors, then the job reports the failure.
            loop = asyncio.get_running_loop()
            while not job.done:
                for other in await manager.acquire_leases("w2", count=4):
                    payload = await loop.run_in_executor(
                        None, execute_shard, other["shard"]["spec"]
                    )
                    await manager.complete_lease(other["id"], payload, 0.01)
                await asyncio.sleep(0.02)
            assert job.state == "failed"
            assert "device exploded" in job.error
        finally:
            await manager.close()

    run_async(scenario())


def test_invalid_completion_payload_requeues_shard(tmp_path):
    """A wrong-shard or garbage payload is rejected; the shard re-queues."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            first, second = await manager.acquire_leases("w1", count=2)
            loop = asyncio.get_running_loop()
            # Execute shard B but try to complete lease A with it.
            wrong = await loop.run_in_executor(
                None, execute_shard, second["shard"]["spec"]
            )
            with pytest.raises(ValueError, match="fingerprints to"):
                await manager.complete_lease(first["id"], wrong, 0.01)
            index = first["shard"]["index"]
            assert job.shards[index].state == "pending"
            assert len(store) == 0  # nothing bogus was stored
            # Garbage payloads are equally rejected.
            [retry] = await manager.acquire_leases("w1", count=1)
            with pytest.raises(ValueError):
                await manager.complete_lease(retry["id"], {"schema": "junk"}, None)
        finally:
            await manager.close()

    run_async(scenario())


# --------------------------------------------------------------------- #
# Cancel + store consistency, resume, mixed pools
# --------------------------------------------------------------------- #
def test_cancel_revokes_leases_and_store_stays_consistent(tmp_path):
    """Cancel mid-fleet-run: leases revoked, late results discarded."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            leases = await manager.acquire_leases("w1", count=2)
            loop = asyncio.get_running_loop()
            # Complete one shard before the cancel: it stays stored.
            done_payload = await loop.run_in_executor(
                None, execute_shard, leases[0]["shard"]["spec"]
            )
            await manager.complete_lease(leases[0]["id"], done_payload, 0.01)
            stored_before = len(store)
            assert stored_before == 1
            assert await manager.cancel(job.id)
            assert job.state == "cancelled"
            assert manager.ledger.stats()["active_leases"] == 0
            # The in-flight worker pushes its result after the cancel:
            # rejected, and nothing new lands in the store.
            late_payload = await loop.run_in_executor(
                None, execute_shard, leases[1]["shard"]["spec"]
            )
            late = await manager.complete_lease(leases[1]["id"], late_payload, 0.01)
            assert late["accepted"] is False
            assert late["reason"] == "cancelled"
            assert len(store) == stored_before
            # Nothing is claimable from a cancelled job.
            assert await manager.acquire_leases("w2", count=8) == []
            # Every stored record is a valid, loadable result.
            for key in store.keys():
                assert store.get(key) is not None
        finally:
            await manager.close()

    run_async(scenario())


def test_resubmit_after_partial_fleet_run_skips_stored_shards(tmp_path):
    """Shards a dead fleet finished persist; resubmission reuses them."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            leases = await manager.acquire_leases("w1", count=2)
            loop = asyncio.get_running_loop()
            finished = set()
            for lease in leases:
                payload = await loop.run_in_executor(
                    None, execute_shard, lease["shard"]["spec"]
                )
                await manager.complete_lease(lease["id"], payload, 0.01)
                finished.add(lease["shard"]["fingerprint"])
            await manager.cancel(job.id)  # the "crash"
        finally:
            await manager.close()

        # A brand-new manager over the same store: the fleet's partial
        # progress survives as skipped shards.
        manager = JobManager(store, workers=0, max_entries_per_shard=5)
        try:
            job = await manager.submit(SPEC)
            await asyncio.sleep(0.05)
            skipped = {
                s.plan.fingerprint for s in job.shards if s.state == "skipped"
            }
            assert skipped == finished
            await fleet_drain(manager, job, worker="w2")
            assert job.state == "completed", job.error
            counts = job.shard_counts()
            assert counts["skipped"] == len(finished)
            assert counts["completed"] == counts["total"] - len(finished)
        finally:
            await manager.close()

    run_async(scenario())


def test_local_pool_and_fleet_cooperate(tmp_path, reference):
    """workers=1 plus a fleet worker: same bytes, both claimants valid."""

    async def scenario():
        store = ResultStore(tmp_path)
        manager = JobManager(store, workers=1, max_entries_per_shard=3)
        try:
            job = await manager.submit(SPEC)
            loop = asyncio.get_running_loop()
            while not job.done:
                leases = await manager.acquire_leases("remote", count=1)
                for lease in leases:
                    payload = await loop.run_in_executor(
                        None, execute_shard, lease["shard"]["spec"]
                    )
                    response = await manager.complete_lease(
                        lease["id"], payload, 0.01
                    )
                    assert response["accepted"], response
                await asyncio.sleep(0.01)
            await job.wait(60)
            assert job.state == "completed", job.error
            assert all(
                s.worker in ("local", "remote") for s in job.shards
            ), [s.worker for s in job.shards]
            return store.get(job.key)
        finally:
            await manager.close()

    result = run_async(scenario())
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]
