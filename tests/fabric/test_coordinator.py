"""Coordinator: dedup, LPT ranks, settlement, campaign equivalence."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.exec.campaign import PERMANENT, CampaignManifest
from repro.exec.costmodel import cost_key
from repro.exec.jobs import execute_job
from repro.fabric.coordinator import Coordinator, FabricTimeout
from repro.fabric.worker import WorkerAgent
from repro.harness.suite import characterize_suite
from tests.fabric.conftest import FID, make_jobs


def _coord(tmp_path, **kw):
    kw.setdefault("lease_ttl", 5.0)
    kw.setdefault("poll_interval", 0.01)
    return Coordinator(tmp_path / "fab", **kw)


def _worker_thread(tmp_path, **kw):
    kw.setdefault("heartbeat_interval", 0.1)
    kw.setdefault("poll_interval", 0.01)
    run_kw = {"idle_exit": kw.pop("idle_exit", 2.0)}
    agent = WorkerAgent(tmp_path / "fab", **kw)
    thread = threading.Thread(target=agent.run, kwargs=run_kw,
                              daemon=True)
    thread.start()
    return agent, thread


class TestSubmit:
    def test_store_hits_settle_without_units(self, tmp_path, specs,
                                             machine, metrics):
        coord = _coord(tmp_path)
        jobs = make_jobs(specs, machine)
        for job in jobs:
            coord.store.put(job.cache_key(), execute_job(job))
        sub = coord.submit(jobs)
        assert sub.done
        assert sub.pending == {}
        assert coord.ledger.queue_entries() == []
        assert sub.dedup_hits == len(jobs)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["fabric.store_dedup_hits"] == len(jobs)

    def test_misses_enqueue_in_lpt_order(self, tmp_path, specs, machine):
        coord = _coord(tmp_path)
        jobs = make_jobs(specs, machine)
        # Prime the shared cost model: job 1 is the known straggler.
        observed = {cost_key(jobs[0]): 1.0, cost_key(jobs[1]): 30.0,
                    cost_key(jobs[2]): 5.0}
        for job, seconds in zip(jobs, observed.values()):
            coord.costs.observe(job, seconds)
        coord.costs.save()
        sub = coord.submit(jobs)
        ranked = [uid for uid, _ in coord.ledger.queue_entries()]
        by_rank = {p.unit.rank: p.index for p in sub.pending.values()}
        assert [by_rank[r] for r in sorted(by_rank)] == [1, 2, 0]
        assert len(ranked) == 3

    def test_unknown_cost_jobs_lead(self, tmp_path, specs, machine):
        coord = _coord(tmp_path)
        jobs = make_jobs(specs, machine)
        coord.costs.observe(jobs[0], 100.0)
        coord.costs.save()
        sub = coord.submit(jobs)
        by_rank = {p.unit.rank: p.index for p in sub.pending.values()}
        # unknown-cost jobs (1, 2) outrank even a 100s known job
        assert [by_rank[r] for r in sorted(by_rank)] == [1, 2, 0]

    def test_resubmitting_a_tracked_batch_enqueues_nothing(
            self, tmp_path, specs, machine):
        coord = _coord(tmp_path)
        jobs = make_jobs(specs, machine)
        first = coord.submit(jobs)
        queued = sorted(p.name for _, p in coord.ledger.queue_entries())
        assert coord.submit(jobs) is first
        assert sorted(p.name for _, p in coord.ledger.queue_entries()) \
            == queued


class TestCampaign:
    def test_fleet_matches_serial_bit_identical(self, tmp_path, specs,
                                                machine):
        coord = _coord(tmp_path)
        _worker_thread(tmp_path)
        suite = coord.run_campaign(specs, machine, FID, timeout=120.0)
        ref = characterize_suite(specs, machine, FID)
        assert suite.names == ref.names
        assert np.array_equal(suite.metric_matrix().values,
                              ref.metric_matrix().values)

    def test_second_campaign_is_pure_dedup(self, tmp_path, specs,
                                           machine, metrics):
        coord = _coord(tmp_path)
        agent, thread = _worker_thread(tmp_path)
        first = coord.run_campaign(specs, machine, FID, timeout=120.0)
        thread.join(timeout=30.0)
        ran_before = agent.units_run
        # no workers alive: a dedup'd campaign must still complete
        second = coord.run_campaign(specs, machine, FID, timeout=5.0)
        assert np.array_equal(first.metric_matrix().values,
                              second.metric_matrix().values)
        assert agent.units_run == ran_before
        snap = obs.metrics_snapshot()
        assert snap["counters"]["fabric.store_dedup_hits"] == len(specs)

    def test_failed_workload_degrades(self, tmp_path, specs, machine,
                                      monkeypatch):
        import repro.exec.pool as pool_mod
        bad = specs[1].name
        real = execute_job

        def flaky(job):
            if job.name == bad:
                raise ValueError("synthetic model error")
            return real(job)

        monkeypatch.setattr(pool_mod, "_execute", flaky)
        coord = _coord(tmp_path)
        _worker_thread(tmp_path)
        suite = coord.run_campaign(specs, machine, FID, timeout=120.0)
        assert [r.spec.name for r in suite.results] \
            == [s.name for s in specs if s.name != bad]
        (failure,) = suite.failures
        assert failure.name == bad
        assert failure.classification == PERMANENT
        assert failure.error_type == "ValueError"

    def test_rerun_after_a_failure_reopens_the_submission(
            self, tmp_path, specs, machine, monkeypatch):
        import repro.exec.pool as pool_mod
        bad = specs[1].name
        real = execute_job

        def failing(job):
            if job.name == bad:
                raise ValueError("synthetic model error")
            return real(job)

        monkeypatch.setattr(pool_mod, "_execute", failing)
        coord = _coord(tmp_path)
        _worker_thread(tmp_path, idle_exit=4.0)
        first = coord.run_campaign(specs, machine, FID, timeout=120.0)
        # the failed key is still a store miss, so the identical batch
        # re-opens its settled submission rather than trusting the marker
        second = coord.run_campaign(specs, machine, FID, timeout=120.0)
        assert second.names == first.names
        assert [f.name for f in second.failures] == [bad]

    def test_rerun_from_a_new_coordinator_runs_the_failed_job_again(
            self, tmp_path, specs, machine, monkeypatch):
        import repro.exec.pool as pool_mod
        bad = specs[1].name
        real = execute_job
        calls = []

        def failing(job):
            if job.name == bad:
                calls.append(job.name)
                raise ValueError("synthetic model error")
            return real(job)

        monkeypatch.setattr(pool_mod, "_execute", failing)
        _worker_thread(tmp_path, idle_exit=4.0)
        first = _coord(tmp_path, coordinator_id="cA",
                       coordinator_ttl=0.3)
        first.run_campaign(specs, machine, FID, timeout=120.0)
        assert first.is_leader          # left holding the seat
        # a later process waits out the silent seat, then adopts the
        # re-opened batch: the earlier failure does not settle it
        second = _coord(tmp_path, coordinator_id="cB",
                        coordinator_ttl=0.3)
        suite = second.run_campaign(specs, machine, FID, timeout=120.0)
        assert second.election.current() == ("cB", 2)
        assert calls == [bad, bad]
        assert [f.name for f in suite.failures] == [bad]
        assert [r.spec.name for r in suite.results] \
            == [s.name for s in specs if s.name != bad]

    def test_campaign_journals_units(self, tmp_path, specs, machine):
        coord = _coord(tmp_path)
        _worker_thread(tmp_path)
        path = tmp_path / "fab" / "campaign.jsonl"
        coord.run_campaign(specs, machine, FID, timeout=120.0,
                           manifest=path)
        manifest = CampaignManifest(path)
        outcomes = manifest.outcomes()
        assert len(outcomes) == len(specs)
        assert all(rec.get("unit") for rec in outcomes.values())
        assert manifest.done_keys() == set(outcomes)

    def test_timeout_raises_with_pending_units(self, tmp_path, specs,
                                               machine):
        coord = _coord(tmp_path)
        with pytest.raises(FabricTimeout) as excinfo:
            coord.run_campaign(specs[:1], machine, FID, timeout=0.2)
        assert len(excinfo.value.pending) == 1


class TestReclaimRequeue:
    def test_dead_claim_is_reissued_and_served(self, tmp_path, specs,
                                               machine, metrics):
        coord = _coord(tmp_path, lease_ttl=0.2)
        jobs = make_jobs(specs[:1], machine)
        sub = coord.submit(jobs)
        (unit_id,) = sub.pending
        # a worker claims the unit and immediately dies
        assert coord.ledger.claim(unit_id, "wDead")
        _worker_thread(tmp_path, idle_exit=4.0)
        manifest = CampaignManifest(tmp_path / "fab" / "m.jsonl")
        manifest.begin("fp", total=1)
        coord.wait(sub, manifest, timeout=60.0)
        assert sub.outcomes[0][0] == "done"
        snap = obs.metrics_snapshot()
        assert snap["counters"]["fabric.units_reclaimed"] >= 1
        # record_event() journals to disk only — reload to see events
        reloaded = CampaignManifest(tmp_path / "fab" / "m.jsonl")
        reissues = [r for r in reloaded.records
                    if r.get("type") == "reclaimed"]
        assert len(reissues) >= 1
        assert reissues[0]["unit"] == unit_id

    def test_requeue_budget_exhaustion_fails_transient(
            self, tmp_path, specs, machine):
        coord = _coord(tmp_path, lease_ttl=0.05, max_requeues=1)
        sub = coord.submit(make_jobs(specs[:1], machine))

        def claim_forever():
            # adversarial "worker": claims every reissue, never runs it
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not sub.done:
                for uid, _ in coord.ledger.queue_entries():
                    coord.ledger.claim(uid, "wBlackhole")
                time.sleep(0.01)

        thread = threading.Thread(target=claim_forever, daemon=True)
        thread.start()
        coord.wait(sub, timeout=30.0)
        thread.join(timeout=5.0)
        status, failure = sub.outcomes[0]
        assert status == "failed"
        assert failure.error_type == "LeaseExpired"
        assert failure.classification == "transient"
