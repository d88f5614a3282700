"""Coordinator HA: election, epoch fencing, adoption, failover."""

import json
import time

import pytest

from repro import obs
from repro.exec.campaign import TRANSIENT, WorkloadFailure
from repro.fabric.coordinator import Coordinator, observe_outcomes
from repro.fabric.lease import (Election, LeadershipLost, LeaseLedger,
                                default_coordinator_id)
from repro.fabric.worker import WorkerAgent
from tests.fabric.conftest import make_jobs


def _election(tmp_path):
    """A fresh Election with its own tracker (one per 'process')."""
    ledger = LeaseLedger(tmp_path / "fab")
    ledger.ensure_layout()
    return Election(ledger)


class TestElection:
    def test_empty_seat_claims_epoch_one(self, tmp_path, metrics):
        e = _election(tmp_path)
        assert e.try_takeover("c1", ttl=5.0) == 1
        assert e.current() == ("c1", 1)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["fabric.leadership_acquired"] == 1

    def test_epoch_claim_has_exactly_one_winner(self, tmp_path):
        e = _election(tmp_path)
        assert e._claim("c1", 1)
        assert not e._claim("c2", 1)
        assert e.current() == ("c1", 1)

    def test_standby_waits_out_a_live_leader(self, tmp_path):
        e1, e2 = _election(tmp_path), _election(tmp_path)
        assert e1.try_takeover("c1", ttl=5.0) == 1
        assert e2.try_takeover("c2", ttl=5.0, now=100.0) is None
        # heartbeats keep resetting the standby's aging
        e1.heartbeat("c1", 1, seq=1)
        assert e2.try_takeover("c2", ttl=5.0, now=110.0) is None
        e1.heartbeat("c1", 1, seq=2)
        assert e2.try_takeover("c2", ttl=5.0, now=120.0) is None
        # silence past the ttl: takeover at the next epoch
        assert e2.try_takeover("c2", ttl=5.0, now=126.0) == 2
        assert e2.current() == ("c2", 2)

    def test_current_leader_reaffirms_its_own_epoch(self, tmp_path):
        e = _election(tmp_path)
        assert e.try_takeover("c1", ttl=5.0) == 1
        assert e.try_takeover("c1", ttl=5.0) == 1

    def test_resigned_leader_is_immediately_stale(self, tmp_path):
        e1, e2 = _election(tmp_path), _election(tmp_path)
        assert e1.try_takeover("c1", ttl=5.0) == 1
        e1.heartbeat("c1", 1, seq=1)
        e1.resign("c1")
        assert e2.leader_age(now=0.0) == float("inf")
        assert e2.try_takeover("c2", ttl=999.0) == 2

    def test_torn_claim_file_is_skipped(self, tmp_path):
        e = _election(tmp_path)
        assert e._claim("c1", 2)
        torn = e.epoch_path(3)
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text("{", encoding="utf-8")    # died mid-write
        assert e.current() == ("c1", 2)

    def test_check_fences_a_deposed_epoch(self, tmp_path, metrics):
        e = _election(tmp_path)
        assert e._claim("c1", 1)
        e.check(1)                          # still the leader: fine
        assert e._claim("c2", 2)
        with pytest.raises(LeadershipLost):
            e.check(1)
        e.check(2)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["fabric.fenced_writes_rejected"] == 1

    def test_coordinators_listing_carries_age_and_epoch(self, tmp_path):
        e1, e2 = _election(tmp_path), _election(tmp_path)
        e1.heartbeat("cA", 1, seq=1)
        e1.heartbeat("cB", 0, seq=4)
        board = e2.coordinators(now=50.0)
        assert set(board) == {"cA", "cB"}
        assert board["cA"]["epoch"] == 1
        assert board["cA"]["age_s"] == 0.0
        assert e2.coordinators(now=62.5)["cB"]["age_s"] == 12.5

    def test_default_coordinator_id_is_host_and_pid_scoped(self):
        assert default_coordinator_id().startswith("c-")


class TestFencing:
    def _leader(self, tmp_path, cid="cA"):
        coord = Coordinator(tmp_path / "fab", coordinator_id=cid,
                            lease_ttl=5.0, poll_interval=0.01)
        assert coord.election.try_takeover(cid, ttl=5.0) == 1
        coord.epoch = 1
        return coord

    def test_zombie_poll_is_rejected(self, tmp_path, specs, machine):
        coord = self._leader(tmp_path)
        sub = coord.submit(make_jobs(specs[:2], machine))
        assert coord.election._claim("cB", 2)   # successor appears
        with pytest.raises(LeadershipLost):
            coord.poll(sub)

    def test_zombie_enqueue_leaves_the_queue_unchanged(
            self, tmp_path, specs, machine):
        coord = self._leader(tmp_path)
        coord.submit(make_jobs(specs[:1], machine))
        before = [p.name for _, p in coord.ledger.queue_entries()]
        assert coord.election._claim("cB", 2)
        with pytest.raises(LeadershipLost):
            coord.submit(make_jobs(specs[1:2], machine))
        after = [p.name for _, p in coord.ledger.queue_entries()]
        assert after == before

    def test_coordinator_without_an_epoch_is_fenced_out(
            self, tmp_path, specs, machine):
        # no "fencing disabled" mode: while a live leader holds the
        # seat, a coordinator that never won it may not mutate anything
        leader = self._leader(tmp_path)
        sub = leader.submit(make_jobs(specs[:1], machine))
        leader.election.heartbeat("cA", 1, seq=1)
        before = sorted(p.name for _, p in leader.ledger.queue_entries())
        outsider = Coordinator(tmp_path / "fab", coordinator_id="cX",
                               lease_ttl=5.0, poll_interval=0.01)
        with pytest.raises(LeadershipLost):
            outsider.poll(sub)
        with pytest.raises(LeadershipLost):
            outsider.adopt(sub.sid)
        assert outsider.epoch is None
        after = sorted(p.name for _, p in leader.ledger.queue_entries())
        assert after == before
        assert leader.election.current() == ("cA", 1)


def _successor(tmp_path, cid="cB", **kw):
    """A standby that won the dead leader's seat (the next epoch)."""
    coord = Coordinator(tmp_path / "fab", coordinator_id=cid,
                        poll_interval=0.01, **kw)
    epoch = coord.election.current()[1] + 1
    assert coord.election._claim(cid, epoch)
    coord.epoch = epoch
    return coord


class TestAdoption:
    def test_settled_marker_closes_a_submission(self, tmp_path, specs,
                                                machine):
        coord = Coordinator(tmp_path / "fab", poll_interval=0.01)
        sub = coord.submit(make_jobs(specs[:2], machine))
        assert sub.sid in coord.open_submissions()
        assert not coord.is_settled(sub.sid)
        coord.mark_settled(sub.sid)
        assert coord.is_settled(sub.sid)
        assert sub.sid not in coord.open_submissions()

    def test_adopt_reconstructs_and_finishes_a_campaign(
            self, tmp_path, specs, machine):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             lease_ttl=5.0, poll_interval=0.01)
        jobs = make_jobs(specs, machine)
        sub = coordA.submit(jobs)
        agent = WorkerAgent(tmp_path / "fab", worker_id="wT",
                            heartbeat_interval=0.1, poll_interval=0.01)
        assert agent.serve_one()            # one unit finishes
        # coordA dies here; a standby reconstructs from disk alone
        coordB = _successor(tmp_path, lease_ttl=5.0)
        adopted = coordB.adopt(sub.sid)
        assert adopted.keys == sub.keys
        done = [i for i, (s, _) in adopted.outcomes.items()
                if s == "done"]
        assert len(done) == 1
        pending_idx = {p.index for p in adopted.pending.values()}
        assert pending_idx == set(range(len(jobs))) - set(done)
        deadline = time.monotonic() + 60.0
        while not adopted.done:
            assert time.monotonic() < deadline
            agent.serve_one()
            coordB.poll(adopted)
        suite = coordB.collect(jobs, adopted.keys, adopted.outcomes,
                               machine)
        assert [r.spec.name for r in suite.results] \
            == [s.name for s in specs]

    def test_adopt_drops_a_done_record_with_no_result(
            self, tmp_path, specs, machine, metrics):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             poll_interval=0.01)
        jobs = make_jobs(specs[:1], machine)
        sub = coordA.submit(jobs)
        (unit_id,) = sub.pending
        # a torn result write that still got its done record out
        coordA.ledger.complete(unit_id, {
            "unit": unit_id, "status": "done", "key": sub.keys[0],
            "name": jobs[0].name})
        coordB = _successor(tmp_path)
        adopted = coordB.adopt(sub.sid)
        assert not coordB.ledger.done_path(unit_id).exists()
        assert adopted.outcomes == {}
        assert len(adopted.pending) == 1    # re-runs instead of lying
        counters = obs.metrics_snapshot()["counters"]
        assert counters["fabric.done_without_result"] >= 1

    def test_adopt_reenqueues_units_lost_to_a_dying_leader(
            self, tmp_path, specs, machine):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             poll_interval=0.01)
        jobs = make_jobs(specs, machine)
        sub = coordA.submit(jobs)
        for _, path in coordA.ledger.queue_entries():
            path.unlink()                   # the torn-submit aftermath
        coordB = _successor(tmp_path)
        adopted = coordB.adopt(sub.sid)
        assert len(adopted.pending) == len(jobs)
        assert len(coordB.ledger.queue_entries()) == len(jobs)

    def test_adopt_matches_a_leased_unit_without_a_queue_entry(
            self, tmp_path, specs, machine):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             poll_interval=0.01)
        sub = coordA.submit(make_jobs(specs[:1], machine))
        (unit_id,) = sub.pending
        assert coordA.ledger.claim(unit_id, "wBusy")
        coordA.ledger.remove_queued(unit_id)
        coordB = _successor(tmp_path)
        adopted = coordB.adopt(sub.sid)
        assert list(adopted.pending) == [unit_id]
        assert adopted.pending[unit_id].index == 0

    def test_adopt_ignores_failures_recorded_before_the_batch_opened(
            self, tmp_path, specs, machine):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             poll_interval=0.01)
        jobs = make_jobs(specs[:1], machine)
        sub = coordA.submit(jobs)
        (old_unit,) = sub.pending
        # the first campaign's unit expired for good: settled failed
        coordA.ledger.complete(old_unit, {
            "unit": old_unit, "status": "failed", "key": sub.keys[0],
            "name": jobs[0].name, "failure": WorkloadFailure(
                name=jobs[0].name, error_type="LeaseExpired",
                message="expired", classification=TRANSIENT,
                key=sub.keys[0]).to_json()})
        coordA.poll(sub)
        coordA.mark_settled(sub.sid)
        coordA.election.heartbeat("cA", 1, seq=1)
        # a new process re-runs the batch without the seat: re-opened
        rerun = Coordinator(tmp_path / "fab", coordinator_id="cN",
                            poll_interval=0.01).submit(jobs)
        assert rerun.pending == {} and rerun.outcomes == {}
        assert sub.sid in coordA.open_submissions()
        coordB = _successor(tmp_path)
        adopted = coordB.adopt(sub.sid)
        assert adopted.outcomes == {}
        (new_unit,) = adopted.pending
        assert new_unit != old_unit
        assert [uid for uid, _ in coordB.ledger.queue_entries()] \
            == [new_unit]

    def test_adopt_keeps_duplicate_jobs_apart(self, tmp_path, specs,
                                              machine):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             poll_interval=0.01)
        sub = coordA.submit(make_jobs([specs[0], specs[0]], machine))
        assert {p.index for p in sub.pending.values()} == {0, 1}
        adopted = _successor(tmp_path).adopt(sub.sid)
        assert {p.index for p in adopted.pending.values()} == {0, 1}
        assert set(adopted.pending) == set(sub.pending)

    def test_adopt_continues_the_unit_id_sequence(self, tmp_path, specs,
                                                  machine):
        coordA = Coordinator(tmp_path / "fab", coordinator_id="cA",
                             poll_interval=0.01)
        sub = coordA.submit(make_jobs(specs, machine))
        coordB = _successor(tmp_path)
        coordB.adopt(sub.sid)
        assert coordB._seq >= coordA._seq


class TestHAFailover:
    def test_standby_takes_over_and_finishes(self, tmp_path, specs,
                                             machine, metrics):
        root = tmp_path / "fab"
        leader = Coordinator(root, coordinator_id="cL",
                             coordinator_ttl=0.4, lease_ttl=2.0,
                             poll_interval=0.01)
        assert leader.step()
        assert leader.is_leader and leader.epoch == 1
        jobs = make_jobs(specs, machine)
        sub = leader.submit(jobs)
        assert leader.step()        # adopts its own open submission
        # the leader "dies" (never steps again); a standby watches
        standby = Coordinator(root, coordinator_id="cS",
                              coordinator_ttl=0.4, lease_ttl=2.0,
                              poll_interval=0.01)
        agent = WorkerAgent(root, worker_id="wT",
                            heartbeat_interval=0.1, poll_interval=0.01)
        deadline = time.monotonic() + 120.0
        while not standby.is_settled(sub.sid):
            assert time.monotonic() < deadline
            agent.serve_one()
            standby.step()
            time.sleep(0.02)
        assert standby.is_leader and standby.epoch == 2
        # the zombie's next tick demotes it instead of corrupting
        assert leader.step() is False
        assert not leader.is_leader
        counters = obs.metrics_snapshot()["counters"]
        assert counters["fabric.leadership_lost"] >= 1
        outcomes = observe_outcomes(standby, sub.keys)
        suite = standby.collect(jobs, sub.keys, outcomes, machine)
        assert [r.spec.name for r in suite.results] \
            == [s.name for s in specs]
        assert suite.failures == []

    def test_run_campaign_as_the_only_coordinator(self, tmp_path, specs,
                                                  machine):
        import threading

        from tests.fabric.conftest import FID

        root = tmp_path / "fab"
        ha = Coordinator(root, coordinator_id="cSolo",
                         coordinator_ttl=0.5, lease_ttl=2.0,
                         poll_interval=0.01)
        agent = WorkerAgent(root, worker_id="wT",
                            heartbeat_interval=0.1, poll_interval=0.01)
        worker = threading.Thread(
            target=lambda: agent.run(max_units=len(specs),
                                     idle_exit=30.0),
            daemon=True)
        worker.start()
        suite = ha.run_campaign(specs, machine, FID, timeout=120.0)
        worker.join(timeout=30.0)
        assert ha.is_leader
        assert [r.spec.name for r in suite.results] \
            == [s.name for s in specs]

    def test_idle_run_loop_resigns_on_exit(self, tmp_path):
        root = tmp_path / "fab"
        ha = Coordinator(root, coordinator_id="cR",
                         coordinator_ttl=0.2, poll_interval=0.01)
        ha.run(idle_exit=0.1)
        assert ha.is_leader             # won the empty seat while up
        # resignation makes the next takeover immediate, no ttl wait
        successor = Election(LeaseLedger(root))
        assert successor.try_takeover("cQ", ttl=999.0) == 2

    def test_standbys_lists_live_unresigned_peers(self, tmp_path):
        root = tmp_path / "fab"
        leader = Coordinator(root, coordinator_id="cL",
                             coordinator_ttl=0.3, poll_interval=0.01)
        assert leader.step()
        assert leader.standbys() == []

        def standby(cid):
            coord = Coordinator(root, coordinator_id=cid,
                                coordinator_ttl=60.0, poll_interval=0.01)
            assert coord.step() is False    # heartbeats once, waits
            return coord

        standby("cS")
        assert leader.standbys() == ["cS"]
        time.sleep(0.4)                 # silent past the leader's ttl
        assert leader.standbys() == []
        standby("cT").election.resign("cT")
        assert leader.standbys() == []

    def test_lone_run_resigns_so_the_next_run_leads_at_once(
            self, tmp_path, specs):
        import threading

        from repro.fabric.cli import main
        from tests.fabric.conftest import FID

        root = tmp_path / "fab"
        agent = WorkerAgent(root, worker_id="wT",
                            heartbeat_interval=0.1, poll_interval=0.01)
        worker = threading.Thread(
            target=lambda: agent.run(max_units=2, idle_exit=30.0),
            daemon=True)
        worker.start()

        def run(bench, cid):
            return main(["run", str(root), bench, "--machine", "i9",
                         "--instructions", str(FID.measure_instructions),
                         "--warmup", str(FID.warmup_instructions),
                         "--coordinator-id", cid,
                         "--coordinator-ttl", "60", "--timeout", "30"])

        assert run(specs[0].name, "cR1") == 0
        # nobody stood by, so the first run handed the seat over: the
        # second leads at once instead of waiting out the 60 s ttl
        assert run(specs[1].name, "cR2") == 0
        worker.join(timeout=30.0)
        assert Election(LeaseLedger(root)).current() == ("cR2", 2)

    def test_healthz_surfaces_leader_and_coordinators(self, tmp_path,
                                                      specs, machine):
        from repro.fabric.service import CharacterizationService

        root = tmp_path / "fab"
        ha = Coordinator(root, coordinator_id="cH",
                         coordinator_ttl=0.4, poll_interval=0.01)
        assert ha.step()
        service = CharacterizationService(
            Coordinator(root, poll_interval=0.01))
        health = service.health_json()
        assert health["leader"] == {"coordinator": "cH", "epoch": 1}
        assert "cH" in health["coordinators"]
        assert health["coordinators"]["cH"]["epoch"] == 1
        assert health["store_reachable"] is True
        assert json.dumps(health)       # JSON-serializable end to end
