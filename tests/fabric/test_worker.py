"""Worker agent: claiming discipline, outcome records, lifecycle."""

import threading
import time

from repro.exec.costmodel import CostModel
from repro.fabric.coordinator import Coordinator
from repro.fabric.worker import WorkerAgent, default_worker_id
from tests.fabric.conftest import make_jobs


def _pair(tmp_path, **worker_kw):
    coord = Coordinator(tmp_path / "fab", lease_ttl=5.0,
                        poll_interval=0.01)
    worker_kw.setdefault("worker_id", "wT")
    worker_kw.setdefault("heartbeat_interval", 0.1)
    worker_kw.setdefault("poll_interval", 0.01)
    agent = WorkerAgent(tmp_path / "fab", **worker_kw)
    return coord, agent


class TestClaiming:
    def test_claims_in_dispatch_order(self, tmp_path, specs, machine):
        coord, agent = _pair(tmp_path)
        sub = coord.submit(make_jobs(specs, machine))
        rank0 = min(sub.pending.values(), key=lambda p: p.unit.rank)
        unit = agent.claim_next()
        assert unit.unit_id == rank0.unit.unit_id

    def test_skips_leased_units(self, tmp_path, specs, machine):
        coord, agent = _pair(tmp_path)
        sub = coord.submit(make_jobs(specs[:2], machine))
        by_rank = sorted(sub.pending.values(), key=lambda p: p.unit.rank)
        coord.ledger.claim(by_rank[0].unit.unit_id, "wOther")
        unit = agent.claim_next()
        assert unit.unit_id == by_rank[1].unit.unit_id

    def test_skips_and_tidies_done_units(self, tmp_path, specs, machine):
        coord, agent = _pair(tmp_path)
        sub = coord.submit(make_jobs(specs[:1], machine))
        (unit_id,) = sub.pending
        coord.ledger.complete(unit_id, {"unit": unit_id,
                                        "status": "done"})
        assert agent.claim_next() is None
        assert coord.ledger.queue_entries() == []   # tidied on scan

    def test_empty_queue_returns_none(self, tmp_path):
        _, agent = _pair(tmp_path)
        assert agent.claim_next() is None


class TestServeOne:
    def test_outcome_record_and_cleanup(self, tmp_path, specs, machine):
        coord, agent = _pair(tmp_path)
        sub = coord.submit(make_jobs(specs[:1], machine))
        (unit_id,) = sub.pending
        assert agent.serve_one()
        record = coord.ledger.done_records()[unit_id]
        assert record["status"] == "done"
        assert record["worker"] == "wT"
        assert record["key"] == sub.keys[0]
        assert record["seconds"] > 0.0
        assert not record["cached"]
        assert coord.ledger.active_leases() == {}
        assert coord.ledger.queue_entries() == []
        assert coord.store.get(sub.keys[0]) is not None

    def test_cached_flag_on_warm_store(self, tmp_path, specs, machine):
        from repro.exec.jobs import execute_job
        coord, agent = _pair(tmp_path)
        job = make_jobs(specs[:1], machine)[0]
        coord.store.put(job.cache_key(), execute_job(job))
        # force a unit despite the warm store (submit would dedup it)
        unit = coord._next_unit(job, job.cache_key(), 0, None)
        coord.ledger.enqueue(unit)
        assert agent.serve_one()
        assert coord.ledger.done_records()[unit.unit_id]["cached"]

    def test_heartbeats_flow_during_run(self, tmp_path, specs, machine):
        from repro.harness.runner import Fidelity
        coord, agent = _pair(tmp_path, heartbeat_interval=0.02)
        # A window long enough to span several heartbeat intervals.
        coord.submit(make_jobs(specs[:1], machine, fidelity=Fidelity(
            warmup_instructions=50_000, measure_instructions=100_000)))
        seen = []

        def watch():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                leases = coord.ledger.active_leases()
                if leases:
                    seen.append(next(iter(leases.values()))["seq"])
                if coord.ledger.done_records():
                    return
                time.sleep(0.01)

        watcher = threading.Thread(target=watch)
        watcher.start()
        agent.serve_one()
        watcher.join()
        assert seen and max(seen) >= 1   # lease was renewed mid-run

    def test_cost_observation_reported_back(self, tmp_path, specs,
                                            machine):
        coord, agent = _pair(tmp_path)
        coord.submit(make_jobs(specs[:1], machine))
        agent.serve_one()
        agent.costs.save()
        fresh = CostModel.for_store(coord.store)
        assert len(fresh) == 1


class TestRunLoop:
    def test_stop_marker_halts_loop(self, tmp_path):
        coord, agent = _pair(tmp_path)
        coord.ledger.request_stop()
        assert agent.run() == 0

    def test_idle_exit_and_worker_cleanup(self, tmp_path):
        _, agent = _pair(tmp_path)
        served = agent.run(idle_exit=0.1)
        assert served == 0
        assert agent.ledger.workers() == {}   # heartbeat removed

    def test_max_units(self, tmp_path, specs, machine):
        coord, agent = _pair(tmp_path)
        coord.submit(make_jobs(specs, machine))
        assert agent.run(max_units=1) == 1
        assert len(coord.ledger.done_records()) == 1

    def test_default_worker_id_shape(self):
        assert "-" in default_worker_id()


class TestHeartbeaterResilience:
    def test_heartbeater_survives_transient_write_failure(
            self, tmp_path, metrics):
        from repro import obs
        from repro.fabric.lease import LeaseLedger
        from repro.fabric.worker import _Heartbeater

        ledger = LeaseLedger(tmp_path / "fab")
        ledger.ensure_layout()
        assert ledger.claim("u1", "wT")
        real = ledger.write_worker_heartbeat
        calls = {"n": 0}

        def flaky(worker, inflight, seq):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient ledger outage")
            real(worker, inflight, seq)

        ledger.write_worker_heartbeat = flaky
        beat = _Heartbeater(ledger, "wT", "u1", interval=0.01,
                            seq_start=0)
        beat.start()
        deadline = time.monotonic() + 10.0
        try:
            # the thread must outlive the faults and renew the lease
            while time.monotonic() < deadline:
                lease = ledger.active_leases().get("u1", {})
                if calls["n"] >= 3 and lease.get("seq", 0) >= 1:
                    break
                time.sleep(0.01)
        finally:
            seq = beat.stop()
        assert calls["n"] >= 3, "heartbeater thread died on OSError"
        assert ledger.active_leases()["u1"]["seq"] >= 1
        assert not beat.lost.is_set()
        counters = obs.metrics_snapshot()["counters"]
        assert counters["fabric.heartbeat_errors"] >= 2


class TestDegradedMode:
    def test_store_outage_spools_then_reconciles(self, tmp_path, specs,
                                                 machine, metrics):
        import errno

        from repro import obs

        coord, agent = _pair(tmp_path,
                             spool_dir=tmp_path / "spool")
        sub = coord.submit(make_jobs(specs[:1], machine))
        (unit_id,) = sub.pending
        key = sub.keys[0]

        def refuse(k, value):
            raise OSError(errno.EIO, "store mount gone")

        agent.store.put = refuse        # outage begins
        assert agent.serve_one()
        # the unit ran; the result is safe locally, and no done record
        # lies to the coordinator about a result the store lacks
        assert agent.spool.pending() == 2       # result + record
        assert coord.store.get(key) is None
        assert coord.ledger.done_records() == {}
        assert key in agent._degraded.spooled_keys
        counters = obs.metrics_snapshot()["counters"]
        assert counters["fabric.spooled_results"] == 1

        del agent.store.put             # outage ends
        assert agent._reconcile_spool() == 2
        assert agent.spool.pending() == 0
        assert agent._degraded.spooled_keys == set()
        assert coord.store.get(key) is not None
        rec = coord.ledger.done_records()[unit_id]
        assert rec["status"] == "done" and rec["spooled"] is True

        # the coordinator settles the replayed record normally
        deadline = time.monotonic() + 10.0
        while not sub.done and time.monotonic() < deadline:
            coord.poll(sub)
            time.sleep(0.01)
        assert sub.outcomes[0][0] == "done"
        assert coord.ledger.queue_entries() == []

    def test_breaker_opens_and_flush_is_the_probe(self, tmp_path):
        import errno

        from repro.exec.resilience import CircuitBreaker
        from repro.fabric.worker import ResultSpool, _DegradedStore

        class _FlakyStore:
            def __init__(self):
                self.down = True
                self.writes = []

            def get(self, key, default=None):
                return default

            def put(self, key, value):
                if self.down:
                    raise OSError(errno.EIO, "down")
                self.writes.append(key)

        store = _FlakyStore()
        breaker = CircuitBreaker(threshold=3, cooldown=0.05)
        spool = ResultSpool(tmp_path / "spool")
        degraded = _DegradedStore(store, breaker, spool)
        for i in range(4):
            degraded.put(f"{i:064d}", {"v": i})     # never raises
        assert breaker.state != "closed"
        assert spool.pending() == 4
        assert degraded.spooled_keys == {f"{i:064d}" for i in range(4)}

    def test_flush_replays_results_before_records(self, tmp_path, specs,
                                                  machine):
        from repro.fabric.worker import ResultSpool

        coord, agent = _pair(tmp_path)
        spool = ResultSpool(tmp_path / "spool")
        key = "b" * 64
        spool.put_result(key, {"v": 1})
        spool.put_record("u9", {"unit": "u9", "status": "done",
                                "key": key})
        flushed = spool.flush(agent.store, agent.ledger)
        assert flushed == 2
        assert agent.store.get(key) == {"v": 1}
        assert agent.ledger.done_records()["u9"]["key"] == key
        # replaying an already-flushed spool is harmless
        assert spool.flush(agent.store, agent.ledger) == 0
