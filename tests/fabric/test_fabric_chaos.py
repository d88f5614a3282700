"""Acceptance: the fabric survives dying hosts — worker *and* leader.

PR-3's chaos harness killed worker *processes* under one pool; the
fabric extends the failure domain to whole hosts and, with HA, to the
coordinator itself.  Real subprocesses (``python -m repro.fabric``)
share one fabric directory; workers and the leader are SIGKILLed
mid-campaign and/or storm through a fault-injecting store backend
(``REPRO_CHAOS_BACKEND``), and every campaign must still deliver a
SuiteResult bit-identical to a plain in-process serial run.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exec.jobs import JobSpec, code_fingerprint
from repro.harness.runner import Fidelity
from repro.harness.suite import characterize_suite
from repro.fabric.coordinator import (Coordinator, observe_outcomes,
                                      submission_id)

# Heavy enough that units take visible wall-clock time, so the victim
# is reliably mid-unit when the kill lands.
CHAOS_FID = Fidelity(warmup_instructions=20_000,
                     measure_instructions=150_000)

REPO = Path(__file__).resolve().parents[2]


def _spawn_worker(root, worker_id, log, chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if chaos:
        env["REPRO_CHAOS_BACKEND"] = chaos
    return subprocess.Popen(
        [sys.executable, "-m", "repro.fabric", "worker", str(root),
         "--worker-id", worker_id, "--heartbeat", "0.2",
         "--idle-exit", "20"],
        cwd=REPO, env=env, stdout=log, stderr=subprocess.STDOUT)


@pytest.mark.slow
def test_worker_host_killed_mid_campaign_is_bit_identical(
        tmp_path, specs, machine):
    root = tmp_path / "fab"
    coord = Coordinator(root, lease_ttl=1.0, poll_interval=0.02)

    done = {}

    def campaign():
        done["suite"] = coord.run_campaign(specs, machine, CHAOS_FID,
                                           timeout=600.0)

    runner = threading.Thread(target=campaign, daemon=True)
    runner.start()

    # wait for the queue to fill before the fleet arrives
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline \
            and not coord.ledger.queue_entries():
        time.sleep(0.01)
    assert coord.ledger.queue_entries(), "campaign never enqueued"

    victim_id, survivor_id = "wVictim", "wSurvivor"
    with open(tmp_path / "workers.log", "wb") as log:
        victim = _spawn_worker(root, victim_id, log)
        survivor = _spawn_worker(root, survivor_id, log)
        try:
            # SIGKILL the victim the moment it holds a lease
            deadline = time.monotonic() + 60.0
            held = None
            while time.monotonic() < deadline and held is None:
                for unit_id, lease in coord.ledger \
                        .active_leases().items():
                    if lease["worker"] == victim_id:
                        held = unit_id
                        break
                if victim.poll() is not None:
                    break
                time.sleep(0.005)
            assert held is not None, "victim never claimed a lease"
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30.0)

            runner.join(timeout=600.0)
            assert not runner.is_alive(), "campaign did not finish"
        finally:
            for proc in (victim, survivor):
                if proc.poll() is None:
                    proc.terminate()
            survivor.wait(timeout=60.0)

    suite = done["suite"]
    ref = characterize_suite(specs, machine, CHAOS_FID)
    assert suite.names == ref.names
    assert suite.failures == []
    assert np.array_equal(suite.metric_matrix().values,
                          ref.metric_matrix().values)

    # the survivor really did carry the fleet after the kill
    records = coord.ledger.done_records()
    assert records, "no done records journalled"
    workers = {rec["worker"] for rec in records.values()}
    assert survivor_id in workers


# ---------------------------------------------------------------------------
# Coordinator HA + I/O chaos matrix
# ---------------------------------------------------------------------------

#: chaos matrix: who dies, and what weather the workers fly through
HA_SCENARIOS = {
    "coordinator-kill": {"kill_leader": True, "chaos": None},
    "store-outage": {"kill_leader": False,
                     "chaos": "seed=7,eio=0.15,stale=0.1"},
    "combined": {"kill_leader": True,
                 "chaos": "seed=7,eio=0.05,stale=0.05,torn=0.05"},
}

#: the serial reference is fault-free and scenario-independent
_REF = {}


def _serial_reference(specs, machine):
    if "suite" not in _REF:
        _REF["suite"] = characterize_suite(specs, machine, CHAOS_FID)
    return _REF["suite"]


def _spawn_coordinator(root, role, coordinator_id, bench, log):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if role == "run":
        cmd = [sys.executable, "-m", "repro.fabric", "run", str(root),
               *bench, "--machine", "i9",
               "--instructions", str(CHAOS_FID.measure_instructions),
               "--warmup", str(CHAOS_FID.warmup_instructions),
               "--coordinator-id", coordinator_id,
               "--coordinator-ttl", "1.0", "--lease-ttl", "1.0",
               "--timeout", "600"]
    else:
        cmd = [sys.executable, "-m", "repro.fabric", "standby",
               str(root), "--coordinator-id", coordinator_id,
               "--coordinator-ttl", "1.0", "--lease-ttl", "1.0",
               "--idle-exit", "20"]
    return subprocess.Popen(cmd, cwd=REPO, env=env, stdout=log,
                            stderr=subprocess.STDOUT)


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(HA_SCENARIOS))
def test_campaign_survives_coordinator_and_store_chaos(
        scenario, tmp_path, specs, machine):
    cfg = HA_SCENARIOS[scenario]
    root = tmp_path / "fab"
    observer = Coordinator(root, lease_ttl=1.0, poll_interval=0.02)
    election = observer.election

    # replicate the CLI's job construction so the observer can name
    # the submission and assemble the answer without ever leading
    fingerprint = code_fingerprint()
    jobs = [JobSpec(spec=s, machine=machine, fidelity=CHAOS_FID,
                    seed=0, run_kwargs={}) for s in specs]
    keys = [job.cache_key(fingerprint) for job in jobs]
    sid = submission_id(keys)
    bench = [s.name for s in specs]

    with open(tmp_path / "fleet.log", "wb") as log:
        leader = _spawn_coordinator(root, "run", "cLead", bench, log)
        procs = [leader]
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline \
                    and election.current() != ("cLead", 1):
                assert leader.poll() is None, "leader exited early"
                time.sleep(0.02)
            assert election.current() == ("cLead", 1), \
                "leader never won epoch 1"

            standby = _spawn_coordinator(root, "standby", "cStandby",
                                         bench, log)
            procs.append(standby)
            workers = [_spawn_worker(root, f"wChaos{i}", log,
                                     chaos=cfg["chaos"])
                       for i in range(2)]
            procs += workers

            if cfg["kill_leader"]:
                # the campaign must be genuinely mid-flight: at least
                # one worker holds a lease when the kill lands
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline \
                        and not observer.ledger.active_leases():
                    time.sleep(0.01)
                assert observer.ledger.active_leases(), \
                    "no worker ever held a lease"
                leader.send_signal(signal.SIGKILL)
                leader.wait(timeout=30.0)

                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    cur = election.current()
                    if cur is not None and cur[1] >= 2:
                        break
                    time.sleep(0.05)
                assert election.current() == ("cStandby", 2), \
                    "standby never took over with a fenced epoch"

            deadline = time.monotonic() + 600.0
            while time.monotonic() < deadline \
                    and not observer.is_settled(sid):
                time.sleep(0.1)
            assert observer.is_settled(sid), "campaign never settled"

            if not cfg["kill_leader"]:
                # the undisturbed leader finishes and exits cleanly
                assert leader.wait(timeout=120.0) == 0
                assert election.current() == ("cLead", 1)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=60.0)
                except subprocess.TimeoutExpired:
                    proc.kill()

    # assemble the answer read-only, exactly as a deposed submitter
    # would, and hold it to the fault-free serial run bit for bit
    outcomes = observe_outcomes(observer, keys)
    assert sorted(outcomes) == list(range(len(jobs)))
    assert all(s == "done" for s, _ in outcomes.values()), \
        [s for s, _ in outcomes.values()]
    suite = observer.collect(jobs, keys, outcomes, machine)
    ref = _serial_reference(specs, machine)
    assert suite.names == ref.names
    assert suite.failures == []
    assert np.array_equal(suite.metric_matrix().values,
                          ref.metric_matrix().values)
