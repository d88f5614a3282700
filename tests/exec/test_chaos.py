"""Chaos harness tests, ending in the acceptance scenario: a campaign
that loses workers, has store entries corrupted, and is SIGINT'd midway
must — after resume — produce a SuiteResult bit-identical to an
uninterrupted serial run, with every injected failure journaled."""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.exec.campaign import (CampaignInterrupted, CampaignManifest,
                                 graceful_shutdown)
from repro.exec.chaos import (BackendChaosConfig, ChaosBackend,
                              ChaosConfig, ChaosExecutor, doomed,
                              injected, roll)
from repro.exec.jobs import JobSpec, code_fingerprint
from repro.exec.store import ResultStore
from repro.harness.runner import Fidelity
from repro.harness.suite import characterize_suite
from repro.uarch.machine import get_machine
from repro.workloads.dotnet import dotnet_category_specs

FID = Fidelity(warmup_instructions=6_000, measure_instructions=10_000)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


class TestDeterministicRolls:
    def test_roll_uniform_and_stable(self):
        draws = [roll(0, "crash", f"job-{i}") for i in range(64)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [roll(0, "crash", f"job-{i}") for i in range(64)]
        assert len(set(draws)) == 64        # no collisions on 64 targets

    def test_seed_and_kind_decorrelate(self):
        assert roll(0, "crash", "x") != roll(1, "crash", "x")
        assert roll(0, "crash", "x") != roll(0, "flaky", "x")

    def test_doomed_respects_rate(self):
        cfg = ChaosConfig(seed=3)
        names = [f"job-{i}" for i in range(200)]
        hit = sum(doomed(cfg, "crash", 0.2, n) for n in names)
        assert 20 <= hit <= 60              # ~0.2 of 200, loose bounds


class TestOnceMarkers:
    def test_fault_fires_exactly_once(self, tmp_path):
        cfg = ChaosConfig(seed=0, flaky_rate=1.0, once=True,
                          state_dir=str(tmp_path))
        executor = ChaosExecutor(cfg, inner=lambda job: "ok")

        class Job:
            name = "victim"

        with pytest.raises(OSError):
            executor(Job())
        assert executor(Job()) == "ok"      # marker consumed
        assert executor(Job()) == "ok"

    def test_once_without_state_dir_rejected(self):
        cfg = ChaosConfig(seed=0, flaky_rate=1.0, once=True)
        executor = ChaosExecutor(cfg, inner=lambda job: "ok")

        class Job:
            name = "victim"

        with pytest.raises(ValueError):
            executor(Job())

    def test_persistent_fault_fires_every_time(self):
        cfg = ChaosConfig(seed=0, flaky_rate=1.0, once=False)
        executor = ChaosExecutor(cfg, inner=lambda job: "ok")

        class Job:
            name = "victim"

        for _ in range(3):
            with pytest.raises(OSError):
                executor(Job())


def _chaos_store(root, seed):
    """A result store whose backend corrupts ~10% of its writes."""
    return ResultStore(backend=ChaosBackend(
        root, BackendChaosConfig(seed=seed, corrupt_rate=0.1)))


def _pick_chaos_seed(kind, names, keys, doomed_names_of, store_root):
    """Find a chaos seed where the configured rates actually doom a
    proper subset of jobs AND at least one store key of a surviving job
    (keys are fingerprint-dependent, so this must be computed, not
    hard-coded)."""
    for seed in range(500):
        cfg = ChaosConfig(seed=seed)
        bad_jobs = doomed_names_of(cfg)
        store = _chaos_store(store_root, seed)
        entries = {store.path_for(k).name: k for k in keys}
        corrupted = {entries[e] for e in
                     store.backend.doomed_names("corrupt", entries)}
        bad_keys = [k for k, n in zip(keys, names)
                    if k in corrupted and n not in bad_jobs]
        if 1 <= len(bad_jobs) <= len(names) - 2 and bad_keys:
            return seed, set(bad_jobs), set(bad_keys)
    pytest.fail(f"no usable chaos seed for kind={kind}")


class TestCampaignSurvivesChaos:
    """The acceptance scenario (ISSUE 3): ~20% of workers killed, ~10%
    of store writes corrupted, campaign SIGINT'd midway — resumed runs
    recover to a bit-identical SuiteResult and every injected failure
    is present in the manifest's failure records."""

    def _acceptance(self, tmp_path, kind, jobs):
        specs = dotnet_category_specs()[:8]
        machine = get_machine("i9")
        names = [s.name for s in specs]
        reference = characterize_suite(specs, machine, FID)

        fingerprint = code_fingerprint()
        keys = [JobSpec(spec=s, machine=machine,
                        fidelity=FID).cache_key(fingerprint)
                for s in specs]
        store_root = tmp_path / "cache"
        seed, doomed_jobs, doomed_keys = _pick_chaos_seed(
            kind, names, keys,
            lambda cfg: {n for n in names if doomed(cfg, kind, 0.2, n)},
            store_root)
        cfg = ChaosConfig(
            seed=seed, once=False,
            crash_rate=0.2 if kind == "crash" else 0.0,
            flaky_rate=0.2 if kind == "flaky" else 0.0)

        manifest_path = tmp_path / "campaign.jsonl"
        completions = {"n": 0}

        def progress(i, total, name):
            completions["n"] += 1
            if completions["n"] == 2:
                os.kill(os.getpid(), signal.SIGINT)

        # Phase A: chaos on, SIGINT after two completions.
        with injected(cfg), graceful_shutdown() as stop:
            with pytest.raises(CampaignInterrupted) as excinfo:
                characterize_suite(
                    specs, machine, FID, jobs=jobs,
                    store=_chaos_store(store_root, seed),
                    on_error="skip", progress=progress,
                    manifest=CampaignManifest(manifest_path),
                    should_stop=stop.is_set)
        assert excinfo.value.remaining > 0

        # Phase B: resume with chaos still raging — doomed jobs exhaust
        # their retry budget and land in the journal as failures.
        with injected(cfg):
            partial = characterize_suite(
                specs, machine, FID, jobs=jobs,
                store=_chaos_store(store_root, seed), on_error="skip",
                manifest=CampaignManifest(manifest_path))
        assert {f.name for f in partial.failures} == doomed_jobs
        assert all(f.classification == "transient"
                   for f in partial.failures)

        # Phase C: the weather clears — resume re-attempts the transient
        # failures, detects the corrupted store entries as misses, and
        # recovers the full suite.
        resumed = characterize_suite(
            specs, machine, FID, jobs=jobs,
            store=ResultStore(store_root), on_error="skip",
            manifest=CampaignManifest(manifest_path))

        assert resumed.ok
        assert resumed.names == reference.names
        assert np.array_equal(resumed.metric_matrix().values,
                              reference.metric_matrix().values)
        assert [r.counters for r in resumed.results] \
            == [r.counters for r in reference.results]

        # Every injected job failure is in the manifest's journal, and
        # nothing is still failed after recovery.
        final = CampaignManifest(manifest_path)
        assert doomed_jobs <= {f.name for f in final.all_failures()}
        assert final.failure_records() == {}
        assert final.done_keys() == set(keys)
        # At least one corrupted entry was caught and quarantined.
        assert ResultStore(store_root).stats().corrupt >= 1
        assert doomed_keys     # the seed search guaranteed a candidate

    def test_serial_campaign_recovers(self, tmp_path):
        # Serial variant injects transient OSErrors (an in-process
        # os._exit would take pytest down with it).
        self._acceptance(tmp_path, kind="flaky", jobs=1)

    @needs_fork
    def test_parallel_campaign_recovers_from_worker_kills(self, tmp_path):
        self._acceptance(tmp_path, kind="crash", jobs=4)
