"""Pool edge cases under injected faults: retry exhaustion, timeout of
the last in-flight job, duplicate completions, graceful stop, backoff."""

import multiprocessing
import os
import time

import pytest

import repro.exec.pool as pool_mod
from repro.exec.chaos import ChaosConfig, ChaosExecutor, injected
from repro.exec.jobs import JobSpec
from repro.exec.pool import JobFailure, JobTimeout, WorkerCrash, run_jobs
from repro.harness.runner import Fidelity
from repro.uarch.machine import get_machine
from repro.workloads.dotnet import dotnet_category_specs

FID = Fidelity(warmup_instructions=6_000, measure_instructions=10_000)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


def make_jobs(n=3, **overrides):
    fields = dict(machine=get_machine("i9"), fidelity=FID, seed=0)
    fields.update(overrides)
    return [JobSpec(spec=s, **fields)
            for s in dotnet_category_specs()[:n]]


class TestRetryExhaustion:
    @needs_fork
    def test_persistent_crash_consumes_full_budget(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_execute",
                            lambda job: os._exit(13))
        outcomes = run_jobs(make_jobs(1), n_jobs=2, start_method="fork",
                            max_retries=2)
        (failure,) = outcomes
        assert isinstance(failure, JobFailure)
        assert isinstance(failure.error, WorkerCrash)
        assert failure.attempts == 3        # initial try + 2 retries
        assert failure.retried

    @needs_fork
    def test_zero_budget_fails_first_crash_unretried(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_execute",
                            lambda job: os._exit(13))
        outcomes = run_jobs(make_jobs(1), n_jobs=2, start_method="fork",
                            max_retries=0)
        (failure,) = outcomes
        assert isinstance(failure.error, WorkerCrash)
        assert failure.attempts == 1
        assert not failure.retried

    def test_serial_oserror_exhaustion_counts_attempts(self, monkeypatch):
        calls = []

        def flaky(job):
            calls.append(job.name)
            raise OSError("disk weather")

        monkeypatch.setattr(pool_mod, "_execute", flaky)
        outcomes = run_jobs(make_jobs(1), n_jobs=1, catch=(Exception,),
                            max_retries=2)
        (failure,) = outcomes
        assert isinstance(failure.error, OSError)
        assert failure.attempts == 3 == len(calls)
        assert failure.retried


class TestTimeoutOfLastJob:
    @needs_fork
    def test_hang_on_final_job_does_not_stall_pool(self, monkeypatch):
        """The straggler is the *last* in-flight job — nothing else is
        pending, so only the deadline check can unblock the pool."""
        jobs = make_jobs(3)
        last = jobs[-1].name

        def selective(job):
            if job.name == last:
                time.sleep(60)
            return pool_mod.execute_job(job)

        monkeypatch.setattr(pool_mod, "_execute", selective)
        start = time.monotonic()
        outcomes = run_jobs(jobs, n_jobs=2, start_method="fork",
                            chunk_size=1, timeout=0.5, max_retries=0)
        assert time.monotonic() - start < 20
        assert not isinstance(outcomes[0], JobFailure)
        assert not isinstance(outcomes[1], JobFailure)
        assert isinstance(outcomes[2], JobFailure)
        assert isinstance(outcomes[2].error, JobTimeout)


class TestDuplicateCompletion:
    @needs_fork
    def test_double_reported_result_counted_once(self, monkeypatch):
        """A worker that reports the same job twice (the retry-race
        shape) must not corrupt ordering or double-complete."""

        def doubling_worker(worker_id, task_queue, result_queue):
            while True:
                chunk = task_queue.get()
                if chunk is None:
                    return
                for index, job in chunk:
                    try:
                        ok, payload = True, pool_mod._execute(job)
                    except BaseException as exc:  # noqa: BLE001
                        ok, payload = False, exc
                    result_queue.put((index, worker_id, ok, payload))
                    result_queue.put((index, worker_id, ok, payload))

        reference = run_jobs(make_jobs(3), n_jobs=1)
        monkeypatch.setattr(pool_mod, "_worker_main", doubling_worker)
        seen = []
        outcomes = run_jobs(
            make_jobs(3), n_jobs=2, start_method="fork", chunk_size=1,
            progress=lambda i, n, name: seen.append(name))
        assert [r.counters for r in outcomes] \
            == [r.counters for r in reference]
        assert len(seen) == 3               # one completion per job


class TestTransientRetryRecovers:
    def test_serial_flaky_once_rides_out_on_retry(self, tmp_path):
        jobs = make_jobs(3)
        reference = run_jobs(jobs, n_jobs=1)
        config = ChaosConfig(flaky_rate=1.0, once=True,
                             state_dir=str(tmp_path / "chaos"))
        with injected(config):
            outcomes = run_jobs(jobs, n_jobs=1, catch=(Exception,),
                                max_retries=1)
        assert [r.counters for r in outcomes] \
            == [r.counters for r in reference]
        # every job left its once-marker: each fault fired exactly once
        assert len(list((tmp_path / "chaos").iterdir())) == 3

    @needs_fork
    def test_parallel_flaky_once_rides_out_on_retry(self, tmp_path):
        jobs = make_jobs(3)
        reference = run_jobs(jobs, n_jobs=1)
        config = ChaosConfig(flaky_rate=1.0, once=True,
                             state_dir=str(tmp_path / "chaos"))
        with injected(config):
            outcomes = run_jobs(jobs, n_jobs=2, start_method="fork",
                                chunk_size=1, catch=(Exception,),
                                max_retries=1)
        assert [r.counters for r in outcomes] \
            == [r.counters for r in reference]

    def test_doomed_names_predicts_firings(self, tmp_path):
        config = ChaosConfig(seed=7, flaky_rate=0.5, once=False)
        executor = ChaosExecutor(config)
        names = [s.name for s in dotnet_category_specs()]
        doomed_set = set(executor.doomed_names("flaky", names))
        assert 0 < len(doomed_set) < len(names)
        jobs = make_jobs(len(names))
        with injected(executor):
            outcomes = run_jobs(jobs, n_jobs=1, catch=(Exception,),
                                max_retries=0)
        failed = {o.job.name for o in outcomes
                  if isinstance(o, JobFailure)}
        assert failed == doomed_set


class TestGracefulStop:
    def test_stop_before_start_serial(self):
        outcomes = run_jobs(make_jobs(3), n_jobs=1,
                            should_stop=lambda: True)
        assert outcomes == [None, None, None]

    @needs_fork
    def test_stop_before_start_parallel(self):
        outcomes = run_jobs(make_jobs(3), n_jobs=2, start_method="fork",
                            should_stop=lambda: True)
        assert outcomes == [None, None, None]

    def test_stop_midway_leaves_tail_unfinished(self):
        fired = {"n": 0}

        def stop_after_first() -> bool:
            return fired["n"] >= 1

        outcomes = run_jobs(
            make_jobs(3), n_jobs=1, should_stop=stop_after_first,
            progress=lambda i, n, name: fired.__setitem__("n", i + 1))
        assert outcomes[0] is not None
        assert outcomes[1] is None and outcomes[2] is None


class TestBackoff:
    def test_backoff_schedule_is_exponential(self, monkeypatch):
        # the sleeps run_jobs takes between attempts of a job that
        # raises OSError every time, for the worker's and the harness's
        # (max_retries, retry_backoff)
        monkeypatch.setattr(pool_mod, "_execute",
                            lambda job: (_ for _ in ()).throw(
                                OSError("weather")))

        def sleeps(backoff):
            taken = []
            with monkeypatch.context() as m:
                m.setattr(pool_mod.time, "sleep", taken.append)
                (failure,) = run_jobs(make_jobs(1), n_jobs=1,
                                      catch=(Exception,), max_retries=3,
                                      retry_backoff=backoff)
            assert type(failure.error) is OSError     # not wrapped
            assert failure.attempts == 4
            return taken

        assert sleeps(0.1) == pytest.approx([0.1, 0.2, 0.4])
        assert all(delay == 0.0 for delay in sleeps(0.0))

    def test_serial_retry_waits_out_backoff(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_execute",
                            lambda job: (_ for _ in ()).throw(
                                OSError("weather")))
        start = time.monotonic()
        outcomes = run_jobs(make_jobs(1), n_jobs=1, catch=(Exception,),
                            max_retries=2, retry_backoff=0.05)
        elapsed = time.monotonic() - start
        assert elapsed >= 0.15              # 0.05 + 0.10 between attempts
        assert isinstance(outcomes[0], JobFailure)
