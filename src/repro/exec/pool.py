"""Multiprocessing job scheduler with store integration.

:func:`run_jobs` executes a list of :class:`~repro.exec.jobs.JobSpec`
and returns one outcome per job, in job order: a ``RunResult`` on
success or a :class:`JobFailure` for failures the caller asked to
tolerate.  Scheduling properties:

* **store first** — with a :class:`~repro.exec.store.ResultStore`, keys
  are computed once (one source-tree fingerprint for the batch) and
  hits are returned without simulating; fresh results are published to
  the store as they complete;
* **spawn-safe workers** — the worker entry point is a module-level
  function fed picklable ``JobSpec``\\ s, so every start method
  (``fork``, ``spawn``, ``forkserver``) works;
* **chunked dispatch** — jobs are handed to workers in chunks to
  amortize queue round-trips, with results streamed back per job;
* **per-job timeout** — a worker that exceeds ``timeout`` seconds on a
  job is terminated and replaced;
* **transient-failure retry** — a job whose worker died, timed out, or
  raised an ``OSError`` (the transient arm of the error taxonomy; see
  :mod:`repro.exec.campaign`) is requeued up to ``max_retries`` times,
  sleeping the :class:`~repro.exec.resilience.RetryPolicy` schedule
  that starts at ``retry_backoff``; exhaustion is recorded as a
  :class:`JobFailure` instead of raised, so one poisonous job cannot
  sink a corpus-scale batch;
* **graceful interruption** — ``should_stop`` (a zero-argument
  callable, e.g. the flag set by a SIGINT handler) is polled between
  completions; once true, no new work is dispatched, workers are torn
  down, and unfinished outcomes stay ``None`` so the caller can journal
  what completed and resume later;
* **serial fallback** — ``n_jobs=1`` (or a platform with no usable
  start method) runs everything in-process with identical semantics.

Because the simulator is seeded-deterministic, the outcome list is
bit-identical across ``n_jobs`` values and start methods — parallelism
is purely a wall-clock optimization.

Deterministic workload exceptions (raised *by the simulator*, not
``OSError``) are never retried.  Types listed in ``catch`` become
:class:`JobFailure` outcomes (the sweep OOM-cell semantics); anything
else propagates to the caller after the pool shuts down.
"""

from __future__ import annotations

import math
import pickle
import queue as queue_mod
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.exec import warm as warm_mod
from repro.exec.costmodel import CostModel, lpt_order
from repro.exec.jobs import JobSpec, code_fingerprint, execute_job
from repro.exec.progress import ProgressReporter
from repro.exec.resilience import RetryPolicy
from repro.exec.store import ResultStore

#: indirection so tests (and embedders) can swap the job runner; workers
#: resolve it at call time, so under ``fork`` a patched value propagates
_execute = execute_job

#: seconds between scheduler health checks while waiting for results
_POLL_SECONDS = 0.05


class JobTimeout(RuntimeError):
    """A job exceeded the per-job timeout and its worker was killed."""


class WorkerCrash(RuntimeError):
    """A worker process died while a job was in flight."""


@dataclass
class JobFailure:
    """Terminal failure outcome for one job."""

    job: JobSpec
    error: BaseException
    #: True when the job got (and exhausted) at least one retry
    retried: bool = False
    #: execution attempts consumed (1 = failed on the first try)
    attempts: int = 1


def _default_start_method() -> str | None:
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:       # cheapest where available (POSIX)
        return "fork"
    if "spawn" in methods:
        return "spawn"
    return None


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker loop: chunks of ``(index, job[, span_ctx])`` in, per-job
    results out.

    Each result carries the job's wall-clock seconds (feeding the
    scheduler's cost model) and, when observability is on, the worker's
    cumulative metrics snapshot (merged once per worker pid by the
    parent).  Chunk items may carry the scheduler's span context as a
    third element, which parents the worker's ``pool.job`` spans across
    the process boundary.  On any failure the worker's warm-state cache
    (:mod:`repro.exec.warm`) is dropped before the error is forwarded —
    a job that died mid-consume may have poisoned a reused model, and a
    retry must start from cold state.
    """
    obs.configure_from_env()
    while True:
        chunk = task_queue.get()
        if chunk is None:
            obs.flush()
            return
        for item in chunk:
            index, job = item[0], item[1]
            parent = item[2] if len(item) > 2 else None
            started = time.perf_counter()
            with obs.span("pool.job", parent=parent,
                          workload=job.name, worker=worker_id) as sp:
                try:
                    ok, payload = True, _execute(job)
                except BaseException as exc:  # noqa: BLE001 — forwarded
                    warm_mod.evict_all()
                    ok, payload = False, exc
                    try:
                        pickle.dumps(payload)
                    except Exception:
                        payload = WorkerCrash(
                            f"worker exception not picklable: {exc!r}")
                    sp.set_attr("error", type(exc).__name__)
            seconds = time.perf_counter() - started
            if ok:
                obs.add("pool.jobs_executed")
                obs.observe("pool.job_seconds", seconds)
            else:
                obs.add("pool.jobs_failed")
            result_queue.put((index, worker_id, ok, payload, seconds,
                              obs.metrics_snapshot()))


@dataclass
class _Worker:
    wid: int
    process: object
    tasks: object
    #: index -> job for everything dispatched and not yet reported
    inflight: dict[int, JobSpec]
    deadline: float | None = None


def _spawn_worker(ctx, wid: int, result_queue) -> _Worker:
    tasks = ctx.SimpleQueue()
    process = ctx.Process(target=_worker_main,
                          args=(wid, tasks, result_queue), daemon=True)
    process.start()
    return _Worker(wid=wid, process=process, tasks=tasks, inflight={})


def run_jobs(jobs: Sequence[JobSpec], n_jobs: int = 1, *,
             store: ResultStore | None = None,
             progress=None,
             reporter: ProgressReporter | None = None,
             catch: tuple[type, ...] = (),
             timeout: float | None = None,
             max_retries: int = 1,
             retry_backoff: float = 0.0,
             should_stop: Callable[[], bool] | None = None,
             start_method: str | None = None,
             chunk_size: int | None = None,
             cost_model: CostModel | None = None) -> list:
    """Execute ``jobs`` and return per-job outcomes in job order.

    ``progress`` is the harness's ``(index, total, name)`` callback
    shape (invoked per completion, including store hits); pass a
    prebuilt ``reporter`` instead for throughput/ETA telemetry.  When
    ``should_stop`` fires, unfinished outcomes are left as ``None``.

    Scheduling is cost-aware: per-workload EWMA runtimes persisted next
    to the result store (``cost_model``, built automatically when a
    ``store`` is given) order misses longest-processing-time-first and
    feed the reporter's work-based ETA.  With no recorded costs the
    order degrades to FIFO — exactly the previous behavior.
    """
    jobs = list(jobs)
    # attempts, not wall clock, bound a job's retries: jobs run minutes
    retry = RetryPolicy(retries=max_retries, backoff=retry_backoff,
                        deadline=None)
    with obs.span("pool.run_jobs", jobs=len(jobs), n_jobs=n_jobs):
        return _run_jobs(jobs, n_jobs, store, progress, reporter, catch,
                         timeout, retry, should_stop, start_method,
                         chunk_size, cost_model)


def _run_jobs(jobs: list, n_jobs: int, store, progress, reporter, catch,
              timeout, retry, should_stop, start_method, chunk_size,
              cost_model) -> list:
    total = len(jobs)
    outcomes: list = [None] * total
    if reporter is None:
        reporter = ProgressReporter(total, callback=progress)
    if total == 0 or (should_stop is not None and should_stop()):
        return outcomes

    keys: list[str] | None = None
    misses = list(range(total))
    if store is not None:
        fingerprint = code_fingerprint()
        keys = [job.cache_key(fingerprint) for job in jobs]
        if cost_model is None:
            cost_model = CostModel.for_store(store)

    method = start_method or _default_start_method()
    serial = n_jobs <= 1 or method is None

    if serial:
        estimates = [cost_model.estimate(job) if cost_model else None
                     for job in jobs]
        for est in estimates:
            if est is not None:
                reporter.add_work(est)
        for i in lpt_order(list(range(total)), estimates):
            if should_stop is not None and should_stop():
                break
            job = jobs[i]
            reporter.worker_busy(0, job.name)
            with obs.span("pool.job", workload=job.name, worker=0) as sp:
                outcomes[i], cached, seconds = _run_one_serial(
                    job, keys[i] if keys else None, store, catch, retry)
                if cached:
                    sp.set_attr("cached", True)
            reporter.worker_idle(0)
            if cached:
                obs.add("pool.store_hits")
            elif isinstance(outcomes[i], JobFailure):
                obs.add("pool.jobs_failed")
            else:
                obs.add("pool.jobs_executed")
                obs.observe("pool.job_seconds", seconds)
            if cost_model is not None and not cached and seconds > 0.0:
                cost_model.observe(job, seconds)
            reporter.job_done(job.name, worker_id=-1 if cached else 0,
                              cached=cached,
                              work=estimates[i] or 0.0)
        if cost_model is not None:
            cost_model.save()
        return outcomes

    # Resolve store hits up front so only real work is dispatched.
    if store is not None and keys is not None:
        still_missing = []
        for i in misses:
            hit = store.get(keys[i], _MISS)
            if hit is _MISS:
                still_missing.append(i)
            else:
                outcomes[i] = hit
                obs.add("pool.store_hits")
                reporter.job_done(jobs[i].name, worker_id=-1, cached=True)
        misses = still_missing
    if not misses:
        return outcomes

    # Longest-processing-time-first over the cost model's estimates
    # (unknown-cost jobs lead; no estimates at all keeps FIFO).
    estimates = {i: (cost_model.estimate(jobs[i]) if cost_model else None)
                 for i in misses}
    misses = lpt_order(misses, [estimates[i] for i in misses])
    for est in estimates.values():
        if est is not None:
            reporter.add_work(est)

    _run_parallel(jobs, misses, outcomes, keys, store, reporter,
                  catch, timeout, method, min(n_jobs, len(misses)),
                  chunk_size, retry, should_stop, cost_model, estimates)
    if cost_model is not None:
        cost_model.save()
    return outcomes


_MISS = object()


def _run_one_serial(job: JobSpec, key: str | None,
                    store: ResultStore | None,
                    catch: tuple[type, ...],
                    retry: RetryPolicy) -> tuple[object, bool, float]:
    """One in-process job: ``(outcome, served_from_store, seconds)``.

    Mirrors the worker's failure hygiene: any exception from the job —
    retried or terminal — evicts the process's warm-state cache before
    the next attempt, so a poisoned reused model never leaks forward.
    """
    if store is not None and key is not None:
        hit = store.get(key, _MISS)
        if hit is not _MISS:
            return hit, True, 0.0
    delays = [0.0, *retry.delays()]
    for attempt, delay in enumerate(delays, 1):
        if delay:
            time.sleep(delay)
        started = time.perf_counter()
        try:
            result = _execute(job)
            break
        except OSError as exc:
            warm_mod.evict_all()
            # Transient per the campaign taxonomy: retry with backoff.
            if attempt < len(delays):
                continue
            if isinstance(exc, catch):
                return JobFailure(job=job, error=exc,
                                  retried=attempt > 1,
                                  attempts=attempt), False, 0.0
            raise
        except catch as exc:
            warm_mod.evict_all()
            return JobFailure(job=job, error=exc,
                              attempts=attempt), False, 0.0
        except BaseException:
            warm_mod.evict_all()
            raise
    seconds = time.perf_counter() - started
    if store is not None and key is not None:
        store.put(key, result)
    return result, False, seconds


def _auto_chunk(n_misses: int, n_jobs: int) -> int:
    # ~4 chunks per worker balances dispatch overhead against tail
    # latency (a straggler holds at most 1/4 of its fair share).
    return max(1, min(8, math.ceil(n_misses / (n_jobs * 4))))


def _run_parallel(jobs, misses, outcomes, keys, store, reporter, catch,
                  timeout, method, n_jobs, chunk_size, retry,
                  should_stop, cost_model=None, estimates=None) -> None:
    import multiprocessing

    max_retries = retry.retries
    #: delays[n - 1] precedes re-attempt n + 1
    delays = list(retry.delays())
    ctx = multiprocessing.get_context(method)
    chunk = chunk_size or _auto_chunk(len(misses), n_jobs)
    result_queue = ctx.Queue()
    workers = [_spawn_worker(ctx, wid, result_queue)
               for wid in range(n_jobs)]
    pending: deque[int] = deque(misses)
    attempts: Counter[int] = Counter()
    #: earliest monotonic time a retried job may be re-dispatched
    ready_at: dict[int, float] = {}
    done: set[int] = set()
    fatal: BaseException | None = None
    estimates = estimates or {}
    #: scheduler span the workers parent their job spans under
    dispatch_ctx = obs.current_context() if obs.enabled() else None
    #: worker pid -> latest cumulative metrics snapshot (merged once)
    worker_snapshots: dict[int, dict] = {}

    def stopping() -> bool:
        return should_stop is not None and should_stop()

    def work_of(index: int) -> float:
        return estimates.get(index) or 0.0

    def mark_running(worker: _Worker) -> None:
        """Tell the reporter what the worker is (approximately) on.

        Workers drain a chunk in dispatch order and stream one result
        per job, so the first not-yet-reported in-flight job is the one
        running now.
        """
        if worker.inflight:
            running = next(iter(worker.inflight))
            reporter.worker_busy(worker.wid, jobs[running].name)
        else:
            reporter.worker_idle(worker.wid)

    def assign(worker: _Worker) -> None:
        batch = []
        now = time.monotonic()
        for _ in range(len(pending)):
            if len(batch) >= chunk:
                break
            index = pending.popleft()
            if ready_at.get(index, 0.0) > now:
                pending.append(index)     # still backing off
                continue
            attempts[index] += 1
            batch.append((index, jobs[index]))
        if batch:
            worker.inflight.update(batch)
            worker.deadline = (time.monotonic() + timeout
                               if timeout else None)
            if dispatch_ctx is not None:
                worker.tasks.put([(i, job, dispatch_ctx)
                                  for i, job in batch])
            else:
                worker.tasks.put(batch)
            obs.gauge_set("pool.queue_depth", float(len(pending)))
            mark_running(worker)

    def requeue(index: int) -> None:
        obs.add("pool.retries")
        delay = delays[attempts[index] - 1]
        if delay:
            ready_at[index] = time.monotonic() + delay
        pending.appendleft(index)

    def settle_infra_failure(worker: _Worker, make_error) -> None:
        """Requeue (with backoff) or fail every job the dead worker
        held, depending on remaining retry budget."""
        for index, job in list(worker.inflight.items()):
            if index in done:
                continue
            if attempts[index] > max_retries:
                outcomes[index] = JobFailure(
                    job=job, error=make_error(job),
                    retried=attempts[index] > 1,
                    attempts=attempts[index])
                done.add(index)
                reporter.job_done(job.name, worker.wid,
                                  work=work_of(index))
            else:
                requeue(index)
        worker.inflight.clear()
        reporter.worker_idle(worker.wid)

    try:
        while len(done) < len(misses) and fatal is None:
            if stopping():
                break
            for worker in workers:
                if not worker.inflight and pending:
                    if not worker.process.is_alive():
                        workers[worker.wid] = worker = _spawn_worker(
                            ctx, worker.wid, result_queue)
                    assign(worker)
            try:
                item = result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                pass
            else:
                # 6-tuple from _worker_main; tolerate the legacy
                # 4/5-tuple shapes from embedders that swap the worker.
                index, wid, ok, payload = item[:4]
                seconds = item[4] if len(item) > 4 else 0.0
                snap = item[5] if len(item) > 5 else None
                if snap is not None:
                    worker_snapshots[snap.get("pid", wid)] = snap
                worker = workers[wid]
                worker.inflight.pop(index, None)
                worker.deadline = (time.monotonic() + timeout
                                   if timeout and worker.inflight
                                   else None)
                mark_running(worker)
                if index in done:       # duplicate after a retry race
                    continue
                if ok:
                    outcomes[index] = payload
                    done.add(index)
                    if store is not None and keys is not None:
                        store.put(keys[index], payload)
                    if cost_model is not None and seconds > 0.0:
                        cost_model.observe(jobs[index], seconds)
                    reporter.job_done(jobs[index].name, wid,
                                      work=work_of(index))
                elif (isinstance(payload, OSError)
                        and attempts[index] <= max_retries):
                    requeue(index)      # transient: retry with backoff
                elif isinstance(payload, catch):
                    outcomes[index] = JobFailure(
                        job=jobs[index], error=payload,
                        retried=attempts[index] > 1,
                        attempts=attempts[index])
                    done.add(index)
                    reporter.job_done(jobs[index].name, wid,
                                      work=work_of(index))
                else:
                    fatal = payload
                continue
            now = time.monotonic()
            for worker in workers:
                if not worker.inflight:
                    continue
                if not worker.process.is_alive():
                    obs.add("pool.worker_crashes")
                    settle_infra_failure(
                        worker, lambda job: WorkerCrash(
                            f"worker died running {job.name!r}"))
                    workers[worker.wid] = _spawn_worker(
                        ctx, worker.wid, result_queue)
                elif worker.deadline is not None and now > worker.deadline:
                    obs.add("pool.worker_timeouts")
                    worker.process.terminate()
                    worker.process.join(1.0)
                    settle_infra_failure(
                        worker, lambda job: JobTimeout(
                            f"{job.name!r} exceeded {timeout}s"))
                    workers[worker.wid] = _spawn_worker(
                        ctx, worker.wid, result_queue)
    finally:
        for worker in workers:
            if worker.process.is_alive():
                try:
                    worker.tasks.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
        result_queue.cancel_join_thread()
        result_queue.close()
        for snap in worker_snapshots.values():
            obs.merge_snapshot(snap)

    if fatal is not None:
        raise fatal
