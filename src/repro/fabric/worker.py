"""Worker agent: pull leases, run jobs, report outcomes.

One agent process serves one host.  Its loop is deliberately dumb —
all cleverness lives in layers that already exist:

1. scan the queue in filename order (which *is* the coordinator's LPT
   order), skip units that are leased or done, and try to claim the
   first claimable one (``O_EXCL`` — losing the race costs a directory
   scan, nothing more);
2. run the claimed unit through :func:`repro.exec.pool.run_jobs` —
   the same path a local campaign takes, so the shared result store,
   trace store, warm caches, retry/backoff and cost-model observation
   all apply unchanged (and the cost model's locked read-merge-write
   ``save`` is how this worker reports its runtime observations back
   for the coordinator's next LPT ordering);
3. publish a ``done/`` record (first writer wins) and release the
   lease.

A background thread renews the unit lease and the agent's own
heartbeat file while a job runs, so a long simulation is never
mistaken for a dead host.  If a renewal discovers the lease was
reclaimed (the agent was presumed dead), the run still completes —
execution is deterministic and the store content-addressed, so the
late completion either wins the ``done/`` race or is dropped by it,
and the campaign manifest's unit-keyed guard settles the unit exactly
once either way.

Worker spans parent under the coordinator's submitting span via the
``span`` tuple carried in the unit envelope, so one cross-host trace
shows request → campaign → unit → pool job.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

from repro import obs
from repro.obs import timeseries
from repro.exec.backend import StoreBackend
from repro.exec.campaign import WorkloadFailure
from repro.exec.costmodel import CostModel
from repro.exec.pool import JobFailure, run_jobs
from repro.exec.resilience import CircuitBreaker, WRITE_POLICY, retry_call
from repro.exec.store import ResultStore
from repro.fabric.coordinator import STORE_DIR, fabric_backend
from repro.fabric.lease import LeaseLedger
from repro.fabric.units import WorkUnit
from repro.obs.spans import SpanContext

#: default seconds between lease/worker heartbeat renewals
DEFAULT_HEARTBEAT = 1.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeater(threading.Thread):
    """Renews the unit lease + agent heartbeat while a job runs."""

    def __init__(self, ledger: LeaseLedger, worker: str, unit_id: str,
                 interval: float, seq_start: int):
        super().__init__(daemon=True)
        self.ledger = ledger
        self.worker = worker
        self.unit_id = unit_id
        self.interval = interval
        self.seq = seq_start
        self.lost = threading.Event()
        # NB: not ``_stop`` — that would shadow threading.Thread._stop
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.seq += 1
            try:
                self.ledger.write_worker_heartbeat(
                    self.worker, [self.unit_id], self.seq)
                if not self.ledger.heartbeat(self.unit_id, self.worker):
                    self.lost.set()     # reclaimed; finish anyway
            except OSError:
                # A transient write fault must not kill this thread —
                # a dead heartbeater looks exactly like a dead host
                # and gets a healthy worker's lease reclaimed.  Count
                # it and try again next tick.
                obs.add("fabric.heartbeat_errors")

    def stop(self) -> int:
        self._halt.set()
        self.join(timeout=self.interval * 4 + 1.0)
        return self.seq


class ResultSpool:
    """Local holding area for work the shared store refused to take.

    A worker that finishes a unit during a store outage has the result
    in memory and nowhere durable to put it.  Losing it (and re-running
    a multi-minute simulation) is the failure mode this prevents: the
    result pickles to local disk, the matching done record queues
    beside it, and :meth:`flush` replays both — results strictly
    before records, so a done record never points at a store miss —
    once the backend answers again.  Everything here is idempotent:
    the store is content-addressed and done records first-writer-wins,
    so replaying a spool twice is harmless.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _results_dir(self) -> Path:
        return self.root / "results"

    def _records_dir(self) -> Path:
        return self.root / "records"

    def put_result(self, key: str, value) -> None:
        d = self._results_dir()
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / f".{key}.tmp"
        tmp.write_bytes(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, d / f"{key}.pkl")

    def put_record(self, unit_id: str, record: dict) -> None:
        d = self._records_dir()
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / f".{unit_id}.tmp"
        tmp.write_text(json.dumps(record, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, d / f"{unit_id}.json")

    def pending(self) -> int:
        n = 0
        for d in (self._results_dir(), self._records_dir()):
            try:
                n += sum(1 for p in d.iterdir()
                         if not p.name.startswith("."))
            except FileNotFoundError:
                pass
        return n

    def flush(self, store: ResultStore, ledger: LeaseLedger) -> int:
        """Replay the spool into the shared store/ledger.

        Raises ``OSError`` if the backend is still down (whatever was
        replayed so far stays replayed — per-file deletion keeps the
        spool consistent under partial failure).
        """
        flushed = 0
        for path in sorted(self._results_dir().glob("*.pkl")):
            store.put(path.stem, pickle.loads(path.read_bytes()))
            path.unlink(missing_ok=True)
            flushed += 1
        for path in sorted(self._records_dir().glob("*.json")):
            record = json.loads(path.read_text(encoding="utf-8"))
            unit_id = record["unit"]
            ledger.complete(unit_id, record)    # dup -> False, benign
            ledger.remove_queued(unit_id)
            path.unlink(missing_ok=True)
            flushed += 1
        if flushed:
            obs.add("fabric.spool_reconciled", float(flushed))
        return flushed


class _DegradedStore:
    """Store proxy a worker runs jobs against: puts degrade, never die.

    ``put`` rides transient faults with bounded retries under a
    circuit breaker; when the store is genuinely down (retries
    exhausted or breaker open) the result lands in the local spool and
    the put *succeeds* from the job runner's point of view — degraded
    mode means the work is kept, not that the worker stalls in
    kernel-side NFS timeouts.  Reads pass straight through (the store
    already degrades reads to cache misses).
    """

    def __init__(self, store: ResultStore, breaker: CircuitBreaker,
                 spool: ResultSpool):
        self._store = store
        self._breaker = breaker
        self._spool = spool
        #: keys whose results only exist in the local spool so far
        self.spooled_keys: set[str] = set()

    def get(self, key: str, default=None):
        return self._store.get(key, default)

    def put(self, key: str, value):
        try:
            return retry_call(
                lambda: self._breaker.call(
                    lambda: self._store.put(key, value)),
                policy=WRITE_POLICY)
        except OSError:
            self._spool.put_result(key, value)
            self.spooled_keys.add(key)
            obs.add("fabric.spooled_results")
            return None

    def __getattr__(self, name):
        return getattr(self._store, name)


class WorkerAgent:
    """One fabric worker process (one per host, typically)."""

    def __init__(self, root: str | Path | StoreBackend, *,
                 worker_id: str | None = None, shared: bool = False,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT,
                 poll_interval: float = 0.05,
                 job_timeout: float | None = None,
                 spool_dir: str | Path | None = None):
        backend = fabric_backend(root, shared=shared)
        self.backend = backend
        self.root = backend.root
        self.worker_id = worker_id or default_worker_id()
        self.ledger = LeaseLedger(backend)
        self.ledger.ensure_layout()
        self.store = ResultStore(
            backend=fabric_backend(self.root / STORE_DIR, shared=shared))
        self.costs = CostModel.for_store(self.store)
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.job_timeout = job_timeout
        self.breaker = CircuitBreaker(threshold=5, cooldown=2.0)
        if spool_dir is None:
            spool_dir = (Path(tempfile.gettempdir())
                         / f"repro-spool-{self.worker_id}")
        self.spool = ResultSpool(spool_dir)
        self._degraded = _DegradedStore(self.store, self.breaker,
                                        self.spool)
        self._seq = 0
        self.units_run = 0
        # Fleet time-series: a local ring of samples republished whole
        # (capped, so the publication payload is bounded) through the
        # backend seam — works with or without obs enabled, and a
        # store outage only costs samples, never the worker.
        self._series = deque(maxlen=300)
        self._series_seq = 0
        self._series_last = 0.0
        self.series_interval = timeseries.series_interval()

    # -- claiming --------------------------------------------------------

    def claim_next(self) -> WorkUnit | None:
        """Claim the first claimable queued unit, in dispatch order."""
        done = self.ledger.done_records()
        leases = self.ledger.active_leases()
        for unit_id, path in self.ledger.queue_entries():
            if unit_id in done:
                # settled long ago; opportunistically tidy the queue
                path.unlink(missing_ok=True)
                continue
            if unit_id in leases:
                continue
            if not self.ledger.claim(unit_id, self.worker_id):
                continue            # lost the race to another worker
            try:
                return WorkUnit.load(path)
            except (OSError, ValueError):
                # torn/vanished envelope: drop the claim, move on
                self.ledger.release(unit_id, self.worker_id)
                continue
        return None

    # -- execution -------------------------------------------------------

    def run_unit(self, unit: WorkUnit) -> dict:
        """Execute one claimed unit; returns the outcome record."""
        parent = SpanContext(*unit.span) if unit.span else None
        beat = _Heartbeater(self.ledger, self.worker_id, unit.unit_id,
                            self.heartbeat_interval, self._seq)
        beat.start()
        started = time.monotonic()
        try:
            with obs.span("fabric.unit", parent=parent,
                          unit=unit.unit_id, workload=unit.name,
                          worker=self.worker_id):
                cached = self._degraded.get(unit.key) is not None
                outcome = run_jobs(
                    [unit.job], n_jobs=1, store=self._degraded,
                    catch=(Exception,), timeout=self.job_timeout,
                    max_retries=3, retry_backoff=0.1,
                    cost_model=self.costs)[0]
        finally:
            self._seq = beat.stop()
        seconds = time.monotonic() - started
        record = {"unit": unit.unit_id, "name": unit.name,
                  "key": unit.key, "worker": self.worker_id,
                  "seconds": seconds, "cached": cached}
        if isinstance(outcome, JobFailure):
            failure = WorkloadFailure.from_job_failure(outcome,
                                                       key=unit.key)
            record["status"] = "failed"
            record["failure"] = failure.to_json()
        else:
            record["status"] = "done"
        if beat.lost.is_set():
            record["lease_lost"] = True
            obs.add("fabric.late_completions")
        return record

    def serve_one(self) -> bool:
        """Claim + run + report one unit; ``False`` if none claimable."""
        unit = self.claim_next()
        if unit is None:
            return False
        record = self.run_unit(unit)
        if unit.key in self._degraded.spooled_keys \
                and record.get("status") == "done":
            # The result only exists in the local spool: publishing
            # the done record now would be a lie the coordinator
            # requeues (done-without-result).  Spool the record beside
            # it; reconcile replays result-then-record on recovery.
            record["spooled"] = True
            self.spool.put_record(unit.unit_id, record)
            self.ledger.release(unit.unit_id, self.worker_id)
        else:
            try:
                retry_call(
                    lambda: self.ledger.complete(unit.unit_id, record),
                    policy=WRITE_POLICY)
            except OSError:
                # store is fine but the ledger write is not — keep the
                # record locally and replay it later
                self.spool.put_record(unit.unit_id, record)
                obs.add("fabric.spooled_records")
                self.ledger.release(unit.unit_id, self.worker_id)
            else:
                self.ledger.release(unit.unit_id, self.worker_id)
                self.ledger.remove_queued(unit.unit_id)
        self.units_run += 1
        obs.add("fabric.worker_units_run")
        return True

    def _reconcile_spool(self) -> int:
        """Replay spooled results/records once the backend answers.

        The flush attempt doubles as the circuit breaker's half-open
        probe: success closes the circuit, failure re-opens it and we
        try again next loop.
        """
        if not self.spool.pending():
            return 0
        try:
            flushed = self.breaker.call(
                lambda: self.spool.flush(self.store, self.ledger))
        except OSError:
            return 0
        if self.spool.pending() == 0:
            self._degraded.spooled_keys.clear()
        return flushed

    def _publish_series(self, force: bool = False) -> bool:
        """Append one fleet sample and republish this worker's ring.

        Throttled to ``series_interval``; the ring is written whole
        (it is capped, so the payload is bounded) and published
        atomically, so readers on any host see a complete JSONL file.
        Publication failures are counted, never raised — telemetry
        must not take a worker down with the store.
        """
        now = time.time()
        if not force and now - self._series_last < self.series_interval:
            return False
        self._series_last = now
        self._series_seq += 1
        extra = {"units_run": self.units_run,
                 "spool_pending": self.spool.pending()}
        try:
            from repro.uarch import native
            extra["ops_retired"] = native.ops_retired()
        except Exception:
            pass
        self._series.append(timeseries.compact_sample(
            obs.metrics_snapshot(), source=self.worker_id,
            seq=self._series_seq, extra=extra))
        payload = "".join(json.dumps(rec, sort_keys=True) + "\n"
                          for rec in self._series).encode("utf-8")
        dst = self.root / "obs" / f"series-{self.worker_id}.jsonl"
        try:
            self.backend.publish_bytes(payload, dst)
        except OSError:
            obs.add("fabric.series_publish_errors")
            return False
        return True

    def run(self, *, max_units: int | None = None,
            idle_exit: float | None = None, should_stop=None) -> int:
        """Serve until stopped; returns how many units this agent ran.

        ``idle_exit`` bounds how long the agent waits with an empty
        queue before exiting (None = forever); the fabric-wide stop
        marker and ``should_stop`` both wind it down after the current
        unit — a graceful shutdown never abandons a claimed lease.
        """
        served = 0
        idle_since = time.monotonic()
        try:
            while True:
                if should_stop is not None and should_stop():
                    break
                if self.ledger.stop_requested():
                    break
                if max_units is not None and served >= max_units:
                    break
                self._seq += 1
                try:
                    self.ledger.write_worker_heartbeat(
                        self.worker_id, [], self._seq)
                except OSError:
                    obs.add("fabric.heartbeat_errors")
                self._reconcile_spool()
                self._publish_series()
                if self.serve_one():
                    served += 1
                    idle_since = time.monotonic()
                    continue
                if idle_exit is not None \
                        and time.monotonic() - idle_since > idle_exit:
                    break
                time.sleep(self.poll_interval)
        finally:
            for cleanup in (self._reconcile_spool,
                            lambda: self._publish_series(force=True),
                            lambda: self.ledger.remove_worker(
                                self.worker_id),
                            self.costs.save):
                try:
                    cleanup()
                except OSError:
                    pass
        return served

    def __repr__(self) -> str:
        return (f"WorkerAgent({self.worker_id!r}, "
                f"{self.backend.describe()!r})")
