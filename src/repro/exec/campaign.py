"""Resilient campaign orchestration: journal, taxonomy, graceful stop.

A *campaign* is the paper's pipeline at full scale — thousands of
workload runs across machines and sweeps, hours of wall clock.  At that
scale three things go wrong that a single ``characterize_suite`` call
historically could not survive: a workload error aborted the whole
batch, a killed writer left poison in the stores, and an interrupt
threw away everything completed so far.  This module supplies the
campaign-level pieces; the pool (:mod:`repro.exec.pool`), stores
(:mod:`repro.exec.store`, :mod:`repro.exec.traces`) and harness
(:mod:`repro.harness.suite`) supply the per-layer mechanics.

Error taxonomy
    :func:`classify_error` splits failures into **transient**
    (worker crash, timeout, ``OSError`` — infrastructure weather,
    worth retrying) and **permanent** (deterministic model errors such
    as ``OutOfManagedMemory`` — retrying reproduces them).  The pool
    retries transient failures within the budget
    :func:`retry_budget` resolves from the ``on_error`` policy;
    permanent ones become :class:`WorkloadFailure` records immediately.

Failure records
    :class:`WorkloadFailure` is the structured, JSON-serializable
    capture of one failed workload: error class, message, traceback,
    attempt count, worker fate, classification.  It flows through
    ``SuiteResult.failures`` into reports, the CLI summary, and the
    manifest — the run *degrades* instead of aborting.

Campaign manifest
    :class:`CampaignManifest` is an append-only JSONL journal of job
    keys and outcomes, flushed and fsync'd per record so a crash or
    SIGKILL loses at most the in-flight line (a torn tail is tolerated
    on load).  The content-addressed result store makes re-running
    completed work cheap; the manifest makes resuming *correct*: it
    records skips, failures, and config-fingerprint mismatches, so
    ``--resume`` re-attempts transient failures, skips deterministic
    ones, and never silently mixes results from two source trees.

Graceful shutdown
    :func:`graceful_shutdown` converts the first SIGINT/SIGTERM into a
    stop flag the pool polls (finish in-flight bookkeeping, journal,
    exit resumable); a second signal hard-interrupts.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading

try:
    import fcntl
except ImportError:          # non-POSIX: append locking degrades
    fcntl = None
import traceback as tb_mod
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.exec.pool import JobFailure, JobTimeout, WorkerCrash

MANIFEST_VERSION = 1

TRANSIENT = "transient"
PERMANENT = "permanent"

#: infrastructure weather: retrying is worthwhile
TRANSIENT_ERRORS = (WorkerCrash, JobTimeout, OSError)


def retry_budget(on_error: str, max_retries: int | None) -> int:
    """Validate an ``on_error`` policy and resolve its retry budget.

    ``"raise"`` aborts on the first failure, ``"skip"`` degrades it to a
    :class:`WorkloadFailure` record, ``"retry"`` does too but after
    more transient retries: ``max_retries`` defaults to 3 there and to
    1 otherwise.
    """
    if on_error not in ("raise", "skip", "retry"):
        raise ValueError(f"unknown on_error policy {on_error!r}")
    if max_retries is None:
        max_retries = 3 if on_error == "retry" else 1
    return max_retries


def classify_error(error: BaseException | type) -> str:
    """``"transient"`` (crash/timeout/OSError) or ``"permanent"``.

    The simulator is deterministic, so any exception it raises itself
    (model errors, bad configs) reproduces on retry — permanent.  Only
    infrastructure failures are worth re-attempting.
    """
    cls = error if isinstance(error, type) else type(error)
    return TRANSIENT if issubclass(cls, TRANSIENT_ERRORS) else PERMANENT


@dataclass
class WorkloadFailure:
    """Structured record of one failed workload run."""

    name: str
    error_type: str
    message: str
    classification: str
    attempts: int = 1
    key: str | None = None
    traceback: str = ""
    #: "crashed" (worker died), "killed" (timeout), "completed" (the
    #: worker survived and reported the exception)
    worker_fate: str = "completed"
    #: the live exception when available (not serialized)
    error: BaseException | None = field(default=None, repr=False,
                                        compare=False)

    @classmethod
    def from_job_failure(cls, failure: JobFailure,
                         key: str | None = None) -> "WorkloadFailure":
        err = failure.error
        if isinstance(err, WorkerCrash):
            fate = "crashed"
        elif isinstance(err, JobTimeout):
            fate = "killed"
        else:
            fate = "completed"
        tb = "".join(tb_mod.format_exception(
            type(err), err, err.__traceback__)).strip()
        return cls(name=failure.job.name,
                   error_type=type(err).__name__,
                   message=str(err),
                   classification=classify_error(err),
                   attempts=failure.attempts,
                   key=key, traceback=tb, worker_fate=fate, error=err)

    def to_json(self) -> dict:
        return {"name": self.name, "error_type": self.error_type,
                "message": self.message,
                "classification": self.classification,
                "attempts": self.attempts, "key": self.key,
                "traceback": self.traceback,
                "worker_fate": self.worker_fate}

    @classmethod
    def from_json(cls, data: dict) -> "WorkloadFailure":
        return cls(name=data["name"], error_type=data["error_type"],
                   message=data.get("message", ""),
                   classification=data.get("classification", PERMANENT),
                   attempts=data.get("attempts", 1),
                   key=data.get("key"),
                   traceback=data.get("traceback", ""),
                   worker_fate=data.get("worker_fate", "completed"))


class CampaignInterrupted(RuntimeError):
    """A campaign stopped early on a shutdown request; it is resumable."""

    def __init__(self, manifest_path: Path | None, completed: int,
                 failed: int, remaining: int):
        hint = (f"; resume with --resume {manifest_path}"
                if manifest_path else "")
        super().__init__(
            f"campaign interrupted: {completed} done, {failed} failed, "
            f"{remaining} unfinished{hint}")
        self.manifest_path = manifest_path
        self.completed = completed
        self.failed = failed
        self.remaining = remaining


class CampaignManifest:
    """Append-only JSONL journal of campaign outcomes.

    One header line (``type: campaign``), then one ``type: outcome``
    line per settled job — ``status`` is ``done``, ``failed``, or
    ``skipped`` (a permanent failure carried over from a previous
    attempt).  Every append is flushed and fsync'd; loading tolerates a
    torn final line, so a SIGKILL mid-write costs exactly one record.

    Appends take a short exclusive ``flock`` on the journal, so a
    second appender — the fabric coordinator's lease reclaim racing a
    slow worker's late completion — cannot interleave bytes inside one
    record.  Outcome records may carry a fabric work-unit id
    (``unit``); :meth:`record` refuses to journal the *same* unit twice
    (the duplicate-completion guard, mirroring the pool's
    ``index in done`` check), so a reclaimed-then-re-executed unit
    settles exactly once no matter how late the original worker reports.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.header: dict | None = None
        self.records: list[dict] = []
        #: fabric work-unit ids that already settled (dup-completion guard)
        self._units_seen: set[str] = set()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue        # torn tail from a killed writer
            if rec.get("type") == "campaign" and self.header is None:
                self.header = rec
            else:
                self.records.append(rec)
                if rec.get("type") == "outcome" and rec.get("unit"):
                    self._units_seen.add(rec["unit"])

    def _append(self, rec: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            if fcntl is not None:
                fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                if fcntl is not None:
                    fcntl.flock(fh, fcntl.LOCK_UN)

    def begin(self, fingerprint: str, total: int | None = None,
              meta: dict | None = None) -> None:
        """Start (or resume) journaling under ``fingerprint``.

        Resuming against a different source tree records a
        ``fingerprint-mismatch`` event and discards the prior outcome
        view — every old key is stale by construction (keys embed the
        fingerprint), so nothing recorded before can be trusted as done.
        """
        if self.header is not None:
            recorded = self.header.get("fingerprint")
            if recorded != fingerprint:
                self.records = []
                self._append({"type": "fingerprint-mismatch",
                              "recorded": recorded,
                              "current": fingerprint})
                self.header["fingerprint"] = fingerprint
            else:
                self._append({"type": "resume"})
                obs.add("campaign.resumes")
            return
        self.header = {"type": "campaign", "version": MANIFEST_VERSION,
                       "fingerprint": fingerprint, "total": total,
                       **(meta or {})}
        self._append(self.header)

    def record(self, key: str | None, name: str, status: str,
               failure: WorkloadFailure | None = None,
               unit: str | None = None) -> bool:
        """Journal one settled outcome; returns whether it was appended.

        ``unit`` is the fabric work-unit id when the outcome came
        through the distributed path; a unit that already settled is
        silently dropped (``False``) — the duplicate-completion guard
        for a coordinator reclaim racing a slow worker.
        """
        if unit is not None:
            if unit in self._units_seen:
                obs.add("campaign.duplicate_completions")
                return False
            self._units_seen.add(unit)
        rec = {"type": "outcome", "key": key, "name": name,
               "status": status}
        if unit is not None:
            rec["unit"] = unit
        if failure is not None:
            rec["failure"] = failure.to_json()
        self.records.append(rec)
        self._append(rec)
        obs.add(f"campaign.outcomes_{status}")
        return True

    def record_event(self, kind: str, **fields) -> None:
        self._append({"type": kind, **fields})

    # -- read-side views -----------------------------------------------

    def outcomes(self) -> dict[str, dict]:
        """Latest outcome record per job key (later records win)."""
        latest: dict[str, dict] = {}
        for rec in self.records:
            if rec.get("type") == "outcome" and rec.get("key"):
                latest[rec["key"]] = rec
        return latest

    def done_keys(self) -> set[str]:
        return {k for k, r in self.outcomes().items()
                if r.get("status") == "done"}

    def failure_records(self) -> dict[str, WorkloadFailure]:
        """Keys whose *latest* outcome is a failure (or carried skip)."""
        out: dict[str, WorkloadFailure] = {}
        for key, rec in self.outcomes().items():
            if rec.get("status") in ("failed", "skipped") \
                    and "failure" in rec:
                out[key] = WorkloadFailure.from_json(rec["failure"])
        return out

    def all_failures(self) -> list[WorkloadFailure]:
        """Every failure ever journaled (including later-recovered ones)."""
        return [WorkloadFailure.from_json(rec["failure"])
                for rec in self.records
                if rec.get("type") == "outcome" and "failure" in rec]

    def __repr__(self) -> str:
        return f"CampaignManifest({str(self.path)!r})"


@contextlib.contextmanager
def graceful_shutdown(signals=(signal.SIGINT, signal.SIGTERM)):
    """Install two-stage signal handling; yields the stop event.

    The first signal sets the event — the pool finishes bookkeeping,
    the campaign journals and raises :class:`CampaignInterrupted`.  A
    second signal raises ``KeyboardInterrupt`` immediately (the
    operator really means it).  Handlers are restored on exit.
    """
    stop = threading.Event()

    def handler(signum, frame):
        if stop.is_set():
            raise KeyboardInterrupt
        stop.set()

    previous = {}
    for sig in signals:
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):   # non-main thread / unsupported
            pass
    try:
        yield stop
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
