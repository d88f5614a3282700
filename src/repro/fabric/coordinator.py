"""Campaign coordinator: decompose, dispatch, reclaim, settle.

The coordinator is the fleet-side counterpart of the in-process pool.
It turns a batch of :class:`~repro.exec.jobs.JobSpec`\\ s into leasable
:class:`~repro.fabric.units.WorkUnit` envelopes (deduplicating against
the shared :class:`~repro.exec.store.ResultStore` first — a key the
fleet already computed is settled immediately, with no unit at all),
publishes them in longest-processing-time-first rank order using the
shared :class:`~repro.exec.costmodel.CostModel`, and then watches the
lease ledger: completed units settle into the campaign manifest (the
duplicate-completion guard is keyed by unit id), silent leases are
reclaimed and — unless their result already landed in the store, the
zombie-finished-anyway case — re-enqueued under a *fresh* unit id.

The end state is the same :class:`~repro.harness.suite.SuiteResult`
the serial path produces: results in spec order pulled from the
content-addressed store, failures as structured
:class:`~repro.exec.campaign.WorkloadFailure` records.  The simulator
is seeded-deterministic and the store content-addressed, so a campaign
that survived any number of worker-host deaths is bit-identical to a
single-host serial run — the fabric chaos test asserts exactly that.

**The role itself is elected.**  A coordinator coordinates only while
it holds the seat: the highest epoch in ``election/`` (see
:class:`~repro.fabric.lease.Election`).  A lone coordinator wins the
seat through the same :meth:`~repro.fabric.lease.Election.try_takeover`
a standby uses — a single-member election: epoch 1 on a fresh
directory, ``E+1`` once the previous holder resigned or its heartbeat
went stale for the ttl.  Any number of coordinators may watch one
fabric directory, the rest standing by and aging the leader's
heartbeat.  Every ledger mutation (enqueue,
reclaim, requeue, settle) is **fenced** by the leader's epoch, so a
deposed leader that wakes up later gets
:class:`~repro.fabric.lease.LeadershipLost` instead of corrupting a
successor's ledger.  Campaign state is *reconstructible*: submissions
are persisted under ``submissions/`` before their units are enqueued,
so a freshly-elected standby rebuilds every open campaign from the
ledger + store (:meth:`Coordinator.adopt`) and carries on where the
corpse left off.  Failover costs the takeover ttl plus one adoption
scan; no work is lost, and requeue budgets merely reset (the generous
direction).

Submission is leadership-independent and completion is a submission's
*settled marker*, not the submitter's own bookkeeping
(:meth:`Coordinator.wait`): if the submitter is deposed — or never
elected — whoever leads finishes the campaign and the submitter still
assembles the identical answer from the store.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro import obs
from repro.exec.backend import StoreBackend, backend_for
from repro.exec.campaign import (TRANSIENT, CampaignInterrupted,
                                 CampaignManifest, WorkloadFailure)
from repro.exec.costmodel import CostModel, cost_key, lpt_order
from repro.exec.jobs import JobSpec, code_fingerprint
from repro.exec.resilience import WRITE_POLICY, RetryPolicy, retry_call
from repro.exec.store import ResultStore
from repro.fabric.lease import (Election, LeadershipLost, LeaseLedger,
                                _ChangeTracker, _read_json,
                                default_coordinator_id)
from repro.fabric.units import WorkUnit, make_unit_id

#: fabric-root subdirectory holding the shared result store (+ costs.json)
STORE_DIR = "store"
#: fabric-root subdirectory holding the shared trace store
TRACES_DIR = "traces"
#: fabric-root subdirectory persisting submissions (for adoption)
SUBMISSIONS_DIR = "submissions"
#: default campaign journal filename under the fabric root
MANIFEST_NAME = "campaign.jsonl"

#: default seconds of heartbeat silence before a lease is reclaimed
DEFAULT_LEASE_TTL = 10.0
#: default re-enqueue budget per key before the unit settles as failed
DEFAULT_MAX_REQUEUES = 5
#: seconds of leader-heartbeat silence before a standby takes over
DEFAULT_COORDINATOR_TTL = 5.0

#: result reads while assembling a SuiteResult: 4 tries across 1.75 s
_COLLECT_POLICY = RetryPolicy(retries=3, backoff=0.25)

#: on-disk submission record schema
SUBMISSION_SCHEMA = 1

#: unit ids look like ``u00042-<key12>`` — the seq recovers from here
_UNIT_SEQ_RE = re.compile(r"^u(\d+)-")


def submission_id(keys: list[str]) -> str:
    """Content-derived submission id (same batch -> same id)."""
    digest = hashlib.sha256(
        "\n".join(sorted(keys)).encode()).hexdigest()
    return f"s{digest[:16]}"


class FabricTimeout(RuntimeError):
    """A campaign deadline passed with units still unsettled."""

    def __init__(self, pending: list[str]):
        super().__init__(
            f"fabric campaign timed out with {len(pending)} unsettled "
            f"unit(s): {', '.join(sorted(pending)[:5])}"
            + ("..." if len(pending) > 5 else ""))
        self.pending = list(pending)


def fabric_backend(root: str | Path | StoreBackend,
                   *, shared: bool = False) -> StoreBackend:
    """The backend for a fabric root (``shared`` = NFS-safe discipline)."""
    if isinstance(root, StoreBackend):
        return root
    return backend_for(f"{'shared' if shared else 'local'}:{root}")


def _unit_seq(unit_id: str) -> int:
    """The sequence number a unit id embeds (0 if it has none)."""
    m = _UNIT_SEQ_RE.match(unit_id)
    return int(m.group(1)) if m else 0


def _newest_failures(done: dict[str, dict],
                     after: int = 0) -> dict[str, dict]:
    """Key -> its newest failed done-record with unit seq above ``after``
    (unit seqs only grow across leaders: a re-run's failure wins)."""
    out: dict[str, dict] = {}
    for unit_id in sorted(done, key=_unit_seq):
        rec = done[unit_id]
        if rec.get("status") != "done" and rec.get("key") \
                and _unit_seq(unit_id) > after:
            out[rec["key"]] = rec
    return out


def observe_outcomes(coord: Coordinator,
                     keys: list[str]) -> dict[int, tuple[str, object]]:
    """Read-only settlement view: outcomes derivable from disk alone.

    Built from the store (done) and each key's newest failed
    done-record (failed) — no leadership required.  Complete exactly
    when every index appears, which is what the settled marker
    promises.
    """
    failed_by_key = _newest_failures(coord.ledger.done_records())
    outcomes: dict[int, tuple[str, object]] = {}
    for i, key in enumerate(keys):
        if coord.store.get(key) is not None:
            outcomes[i] = ("done", key)
        elif key in failed_by_key:
            outcomes[i] = ("failed", WorkloadFailure.from_json(
                failed_by_key[key]["failure"]))
    return outcomes


@dataclass
class _Pending:
    """Coordinator-side state of one not-yet-settled unit."""

    index: int
    unit: WorkUnit
    requeues: int = 0


@dataclass
class Submission:
    """One batch of jobs handed to the fleet.

    ``outcomes[i]`` settles to a ``("done", key)`` /
    ``("failed", WorkloadFailure)`` pair as units complete; indices
    settled straight from the store never had a unit.
    """

    jobs: list[JobSpec]
    keys: list[str]
    #: persisted-submission id (content-derived, see :func:`submission_id`)
    sid: str
    #: unit id -> pending state for every in-flight unit
    pending: dict[str, _Pending] = field(default_factory=dict)
    outcomes: dict[int, tuple[str, object]] = field(default_factory=dict)
    #: journal its settlements go to (None = the coordinator's own)
    manifest: CampaignManifest | None = None

    @property
    def done(self) -> bool:
        return len(self.outcomes) == len(self.jobs)

    @property
    def dedup_hits(self) -> int:
        """Jobs settled from the store without ever becoming units."""
        return len(self.jobs) - self._unit_count

    _unit_count: int = 0


class Coordinator:
    """Fleet-side scheduler over a shared fabric directory.

    Drive it with :meth:`step` (one election-plus-coordination tick),
    :meth:`run` (the standby service loop) or :meth:`run_campaign`
    (submit a batch and see it through, surviving our own deposition).
    """

    def __init__(self, root: str | Path | StoreBackend, *,
                 shared: bool = False,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 poll_interval: float = 0.05,
                 max_requeues: int = DEFAULT_MAX_REQUEUES,
                 coordinator_id: str | None = None,
                 coordinator_ttl: float = DEFAULT_COORDINATOR_TTL):
        backend = fabric_backend(root, shared=shared)
        self.backend = backend
        self.root = backend.root
        self.ledger = LeaseLedger(backend)
        self.ledger.ensure_layout()
        store_backend = fabric_backend(self.root / STORE_DIR,
                                       shared=shared)
        self.store = ResultStore(backend=store_backend)
        self.costs = CostModel.for_store(self.store)
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.max_requeues = max_requeues
        self.coordinator_id = coordinator_id or default_coordinator_id()
        self.coordinator_ttl = coordinator_ttl
        self.election = Election(self.ledger)
        #: the epoch we lead under; ``None`` until we win the seat (and
        #: again once deposed)
        self.epoch: int | None = None
        #: sid -> submission we coordinate while we lead
        self._subs: dict[str, Submission] = {}
        self._hb_seq = 0
        self._hb_last = 0.0
        self._orphan_tracker = _ChangeTracker()
        self._seq = 0

    @cached_property
    def manifest(self) -> CampaignManifest:
        """The fabric's campaign journal (default home of settlements)."""
        return CampaignManifest(self.root / MANIFEST_NAME)

    # -- leadership ------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.epoch is not None

    def _elect(self) -> bool:
        """Stand for the seat; True while we hold it.

        An empty seat goes to its first claimant (a lone coordinator
        wins epoch 1), an expired leader's to epoch ``E+1``; a live
        leader keeps it.
        """
        if self.epoch is None:
            epoch = self.election.try_takeover(self.coordinator_id,
                                               self.coordinator_ttl)
            if epoch is None:
                return False
            self.epoch = epoch
            self._hb_last = 0.0
            obs.gauge_set("fabric.leader_epoch", float(epoch))
        return True

    def _check_fence(self) -> None:
        """Refuse to mutate the ledger unless we hold the seat."""
        if self.epoch is None:
            raise LeadershipLost(
                f"{self.coordinator_id} does not hold the coordinator "
                f"seat")
        self.election.check(self.epoch)

    def _heartbeat(self) -> None:
        """Publish our coordinator liveness (throttled, best-effort)."""
        now = time.monotonic()
        if now - self._hb_last < self.coordinator_ttl / 3.0:
            return
        self._hb_last = now
        self._hb_seq += 1
        try:
            self.election.heartbeat(self.coordinator_id,
                                    self.epoch or 0, self._hb_seq)
        except OSError:
            obs.add("fabric.coordinator_io_errors")

    def step(self) -> bool:
        """One tick; returns True when we hold the seat after it.

        Standby: heartbeat, take over once the leader expires.  Leader:
        heartbeat, adopt any open submission we are not yet tracking,
        poll them all, mark the finished ones settled.
        ``LeadershipLost`` demotes us back to standby; plain I/O errors
        are weather — counted and retried next tick.
        """
        if not self._elect():
            self._heartbeat()
            return False
        try:
            self._heartbeat()
            for sid in self.open_submissions():
                if sid not in self._subs:
                    self._subs[sid] = self.adopt(sid)
            for sid, sub in list(self._subs.items()):
                self.poll(sub, sub.manifest or self.manifest)
                if sub.done:
                    self.mark_settled(sid)
                    del self._subs[sid]
        except LeadershipLost:
            self.epoch = None
            self._subs = {}
            obs.add("fabric.leadership_lost")
            return False
        except OSError:
            obs.add("fabric.coordinator_io_errors")
        return True

    def run(self, should_stop=None, idle_exit: float | None = None) -> None:
        """The standby/leader service loop (``repro-fabric standby``).

        Ticks until the fleet stop marker appears, ``should_stop``
        fires, or — with ``idle_exit`` — no submission has been open
        for that many seconds.  A standby waiting behind a live leader
        is *not* idle while open submissions exist.  Resigns on exit,
        so a successor need not wait out the ttl.
        """
        idle_since = time.monotonic()
        try:
            while True:
                if self.ledger.stop_requested():
                    break
                if should_stop is not None and should_stop():
                    break
                self.step()
                if self._subs or self.open_submissions():
                    idle_since = time.monotonic()
                elif idle_exit is not None \
                        and time.monotonic() - idle_since > idle_exit:
                    break
                time.sleep(self.poll_interval)
        finally:
            self.resign()

    def resign(self) -> None:
        """Hand the seat over (best effort) if we lead: the next
        claimant need not wait out the ttl."""
        if self.is_leader:
            try:
                self.election.resign(self.coordinator_id)
            except OSError:
                obs.add("fabric.coordinator_io_errors")

    def standbys(self) -> list[str]:
        """Other coordinators heartbeating within our ttl, by wall clock
        — a hint only: a missed standby merely gets the seat sooner."""
        now = time.time()
        return sorted(
            cid for cid, rec in self.election.coordinators().items()
            if cid != self.coordinator_id and not rec.get("resigned")
            and now - float(rec.get("ts", 0.0)) <= self.coordinator_ttl)

    # -- submission ------------------------------------------------------

    def _next_unit(self, job: JobSpec, key: str, rank: int,
                   estimate: float | None) -> WorkUnit:
        self._seq += 1
        return WorkUnit(
            unit_id=make_unit_id(self._seq, key),
            name=job.name, key=key, cost_key=cost_key(job), rank=rank,
            job=job, span=obs.current_ids(), estimate=estimate,
            epoch=self.epoch)

    # -- submission persistence (what a standby adopts) -----------------

    def submission_path(self, sid: str) -> Path:
        return self.root / SUBMISSIONS_DIR / f"{sid}.json"

    def _open(self, sub: Submission, fingerprint: str) -> int:
        """Durably record the batch so any leader can adopt it.

        Written *before* any unit is enqueued, so a coordinator dying
        mid-submit leaves no record or a record plus a prefix of its
        units.  A settled batch with store misses left (failures) is
        *re-opened*: record rewritten, settled marker dropped.  Returns
        ``opened_after``, the highest unit seq in the ledger at the
        (re)opening; failures at or below it do not settle this one.
        """
        dst = self.submission_path(sub.sid)
        reopen = not sub.done and self.is_settled(sub.sid)
        rec = None if reopen else _read_json(dst)
        if rec is not None and rec.get("schema") == SUBMISSION_SCHEMA:
            return int(rec.get("opened_after", 0))
        opened_after = self._ledger_seq(self.ledger.done_records())
        payload = {
            "schema": SUBMISSION_SCHEMA, "sid": sub.sid,
            "fingerprint": fingerprint, "total": len(sub.jobs),
            "names": [job.name for job in sub.jobs],
            "keys": list(sub.keys),
            "jobs_pkl": base64.b64encode(
                pickle.dumps(sub.jobs,
                             protocol=pickle.HIGHEST_PROTOCOL)).decode(),
            "opened_after": opened_after,
            "epoch": self.epoch, "ts": time.time(),
        }
        self.ledger._publish_json(payload, dst)
        if reopen:
            self._settled_marker(sub.sid).unlink(missing_ok=True)
        return opened_after

    def open_submissions(self) -> list[str]:
        """Persisted submissions not yet marked settled."""
        try:
            names = sorted(
                p.name for p in (self.root / SUBMISSIONS_DIR).iterdir())
        except FileNotFoundError:
            return []
        done = {n[:-len(".done")] for n in names if n.endswith(".done")}
        return [n[:-len(".json")] for n in names
                if n.endswith(".json") and not n.startswith(".")
                and n[:-len(".json")] not in done]

    def _settled_marker(self, sid: str) -> Path:
        return self.root / SUBMISSIONS_DIR / f"{sid}.done"

    def mark_settled(self, sid: str) -> None:
        """Record that every job of ``sid`` has a terminal outcome."""
        self._check_fence()
        self.ledger._publish_json({"sid": sid, "ts": time.time()},
                                  self._settled_marker(sid))

    def is_settled(self, sid: str) -> bool:
        return self._settled_marker(sid).exists()

    def submit(self, jobs: list[JobSpec],
               fingerprint: str | None = None) -> Submission:
        """Persist a batch and, holding the seat, take it up.

        Store hits settle immediately.  Without the seat the batch is
        only persisted: the leader adopts it, and :meth:`wait` follows
        it to its settled marker.  From the seat it is taken up as an
        adoption would (:meth:`_reconcile`); a batch we already track
        is returned as is, never enqueued twice.
        """
        if fingerprint is None:
            fingerprint = code_fingerprint()
        keys = [job.cache_key(fingerprint) for job in jobs]
        sid = submission_id(keys)
        if sid in self._subs:
            return self._subs[sid]
        sub = Submission(jobs=list(jobs), keys=keys, sid=sid)
        for i, key in enumerate(keys):
            if self.store.get(key) is not None:
                sub.outcomes[i] = ("done", key)
                obs.add("fabric.store_dedup_hits")
        sub._unit_count = len(jobs) - len(sub.outcomes)
        if sub.done and self.is_settled(sid):
            return sub              # nothing left to coordinate
        opened_after = self._open(sub, fingerprint)
        if self._elect():
            self._subs[sid] = self._reconcile(sub, opened_after)
        return sub

    def adopt(self, sid: str) -> Submission:
        """Reconstruct a predecessor's submission from the ledger.

        The freshly-elected leader's half of failover: the persisted
        record gives back the jobs/keys, and :meth:`_reconcile` settles
        what already finished and enqueues the rest.  Requeue budgets
        restart at zero (the ledger does not journal them; a failover
        granting a few extra retries is the safe direction).

        Fenced like every mutation: without the seat it raises
        :class:`~repro.fabric.lease.LeadershipLost` and touches nothing.
        """
        self._check_fence()
        rec = _read_json(self.submission_path(sid))
        if rec is None or rec.get("schema") != SUBMISSION_SCHEMA:
            raise FileNotFoundError(
                f"no adoptable submission record for {sid!r}")
        jobs = pickle.loads(base64.b64decode(rec["jobs_pkl"]))
        sub = Submission(jobs=jobs, keys=list(rec["keys"]), sid=sid)
        self._reconcile(sub, int(rec.get("opened_after", 0)))
        obs.add("fabric.submissions_adopted")
        return sub

    def _reconcile(self, sub: Submission,
                   opened_after: int) -> Submission:
        """Settle what the ledger knows of ``sub``; enqueue the rest.

        Store hits settle done, failures newer than the opening settle
        failed, and a "done" record with no result behind it (a torn
        write) is dropped so its key re-runs.  Surviving queue entries
        and leases are matched back to their indices; the rest is
        enqueued under our epoch, ranked longest-first by the freshly
        reloaded cost model — queue filenames embed the rank, so every
        worker's lexical directory scan is the LPT dispatch order.
        """
        self._check_fence()
        jobs, keys = sub.jobs, sub.keys
        done = self.ledger.done_records()
        # new unit ids continue past every id in the ledger, so none
        # collides with an earlier campaign's done record
        self._seq = max(self._seq, self._ledger_seq(done))
        failed_by_key = _newest_failures(done, after=opened_after)
        unsettled: dict[str, list[int]] = {}    # key -> indices
        for i, key in enumerate(keys):
            if i in sub.outcomes:
                continue
            if self.store.get(key) is not None:
                sub.outcomes[i] = ("done", key)
            elif key in failed_by_key:
                sub.outcomes[i] = ("failed", WorkloadFailure.from_json(
                    failed_by_key[key]["failure"]))
            else:
                unsettled.setdefault(key, []).append(i)
        for unit_id, drec in list(done.items()):
            if drec.get("status") == "done" \
                    and drec.get("key") in unsettled:
                self.ledger.done_path(unit_id).unlink(missing_ok=True)
                del done[unit_id]
                obs.add("fabric.done_without_result")

        # match surviving units (queued and/or leased) to their indices
        for unit_id, path in self.ledger.queue_entries():
            if unit_id in done:
                continue
            try:
                unit = WorkUnit.load(path)
            except Exception:
                continue            # torn envelope: orphan path requeues
            if unsettled.get(unit.key):
                sub.pending[unit.unit_id] = _Pending(
                    index=unsettled[unit.key].pop(0), unit=unit)
        for unit_id in self.ledger.active_leases():
            if unit_id in sub.pending or unit_id in done:
                continue
            for key, indices in unsettled.items():
                if indices and unit_id.endswith(key[:12]):
                    i = indices.pop(0)
                    sub.pending[unit_id] = _Pending(
                        index=i, unit=WorkUnit(
                            unit_id=unit_id, name=jobs[i].name, key=key,
                            cost_key=cost_key(jobs[i]), rank=i,
                            job=jobs[i], epoch=self.epoch))
                    break

        leftover = sorted(i for indices in unsettled.values()
                          for i in indices)
        if leftover:
            self.costs._load()      # adopt the fleet's latest observations
            estimates = [self.costs.estimate(jobs[i]) for i in leftover]
            for rank, i in enumerate(lpt_order(leftover, estimates)):
                unit = self._next_unit(jobs[i], keys[i], rank,
                                       self.costs.estimate(jobs[i]))
                retry_call(
                    lambda u=unit: self.ledger.enqueue(
                        u, fence=self._check_fence),
                    policy=WRITE_POLICY)
                sub.pending[unit.unit_id] = _Pending(index=i, unit=unit)
        sub._unit_count = len(jobs) - sum(
            1 for s, _ in sub.outcomes.values() if s == "done")
        return sub

    def _ledger_seq(self, done: dict[str, dict]) -> int:
        """The highest unit sequence number anywhere in the ledger."""
        seen = [*done, *(uid for uid, _ in self.ledger.queue_entries()),
                *self.ledger.active_leases()]
        return max((_unit_seq(uid) for uid in seen), default=0)

    # -- settlement ------------------------------------------------------

    def _settle(self, sub: Submission, unit_id: str, status: str,
                payload, manifest: CampaignManifest | None) -> None:
        pend = sub.pending.pop(unit_id)
        self.ledger.remove_queued(unit_id)
        self._orphan_tracker.forget(unit_id)
        sub.outcomes[pend.index] = (status, payload)
        if manifest is not None:
            failure = payload if status == "failed" else None
            manifest.record(sub.keys[pend.index], pend.unit.name,
                            status, failure=failure, unit=unit_id)

    def _requeue(self, sub: Submission, unit_id: str,
                 manifest: CampaignManifest | None) -> None:
        """Re-enqueue a reclaimed unit under a fresh unit id."""
        pend = sub.pending.pop(unit_id)
        self._orphan_tracker.forget(unit_id)
        job, key = sub.jobs[pend.index], sub.keys[pend.index]
        if pend.requeues + 1 > self.max_requeues:
            failure = WorkloadFailure(
                name=job.name, error_type="LeaseExpired",
                message=(f"lease expired {self.max_requeues + 1} times "
                         f"without a completion"),
                classification=TRANSIENT, attempts=pend.requeues + 1,
                key=key)
            sub.outcomes[pend.index] = ("failed", failure)
            if manifest is not None:
                manifest.record(key, job.name, "failed",
                                failure=failure, unit=unit_id)
            # a done record makes the terminal failure visible to
            # standby coordinators (first writer wins; best effort —
            # the outcome above is already authoritative here)
            try:
                self.ledger.complete(unit_id, {
                    "unit": unit_id, "status": "failed", "key": key,
                    "name": job.name, "failure": failure.to_json(),
                    "coordinator": self.coordinator_id,
                    "epoch": self.epoch})
            except OSError:
                obs.add("fabric.coordinator_io_errors")
            return
        unit = self._next_unit(job, key, pend.unit.rank,
                               pend.unit.estimate)
        retry_call(
            lambda: self.ledger.enqueue(unit, fence=self._check_fence),
            policy=WRITE_POLICY)
        sub.pending[unit.unit_id] = _Pending(
            index=pend.index, unit=unit, requeues=pend.requeues + 1)
        if manifest is not None:
            manifest.record_event("reclaimed", unit=unit_id,
                                  reissued_as=unit.unit_id, key=key)

    def _publish_fleet_gauges(self) -> None:
        leases = self.ledger.active_leases()
        workers = self.ledger.workers()
        obs.gauge_set("fabric.queue_depth",
                      float(len(self.ledger.queue_entries())))
        obs.gauge_set("fabric.leases_active", float(len(leases)))
        alive = {w: rec for w, rec in workers.items()
                 if rec["age_s"] <= self.lease_ttl}
        obs.gauge_set("fabric.workers_alive", float(len(alive)))
        per_worker: dict[str, int] = {w: 0 for w in workers}
        for rec in leases.values():
            per_worker[rec.get("worker", "?")] = \
                per_worker.get(rec.get("worker", "?"), 0) + 1
        for worker, rec in workers.items():
            obs.gauge_set(f"fabric.worker.{worker}.leases",
                          float(per_worker.get(worker, 0)))
            obs.gauge_set(f"fabric.worker.{worker}.heartbeat_age_s",
                          float(rec["age_s"]))

    def poll(self, sub: Submission,
             manifest: CampaignManifest | None = None) -> int:
        """One coordination step; returns how many units settled.

        Order matters: completions are read *before* reclaim, so a
        worker that finished and exited cleanly (its lease released,
        its heartbeat gone) is never mistaken for a death.  A reclaimed
        unit whose result already landed in the store — the worker
        published the result but died before (or just after) its done
        record — settles as done instead of re-running.

        Fenced: raises :class:`~repro.fabric.lease.LeadershipLost`
        when a higher-epoch coordinator exists (zombie ex-leader).
        """
        self._check_fence()
        settled_before = len(sub.outcomes)
        done = self.ledger.done_records()
        for unit_id in list(sub.pending):
            rec = done.get(unit_id)
            if rec is None:
                continue
            if rec.get("status") == "done":
                key = sub.keys[sub.pending[unit_id].index]
                if self.store.get(key) is None:
                    # "done" with no result behind it: a torn write
                    # that reported success.  Drop the lying record
                    # and re-run the unit.
                    self.ledger.done_path(unit_id).unlink(
                        missing_ok=True)
                    obs.add("fabric.done_without_result")
                    self.ledger.remove_queued(unit_id)
                    self._requeue(sub, unit_id, manifest)
                    continue
                self._settle(sub, unit_id, "done", rec.get("key"),
                             manifest)
            else:
                failure = WorkloadFailure.from_json(rec["failure"])
                self._settle(sub, unit_id, "failed", failure, manifest)

        for unit_id in self.ledger.reclaim_expired(self.lease_ttl):
            if unit_id not in sub.pending:
                continue
            pend = sub.pending[unit_id]
            if self.store.get(sub.keys[pend.index]) is not None:
                # The zombie got the result out before dying: keep it.
                self._settle(sub, unit_id, "done",
                             sub.keys[pend.index], manifest)
                obs.add("fabric.reclaims_settled_from_store")
            else:
                self.ledger.remove_queued(unit_id)
                self._requeue(sub, unit_id, manifest)

        self._requeue_orphans(sub, manifest)
        self._publish_fleet_gauges()
        return len(sub.outcomes) - settled_before

    def _requeue_orphans(self, sub: Submission,
                         manifest: CampaignManifest | None) -> None:
        """Recover units that are neither queued, leased, nor done.

        A unit can fall out of every ledger set without a trace: its
        queue envelope was torn by an injected write fault (workers
        skip it forever), or a dying leader removed the entry without
        re-publishing.  Such orphans are aged on our monotonic clock —
        transient unreadability under fault injection heals itself —
        and re-enqueued once they stay unaccountable past the lease
        ttl.
        """
        leases = self.ledger.active_leases()
        queued = dict(self.ledger.queue_entries())
        for unit_id in list(sub.pending):
            if unit_id in leases:
                self._orphan_tracker.forget(unit_id)
                continue
            path = queued.get(unit_id)
            if path is not None:
                try:
                    WorkUnit.load(path)
                except Exception:
                    pass            # torn envelope: still an orphan
                else:
                    self._orphan_tracker.forget(unit_id)
                    continue
            done_path = self.ledger.done_path(unit_id)
            if done_path.exists() \
                    and _read_json(done_path) is not None:
                continue            # settles on the next poll
            if self._orphan_tracker.observe(unit_id, "orphan") \
                    > self.lease_ttl:
                pend = sub.pending[unit_id]
                # a torn done record blocks any fresh completion
                # (first-writer-wins) — drop it before deciding
                done_path.unlink(missing_ok=True)
                if self.store.get(sub.keys[pend.index]) is not None:
                    self._settle(sub, unit_id, "done",
                                 sub.keys[pend.index], manifest)
                    obs.add("fabric.reclaims_settled_from_store")
                else:
                    self.ledger.remove_queued(unit_id)
                    self._requeue(sub, unit_id, manifest)
                    obs.add("fabric.orphans_requeued")

    def refresh(self, sub: Submission) -> Submission:
        """Bring ``sub.outcomes`` up to date, whoever coordinates it.

        While we lead, our tracked copy is live; a submission another
        coordinator finished is read back from disk once its settled
        marker appears.
        """
        tracked = self._subs.get(sub.sid)
        if tracked is not None:
            sub.outcomes = tracked.outcomes
        elif not sub.done and self.is_settled(sub.sid):
            sub.outcomes = observe_outcomes(self, sub.keys)
        return sub

    def wait(self, sub: Submission,
             manifest: CampaignManifest | None = None,
             timeout: float | None = None,
             should_stop=None) -> Submission:
        """Tick :meth:`step` until ``sub``'s settled marker appears.

        We coordinate whenever we hold the seat; completion is the
        marker, so if we are deposed (or never elected) the leader
        finishes ``sub`` and its outcomes are read back from disk.
        ``manifest`` journals the settlements we make (default: the
        coordinator's own).  Raises :class:`FabricTimeout` or, when
        ``should_stop`` fires, :class:`CampaignInterrupted` after
        asking the fleet to stop.
        """
        if manifest is not None:
            sub.manifest = manifest
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.is_settled(sub.sid):
            if should_stop is not None and should_stop():
                self.ledger.request_stop()
                states = [s for s, _ in
                          observe_outcomes(self, sub.keys).values()]
                raise CampaignInterrupted(
                    (sub.manifest or self.manifest).path,
                    completed=states.count("done"),
                    failed=states.count("failed"),
                    remaining=len(sub.jobs) - len(states))
            if deadline is not None and time.monotonic() > deadline:
                settled = observe_outcomes(self, sub.keys)
                raise FabricTimeout(
                    [sub.keys[i][:12] for i in range(len(sub.jobs))
                     if i not in settled])
            self.step()
            time.sleep(self.poll_interval)
        return self.refresh(sub)

    # -- the campaign entry point ---------------------------------------

    def run_campaign(self, specs, machine, fidelity=None, seed: int = 0,
                     manifest: CampaignManifest | str | Path | None = None,
                     timeout: float | None = None, should_stop=None,
                     **run_kwargs):
        """Characterize ``specs`` on ``machine`` across the fleet.

        Returns the same :class:`~repro.harness.suite.SuiteResult` a
        serial ``characterize_suite`` call produces — results in spec
        order out of the shared store, failures as structured records —
        regardless of how many workers (or coordinators) served it or
        died serving it.  Does not resign the seat on return.
        """
        from repro.harness.runner import Fidelity

        fidelity = fidelity or Fidelity.default()
        jobs = [JobSpec(spec=spec, machine=machine, fidelity=fidelity,
                        seed=seed, run_kwargs=run_kwargs)
                for spec in specs]
        if manifest is None:
            manifest = self.manifest
        elif not isinstance(manifest, CampaignManifest):
            manifest = CampaignManifest(manifest)
        fingerprint = code_fingerprint()
        manifest.begin(fingerprint, total=len(jobs))

        with obs.span("fabric.campaign", machine=machine.name,
                      workloads=len(jobs)):
            sub = self.submit(jobs, fingerprint)
            for i, (status, _) in sub.outcomes.items():
                # store-dedup hits settle before any unit exists
                if status == "done":
                    manifest.record(sub.keys[i], jobs[i].name, "done")
            self.wait(sub, manifest, timeout=timeout,
                      should_stop=should_stop)
        return self.collect(jobs, sub.keys, sub.outcomes, machine)

    def collect(self, jobs, keys, outcomes, machine):
        """Assemble the final SuiteResult from settled outcomes.

        Store reads ride out transient faults with a short bounded
        retry — a campaign that survived a fault storm should not die
        assembling its answer to one last injected EIO.
        """
        from repro.harness.suite import SuiteResult

        def read(key):
            result = self.store.get(key)
            if result is None:
                raise FileNotFoundError(key)
            return result

        out = SuiteResult(machine=machine)
        for i, (job, key) in enumerate(zip(jobs, keys)):
            status, payload = outcomes[i]
            if status == "failed":
                out.failures.append(payload)
                continue
            try:
                result = retry_call(lambda: read(key),
                                    policy=_COLLECT_POLICY)
            except OSError:
                raise RuntimeError(
                    f"unit for {job.name} reported done but key "
                    f"{key[:12]} is missing from the store") from None
            out.results.append(result)
        return out

    def store_reachable(self) -> bool:
        """Can the shared store serve a read right now?

        Probes a key that cannot exist: a clean miss means the mount
        answers; any other ``OSError`` means it does not.  Feeds
        ``/healthz``.
        """
        probe = self.store.path_for("0" * 64)
        try:
            self.store.backend.read_bytes(probe)
        except FileNotFoundError:
            return True
        except OSError:
            return False
        return True

    def __repr__(self) -> str:
        return f"Coordinator({self.backend.describe()!r})"
