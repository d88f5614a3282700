"""Suite-level orchestration: characterize many workloads, build matrices.

A suite run is the unit the paper's campaigns are built from, so this
layer carries the campaign failure model: ``on_error`` selects whether
a failed workload aborts the batch (``"raise"``, the historical
default), degrades into a structured :class:`WorkloadFailure` record on
``SuiteResult.failures`` (``"skip"``), or gets more transient-failure
retries before degrading (``"retry"``).  A
:class:`~repro.exec.campaign.CampaignManifest` journals every settled
job, and ``should_stop`` (typically wired to SIGINT via
:func:`~repro.exec.campaign.graceful_shutdown`) stops the run early
with a resumable :class:`~repro.exec.campaign.CampaignInterrupted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import MetricMatrix, metric_vector
from repro.harness.runner import Fidelity, RunResult
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec


@dataclass
class SuiteResult:
    """All runs of one suite on one machine.

    ``failures`` holds the structured records of workloads that did not
    produce a result (only populated under ``on_error="skip"|"retry"``
    or on resume); ``results`` holds the successes, in spec order.
    """

    machine: MachineConfig
    results: list[RunResult] = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: lazily built name -> RunResult index (first occurrence wins, like
    #: the linear scan it replaces); rebuilt when ``results`` grows
    _index: dict[str, RunResult] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def names(self) -> list[str]:
        return [r.spec.name for r in self.results]

    @property
    def ok(self) -> bool:
        return not self.failures

    def metric_matrix(self) -> MetricMatrix:
        return MetricMatrix(
            self.names,
            np.vstack([metric_vector(r.counters) for r in self.results]),
            [r.spec.suite for r in self.results])

    def times(self) -> dict[str, float]:
        """Per-workload simulated seconds (for §IV-C score validation).

        All runs execute the same instruction budget, so seconds is
        time-per-fixed-work: ratios between machines are SPECspeed-style
        speedups, and for throughput suites the inverse ratio is the
        throughput ratio — the same score either way.
        """
        return {r.spec.name: r.seconds for r in self.results}

    def result_of(self, name: str) -> RunResult:
        # Subset validation calls this in a loop over the full corpus;
        # an O(n) scan per lookup made that quadratic.
        if self._index is None or len(self._index) < len(self.results):
            index: dict[str, RunResult] = {}
            for r in self.results:
                index.setdefault(r.spec.name, r)
            self._index = index
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(name) from None


def characterize_suite(specs: list[WorkloadSpec], machine: MachineConfig,
                       fidelity: Fidelity | None = None, seed: int = 0,
                       progress=None, jobs: int = 1, store=None,
                       reporter=None, on_error: str = "raise",
                       max_retries: int | None = None,
                       manifest=None, should_stop=None,
                       **run_kwargs) -> SuiteResult:
    """Run every spec on ``machine`` and collect the results.

    ``progress`` is an optional callable ``(index, total, name)`` for
    long-running experiments.  ``jobs`` > 1 runs workloads in parallel
    worker processes (results are bit-identical to serial — the
    simulator is seeded-deterministic); ``store`` is an optional
    :class:`repro.exec.ResultStore` that serves previously computed runs
    and persists fresh ones, keyed by workload/machine/fidelity/kwargs
    *and* a fingerprint of the simulator source tree.

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    re-raises the first failure, ``"skip"`` records failures on
    ``SuiteResult.failures`` and keeps going, ``"retry"`` additionally
    raises the transient retry budget (``max_retries`` defaults to 3
    there, 1 otherwise).  ``manifest`` (a
    :class:`~repro.exec.campaign.CampaignManifest`) journals outcomes;
    on resume, permanent prior failures are skipped without
    re-execution and transient ones are re-attempted.  ``should_stop``
    (zero-arg callable) stops the run early: completed work is
    journaled and :class:`~repro.exec.campaign.CampaignInterrupted`
    is raised.
    """
    from repro.exec.campaign import (PERMANENT, CampaignInterrupted,
                                     WorkloadFailure, retry_budget)
    from repro.exec.jobs import JobSpec, code_fingerprint
    from repro.exec.pool import JobFailure, run_jobs

    max_retries = retry_budget(on_error, max_retries)

    fidelity = fidelity or Fidelity.default()
    jobspecs = [JobSpec(spec=spec, machine=machine, fidelity=fidelity,
                        seed=seed, run_kwargs=run_kwargs)
                for spec in specs]
    total = len(jobspecs)

    keys: list[str] | None = None
    carried: dict[int, WorkloadFailure] = {}
    if manifest is not None:
        fingerprint = code_fingerprint()
        manifest.begin(fingerprint, total=total)
        keys = [job.cache_key(fingerprint) for job in jobspecs]
        if on_error in ("skip", "retry"):
            prior = manifest.failure_records()
            for i, key in enumerate(keys):
                failure = prior.get(key)
                # Deterministic failures reproduce on retry: carry the
                # record instead of burning another attempt.  Transient
                # ones are re-attempted by simply not carrying them.
                if failure is not None \
                        and failure.classification == PERMANENT:
                    carried[i] = failure

    pending = [i for i in range(total) if i not in carried]
    catch = () if on_error == "raise" else (Exception,)
    from repro import obs
    with obs.span("suite.characterize", machine=machine.name,
                  workloads=total, jobs=jobs):
        sub_outcomes = run_jobs(
            [jobspecs[i] for i in pending], n_jobs=jobs, store=store,
            progress=progress, reporter=reporter, catch=catch,
            max_retries=max_retries, should_stop=should_stop)

    outcomes: list = [None] * total
    for i, outcome in zip(pending, sub_outcomes):
        outcomes[i] = outcome

    out = SuiteResult(machine=machine)
    unfinished = 0
    for i, (job, outcome) in enumerate(zip(jobspecs, outcomes)):
        key = keys[i] if keys is not None else None
        if i in carried:
            out.failures.append(carried[i])
            if manifest is not None:
                manifest.record(key, job.name, "skipped",
                                failure=carried[i])
            continue
        if outcome is None:             # interrupted before this job ran
            unfinished += 1
            continue
        if isinstance(outcome, JobFailure):
            failure = WorkloadFailure.from_job_failure(outcome, key=key)
            out.failures.append(failure)
            if manifest is not None:
                manifest.record(key, job.name, "failed", failure=failure)
        else:
            out.results.append(outcome)
            if manifest is not None:
                manifest.record(key, job.name, "done")

    if unfinished:
        if manifest is not None:
            manifest.record_event("interrupted", unfinished=unfinished)
        raise CampaignInterrupted(
            manifest.path if manifest is not None else None,
            completed=len(out.results), failed=len(out.failures),
            remaining=unfinished)

    if on_error == "raise" and out.failures:
        first = out.failures[0]
        if first.error is not None:
            raise first.error
        raise RuntimeError(
            f"{first.name} failed: {first.error_type}: {first.message}")
    return out


def suite_times(specs: list[WorkloadSpec], machine: MachineConfig,
                fidelity: Fidelity | None = None,
                seed: int = 0, jobs: int = 1,
                store=None) -> dict[str, float]:
    """Just the per-workload times (cheaper mental model for validation)."""
    return characterize_suite(specs, machine, fidelity, seed=seed,
                              jobs=jobs, store=store).times()
