"""Parallel execution engine with a content-addressed result store.

``repro.exec`` turns suite/sweep execution from "loop over
:func:`~repro.harness.runner.run_workload`" into a scheduled job system:

* :mod:`repro.exec.jobs` — :class:`JobSpec` describes one run; its
  :meth:`~JobSpec.cache_key` is a stable content hash of everything that
  determines the result, including a fingerprint of the ``repro`` source
  tree, so cached results invalidate automatically when simulator code
  changes;
* :mod:`repro.exec.store` — :class:`ResultStore`, an on-disk
  content-addressed store (CRC32-framed entries, atomic fsync'd writes,
  quarantine of corrupt entries, cross-process locked ``gc``,
  ``verify`` and ``stats`` maintenance);
* :mod:`repro.exec.pool` — :func:`run_jobs`, a multiprocessing scheduler
  with chunked dispatch, per-job timeouts, transient-failure retry with
  backoff, graceful interruption, and a serial in-process fallback;
* :mod:`repro.exec.campaign` — the campaign failure model:
  :class:`WorkloadFailure` records, the transient/permanent error
  taxonomy and the ``on_error`` retry budget (:func:`retry_budget`),
  the append-only :class:`CampaignManifest` journal behind
  ``--resume``, and :func:`graceful_shutdown` signal handling;
* :mod:`repro.exec.resilience` — the one retry schedule
  (:class:`RetryPolicy` / :func:`retry_call`) every retry site uses,
  :class:`CircuitBreaker`, and the typed :class:`BackendUnavailable`;
* :mod:`repro.exec.chaos` — deterministic fault injection, one
  injector per seam: :class:`~repro.exec.chaos.ChaosExecutor` (worker
  crashes, hangs, flaky ``OSError``\\ s) and
  :class:`~repro.exec.chaos.ChaosBackend` (``EIO``, ``ENOSPC``,
  ``ESTALE``, latency, torn and corrupt writes), which the chaos tests
  use to prove every recovery path;
* :mod:`repro.exec.progress` — :class:`ProgressReporter`, throughput /
  ETA / per-worker accounting behind the existing ``(i, total, name)``
  progress-callback shape, with work-based ETA and busy/idle straggler
  visibility when the scheduler supplies cost estimates;
* :mod:`repro.exec.costmodel` — :class:`CostModel`, persisted
  per-workload EWMA runtimes (JSON sidecar next to the result store)
  driving :func:`lpt_order` longest-processing-time-first dispatch;
* :mod:`repro.exec.warm` — per-worker warm-state reuse (pristine model
  snapshots, decoded trace chunks) with eviction on any job failure.

The simulator is seeded-deterministic, so parallel execution is
bit-identical to serial — ``characterize_suite(specs, m, jobs=8)``
returns exactly the matrix of ``jobs=1``, only faster.
"""

from repro.exec.backend import (LocalDirBackend, SharedDirBackend,
                                StoreBackend, backend_for)
from repro.exec.campaign import (CampaignInterrupted, CampaignManifest,
                                 WorkloadFailure, classify_error,
                                 graceful_shutdown, retry_budget)
from repro.exec.costmodel import CostModel, cost_key, lpt_order
from repro.exec.jobs import JobSpec, code_fingerprint, execute_job
from repro.exec.pool import JobFailure, JobTimeout, WorkerCrash, run_jobs
from repro.exec.progress import ProgressReporter
from repro.exec.resilience import (BackendUnavailable, CircuitBreaker,
                                   RetryPolicy, retry_call)
from repro.exec.store import (ResultStore, StoreCorruption, StoreStats)
from repro.exec.warm import WarmCache

__all__ = [
    "JobSpec", "code_fingerprint", "execute_job",
    "JobFailure", "JobTimeout", "WorkerCrash", "run_jobs",
    "CampaignInterrupted", "CampaignManifest", "WorkloadFailure",
    "classify_error", "graceful_shutdown", "retry_budget",
    "RetryPolicy", "retry_call", "CircuitBreaker", "BackendUnavailable",
    "ProgressReporter",
    "CostModel", "cost_key", "lpt_order",
    "WarmCache",
    "ResultStore", "StoreCorruption", "StoreStats",
    "StoreBackend", "LocalDirBackend", "SharedDirBackend", "backend_for",
]
