"""Degraded-mode primitives: typed unavailability, retries, breakers.

The fabric's failure philosophy (DESIGN §8, §10) is that infrastructure
faults are *weather*, not emergencies — but the code that rides weather
out needs three small tools it kept reimplementing ad hoc:

* :class:`BackendUnavailable` — the typed "the storage seam itself is
  down" error.  It subclasses ``OSError`` so every existing transient
  classifier (the campaign taxonomy, the pool's retry arm, the store's
  miss-on-OSError reads) handles it without modification, while callers
  that *want* to distinguish infrastructure outage from a single bad
  file can catch it specifically.
* :func:`retry_call` / :class:`RetryPolicy` — bounded retry with
  exponential backoff and a hard wall-clock deadline.  Unbounded or
  fixed-count retry loops are exactly the bug this replaces: a loop
  that spins on a stale NFS handle forever looks identical to a hang.
  Every retry site takes its budget and delays from a policy: the
  pool's job retries, the ``shared:`` backend's ``ESTALE`` reads, the
  fabric's ledger/store writes (:data:`WRITE_POLICY`) and the
  coordinator's result collection.
* :class:`CircuitBreaker` — after ``threshold`` consecutive failures
  the circuit opens and calls fail fast with
  :class:`BackendUnavailable` for ``cooldown`` seconds, then a single
  probe is let through (half-open).  A worker facing a dead store
  keeps *running* work (results spool locally) instead of stalling in
  kernel-side NFS timeouts on every operation.

All three are dependency-free and thread-safe where it matters (the
breaker is shared between a worker's main loop and its heartbeater
thread).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


class BackendUnavailable(OSError):
    """The storage backend is (transiently) unreachable.

    Raised by bounded retry loops that exhausted their deadline and by
    open circuit breakers.  Subclasses ``OSError`` so the existing
    transient-failure taxonomy and miss-on-error read paths treat it
    correctly without knowing it exists.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with a hard wall-clock deadline."""

    #: attempts beyond the first (0 = one try, no retry)
    retries: int = 3
    #: sleep before the first retry; doubles each retry
    backoff: float = 0.05
    #: backoff ceiling per sleep
    max_backoff: float = 1.0
    #: hard wall-clock budget across all attempts (None = attempts only)
    deadline: float | None = 5.0

    def delays(self):
        """The backoff schedule, one delay per retry."""
        delay = self.backoff
        for _ in range(self.retries):
            yield delay
            delay = min(delay * 2.0, self.max_backoff)


#: fabric ledger/store writes (coordinator enqueues, worker result puts
#: and done records): three tries inside two seconds, then degrade
WRITE_POLICY = RetryPolicy(retries=2, backoff=0.05, deadline=2.0)


def retry_call(fn, *, policy: RetryPolicy = RetryPolicy(),
               retry_on: tuple[type, ...] = (OSError,),
               on_retry=None):
    """Call ``fn()`` riding out transient errors per ``policy``.

    Retries on ``retry_on`` with exponential backoff until the retry
    budget or the wall-clock deadline is exhausted, then raises
    :class:`BackendUnavailable` chained to the last error.  A breaker
    fast-fail (``BackendUnavailable`` from an open circuit) is never
    retried — the breaker already decided the backend is down.
    """
    start = time.monotonic()
    last: BaseException | None = None
    attempts = 0
    for delay in [None, *policy.delays()]:
        if delay is not None:
            if policy.deadline is not None \
                    and time.monotonic() + delay - start > policy.deadline:
                break
            time.sleep(delay)
        attempts += 1
        try:
            return fn()
        except BackendUnavailable:
            raise
        except retry_on as exc:
            last = exc
            if on_retry is not None:
                on_retry(attempts, exc)
    raise BackendUnavailable(
        f"gave up after {attempts} attempt(s) / "
        f"{time.monotonic() - start:.2f}s: {last}") from last


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    Closed (normal) → ``threshold`` consecutive failures → open (every
    call fails fast with :class:`BackendUnavailable`) → after
    ``cooldown`` seconds one probe call is allowed through (half-open);
    its success closes the circuit, its failure re-opens it for another
    cooldown.  ``clock`` is injectable for tests.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 5.0,
                 clock=time.monotonic):
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May a call proceed right now? (claims the half-open probe)"""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self.cooldown:
                return False
            if self._probing:
                return False
            self._probing = True        # this caller is the probe
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= self.threshold:
                self._opened_at = self._clock()

    def call(self, fn):
        """Run ``fn()`` under the breaker (fast-fail when open)."""
        if not self.allow():
            raise BackendUnavailable(
                f"circuit open ({self._failures} consecutive failures)")
        try:
            result = fn()
        except OSError:
            self.record_failure()
            raise
        except BaseException:
            # not an outage, but the probe slot must not stay claimed
            with self._lock:
                self._probing = False
            raise
        self.record_success()
        return result

    def __repr__(self) -> str:
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self._failures})")
