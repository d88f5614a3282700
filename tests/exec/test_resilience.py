"""Degraded-mode primitives: retry policy, retry_call, circuit breaker."""

import errno

import pytest

from repro.exec.resilience import (BackendUnavailable, CircuitBreaker,
                                   RetryPolicy, retry_call)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(retries=5, backoff=0.1, max_backoff=0.4,
                             deadline=None)
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_zero_retries_means_one_attempt(self):
        assert list(RetryPolicy(retries=0).delays()) == []


class TestRetryCall:
    def test_rides_out_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "transient")
            return "ok"

        retried = []
        out = retry_call(flaky,
                         policy=RetryPolicy(retries=3, backoff=0.001),
                         on_retry=lambda n, exc: retried.append(n))
        assert out == "ok"
        assert calls["n"] == 3
        assert retried == [1, 2]

    def test_exhaustion_raises_typed_and_chained(self):
        def down():
            raise OSError(errno.EIO, "still down")

        with pytest.raises(BackendUnavailable) as err:
            retry_call(down, policy=RetryPolicy(retries=2, backoff=0.001))
        assert isinstance(err.value.__cause__, OSError)
        assert isinstance(err.value, OSError)    # transient taxonomy

    def test_backend_unavailable_is_never_retried(self):
        calls = {"n": 0}

        def fast_fail():
            calls["n"] += 1
            raise BackendUnavailable("circuit open")

        with pytest.raises(BackendUnavailable):
            retry_call(fast_fail,
                       policy=RetryPolicy(retries=5, backoff=0.001))
        assert calls["n"] == 1

    def test_deadline_stops_the_loop_before_the_budget(self):
        calls = {"n": 0}

        def down():
            calls["n"] += 1
            raise OSError("down")

        with pytest.raises(BackendUnavailable) as err:
            retry_call(down, policy=RetryPolicy(
                retries=50, backoff=10.0, max_backoff=10.0,
                deadline=0.01))
        assert calls["n"] == 1      # the first sleep would blow it
        # the report names the attempts made, not the budget
        assert "after 1 attempt(s)" in str(err.value)

    def test_non_retryable_errors_propagate_untouched(self):
        def bug():
            raise ValueError("logic error, not weather")

        with pytest.raises(ValueError):
            retry_call(bug)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _raise_eio():
    raise OSError(errno.EIO, "backend down")


class TestCircuitBreaker:
    def _tripped(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        for _ in range(3):
            with pytest.raises(OSError):
                breaker.call(_raise_eio)
        return breaker, clock

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=5.0,
                                 clock=_Clock())
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(_raise_eio)
        assert breaker.state == "closed"

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, cooldown=5.0,
                                 clock=_Clock())
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(_raise_eio)
        assert breaker.call(lambda: "ok") == "ok"
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(_raise_eio)
        assert breaker.state == "closed"

    def test_open_fails_fast_without_calling(self):
        breaker, _ = self._tripped()
        assert breaker.state == "open"
        calls = {"n": 0}

        def fn():
            calls["n"] += 1

        with pytest.raises(BackendUnavailable):
            breaker.call(fn)
        assert calls["n"] == 0

    def test_half_open_probe_success_closes(self):
        breaker, clock = self._tripped()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self._tripped()
        clock.advance(5.0)
        with pytest.raises(OSError):
            breaker.call(_raise_eio)
        assert breaker.state == "open"
        clock.advance(4.9)
        assert breaker.state == "open"      # a fresh full cooldown

    def test_probe_raising_a_non_oserror_frees_the_probe_slot(self):
        # e.g. a damaged spool file: ValueError/UnpicklingError from
        # the worker's flush probe must not wedge the breaker shut
        clock = _Clock()
        breaker = CircuitBreaker(threshold=2, cooldown=1.0, clock=clock)
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(_raise_eio)
        clock.advance(1.0)

        def damaged():
            raise ValueError("damaged spool file")

        with pytest.raises(ValueError):
            breaker.call(damaged)
        clock.advance(1.0)
        assert breaker.call(lambda: "ok") == "ok"   # a fresh probe
        assert breaker.state == "closed"

    def test_exactly_one_probe_is_admitted(self):
        breaker, clock = self._tripped()
        clock.advance(5.0)
        assert breaker.allow()          # this caller is the probe
        assert not breaker.allow()      # concurrent caller fails fast
        breaker.record_success()
        assert breaker.allow()
