"""Deterministic fault injection for the execution engine.

Robustness guarantees rot unless something exercises them on every PR.
This module injects the campaign failure modes — worker crashes, hangs,
transient exceptions, damaged store entries, failing storage — under
test control, with two properties the chaos tests depend on:

* **seed-driven determinism** — every fault decision is a pure function
  of ``(seed, fault kind, target)`` via :func:`roll`, so a chaos run is
  reproducible and a test can *predict* exactly which jobs are doomed;
* **cross-process once-markers** — with ``once=True`` a fault fires on
  the first attempt only (marker files under ``state_dir`` survive
  worker boundaries), modelling transient weather that a retry rides
  out; ``once=False`` models a persistently poisonous target that must
  exhaust its retry budget and surface as a failure record.

:class:`ChaosExecutor` wraps the pool's job runner (install it with
:func:`injected`; the pool resolves ``_execute`` at call time, so under
``fork`` workers inherit the patched value).

:class:`ChaosBackend` extends the same discipline to the
:class:`~repro.exec.backend.StoreBackend` seam every store rides: every
read, publish, and hardlink can be made to fail with ``EIO``,
``ENOSPC``, a latency spike, a stale NFS read, or damage that *reports
success* — a torn (truncated) write, which the store's length check
must catch, or a flipped byte, which its CRC must catch — exactly what
a killed writer or a bad disk inflicts.  Decisions are deterministic per
``(seed, kind, target, attempt)``, so a retry rolls a fresh decision
and transient weather is distinguishable from a dead mount.  Activate
it in subprocesses via the ``REPRO_CHAOS_BACKEND`` environment
variable (see :func:`repro.exec.backend.backend_for`).
"""

from __future__ import annotations

import errno
import hashlib
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import repro.exec.pool as pool_mod
from repro import obs
from repro.exec.backend import StoreBackend, backend_for
from repro.exec.jobs import execute_job


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates in [0, 1]; a rate of 0 disables that fault."""

    seed: int = 0
    #: worker calls ``os._exit`` mid-job (parallel runs only — in a
    #: serial run this would kill the test process itself)
    crash_rate: float = 0.0
    #: raise ``OSError`` (the transient taxonomy arm); serial-safe
    flaky_rate: float = 0.0
    #: sleep ``hang_seconds`` so the pool's timeout must kill the worker
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    #: fire each fault once per target (needs ``state_dir``); False =
    #: the target is doomed on every attempt
    once: bool = True
    #: directory for cross-process once-markers
    state_dir: str | None = None


def roll(seed: int, kind: str, target: str) -> float:
    """Deterministic uniform draw in [0, 1) for one fault decision."""
    digest = hashlib.sha256(f"{seed}:{kind}:{target}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2.0 ** 64


def doomed(config: ChaosConfig, kind: str, rate: float,
           target: str) -> bool:
    """Would this fault fire for ``target`` (ignoring once-markers)?"""
    return rate > 0.0 and roll(config.seed, kind, target) < rate


def _first_firing(config: ChaosConfig, kind: str, target: str) -> bool:
    """Consume the once-marker; True exactly once per (kind, target)."""
    state = Path(config.state_dir)
    state.mkdir(parents=True, exist_ok=True)
    tag = hashlib.sha256(target.encode()).hexdigest()[:16]
    marker = state / f"{kind}-{tag}"
    try:
        marker.touch(exist_ok=False)
        return True
    except FileExistsError:
        return False


def _fire(config: ChaosConfig, kind: str, rate: float,
          target: str) -> bool:
    if not doomed(config, kind, rate, target):
        return False
    if config.once:
        if config.state_dir is None:
            raise ValueError(
                "ChaosConfig(once=True) needs a state_dir so retries "
                "can observe that the fault already fired")
        return _first_firing(config, kind, target)
    return True


class ChaosExecutor:
    """Wrap the pool's job executor with seed-driven faults."""

    def __init__(self, config: ChaosConfig, inner=execute_job):
        self.config = config
        self.inner = inner

    def doomed_names(self, kind: str, names) -> list[str]:
        """The subset of ``names`` this config will fault (prediction
        helper for tests)."""
        rate = {"crash": self.config.crash_rate,
                "flaky": self.config.flaky_rate,
                "hang": self.config.hang_rate}[kind]
        return [n for n in names if doomed(self.config, kind, rate, n)]

    def __call__(self, job):
        cfg = self.config
        name = job.name
        if _fire(cfg, "crash", cfg.crash_rate, name):
            os._exit(86)
        if _fire(cfg, "flaky", cfg.flaky_rate, name):
            raise OSError(f"chaos: injected transient fault in {name!r}")
        if _fire(cfg, "hang", cfg.hang_rate, name):
            time.sleep(cfg.hang_seconds)
        return self.inner(job)


class _Injection:
    """Handle returned by :func:`injected`; also a context manager."""

    def __init__(self, executor):
        self.executor = executor
        self._previous = pool_mod._execute
        pool_mod._execute = executor

    def uninstall(self) -> None:
        pool_mod._execute = self._previous

    def __enter__(self):
        return self.executor

    def __exit__(self, *exc):
        self.uninstall()
        return False


def injected(config_or_executor) -> _Injection:
    """Install a chaos executor as the pool's job runner.

    Accepts a :class:`ChaosConfig` or a prebuilt executor.  Use as a
    context manager (or call ``.uninstall()``) to restore the real
    executor — forked workers resolve the module attribute at call
    time, so installation covers serial and ``fork``-parallel runs.
    """
    executor = (config_or_executor
                if callable(config_or_executor)
                else ChaosExecutor(config_or_executor))
    return _Injection(executor)


# ---------------------------------------------------------------------------
# I/O-seam fault injection (the StoreBackend proxy)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendChaosConfig:
    """Fault rates in [0, 1] for the :class:`ChaosBackend` proxy.

    Decisions are deterministic per ``(seed, kind, target, attempt)``:
    a retried operation rolls fresh, so with a rate < 1 a bounded
    retry loop always converges — which is exactly the contract the
    degraded-mode machinery is supposed to honour.
    """

    seed: int = 0
    #: reads and publishes/links raise ``OSError(EIO)`` (bad disk)
    eio_rate: float = 0.0
    #: publishes/links raise ``OSError(ENOSPC)`` (full disk)
    enospc_rate: float = 0.0
    #: reads raise ``OSError(ESTALE)`` (stale NFS file handle)
    stale_rate: float = 0.0
    #: publishes/links land *truncated* bytes but report success — the
    #: damage only framing (or a torn-tolerant JSON reader) catches
    torn_rate: float = 0.0
    #: publishes/links land with the middle byte flipped but report
    #: success — full length, so only the store's CRC catches it
    corrupt_rate: float = 0.0
    #: any operation first sleeps ``latency_seconds`` (slow mount)
    latency_rate: float = 0.0
    latency_seconds: float = 0.02

    @classmethod
    def parse(cls, spec: str) -> "BackendChaosConfig":
        """Parse the env spelling: ``"seed=7,eio=0.05,stale=0.1"``.

        Keys: ``seed``, ``eio``, ``enospc``, ``stale``, ``torn``,
        ``corrupt``, ``latency``, ``latency_seconds``.
        """
        fields = {"eio": "eio_rate", "enospc": "enospc_rate",
                  "stale": "stale_rate", "torn": "torn_rate",
                  "corrupt": "corrupt_rate", "latency": "latency_rate",
                  "latency_seconds": "latency_seconds"}
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.partition("=")
            name = name.strip()
            if name == "seed":
                kwargs["seed"] = int(value)
            elif name in fields:
                kwargs[fields[name]] = float(value)
            else:
                raise ValueError(
                    f"unknown REPRO_CHAOS_BACKEND key {name!r}")
        return cls(**kwargs)


class ChaosBackend(StoreBackend):
    """Fault-injecting proxy over any :class:`StoreBackend`.

    Every verb of the physical-storage protocol can fail the way a
    real deployment fails: ``EIO`` from a dying disk, ``ENOSPC`` from
    a full one, latency spikes from a congested mount, *torn* or
    *corrupt* writes that report success and leave truncated or
    bit-flipped bytes, and stale NFS reads.  Fault decisions are pure
    functions of ``(seed, kind, file name, attempt number)`` —
    reproducible run to run, fresh per retry — and the per-process
    attempt counters mean a fixed rate behaves like independent
    weather, not a cursed file.
    """

    def __init__(self, inner: StoreBackend | str | os.PathLike,
                 config: BackendChaosConfig):
        self.inner = backend_for(inner)
        super().__init__(self.inner.root)
        self.scheme = f"chaos+{self.inner.scheme}"
        self.config = config
        self._attempts: Counter = Counter()
        self._mutex = threading.Lock()

    def _fires(self, kind: str, rate: float, name: str) -> bool:
        if rate <= 0.0:
            return False
        with self._mutex:
            n = self._attempts[(kind, name)]
            self._attempts[(kind, name)] += 1
        if roll(self.config.seed, kind, f"{name}#{n}") < rate:
            obs.add("chaos.backend_faults")
            obs.add(f"chaos.backend_{kind}")
            return True
        return False

    def doomed_names(self, kind: str, names) -> list[str]:
        """The file ``names`` whose first ``kind`` roll fires
        (prediction helper for tests)."""
        rate = getattr(self.config, f"{kind.partition('-')[0]}_rate")
        return [n for n in names
                if roll(self.config.seed, kind, f"{n}#0") < rate]

    def _maybe_latency(self, name: str) -> None:
        if self._fires("latency", self.config.latency_rate, name):
            time.sleep(self.config.latency_seconds)

    def read_bytes(self, path: str | os.PathLike) -> bytes:
        name = Path(path).name
        self._maybe_latency(name)
        if self._fires("stale", self.config.stale_rate, name):
            raise OSError(errno.ESTALE,
                          f"chaos: stale NFS read of {name}")
        if self._fires("eio-read", self.config.eio_rate, name):
            raise OSError(errno.EIO, f"chaos: read error on {name}")
        return self.inner.read_bytes(path)

    def _damage(self, src: Path, name: str) -> None:
        """Tear and/or corrupt ``src`` in place before it lands."""
        if self._fires("torn", self.config.torn_rate, name):
            data = src.read_bytes()
            src.write_bytes(data[:max(1, int(len(data) * 0.6))])
        if self._fires("corrupt", self.config.corrupt_rate, name):
            data = bytearray(src.read_bytes())
            data[len(data) // 2] ^= 0xFF
            src.write_bytes(bytes(data))

    def _write_faults(self, name: str) -> None:
        self._maybe_latency(name)
        if self._fires("enospc", self.config.enospc_rate, name):
            raise OSError(errno.ENOSPC,
                          f"chaos: no space publishing {name}")
        if self._fires("eio-write", self.config.eio_rate, name):
            raise OSError(errno.EIO, f"chaos: write error on {name}")

    def publish(self, tmp: Path, dst: Path) -> None:
        self._write_faults(dst.name)
        self._damage(tmp, dst.name)
        self.inner.publish(tmp, dst)

    def link(self, src: Path, dst: Path) -> None:
        self._write_faults(dst.name)
        self._damage(src, dst.name)
        self.inner.link(src, dst)

    def lock(self, name: str = ".lock", exclusive: bool = False):
        return self.inner.lock(name, exclusive=exclusive)

    def describe(self) -> str:
        return f"chaos+{self.inner.describe()}"

    def __repr__(self) -> str:
        return f"ChaosBackend({self.inner!r}, {self.config!r})"
