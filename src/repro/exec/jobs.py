"""Job descriptions and content-addressed cache keys.

A :class:`JobSpec` is the unit of work the execution engine schedules:
one ``(workload spec, machine, fidelity, seed, run kwargs)`` tuple.  Its
:meth:`~JobSpec.cache_key` is a stable SHA-256 over a canonical encoding
of all of those *plus* a fingerprint of the ``repro`` source tree
(:func:`code_fingerprint`), so

* two processes that build the same job independently agree on the key
  (results are shareable across pytest invocations, CLI runs, and
  worker processes), and
* any edit to any ``src/repro/**/*.py`` file changes the fingerprint and
  with it every key — stale results can never be served after a
  simulator change.

The canonical encoding covers the value shapes that legitimately appear
in run configuration (dataclasses such as ``GcConfig``, primitives,
tuples, dicts).  Anything whose representation is not stable across
processes — lambdas, open files, default-``repr`` objects — is rejected
with ``TypeError`` rather than silently producing an unstable key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.harness.runner import Fidelity, RunResult, run_workload
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec

#: bump when the key schema itself changes (invalidates every old entry)
KEY_VERSION = "1"


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def _encode(value, out: list[bytes]) -> None:
    """Append a canonical, type-tagged byte encoding of ``value``."""
    if value is None:
        out.append(b"N")
    elif value is True or value is False:
        out.append(b"T" if value else b"F")
    elif isinstance(value, int):
        out.append(b"i%d" % value)
    elif isinstance(value, float):
        out.append(b"f" + repr(value).encode())
    elif isinstance(value, str):
        raw = value.encode()
        out.append(b"s%d:" % len(raw))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value))
        out.append(value)
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _encode(item, out)
        out.append(b")")
    elif isinstance(value, Mapping):
        out.append(b"{")
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out.append(b"}")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(b"D")
        _encode(type(value).__qualname__, out)
        for f in dataclasses.fields(value):
            if not f.compare:
                continue
            _encode(f.name, out)
            _encode(getattr(value, f.name), out)
        out.append(b"d")
    else:
        raise TypeError(
            f"cannot canonically encode {type(value).__name__!r} for a "
            f"cache key; use primitives, tuples, dicts, or dataclasses")


def canonical_encode(value) -> bytes:
    """Deterministic byte encoding of ``value`` (see module docstring)."""
    out: list[bytes] = []
    _encode(value, out)
    return b"".join(out)


# ---------------------------------------------------------------------------
# Simulator-code fingerprint
# ---------------------------------------------------------------------------

_FINGERPRINTS: dict[Path, str] = {}


def code_fingerprint(root: str | Path | None = None, *,
                     refresh: bool = False) -> str:
    """Stable hash of the simulator source tree.

    Hashes the path and content of every ``*.py`` and ``*.c`` file
    under ``root`` (default: the installed ``repro`` package directory)
    in sorted order, so an edit to the native kernel's sources
    invalidates results it computed.  The result is memoized per root
    for the life of the process — pass ``refresh=True`` to rehash after
    on-disk changes.
    """
    if root is None:
        import repro
        root = Path(repro.__file__).parent
    root = Path(root).resolve()
    if not refresh and root in _FINGERPRINTS:
        return _FINGERPRINTS[root]
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _FINGERPRINTS[root] = digest.hexdigest()
    return _FINGERPRINTS[root]


# ---------------------------------------------------------------------------
# JobSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    """One schedulable workload run.

    ``run_kwargs`` carries extra :func:`~repro.harness.runner.run_workload`
    keyword arguments (``gc_config``, ``sampling``, ...); a ``"seed"``
    entry there overrides the ``seed`` field (sweeps drive the seed as a
    run axis).
    """

    spec: WorkloadSpec
    machine: MachineConfig
    fidelity: Fidelity
    seed: int = 0
    run_kwargs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name

    def cache_key(self, fingerprint: str | None = None) -> str:
        """Content hash identifying this job's result.

        ``fingerprint`` defaults to :func:`code_fingerprint` of the live
        ``repro`` tree; schedulers pass it explicitly so a batch of keys
        hashes the source tree once.
        """
        if fingerprint is None:
            fingerprint = code_fingerprint()
        payload = canonical_encode(
            (KEY_VERSION, fingerprint, self.spec, self.machine,
             self.fidelity, self.seed, dict(self.run_kwargs)))
        return hashlib.sha256(payload).hexdigest()


def execute_job(job: JobSpec) -> RunResult:
    """Run one job in the current process.

    ``REPRO_TRACE_DIR`` attaches a :class:`~repro.exec.traces.TraceStore`
    to every job, so a batch over several machine configs generates each
    workload's trace once and replays it thereafter.  The trace store is
    deliberately not part of the cache key — it changes how a result is
    produced, never what it is.  When the run was configured with
    ``--obs-profile``, the job body runs under the opt-in
    :func:`repro.obs.profiler.profile_job` harness.
    """
    kwargs = dict(job.run_kwargs)
    seed = kwargs.pop("seed", job.seed)
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if trace_dir and "trace_store" not in kwargs:
        from repro.exec.traces import TraceStore
        kwargs["trace_store"] = TraceStore(os.path.expanduser(trace_dir))
    from repro import obs
    if obs.profile_mode() is not None:
        from repro.obs.profiler import profile_job
        with profile_job(job.name):
            return run_workload(job.spec, job.machine, job.fidelity,
                                seed=seed, **kwargs)
    return run_workload(job.spec, job.machine, job.fidelity,
                        seed=seed, **kwargs)
