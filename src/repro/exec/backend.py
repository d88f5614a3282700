"""Store backends: where content-addressed bytes physically live.

:class:`~repro.exec.store.ResultStore` and
:class:`~repro.exec.traces.TraceStore` own the *logical* store — keys,
layout, CRC framing, quarantine.  This module owns the *physical*
questions underneath: how bytes are published atomically, how
cross-process locks behave, and what a reader may assume about
visibility.  Factoring that out is what lets one fleet of worker hosts
share a single store (:mod:`repro.fabric`): every host points its
stores at the same backend and each result/trace is produced once
fleet-wide.

Two implementations cover the deployment shapes the fabric needs:

* :class:`LocalDirBackend` — a directory on a local filesystem; exactly
  the pre-backend semantics (atomic ``os.replace`` publication, fsync'd
  data, ``flock`` advisory locks);
* :class:`SharedDirBackend` — a directory on a *shared* filesystem
  (NFS, CIFS, a bind-mounted volume).  Publication additionally fsyncs
  the parent directory so the rename itself is durable and visible
  under close-to-open consistency, and reads ride out the transient
  ``ESTALE`` races a concurrent cross-host rename can expose with a
  *bounded* exponential backoff (:data:`STALE_READ_POLICY`): when the
  staleness persists past a hard deadline the read surfaces as a typed
  :class:`~repro.exec.resilience.BackendUnavailable` instead of
  spinning, and the caller's quarantine-or-recompute path takes over.

Both speak the same four-verb protocol (:class:`StoreBackend`):
``read_bytes``, ``publish`` (tmp file -> final path, atomic), ``link``
(hardlink, first-writer-wins), and ``lock``.  The stores keep doing
their own framing and layout on top, so integrity guarantees are
backend-independent by construction — and because *every* fleet I/O
crosses this seam, a single fault-injecting proxy
(:class:`~repro.exec.chaos.ChaosBackend`) can model a failing disk or
a flaky NFS mount for the whole system at once.

:func:`backend_for` parses the CLI/fabric spelling — a bare path is
local, ``shared:<path>`` selects the shared-dir discipline.  Setting
``REPRO_CHAOS_BACKEND`` (e.g. ``"seed=7,eio=0.05,stale=0.05"``) wraps
every backend this factory builds in a :class:`ChaosBackend`, which is
how the chaos acceptance tests subject real worker subprocesses to a
deterministic fault storm without touching their code.
"""

from __future__ import annotations

import abc
import contextlib
import errno
import os
import tempfile
from pathlib import Path

from repro.exec.resilience import RetryPolicy, retry_call

try:
    import fcntl
except ImportError:          # non-POSIX: locking degrades to a no-op
    fcntl = None


class StoreBackend(abc.ABC):
    """Physical-storage personality under a content-addressed store.

    A backend is rooted at a directory; stores derive their layout
    paths with :meth:`path` and route every publication, raw read, and
    cross-process lock through it.
    """

    #: spelling used by :func:`backend_for` / CLI flags
    scheme = "local"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path(self, *rel: str) -> Path:
        """A path under the backend root (no I/O)."""
        return self.root.joinpath(*rel)

    def read_bytes(self, path: str | os.PathLike) -> bytes:
        """Raw bytes of ``path`` (raises ``OSError`` family on miss)."""
        return Path(path).read_bytes()

    @abc.abstractmethod
    def publish(self, tmp: Path, dst: Path) -> None:
        """Atomically move a fully-written temp file to its final path.

        ``tmp`` must already be flushed/fsync'd by the caller; after
        return, any reader of ``dst`` — including one on another host
        for shared backends — sees either the old entry or the complete
        new one, never a torn write.
        """

    def publish_bytes(self, data: bytes, dst: Path) -> None:
        """Write ``data`` to a sibling temp file and :meth:`publish` it.

        The small-payload convenience (telemetry rings, status
        documents): same atomicity/durability/chaos discipline as any
        store publication, without the caller managing temp files.
        """
        dst = Path(dst)
        dst.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=dst.parent, prefix=".pub-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            self.publish(Path(tmp), dst)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def link(self, src: Path, dst: Path) -> None:
        """Hardlink ``src`` to ``dst`` — atomic first-writer-wins.

        Raises ``FileExistsError`` when ``dst`` already exists, which
        is the lease ledger's duplicate-completion detection.  Routed
        through the backend so fault injection covers the completion
        record path too.
        """
        os.link(src, dst)

    @contextlib.contextmanager
    def lock(self, name: str = ".lock", exclusive: bool = False):
        """Cross-process advisory lock scoped to this backend root.

        ``flock`` on a lock file under the root: shared for writers,
        exclusive for sweeps — the discipline
        :meth:`~repro.exec.store.ResultStore.gc` relies on.  On
        filesystems without ``fcntl`` this degrades to a no-op (the
        atomic-rename publication path stays safe; only sweep-vs-put
        fencing is lost).
        """
        if fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with self.path(name).open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def describe(self) -> str:
        return f"{self.scheme}:{self.root}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.root)!r})"


class LocalDirBackend(StoreBackend):
    """A directory on a local filesystem — the historical semantics."""

    scheme = "local"

    def publish(self, tmp: Path, dst: Path) -> None:
        os.replace(tmp, dst)


#: ``ESTALE`` reads on a ``shared:`` backend: 5 retries from 0.02 s,
#: each sleep capped at 0.5 s, all inside 2 s
STALE_READ_POLICY = RetryPolicy(retries=5, backoff=0.02, max_backoff=0.5,
                                deadline=2.0)


class _StaleRead(OSError):
    """``ESTALE``, singled out so only it is retried."""


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (durability of the rename)."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class SharedDirBackend(StoreBackend):
    """A directory on a shared filesystem mounted by several hosts.

    Same atomic-rename publication as :class:`LocalDirBackend`, plus:

    * the destination's parent directory is fsync'd after the rename
      (and after a hardlink), so the publication is durable and —
      under NFS close-to-open consistency — visible to the next opener
      on any host;
    * :meth:`read_bytes` retries ``ESTALE`` (a concurrent cross-host
      rename invalidated the file handle mid-read) per
      :data:`STALE_READ_POLICY`, bounded by both a retry budget and a
      hard wall-clock deadline; staleness that persists past them
      raises :class:`~repro.exec.resilience.BackendUnavailable` —
      still an ``OSError``, so store reads degrade to misses, but typed
      so a worker's circuit breaker can tell an unreachable mount from
      one missing file.
    """

    scheme = "shared"

    def publish(self, tmp: Path, dst: Path) -> None:
        os.replace(tmp, dst)
        _fsync_dir(dst.parent)

    def link(self, src: Path, dst: Path) -> None:
        super().link(src, dst)
        _fsync_dir(dst.parent)

    def read_bytes(self, path: str | os.PathLike) -> bytes:
        def attempt() -> bytes:
            try:
                return Path(path).read_bytes()
            except OSError as exc:
                if exc.errno == getattr(errno, "ESTALE", None):
                    raise _StaleRead(*exc.args) from exc
                raise

        return retry_call(attempt, policy=STALE_READ_POLICY,
                          retry_on=(_StaleRead,))


def backend_for(spec: str | os.PathLike | StoreBackend) -> StoreBackend:
    """Resolve a backend from its CLI spelling.

    A prebuilt backend passes through untouched; ``shared:<dir>``
    selects :class:`SharedDirBackend`; ``local:<dir>`` or a bare path
    selects :class:`LocalDirBackend`.  With ``REPRO_CHAOS_BACKEND``
    set, the freshly built backend is wrapped in a fault-injecting
    :class:`~repro.exec.chaos.ChaosBackend` — the hook the chaos
    harness uses to storm whole worker subprocesses.
    """
    if isinstance(spec, StoreBackend):
        return spec
    text = os.fspath(spec)
    if text.startswith("shared:"):
        backend = SharedDirBackend(
            os.path.expanduser(text[len("shared:"):]))
    elif text.startswith("local:"):
        backend = LocalDirBackend(os.path.expanduser(text[len("local:"):]))
    else:
        backend = LocalDirBackend(os.path.expanduser(text))
    chaos_spec = os.environ.get("REPRO_CHAOS_BACKEND")
    if chaos_spec:
        # Imported lazily: chaos depends on the store, which depends
        # on this module.
        from repro.exec.chaos import BackendChaosConfig, ChaosBackend
        backend = ChaosBackend(backend,
                               BackendChaosConfig.parse(chaos_spec))
    return backend
