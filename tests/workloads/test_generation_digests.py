"""Generation pinning: the push-generated op streams are frozen by digest.

The engine-equivalence tests compare engines over one generated stream,
so they cannot notice a change to the stream itself.  This test hashes
the op columns (``kinds``, ``a0``-``a2``), the event side-table (kinds
and payloads) and the program RNG's final state after a fixed amount of
generation for every equivalence case plus the runtime paths those
cases rarely reach (exceptions, tier-1 re-JIT, the Large Object Heap,
syscalls).  Any change to an emitted op or to the RNG call order moves
a digest.

Every case runs on both generators — the kernel's region layouts and
walks, and their Python references (:func:`repro.codegen._layout_reference`
and :meth:`repro.codegen.CodeRegion._walk_reference`) — against the same
digest, and the trace files the two write must be byte-identical.

A digest may change only with an intended change to workload
generation; regenerate with ``python tests/workloads/
test_generation_digests.py`` and say why in the commit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib

import numpy as np
import pytest

from repro import codegen
from repro.codegen import CodeRegion
from repro.perf.trace_io import record_buffers
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.trace import (EV_EXCEPTION, EV_JIT_CODE_MOVED, OP_BLOCK,
                         BLOCK_KERNEL_SHIFT, TraceBuffer)
from repro.uarch.machine import get_machine
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import build_program
from repro.workloads.speccpu import speccpu_specs

N_INSTRUCTIONS = 500_000

#: (benchmark, build_program kwargs) -> sha256 of the generated stream.
DIGESTS = {
    ("System.Runtime", ()):
        "4af9b179fa4c4a5c9dc38567a68004ff32c65bbb7a9e33e0a50a12904815d9b5",
    ("Json", ()):
        "72ff0076897b120f45dc41bedcf50d4933a9c14dc98f9f1eef00a8a8baa87097",
    ("mcf", ()):
        "a297a123bd9a3622da69af8566f9692f2a0778ac1253eaa0bd44aa99b8a92e2c",
    ("System.Linq", (("reuse_code_pages", True),)):
        "7bc4bda8c6a0f174831ffd921e9ad0ad84dbc284ee3eb44e9c4b4928fdcc8a19",
    ("Plaintext", (("compaction_enabled", False),)):
        "578cc3b78e7a02124128c459a2670d71ca10c1319efe7cfbcbe28bfa1898b11c",
    ("DbFortunesRaw", ()):
        "2a02bca41e6d770ccbb58492fa52f015ed39bf9816405fed835f9ffc15a9efe2",
    ("System.Xml", ()):
        "ac86c45b9f34cb4f2cc6f7cb2326dcbc799a10db0d89f0e32ade33c86e99259f",
    ("JsonOutput2M", ()):
        "2f2b1de72c36dbb927c32a2f7a37ab69caf2ae9cba5c55049b8b77c7ed9f7407",
}


#: The generator each case runs on: ``native`` is the default (the
#: kernel, or under ``REPRO_NATIVE=0`` its fallback), ``reference`` the
#: Python layout and walk.
WALKERS = ("native", "reference")

#: Cases whose two walks must write identical trace files: every pinned
#: case plus the code-bloat ablation (the Arm code path).
PARITY_CASES = list(DIGESTS) + [("Json", (("code_bloat", 3.0),))]


@contextlib.contextmanager
def _walker(walker):
    if walker == "native":
        yield
        return
    saved = CodeRegion.walk_into, codegen._kernel
    CodeRegion.walk_into = CodeRegion._walk_reference
    codegen._kernel = lambda: None      # regions lay out in numpy
    try:
        yield
    finally:
        CodeRegion.walk_into, codegen._kernel = saved


def _generate(name, kw, walker="native"):
    spec = next(s for s in dotnet_category_specs() + aspnet_specs()
                + speccpu_specs() if s.name == name)
    gc_config = GcConfig()
    heap_config = HeapConfig(max_heap_bytes=gc_config.max_heap_bytes,
                             gen0_budget_bytes=gc_config.gen0_budget())
    kwargs = {"code_bloat": get_machine("i9").code_bloat, **dict(kw)}
    with _walker(walker):
        program = build_program(spec, seed=0, heap_config=heap_config,
                                gc_config=gc_config, **kwargs)
        buf = TraceBuffer()
        program.fill_buffer(buf, N_INSTRUCTIONS)
    return program, buf


def _digest(program, buf) -> str:
    h = hashlib.sha256()
    for col in (buf.kinds, buf.a0, buf.a1, buf.a2):
        h.update(np.asarray(col, dtype=np.int64).tobytes())
    h.update(repr(buf.events).encode())
    h.update(repr((buf.n_instructions, program.rng.getstate())).encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _pinned(name, kw, walker="native"):
    """(digest, runtime paths reached) of one case, generated once."""
    program, buf = _generate(name, kw, walker)
    reached = {kind for kind, _ in buf.events}
    kinds = np.asarray(buf.kinds)
    a2 = np.asarray(buf.a2, dtype=np.int64)
    if ((kinds == OP_BLOCK) & (a2 >> BLOCK_KERNEL_SHIFT > 0)).any():
        reached.add("kernel")
    clr = getattr(program, "clr", None)
    if clr is not None and clr.heap.stats.loh_allocations:
        reached.add("loh")
    return _digest(program, buf), frozenset(reached)


def _case_id(case):
    name, kw = case
    return name + "".join(f"+{k}" for k, _ in kw)


@pytest.mark.parametrize("name,kw", list(DIGESTS),
                         ids=[_case_id(c) for c in DIGESTS])
def test_generated_stream_is_pinned(name, kw):
    assert _pinned(name, kw)[0] == DIGESTS[(name, kw)]


@pytest.mark.parametrize("name,kw", list(DIGESTS),
                         ids=[_case_id(c) for c in DIGESTS])
def test_reference_walk_is_pinned(name, kw):
    """The same digests from the Python reference layout and walk."""
    assert _pinned(name, kw, "reference")[0] == DIGESTS[(name, kw)]


@pytest.mark.parametrize("name,kw", PARITY_CASES,
                         ids=[_case_id(c) for c in PARITY_CASES])
def test_walkers_record_identical_files(name, kw, tmp_path):
    """The encoded trace — every column byte, the events, the chunk's
    instruction count — is the same whichever generator wrote it."""
    files = []
    for walker in WALKERS:
        _, buf = _generate(name, kw, walker)
        path = tmp_path / f"{walker}.trace"
        record_buffers([buf], path)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_pinned_streams_cover_the_runtime_paths():
    """The pinned cases between them reach every emitter: exceptions,
    tier-1 code moves, GC, LOH allocation and kernel-mode syscalls."""
    seen = set().union(*(_pinned(name, kw)[1] for name, kw in DIGESTS))
    assert {EV_EXCEPTION, EV_JIT_CODE_MOVED, "gc/triggered", "kernel",
            "loh"} <= seen


if __name__ == "__main__":
    for (name, kw) in DIGESTS:
        print(f"    ({name!r}, {kw!r}):\n"
              f"        {_pinned(name, kw)[0]!r},")
