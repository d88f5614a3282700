"""Native-kernel telemetry: retirement counters, live progress, phases.

The kernel now retires every op through two extra int64 increments
(total + per-kind, ``SI_OPS_RETIRED``/``SI_OPK0``).  These tests prove
the telemetry is *exact*, not approximate:

* per-kind retirement totals equal an independent tally of the op list
  AND the Python-side ``Core.counts`` the kernel maintains separately,
* the equivalence matrix holds across suites, legacy vs vector, the
  sampler trampoline, and resident multicore images,
* ``native.ops_retired()`` reads live kernel-owned slots mid-run and
  never double-counts across drains (each book sync drains, and a
  repeated drain is a no-op),
* with obs enabled, the counters and export/run/book-sync phase
  timings land in the metrics registry, matching ``native.stats``
  deltas bit-for-bit,
* a kernel that fails to build never degrades a default run silently:
  the error is kept, delegations are counted and a warning fires once,
  and under ``REPRO_NATIVE=require`` delegation is an error.
"""

from __future__ import annotations

from collections import Counter

import pytest

from test_batched_equivalence import _build, _spec_of
from test_vector_engine import _ops, needs_native

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         TraceBufferStream)
from repro.uarch import native
from repro.uarch.machine import get_machine
from repro.uarch.pipeline import Core

KIND_OF = {OP_BLOCK: "block", OP_BRANCH: "branch", OP_LOAD: "load",
           OP_STORE: "store", OP_EVENT: "event"}


def _delta(before: dict) -> dict:
    return {k: native.stats[k] - before[k] for k in before}


def _ops_delta(delta: dict) -> dict:
    return {name: delta["ops_" + name] for name in native.OP_KIND_NAMES}


@needs_native
def test_per_kind_counters_exact_on_synthetic_stream():
    """Every kernel retirement counter equals the op list's exact tally
    and the independently-maintained Core counts."""
    ops = _ops(3000, seed=31)
    expected = Counter(KIND_OF[op[0]] for op in ops)

    core = Core(get_machine("i9"), VirtualMemory())
    events = []
    core.event_hook = lambda k, p, c: events.append((k, p, c))
    before = dict(native.stats)
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
    core.consume_stream(stream, engine="vector")
    delta = _delta(before)

    assert _ops_delta(delta) == dict(expected)
    assert delta["ops_retired"] == len(ops)
    # Cross-check against the kernel's *other* counting mechanism — the
    # Core counts slots it maintains in the same dispatch arms.
    assert delta["ops_branch"] == core.counts.branches
    assert delta["ops_load"] == core.counts.loads
    assert delta["ops_store"] == core.counts.stores
    assert delta["ops_event"] == len(events)


@needs_native
@pytest.mark.parametrize("name", ["System.Runtime", "Json", "mcf"])
def test_suite_counters_match_core_stats(name):
    """All three suite families: native per-kind counters equal the
    Python-side Core stats from both the vector and legacy engines."""
    machine = get_machine("i9")
    limit = 20_000

    core_v, prog_v, ev_v = _build(_spec_of(name), machine)
    before = dict(native.stats)
    stream = TraceBufferStream(filler=prog_v.fill_buffer,
                               chunk_instructions=4096)
    nv = core_v.consume_stream(stream, max_instructions=limit,
                               engine="vector")
    delta = _delta(before)

    assert delta["ops_branch"] == core_v.counts.branches
    assert delta["ops_load"] == core_v.counts.loads
    assert delta["ops_store"] == core_v.counts.stores
    assert delta["ops_event"] == len(ev_v)
    assert delta["ops_retired"] == sum(_ops_delta(delta).values())
    assert delta["ops_block"] > 0

    # The legacy engine over the same spec/limit is the reference.
    core_b, prog_b, ev_b = _build(_spec_of(name), machine)
    stream_b = TraceBufferStream(filler=prog_b.fill_buffer)
    nb = core_b.consume_stream(stream_b, max_instructions=limit,
                               engine="legacy")
    assert nv == nb
    assert delta["ops_branch"] == core_b.counts.branches
    assert delta["ops_load"] == core_b.counts.loads
    assert delta["ops_store"] == core_b.counts.stores
    assert delta["ops_event"] == len(ev_b)


@needs_native
def test_sampler_trampoline_keeps_counters_exact():
    """Hook exits drain at every book sync; drained totals must still
    sum exactly (no op lost or double-counted across the trampoline)."""
    from repro.harness.runner import Fidelity, run_workload

    machine = get_machine("i9")
    fid = Fidelity.test()
    before = dict(native.stats)
    a = run_workload(_spec_of("System.Runtime"), machine, fid,
                     engine="vector", sampling=True, sample_interval=1e-6)
    delta = _delta(before)
    assert delta["hook_exits"] > 0
    assert delta["ops_retired"] == sum(_ops_delta(delta).values())
    b = run_workload(_spec_of("System.Runtime"), machine, fid,
                     engine="legacy", sampling=True, sample_interval=1e-6)
    assert a.counters == b.counters


@needs_native
def test_multicore_session_counters_consistent():
    """Resident multicore images drain at every quantum's book sync;
    totals must be internally consistent and the engines
    bit-identical."""
    from repro.harness.runner import Fidelity, run_multicore

    machine = get_machine("i9")
    fid = Fidelity(warmup_instructions=4_000, measure_instructions=8_000)
    before = dict(native.stats)
    a = run_multicore(_spec_of("Plaintext"), machine, 2, fid,
                      engine="vector")
    delta = _delta(before)
    assert delta["exports"] == 2         # one per core, both phases
    assert delta["ops_retired"] == sum(_ops_delta(delta).values())
    assert delta["ops_load"] > 0 and delta["ops_branch"] > 0
    b = run_multicore(_spec_of("Plaintext"), machine, 2, fid,
                      engine="legacy")
    assert a[1] == b[1]            # Top-Down profiles
    assert a[2] == b[2]            # core-0 counters


@needs_native
def test_ops_retired_reads_live_slots_and_drains_once():
    """ops_retired() folds live kernel slots in mid-run; a drain (here
    writeback's) moves them into stats exactly once (idempotent on a
    second writeback)."""
    core = Core(get_machine("i9"), VirtualMemory())
    base = native.ops_retired()
    img = native.CoreImage(core)
    # Simulate a kernel mid-run: the slots are live, nothing drained.
    img.si[native.SI_OPS_RETIRED] = 123
    img.si[native.SI_OPK0 + 2] = 100      # loads
    img.si[native.SI_OPK0 + 0] = 23       # blocks
    assert native.ops_retired() == base + 123

    before = dict(native.stats)
    img.writeback()
    delta = _delta(before)
    assert delta["ops_retired"] == 123
    assert delta["ops_load"] == 100
    assert delta["ops_block"] == 23
    assert native.ops_retired() == base + 123   # total unchanged by drain

    img.writeback()                             # second writeback: no-op
    assert native.ops_retired() == base + 123
    assert native.stats["ops_retired"] == before["ops_retired"] + 123


@needs_native
def test_phase_timings_and_counters_land_in_registry(tmp_path):
    """With obs on, the registry carries the native counters (equal to
    the stats deltas) and non-empty phase-timing histograms."""
    ops = _ops(2000, seed=33)
    obs.configure(tmp_path / "obs", spans=False)
    try:
        before = dict(native.stats)
        core = Core(get_machine("i9"), VirtualMemory())
        core.set_cycle_hook(lambda c: None, 500.0)
        stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
        core.consume_stream(stream, engine="vector")
        delta = _delta(before)
        snap = obs.metrics_snapshot()
    finally:
        obs.shutdown(dump=False)

    counters = snap["counters"]
    assert counters["native.kernel_calls"] == delta["kernel_calls"]
    assert counters["native.hook_exits"] == delta["hook_exits"] > 0
    assert counters["native.ops_retired"] == delta["ops_retired"]
    for name in native.OP_KIND_NAMES:
        assert counters.get("native.ops_retired." + name, 0) == \
            delta["ops_" + name]
    hists = snap["histograms"]
    for h in ("native.export_seconds", "native.run_seconds",
              "native.sync_seconds"):
        assert hists[h]["count"] > 0
    assert hists["native.run_seconds"]["count"] == delta["kernel_calls"]


@needs_native
def test_vm_hash_build_counter(tmp_path):
    """A cold export builds the page hash (counted); the resident image
    keeps it across consume calls (not counted)."""
    core, prog, _ = _build(_spec_of("System.Runtime"), get_machine("i9"))
    before = dict(native.stats)
    stream = TraceBufferStream(filler=prog.fill_buffer,
                               chunk_instructions=4096)
    core.consume_stream(stream, max_instructions=5_000, engine="vector")
    assert native.stats["vm_hash_builds"] - before["vm_hash_builds"] == 1
    before = dict(native.stats)
    core.consume_stream(stream, max_instructions=5_000, engine="vector")
    assert native.stats["vm_hash_builds"] == before["vm_hash_builds"]


def test_compile_failure_delegates_loudly(monkeypatch, tmp_path):
    """A kernel that fails to build makes default runs delegate to the
    legacy interpreter, and their trace generation to the Python
    walker: the build error is kept, every delegation (consume call or
    region walk) is counted by reason (registry metric included), one
    warning fires per process, and the results stay bit-identical."""
    import warnings

    from repro.codegen import CodeRegion
    from repro.harness.runner import Fidelity, run_workload

    machine = get_machine("i9")
    fid = Fidelity.test()
    spec = _spec_of("System.Runtime")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    reference = run_workload(spec, machine, fid, engine="legacy")

    def broken_build():
        raise RuntimeError("no C compiler built the kernel (cc: exit 1)")

    monkeypatch.setattr(native, "_compile_lib", broken_build)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_lib_resolved", False)
    monkeypatch.setattr(native, "_lib_error", None)
    monkeypatch.setattr(native, "_delegation_warned", False)
    walks = []
    reference_walk = CodeRegion._walk_reference

    def counted_walk(*args, **kwargs):
        walks.append(1)
        return reference_walk(*args, **kwargs)

    monkeypatch.setattr(CodeRegion, "_walk_reference", counted_walk)
    before = dict(native.delegations)
    obs.configure(tmp_path / "obs", spans=False)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs = [run_workload(spec, machine, fid) for _ in range(2)]
        snap = obs.metrics_snapshot()
    finally:
        obs.shutdown(dump=False)

    assert not native.available()
    assert "no C compiler built the kernel" in native.last_error()
    delegated = native.delegations["unavailable"] - before["unavailable"]
    assert walks
    assert delegated == 4 + len(walks)  # warmup + measure, twice; walks
    assert native.delegations["not_nativizable"] == \
        before["not_nativizable"]
    assert snap["counters"][
        'native.delegations{reason="unavailable"}'] == delegated
    ours = [w for w in caught if issubclass(w.category, RuntimeWarning)
            and "legacy interpreter" in str(w.message)]
    assert len(ours) == 1
    assert "no C compiler built the kernel" in str(ours[0].message)
    for run in runs:
        assert run.counters == reference.counters
        assert run.topdown == reference.topdown


def test_unmodelled_core_delegation_is_counted():
    """A core the kernel does not model (JIT-metadata hardware) runs on
    the interpreter under ``engine="vector"``, counted as
    ``not_nativizable``."""
    from dataclasses import replace

    machine = replace(get_machine("i9"), jit_code_prefetch=True)
    core = Core(machine, VirtualMemory())
    assert native.delegation_reason(core) == (
        "not_nativizable" if native.available() else "unavailable")
    reason = native.delegation_reason(core)
    before = native.delegations[reason]
    stream = TraceBufferStream(ops=iter(_ops(300, seed=41)))
    core.consume_stream(stream, engine="vector")
    assert native.delegations[reason] == before + 1


def _break_kernel(monkeypatch):
    def broken_build():
        raise RuntimeError("no C compiler built the kernel (cc: exit 1)")

    monkeypatch.setattr(native, "_compile_lib", broken_build)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_lib_resolved", False)
    monkeypatch.setattr(native, "_lib_error", None)


def test_require_fails_a_run_without_kernel(monkeypatch):
    """``REPRO_NATIVE=require``: a kernel that fails to build makes a
    default run raise, naming the reason and ``native.last_error()``,
    instead of passing as an 11-35x slower interpreter run."""
    from repro.harness.runner import Fidelity, run_workload

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    _break_kernel(monkeypatch)
    monkeypatch.setenv("REPRO_NATIVE", "require")
    before = native.delegations["unavailable"]
    with pytest.raises(native.DelegationError) as err:
        run_workload(_spec_of("System.Runtime"), get_machine("i9"),
                     Fidelity.test())
    assert "unavailable" in str(err.value)
    assert native.last_error() in str(err.value)
    assert "no C compiler built the kernel" in native.last_error()
    assert native.delegations["unavailable"] == before + 1


def test_require_rejects_unmodelled_core(monkeypatch):
    """``REPRO_NATIVE=require`` with a core the kernel does not model:
    ``engine="vector"`` raises; asking for ``legacy`` is no delegation
    and still runs."""
    from dataclasses import replace

    monkeypatch.setenv("REPRO_NATIVE", "require")
    machine = replace(get_machine("i9"), jit_code_prefetch=True)
    core = Core(machine, VirtualMemory())
    reason = native.delegation_reason(core)
    with pytest.raises(native.DelegationError) as err:
        core.consume_stream(TraceBufferStream(ops=iter(_ops(300, seed=41))),
                            engine="vector")
    assert reason in str(err.value)
    assert repr(native.last_error()) in str(err.value)
    assert core.consume_stream(
        TraceBufferStream(ops=iter(_ops(300, seed=41))),
        engine="legacy") > 0


def _generate(n=20_000):
    from repro.trace import TraceBuffer
    from repro.workloads.program import build_program
    program = build_program(_spec_of("System.Runtime"))
    buf = TraceBuffer()
    program.fill_buffer(buf, n)
    return buf


def test_require_fails_generation_without_kernel(monkeypatch):
    """``REPRO_NATIVE=require``: with a kernel that fails to build, the
    first region walk raises instead of running on the Python walker,
    naming the reason and ``native.last_error()``."""
    _break_kernel(monkeypatch)
    monkeypatch.setenv("REPRO_NATIVE", "require")
    before = native.delegations["unavailable"]
    with pytest.raises(native.DelegationError) as err:
        _generate()
    assert "trace generation" in str(err.value)
    assert "unavailable" in str(err.value)
    assert native.last_error() in str(err.value)
    assert native.delegations["unavailable"] == before + 1


def test_disabled_kernel_generation_delegates_loudly(monkeypatch):
    """``REPRO_NATIVE=0``: every region walk runs on the Python walker,
    each counted as an ``unavailable`` delegation, one warning per
    process names the reason, and the stream is the kernel's."""
    import warnings

    from repro.codegen import CodeRegion

    expected = _generate()
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_lib_resolved", False)
    monkeypatch.setattr(native, "_lib_error", None)
    monkeypatch.setattr(native, "_delegation_warned", False)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    walks = []
    reference_walk = CodeRegion._walk_reference

    def counted_walk(*args, **kwargs):
        walks.append(1)
        return reference_walk(*args, **kwargs)

    monkeypatch.setattr(CodeRegion, "_walk_reference", counted_walk)
    before = native.delegations["unavailable"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _generate()
    assert walks
    assert native.delegations["unavailable"] == before + len(walks)
    ours = [w for w in caught if issubclass(w.category, RuntimeWarning)
            and "Python walker" in str(w.message)]
    assert len(ours) == 1
    assert "disabled by REPRO_NATIVE=0" in str(ours[0].message)
    assert [list(c) for c in (got.kinds, got.a0, got.a1, got.a2)] == \
        [list(c) for c in (expected.kinds, expected.a0, expected.a1,
                           expected.a2)]
