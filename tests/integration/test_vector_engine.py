"""Vector-engine edge cases: chunking, limits, fallbacks, growth.

tests/integration/test_batched_equivalence.py proves the vector engine
bit-identical to legacy on real workload streams; this file attacks the
seams that real streams rarely stress deterministically:

* ops split across chunk boundaries at every offset (chunk size 1),
* an instruction limit landing inside a vectorized span, then resuming,
* chunks whose first/last op is the interesting one, empty buffers,
* the ``REPRO_NATIVE=0`` kill switch and the delegation guard
  (:func:`repro.uarch.native.nativizable`),
* virtual-memory hash growth mid-run (first-touch floods),
* non-default replacement policies (FIFO, RANDOM's deterministic LCG),
* the resident-image lifecycle: one export per run, engine switches
  mid-run, Python-side page mapping between consumes, stale-structure
  guards and freeing a discarded core's image.

Every test drives the same op list through the legacy interpreter
(whole list in one chunk) and ``consume_stream(engine="vector")``
(chunked) and diffs the complete core state via the equivalence
harness's ``_state``.
"""

from __future__ import annotations

import random

import pytest

from test_batched_equivalence import _state

from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         TraceBuffer, TraceBufferStream)
from repro.uarch import native
from repro.uarch.cache import ReplacementPolicy
from repro.uarch.machine import get_machine
from repro.uarch.pipeline import Core


def _ops(n: int = 3000, seed: int = 1, data_span: int = 1 << 22):
    """A deterministic synthetic stream mixing every op kind.

    Includes kernel-mode blocks, backward branches (loop-predictor
    allocations), not-taken and taken branches, loads/stores over
    ``data_span`` bytes, and events with tuple payloads.
    """
    rng = random.Random(seed)
    code = 0x0010_0000
    data = 0x2000_0000
    pc = code
    out = []
    for i in range(n):
        r = rng.random()
        if r < 0.35:
            pc = code + rng.randrange(4096) * 64
            out.append((OP_BLOCK, pc, rng.randrange(1, 12),
                        rng.randrange(4, 120), rng.random() < 0.05))
        elif r < 0.55:
            out.append((OP_LOAD, data + rng.randrange(data_span)))
        elif r < 0.70:
            out.append((OP_STORE, data + rng.randrange(data_span)))
        elif r < 0.95:
            target = code + rng.randrange(4096) * 64
            out.append((OP_BRANCH, pc + rng.randrange(64), target,
                        rng.random() < 0.6))
        else:
            out.append((OP_EVENT, "gc_gen0", ("payload", i)))
    return out


def _run_pair(ops, *, chunk: int = 4096, limits=(None,), mutate=None,
              stream_factory=None):
    """Drive ``ops`` through legacy and vector; assert identical state.

    ``limits`` is a sequence of absolute instruction limits applied as
    successive ``consume`` calls (``None`` = run to exhaustion), which
    exercises pausing and resuming mid-stream on both engines.
    """
    machine = get_machine("i9")
    results = []
    for engine in ("legacy", "vector"):
        core = Core(machine, VirtualMemory())
        events = []
        core.event_hook = lambda k, p, c, _e=events: _e.append((k, p, c))
        if mutate is not None:
            mutate(core)
        consumed = []
        if engine == "legacy":
            stream = TraceBufferStream(ops=iter(ops),
                                       chunk_instructions=1 << 30)
        elif stream_factory is not None:
            stream = stream_factory()
        else:
            stream = TraceBufferStream(ops=iter(ops),
                                       chunk_instructions=chunk)
        for lim in limits:
            consumed.append(core.consume_stream(
                stream, max_instructions=lim, engine=engine))
        results.append((consumed, _state(core), events))
    (ca, sa, ea), (cb, sb, eb) = results
    assert ca == cb
    diffs = {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert ea == eb
    return sa


needs_native = pytest.mark.skipif(not native.available(),
                                  reason="native kernel unavailable")


@needs_native
@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_chunk_boundaries_are_semantics_free(chunk):
    """Every op boundary is a potential chunk split (chunk=1: all of
    them), including chunks whose only op is a block/branch/event."""
    _run_pair(_ops(800), chunk=chunk)


@needs_native
def test_limit_hits_inside_vectorized_span():
    """Limits land mid-chunk; consumption resumes exactly there.

    Block ops make limits fall *inside* an op's instruction count: the
    engines must stop after the same op and resume on the next call.
    """
    ops = _ops(2000, seed=7)
    _run_pair(ops, limits=(1, 17, 1000, 1001, None))


@needs_native
def test_empty_and_single_op_buffers():
    """Replay streams with empty chunks interleaved; first/last ops of
    each chunk carry the state transitions."""
    ops = _ops(300, seed=3)

    def factory():
        bufs = [TraceBuffer()]                 # leading empty chunk
        for op in ops:                         # one op per buffer
            b = TraceBuffer()
            b.fill_from(iter([op]), None)
            bufs.append(b)
            bufs.append(TraceBuffer())         # empty chunk after each
        return TraceBufferStream(buffers=iter(bufs))

    _run_pair(ops, stream_factory=factory)


@needs_native
def test_all_miss_stream():
    """Monotone never-reused addresses: every access misses every level
    and the vm sees a new page each load (growth + fault path)."""
    ops = []
    for i in range(4000):
        ops.append((OP_LOAD, 0x5000_0000 + i * 4096))
        if i % 7 == 0:
            ops.append((OP_BLOCK, 0x0010_0000 + i * 64, 3, 48, False))
    state = _run_pair(ops, chunk=512)
    assert state["l1d.misses"] == 4000


@needs_native
def test_vm_hash_growth_mid_run():
    """First-touch flood: the native vm hash must grow (several times)
    mid-buffer and stay identical to the Python dict model."""
    core = Core(get_machine("i9"), VirtualMemory())
    img = native.CoreImage(core)
    start_cap = len(img.vm_hash)
    ops = [(OP_LOAD, 0x6000_0000 + i * 4096) for i in range(5000)]
    state = _run_pair(ops, chunk=8192)
    # 5000 distinct pages cannot fit a half-full table of the fresh
    # core's initial capacity — growth must have happened.
    assert start_cap < 2 * 5000
    assert state["counts.loads"] == 5000


@needs_native
@pytest.mark.parametrize("policy", [ReplacementPolicy.FIFO,
                                    ReplacementPolicy.RANDOM])
def test_replacement_policies(policy):
    """FIFO keeps insertion order without MRU moves; RANDOM picks
    victims with the deterministic LCG — both must match the kernel."""
    def mutate(core):
        for cache in (core.l1d, core.l2):
            cache.policy = policy
            cache._lru = policy == ReplacementPolicy.LRU
            cache._evict_head = policy != ReplacementPolicy.RANDOM
    _run_pair(_ops(2500, seed=11, data_span=1 << 24), mutate=mutate)


def test_native_disabled_falls_back(monkeypatch):
    """REPRO_NATIVE=0 disables the kernel; engine="vector" delegates to
    the legacy interpreter and stays bit-identical."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    saved = native._lib, native._lib_resolved
    native._lib, native._lib_resolved = None, False
    try:
        assert not native.available()
        _run_pair(_ops(500, seed=5))
    finally:
        native._lib, native._lib_resolved = saved


def test_nativizable_guards():
    """Stock shared-LLC and sampler configs are native; anything
    outside the kernel's model delegates to the legacy interpreter."""
    from repro.uarch.multicore import SharedLlc

    machine = get_machine("i9")
    core = Core(machine, VirtualMemory())
    assert native.nativizable(core)

    # Armed cycle hooks run through the HOOK trampoline.
    hooked = Core(machine, VirtualMemory())
    hooked.set_cycle_hook(lambda c: None, 1000.0)
    assert native.nativizable(hooked)

    # The stock shared LLC is modeled in C (slice counting + folded
    # contention latency); the M/M/1 math stays in Python.
    shared = Core(machine, VirtualMemory(),
                  shared_llc=SharedLlc(machine), core_id=0)
    assert native.nativizable(shared)

    # A subclassed/unknown shared LLC still delegates.
    weird = Core(machine, VirtualMemory())
    weird.shared_llc = object()
    assert not native.nativizable(weird)

    custom = Core(machine, VirtualMemory())
    custom.l1d_prefetcher.fetch = lambda addr: None   # rebound callback
    assert not native.nativizable(custom)

    paged = Core(machine, VirtualMemory())
    paged.dtlb.l1.page_shift = 13              # non-4K pages
    assert not native.nativizable(paged)

    subclassed = Core(machine, VirtualMemory())

    class WeirdVm(VirtualMemory):
        pass
    subclassed.vm = WeirdVm()
    assert not native.nativizable(subclassed)


@needs_native
def test_shared_llc_and_sampler_take_native_path():
    """Stock multicore + sampler configs must execute in the kernel —
    no delegation to the interpreter (asserted via the entry
    counters)."""
    from repro.harness.runner import Fidelity, run_multicore
    from test_batched_equivalence import _spec_of

    fid = Fidelity(warmup_instructions=4_000, measure_instructions=8_000)
    before = dict(native.stats)
    run_multicore(_spec_of("Plaintext"), get_machine("i9"), 2, fid,
                  engine="vector", sampling=True, sample_interval=1e-6)
    delta = {k: native.stats[k] - before[k] for k in before}
    # One export per core: the images stay resident across quanta, the
    # warmup -> measure boundary and every hook exit.
    assert delta["exports"] == 2
    assert delta["kernel_calls"] > 0
    assert delta["hook_exits"] > 0       # sampler ran via the trampoline


# ---------------------------------------------------------------------------
# Cycle-hook trampoline edge cases.

def _run_hooked(ops, engine, interval, make_hook, chunk=4096,
                limits=(None,)):
    """Drive ``ops`` with an armed cycle hook; return everything
    observable: per-call consumption, full core state, and the hook's
    own log (what it saw when it fired)."""
    core = Core(get_machine("i9"), VirtualMemory())
    log = []
    core.set_cycle_hook(make_hook(log), interval)
    if engine == "legacy":
        chunk = 1 << 30
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=chunk)
    consumed = [core.consume_stream(stream, max_instructions=lim,
                                    engine=engine)
                for lim in limits]
    return consumed, _state(core), log


def _observing_hook(log):
    def hook(core):
        log.append((core.cycles, core.counts.instructions,
                    core._next_hook_cycles))
    return hook


def _mutating_hook(log):
    """A hook that perturbs live core state: the trampoline must sync
    the books out before it runs and back in after."""
    def hook(core):
        log.append((core.cycles, core.counts.instructions))
        core._ideal_cycles += 3.0            # shifts later hook timing
        core.counts.uops += 2.0
    return hook


def _releasing_hook(log):
    """A hook that reads structure: it releases the image first, so the
    trampoline must export again before it re-enters the kernel."""
    def hook(core):
        native.release(core)
        log.append((core.cycles, core.l1d.occupancy,
                    len(core.branch_unit.predictor._table)))
    return hook


def _hook_case(ops, interval, make_hook, chunk=4096, limits=(None,)):
    """Legacy vs vector with a hook armed: consumption counts, final
    state, and the hook's observations must all be identical."""
    a = _run_hooked(ops, "legacy", interval, make_hook, chunk, limits)
    before = dict(native.stats)
    b = _run_hooked(ops, "vector", interval, make_hook, chunk, limits)
    assert a[0] == b[0]
    diffs = {k: (a[1][k], b[1][k]) for k in a[1] if a[1][k] != b[1][k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert a[2] == b[2]
    return len(a[2]), native.stats["hook_exits"] - before["hook_exits"]


@needs_native
def test_hook_interval_smaller_than_chunk():
    """Interval of ~tens of cycles inside 4096-instruction chunks: the
    kernel must bounce through the trampoline many times per chunk."""
    fired, exits = _hook_case(_ops(1500, seed=21), 64.0, _observing_hook)
    assert fired > 20
    assert exits == fired


@needs_native
def test_hook_mutates_core_state_mid_run():
    """A hook that mutates cycles and counters mid-run: mutations must
    land in native state on re-entry (and shift later hook firings)."""
    fired, exits = _hook_case(_ops(1500, seed=22), 600.0, _mutating_hook)
    assert fired > 3
    assert exits == fired


@needs_native
def test_hook_reading_structure_releases_and_reexports():
    """A hook may read structure after ``native.release``: the driver
    exports the core again before re-entering, once per firing."""
    before = native.stats["exports"]
    fired, exits = _hook_case(_ops(1200, seed=25), 500.0, _releasing_hook)
    assert fired > 3
    assert exits == fired
    assert native.stats["exports"] - before == fired + 1


@needs_native
def test_hook_fires_exactly_on_chunk_boundary():
    """Single-op chunks make every hook land on a chunk boundary; the
    kernel re-enters at pos == n_ops and must cleanly advance."""
    fired, exits = _hook_case(_ops(600, seed=23), 200.0, _observing_hook,
                              chunk=1)
    assert fired > 5
    assert exits == fired


@needs_native
def test_hook_with_limits_resumes_exactly():
    """Limits interleave with hook firings across consume calls; the
    legacy hook-before-limit ordering must be preserved."""
    _hook_case(_ops(1500, seed=24), 150.0, _observing_hook,
               limits=(1, 17, 900, 901, None))


@pytest.mark.parametrize("case", ["small-interval", "mutating",
                                  "chunk-boundary"])
def test_hook_parity_with_native_disabled(monkeypatch, case):
    """REPRO_NATIVE=0: the same hooked runs delegate to the legacy
    interpreter and stay bit-identical to it."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    saved = native._lib, native._lib_resolved
    native._lib, native._lib_resolved = None, False
    try:
        assert not native.available()
        if case == "small-interval":
            fired, exits = _hook_case(_ops(800, seed=21), 64.0,
                                      _observing_hook)
        elif case == "mutating":
            fired, exits = _hook_case(_ops(800, seed=22), 600.0,
                                      _mutating_hook)
        else:
            fired, exits = _hook_case(_ops(400, seed=23), 200.0,
                                      _observing_hook, chunk=1)
        assert fired > 0
        assert exits == 0                  # kernel never entered
    finally:
        native._lib, native._lib_resolved = saved


# ---------------------------------------------------------------------------
# Resident-image lifecycle: a core is exported once and keeps its image
# across consume calls; only the books are synced at each return to
# Python, and structure goes back on ``native.release``.

@needs_native
def test_sampled_run_exports_once_and_never_writes_back(monkeypatch):
    """A sampled ``run_workload`` keeps one image from warmup through
    ``reset_stats`` and every hook exit to the end: one export, no
    structure writeback."""
    from repro.harness.runner import Fidelity, run_workload
    from test_batched_equivalence import _spec_of

    writebacks = []
    monkeypatch.setattr(native.CoreImage, "writeback",
                        lambda self: writebacks.append(self))
    before = dict(native.stats)
    run_workload(_spec_of("System.Runtime"), get_machine("i9"),
                 Fidelity.test(), engine="vector", sampling=True,
                 sample_interval=1e-6)
    delta = {k: native.stats[k] - before[k] for k in before}
    assert delta["hook_exits"] > 0
    assert delta["exports"] == 1
    assert writebacks == []


def _switched_run(ops, engines, split=1500):
    """Warm up on ``engines[0]``, reset, measure on ``engines[1]``."""
    core = Core(get_machine("i9"), VirtualMemory())
    events = []
    core.event_hook = lambda k, p, c: events.append((k, p, c))
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
    consumed = [core.consume_stream(stream, max_instructions=split,
                                    engine=engines[0])]
    core.reset_stats()
    consumed.append(core.consume_stream(stream, engine=engines[1]))
    return consumed, _state(core), events


@needs_native
@pytest.mark.parametrize("engines", [("vector", "legacy"),
                                     ("legacy", "vector")],
                         ids=["vector-then-legacy", "legacy-then-vector"])
def test_engine_switch_mid_run_matches_legacy(engines):
    """Switching engines on one core between warmup and measure is
    invisible: the legacy interpreter releases the resident image
    before it runs, and a vector call exports what legacy left."""
    ops = _ops(3000, seed=51)
    ref = _switched_run(ops, ("legacy", "legacy"))
    got = _switched_run(ops, engines)
    assert got[0] == ref[0]
    diffs = {k: (ref[1][k], got[1][k]) for k in ref[1]
             if ref[1][k] != got[1][k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert got[2] == ref[2]


@needs_native
def test_premap_between_vector_consumes_matches_legacy():
    """Pages mapped from Python between two vector consumes reach the
    resident image: it rehashes its page set on the next entry (once),
    and the second consume takes no faults on them, as on legacy."""
    ops = []
    for region in (0x7000_0000, 0x7100_0000):
        for i in range(300):
            ops.append((OP_LOAD, region + i * 4096))
            ops.append((OP_BLOCK, 0x0010_0000 + (i % 64) * 64, 3, 48,
                        False))
    results = []
    for engine in ("legacy", "vector"):
        core = Core(get_machine("i9"), VirtualMemory())
        stream = TraceBufferStream(ops=iter(ops), chunk_instructions=512)
        first = core.consume_stream(stream, max_instructions=1200,
                                    engine=engine)
        core.vm.premap_range(0x7100_0000, 300 * 4096)
        builds = native.stats["vm_hash_builds"]
        second = core.consume_stream(stream, engine=engine)
        rebuilt = native.stats["vm_hash_builds"] - builds
        vm = core.vm
        results.append(((first, second), _state(core), vm.stats,
                        sorted(vm._mapped), rebuilt))
    (ca, sa, va, ma, _), (cb, sb, vb, mb, rebuilt) = results
    assert ca == cb == (1200, 1200)
    diffs = {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert va == vb and ma == mb
    assert va.minor_faults + va.major_faults < 400   # B was premapped
    assert rebuilt == 1


_STRUCTURE_READS = {
    "cache occupancy": lambda core: core.l1d.occupancy,
    "cache contains": lambda core: core.l2.contains(0x2000_0000),
    "llc sets": lambda core: core.llc._sets[0],
    "tlb sets": lambda core: len(core.dtlb.l1._sets),
    "gshare table": lambda core: core.branch_unit.predictor._table.items(),
    "loop table": lambda core: list(core.branch_unit.loop_predictor._table),
    "btb sets": lambda core: core.branch_unit.btb._sets[0],
    "prefetch streams": lambda core: dict(core.l2_prefetcher._streams),
    "dram rows": lambda core: core.dram._open_rows.get(0),
    "last code line": lambda core: core._last_code_line == 0,
    "kernel mode": lambda core: bool(core._kernel_mode),
}


@needs_native
@pytest.mark.parametrize("read", list(_STRUCTURE_READS),
                         ids=list(_STRUCTURE_READS))
def test_structure_read_on_resident_core_raises(read):
    """Reading structure without ``native.release`` raises instead of
    returning the stale Python copy; the books stay readable, and after
    the release the structure equals legacy's."""
    ops = _ops(2000, seed=53)
    core = Core(get_machine("i9"), VirtualMemory())
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
    core.consume_stream(stream, max_instructions=2500, engine="vector")
    assert core._image is not None
    with pytest.raises(native.StaleStructureError):
        _STRUCTURE_READS[read](core)
    assert core.counts.instructions >= 2500        # books are current
    native.release(core)
    assert core._image is None

    ref = Core(get_machine("i9"), VirtualMemory())
    ref.consume_stream(TraceBufferStream(ops=iter(ops)),
                       max_instructions=2500, engine="legacy")
    assert _STRUCTURE_READS[read](core) == _STRUCTURE_READS[read](ref)
    assert _state(core) == _state(ref)


@needs_native
def test_legacy_core_releases_a_shared_llc_resident_elsewhere():
    """A legacy consume on a core whose shared LLC is resident in
    another core's image writes that image back first: the LLC is one
    structure, whichever engine touches it."""
    from repro.uarch.multicore import SharedLlc

    def run(engine0):
        machine = get_machine("i9")
        llc = SharedLlc(machine)
        cores = [Core(machine, VirtualMemory(), shared_llc=llc, core_id=i)
                 for i in range(2)]
        streams = [TraceBufferStream(ops=iter(_ops(1500, seed=55 + i)),
                                     chunk_instructions=4096)
                   for i in range(2)]
        cores[0].consume_stream(streams[0], 1000, engine=engine0)
        cores[1].consume_stream(streams[1], 1000, engine="legacy")
        assert cores[0]._image is None
        cores[0].consume_stream(streams[0], engine=engine0)
        return [_state(c) for c in cores], llc.cache._rand_state

    assert run("vector") == run("legacy")


@needs_native
def test_discarded_core_frees_its_image():
    """The live-image registry holds images weakly: a discarded core's
    image is freed by the collector, and ``ops_retired()`` stays exact
    because every book sync drained its retirement slots."""
    import gc
    import weakref

    ops = _ops(1000, seed=57)
    base = native.ops_retired()
    core = Core(get_machine("i9"), VirtualMemory())
    core.consume_stream(TraceBufferStream(ops=iter(ops)), engine="vector")
    image = weakref.ref(core._image)
    assert native.ops_retired() == base + len(ops)
    del core
    gc.collect()
    assert image() is None
    assert native.ops_retired() == base + len(ops)
