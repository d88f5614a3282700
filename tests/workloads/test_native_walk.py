"""The kernel's region layout and walk against their Python references.

The layout in ``_walk.c`` must turn a region's numpy draws into the
table numpy computes, and the walk must draw the exact stream
``random.Random`` would and reproduce every address model op for op.
These tests compare layouts across mix profiles and sizes, pin the
walk's draw helpers directly (MT19937 across the twist, the state
handed back, libm ``pow`` where squaring rounds differently from
``x * x``), then run each address-model kind on both walks and compare
the ops, the model's state vector and the rng state afterwards.
"""

from __future__ import annotations

import ctypes
import itertools
import random
from array import array
from dataclasses import replace

import numpy as np
import pytest

from repro import codegen
from repro.codegen import (CodeRegion, ConstAddress, HotColdLines,
                           MixProfile, ReuseRing, UniformLines, _getstate,
                           _setstate)
from repro.trace import TraceBuffer
from repro.uarch import native
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import D_LIVE, DataModel
from repro.workloads.speccpu import speccpu_specs

pytestmark = pytest.mark.skipif(not native.available(),
                                reason="native kernel unavailable")


def _helper(name, restype, argtypes):
    fn = getattr(native.get_lib(), name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


def _random_mix(rng):
    return MixProfile(
        branch_frac=rng.uniform(0.05, 0.5), load_frac=rng.uniform(0, 0.3),
        store_frac=rng.uniform(0, 0.15),
        bytes_per_instr=rng.choice((3.0, 4.0, 4.5)),
        taken_bias=rng.random(), bias_spread=2 * rng.random(),
        loop_frac=rng.random() / 2, avg_loop_trips=rng.uniform(0.5, 20),
        hot_entry_divisor=rng.choice((50, 500, 2000)))


def test_layout_matches_reference(monkeypatch):
    """Every suite's mix profile at method to multi-chunk sizes, and
    300 random ones: the kernel's tables (biases bit for bit, hot
    entries, burst) are the numpy reference's."""
    rng = random.Random(0)
    mixes = [s.mix_profile() for s in dotnet_category_specs()
             + aspnet_specs() + speccpu_specs()]
    cases = [(0x4000_0000, size, seed, mix) for mix in mixes
             for size, seed in ((700, 1), (40_000, 2), (3 << 20, 3))]
    cases += [(rng.getrandbits(40), rng.choice((16, 300, 2048, 65_536)),
               rng.getrandbits(31), _random_mix(rng)) for _ in range(300)]
    kernel = [CodeRegion(*case)._table for case in cases]
    monkeypatch.setattr(codegen, "_kernel", lambda: None)
    reference = [CodeRegion(*case)._table for case in cases]
    assert all(np.array_equal(a, b) for a, b in zip(kernel, reference))


@pytest.mark.parametrize("drawn", [0, 311, 312, 623])
def test_mt19937_matches_random_across_the_twist(drawn):
    """1,000 draws from every index position of interest (fresh, one
    word before the twist, at it, mid-pair) match ``random()``, and the
    state the kernel hands back is the one ``random.Random`` reaches."""
    fill = _helper("repro_mt_fill", None,
                   [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong])
    rng = random.Random(1234)
    for _ in range(drawn):
        rng.random()
    mt = array("I", _getstate(rng))
    out = array("d", bytes(8 * 1000))
    fill(mt.buffer_info()[0], out.buffer_info()[0], len(out))
    assert list(out) == [rng.random() for _ in range(1000)]
    back = random.Random()
    _setstate(back, tuple(mt))
    assert back.getstate() == rng.getstate()


def test_pow_matches_python_where_squaring_rounds_differently():
    """``x ** 2`` is libm ``pow``: the kernel's constant-exponent powers
    must not be folded into ``x * x`` (or ``x * x * x``), which round
    differently on a fraction of draws; run-time exponents (the data
    model's skew) match too."""
    double = ctypes.c_double
    square = _helper("repro_py_square", double, [double])
    cube = _helper("repro_py_cube", double, [double])
    pw = _helper("repro_py_pow", double, [double, double])
    rng = random.Random(7)
    xs = [rng.random() for _ in range(200_000)]
    differ = [x for x in xs if x ** 2 != x * x]
    assert differ
    assert all(square(x) == x ** 2 for x in differ)
    differ = [x for x in xs if x ** 3 != x * x * x]
    assert all(cube(x) == x ** 3 for x in differ)
    for e in (1.4, 2.6, 4.0):
        assert all(pw(x, e) == x ** e for x in xs[:20_000])


def _spec(name, **over):
    spec = next(s for s in dotnet_category_specs() + speccpu_specs()
                if s.name == name)
    return replace(spec, **over)


def _data(name, managed=True, **over):
    live = array("q", [0x9000_0000 + 4096 * (i % 97) + 64 * i
                       for i in range(500)]) if managed else None
    return DataModel(_spec(name, **over), live_addrs=live,
                     native_base=0xA000_0000, stream_base=0xB000_0000)


MODELS = {
    "const": lambda: ConstAddress(0x7F00_1000),
    "uniform": lambda: UniformLines(0x7F00_0000, 64),
    "hot-cold": lambda: HotColdLines(0x6100_0000, 192, 0x6200_0000, 17),
    "reuse-ring": lambda: ReuseRing(0xFFFF_C000_0000, 4096),
    "data-managed": lambda: _data("System.Runtime"),
    "data-fresh": lambda: _data("System.Runtime", temporal_reuse=0.05,
                                fresh_new_frac=0.9, stack_frac=0.05),
    "data-stream": lambda: _data("System.Runtime", stream_frac=0.6),
    "data-native": lambda: _data("mcf", managed=False),
    "data-chase": lambda: _data("mcf", managed=False,
                                pointer_chase_frac=0.3),
}

REGION = CodeRegion(0x6000_0000, 3 * 1024 * 1024, seed=11,
                    mix=MixProfile(load_frac=0.3, store_frac=0.14,
                                   loop_frac=0.2))


def _walk(walk, model, rng, n, **kw):
    buf = TraceBuffer()
    for _ in range(n // 5_000):
        walk(REGION, buf, rng, 5_000, model, **kw)
    return buf


def _state(buf, model, rng):
    vector = list(model.m)
    if isinstance(model, DataModel):
        vector[D_LIVE] = 0      # each run's live array has its own address
    return ([list(col) for col in (buf.kinds, buf.a0, buf.a1, buf.a2)],
            buf.n_instructions, vector, rng.getstate())


@pytest.mark.parametrize("kind", list(MODELS))
def test_each_address_model_walks_identically(kind):
    """Ops, the model's vector (rings, fill counts, cursors) and the rng
    state agree after 120k instructions — enough for the data model's
    episode ring to wrap."""
    runs = []
    for walk in (CodeRegion.walk_into, CodeRegion._walk_reference):
        model, rng = MODELS[kind](), random.Random(5)
        runs.append(_state(_walk(walk, model, rng, 120_000), model, rng))
    assert runs[0] == runs[1]


def test_kernel_mode_fixed_entry_walk():
    runs = []
    for walk in (CodeRegion.walk_into, CodeRegion._walk_reference):
        model, rng = MODELS["reuse-ring"](), random.Random(9)
        buf = _walk(walk, model, rng, 20_000, is_kernel=True, entry=3)
        runs.append(_state(buf, model, rng))
    assert runs[0] == runs[1]


def test_walks_continue_from_each_other():
    """Alternating the two walks on one model and rng gives the stream
    either gives alone: all state lives in the vector and the rng."""
    walks = itertools.cycle((CodeRegion.walk_into,
                             CodeRegion._walk_reference))

    def alternating(region, buf, rng, n, model, **kw):
        next(walks)(region, buf, rng, n, model, **kw)

    runs = []
    for walk in (CodeRegion.walk_into, alternating):
        model, rng = MODELS["data-managed"](), random.Random(3)
        runs.append(_state(_walk(walk, model, rng, 60_000), model, rng))
    assert runs[0] == runs[1]


def test_long_walk_grows_the_output():
    """A walk longer than the kernel's current output capacity."""
    runs = []
    for walk in (CodeRegion.walk_into, CodeRegion._walk_reference):
        model, rng = MODELS["hot-cold"](), random.Random(2)
        buf = TraceBuffer()
        walk(REGION, buf, rng, 300_000, model)
        runs.append(_state(buf, model, rng))
    assert runs[0] == runs[1]


def test_threads_walk_independently():
    """Two threads generating at once — switching as often as the
    interpreter allows — each get the stream they get alone."""
    import sys
    import threading

    from repro.workloads.program import build_program

    def generate(seed, out):
        program = build_program(_spec("System.Runtime"), seed=seed)
        buf = TraceBuffer()
        program.fill_buffer(buf, 100_000)
        out[seed] = [list(c) for c in (buf.kinds, buf.a0, buf.a1, buf.a2)]

    alone, together = {}, {}
    for seed in (1, 2):
        generate(seed, alone)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=generate, args=(seed, together))
                   for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
