"""Native multicore equivalence matrix: 1-16 cores × sampler on/off.

The vector engine runs the whole interleaved multicore round loop in the
C kernel — persistent per-core images, one shared-LLC image aliased into
all of them, epoch counters drained to Python's M/M/1 contention model
at every round boundary, and the sampler's cycle hook served through the
HOOK trampoline.  Every cell of the matrix must be bit-identical to the
legacy interpreter: counters, Top-Down profile, stall books, shared-LLC
stats *and* eviction RNG state, per-core cycle trajectories, and the
sampled timeline.

This is the CI ``vector-multicore`` job's workload (quick fidelity).
"""

from __future__ import annotations

import pytest

from repro.harness.runner import Fidelity, run_multicore
from repro.uarch import native
from repro.uarch.machine import get_machine
from repro.workloads.aspnet import aspnet_specs

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="native kernel unavailable")

_FID = Fidelity(warmup_instructions=6_000, measure_instructions=12_000)


def _spec(name="Json"):
    return next(s for s in aspnet_specs() if s.name == name)


def _fingerprint(res, td, cnt):
    """Everything observable from a multicore run, diffably keyed."""
    d = {"epochs": res.epochs,
         "total_instructions": res.total_instructions,
         "mean_cycles": res.mean_cycles,
         "llc.extra_latency": res.llc.extra_latency,
         "llc.rand_state": res.llc.cache._rand_state,
         "llc.mpki": res.per_core_llc_mpki(),
         "topdown": td, "counters": cnt}
    st = res.llc.cache.stats
    for f in ("accesses", "misses", "demand_accesses", "demand_misses",
              "evictions", "writebacks"):
        d[f"llc.{f}"] = getattr(st, f)
    for i, c in enumerate(res.cores):
        d[f"core{i}.cycles"] = c.cycles
        d[f"core{i}.instructions"] = c.counts.instructions
        d[f"core{i}.stalls"] = tuple(sorted(c.stalls.items()))
    if res.samples is not None:
        d["samples"] = {k: tuple(v)
                        for k, v in res.samples.columns.items()}
    return d


def _assert_engines_agree(name, n_cores, sampler=False):
    machine = get_machine("i9")
    kw = {}
    if sampler:
        kw = {"sampling": True, "sample_interval": 1e-6}
    a = _fingerprint(*run_multicore(_spec(name), machine, n_cores, _FID,
                                    engine="legacy", **kw))
    before = dict(native.stats)
    b = _fingerprint(*run_multicore(_spec(name), machine, n_cores, _FID,
                                    engine="vector", **kw))
    delta = {k: native.stats[k] - before[k] for k in before}
    diffs = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    assert not diffs, f"diverged: {dict(list(diffs.items())[:4])}"
    # No delegation to the interpreter, and one export per core: each
    # image stayed resident through both round loops.
    assert delta["exports"] == n_cores
    assert delta["kernel_calls"] > 0
    if sampler:
        assert delta["hook_exits"] > 0


@needs_native
@pytest.mark.parametrize("sampler", [False, True],
                         ids=["plain", "sampler"])
@pytest.mark.parametrize("n_cores", [1, 2, 4, 8, 16])
def test_multicore_matrix_bit_identical(n_cores, sampler):
    _assert_engines_agree("Json", n_cores, sampler)


@needs_native
@pytest.mark.parametrize("name", ["Plaintext", "DbFortunesRaw"])
def test_fig11_benchmarks_bit_identical_at_16_cores(name):
    """The other Fig 11/12 benchmarks at the most contended point."""
    _assert_engines_agree(name, 16)


@needs_native
def test_multicore_trace_store_replay_identical(tmp_path):
    """Warm trace-store replay (the bench configuration) is the same
    run: per-core keys, colored on replay, bit-identical to live."""
    from repro.exec.traces import TraceStore

    machine = get_machine("i9")
    spec = _spec()
    live = _fingerprint(*run_multicore(spec, machine, 2, _FID,
                                       engine="vector"))
    store = TraceStore(tmp_path / "traces")
    cold = _fingerprint(*run_multicore(spec, machine, 2, _FID,
                                       engine="vector",
                                       trace_store=store))
    warm = _fingerprint(*run_multicore(spec, machine, 2, _FID,
                                       engine="vector",
                                       trace_store=store))
    assert live == cold == warm
