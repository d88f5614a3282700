"""Figs 11-12: ASP.NET Top-Down profile vs core count (1, 2, 4, 8, 16).

Paper: as cores scale, benchmarks become more backend bound, driven by
growing L3-bound stalls (LLC slice-port and NoC contention), while the
per-core LLC MPKI stays roughly flat.

The timed sweep runs on the default engine, the native multicore round
loop (persistent per-core kernel images sharing one LLC image); it is
then rerun on the legacy interpreter and every point must agree exactly.
The companion throughput bench times legacy vs vector against a warm
trace store and writes the ``multicore`` section of
``BENCH_throughput.json`` (gated in CI via ``compare_throughput.py
--sections ... --gate-suffix speedup``: a silent fall-back to the
interpreter collapses the ratios to ~1x).
"""

import time

from bench_simulator_throughput import _merge_json, JSON_PATH

from repro import paperdata
from repro.exec.traces import TraceStore
from repro.harness.report import format_table
from repro.harness.runner import run_multicore
from repro.uarch import native
from repro.workloads.aspnet import aspnet_specs

BENCHMARKS = ("Plaintext", "Json", "DbFortunesRaw")

#: core counts the throughput bench times (the CI equivalence matrix)
_THROUGHPUT_COUNTS = (1, 2, 4, 8)
_ROUNDS = 3


def test_fig11_fig12_core_scaling(benchmark, fidelity, machine_i9, emit):
    specs = {s.name: s for s in aspnet_specs()}

    def run(engine=None):
        out = {}
        for name in BENCHMARKS:
            per_count = {}
            for n in paperdata.CORE_SCALING_POINTS:
                result, td, counters = run_multicore(
                    specs[name], machine_i9, n, fidelity, engine=engine)
                per_count[n] = {
                    "topdown": td.level1(),
                    "l3_bound": td.be_l3_bound,
                    "llc_mpki": result.per_core_llc_mpki(),
                    "llc_extra_latency": result.llc.extra_latency,
                }
            out[name] = per_count
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    # Engine agreement: the native round loop is the same model as the
    # interpreter at every point, including 16 cores.
    if native.available():
        assert run("legacy") == data

    rows = []
    for name, per_count in data.items():
        for n, d in per_count.items():
            td = d["topdown"]
            rows.append([name, n, td["retiring"], td["frontend_bound"],
                         td["backend_bound"], d["l3_bound"], d["llc_mpki"],
                         d["llc_extra_latency"]])
    text = format_table(
        ["benchmark", "cores", "retiring", "fe_bound", "be_bound",
         "l3_bound", "per-core LLC MPKI", "LLC extra latency (cyc)"],
        rows)
    emit("fig11_fig12_core_scaling", text)

    for name, per_count in data.items():
        lo, mid, hi = per_count[1], per_count[4], per_count[16]
        # Fig 12: L3-bound stalls grow with core count...
        assert hi["l3_bound"] > lo["l3_bound"] * 1.3, name
        # ...while per-core LLC MPKI stays comparatively stable across
        # the multi-core points (2..16: shared-state amortization makes
        # the 1-core point an outlier in finite windows).
        multi = [per_count[n]["llc_mpki"] for n in (2, 4, 8, 16)]
        assert max(multi) < 2.5 * min(multi), (name, multi)
        # Fig 11: backend-bound grows as contention mounts (4 -> 16).
        assert hi["topdown"]["backend_bound"] \
            > mid["topdown"]["backend_bound"] - 0.01, name
        # The mechanism: contention latency at the shared LLC.
        assert hi["llc_extra_latency"] > 2 * lo["llc_extra_latency"]


def test_multicore_engine_throughput(fidelity, machine_i9, emit,
                                     tmp_path):
    """Legacy interpreter vs native round loop on the core-scaling sweep.

    Both engines replay the same warm per-core trace store (generation
    is paid once per trace regardless of engine), interleaved round by
    round so system noise penalizes both alike.  Every timed pair must
    agree exactly before its ratio means anything.
    """
    if not native.available():
        import pytest
        pytest.skip("native kernel unavailable")
    spec = next(s for s in aspnet_specs() if s.name == "Json")
    store = TraceStore(tmp_path / "traces")

    def timed(n, engine, **kw):
        t0 = time.process_time()
        result, td, counters = run_multicore(
            spec, machine_i9, n, fidelity, engine=engine,
            trace_store=store, **kw)
        dt = time.process_time() - t0
        return dt, (result.total_instructions, result.epochs,
                    result.llc.cache._rand_state, td, counters,
                    repr(None if result.samples is None
                         else result.samples.columns))

    rows = []
    section = {
        "workload": spec.name,
        "machine": machine_i9.name,
        "fidelity": {
            "warmup_instructions": fidelity.warmup_instructions,
            "measure_instructions": fidelity.measure_instructions,
        },
        "rounds": _ROUNDS,
        "core_counts": {},
    }

    def best_pair(n, **kw):
        """Best-of-_ROUNDS CPU seconds per engine, interleaved."""
        best = {}
        for _ in range(_ROUNDS):
            for engine in ("legacy", "vector"):
                dt, fp = timed(n, engine, **kw)
                if dt < best.get(engine, (float("inf"),))[0]:
                    best[engine] = (dt, fp)
        (t_leg, fp_leg), (t_vec, fp_vec) = best["legacy"], best["vector"]
        assert fp_leg == fp_vec, f"engines diverged at {n} cores {kw}"
        instr = fp_leg[0]
        return {"legacy_instr_per_s": round(instr / t_leg),
                "vector_instr_per_s": round(instr / t_vec),
                "speedup": round(t_leg / t_vec, 3)}

    for n in _THROUGHPUT_COUNTS:
        timed(n, "vector")             # warm the store + page cache
        section["core_counts"][str(n)] = d = best_pair(n)
        rows.append([n, f"{d['legacy_instr_per_s']:,}",
                     f"{d['vector_instr_per_s']:,}", f"{d['speedup']:.2f}x"])
    section["min_speedup"] = min(d["speedup"]
                                 for d in section["core_counts"].values())

    # Sampler on: the trampoline must not eat the win (Fig 8/13 runs).
    section["sampler"] = d = {"cores": 4, **best_pair(4, sampling=True)}
    rows.append(["4+sampler", f"{d['legacy_instr_per_s']:,}",
                 f"{d['vector_instr_per_s']:,}", f"{d['speedup']:.2f}x"])
    _merge_json("multicore", section)

    emit("multicore_engine_throughput",
         f"Multicore round loop ({spec.name}, warm per-core traces, "
         f"best of {_ROUNDS}):\n"
         + format_table(["cores", "legacy instr/s", "vector instr/s",
                         "speedup"], rows)
         + f"\nJSON written to {JSON_PATH.name}")

    # The committed default-fidelity numbers target >=5x; this inline
    # bound is looser because quick fidelity amortizes the per-core
    # image export over ~5x fewer instructions and CI boxes are noisy.
    floor = 3.0 if fidelity.measure_instructions >= 100_000 else 1.3
    assert section["min_speedup"] > floor
    assert section["sampler"]["speedup"] > floor * 0.6
