"""Native consume backend (``engine="vector"``): build + state marshalling.

The vector engine — the default — runs the per-op simulation loop in a
small C kernel (``_kernel.c``) compiled on first use with the system
compiler and loaded via ctypes.  Python owns every byte of simulator
state as numpy arrays: :class:`CoreImage` exports a
:class:`~repro.uarch.pipeline.Core` into flat arrays, the kernel mutates
them in place, and ``writeback`` reconstructs the exact Python object
state (including dict insertion order where it is semantically
observable) so results are bit-identical to the legacy engine, the
reference interpreter.

Two stateful-callback cases run natively via resume protocols rather
than falling back:

* **Cycle hooks** (the sampler) use a trampoline: the kernel tracks
  ``next_hook_cycles`` and exits with a ``HOOK`` status at the block op
  that crossed the threshold; the driver writes state back, runs the
  Python hook against the live ``Core``, and re-enters the kernel.
* **The shared LLC** (multicore) is one set of arrays aliased into
  every core's image (:class:`NativeMulticoreSession`): slice-hashed
  epoch counters and the contention-folded L3 latency live in C, while
  Python's M/M/1 ``update_contention`` runs unchanged between epoch
  quanta.

When the kernel is unavailable (no compiler, ``REPRO_NATIVE=0``) or the
core uses a configuration the kernel does not model (subclassed shared
LLC, JIT metadata reactions, non-stock geometry), the run delegates to
the legacy interpreter: same results, 11-35x slower.  Delegation is
never silent — it is counted in :data:`delegations` (and the
``native.delegations{reason=...}`` metric) and warned about once per
process; :func:`last_error` keeps the reason the kernel failed to load.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import time
import warnings

import numpy as np

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.obs.metrics import labeled
from repro.uarch.branch import BranchUnit, Btb, GsharePredictor, LoopPredictor
from repro.uarch.cache import Cache
from repro.uarch.memory import DramModel
from repro.uarch.prefetch import NextLinePrefetcher, StreamPrefetcher
from repro.uarch.tlb import Tlb

# ---------------------------------------------------------------------------
# Layout constants: MUST mirror the enums in _kernel.c exactly.

_NCACHE = 5          # l1i, l1d, l2, llc, dsb
_NTLB = 3            # itlb.l1, dtlb.l1, stlb

P_KINDS, P_A0, P_A1, P_A2, P_EVIDX, P_EVCYC = 0, 1, 2, 3, 4, 5
P_SI, P_SD, P_PD, P_PI = 6, 7, 8, 9
P_CACHE0 = 10                      # 5 x (tags, flags, cnt, stats)
P_TLB0 = P_CACHE0 + 4 * _NCACHE    # 3 x (vpns, cnt, stats)
P_GS_VAL = P_TLB0 + 3 * _NTLB
P_GS_PRES = P_GS_VAL + 1
P_LP_SLAB, P_LP_ORDER, P_LP_HKEY, P_LP_HVAL = (P_GS_PRES + 1,
                                               P_GS_PRES + 2,
                                               P_GS_PRES + 3,
                                               P_GS_PRES + 4)
P_BTB_KEY, P_BTB_TGT, P_BTB_CNT = P_LP_HVAL + 1, P_LP_HVAL + 2, P_LP_HVAL + 3
P_SPF_PAGE, P_SPF_LINE = P_BTB_CNT + 1, P_BTB_CNT + 2
P_DRAM_ROWS, P_DRAM_ST = P_SPF_LINE + 1, P_SPF_LINE + 2
P_VM_HASH, P_VM_LOG = P_DRAM_ST + 1, P_DRAM_ST + 2
P_LLC_EPOCH = P_VM_LOG + 1         # [epoch_total, slice_0..slice_{n-1}]
P_N = P_LLC_EPOCH + 1

(SI_INSTR, SI_KINSTR, SI_BRANCHES, SI_LOADS, SI_STORES,
 SI_DTLB_LWALK, SI_DTLB_SWALK, SI_ITLB_WALK,
 SI_LAST_CODE_LINE, SI_LAST_CODE_PAGE, SI_LAST_DATA_VPN, SI_KMODE,
 SI_GS_HIST,
 SI_BU_BR, SI_BU_MIS, SI_BU_BTBM, SI_BU_TK,
 SI_L1IPF_ISS, SI_L1IPF_PB, SI_L1DPF_ISS, SI_L1DPF_PB,
 SI_L2PF_ISS, SI_L2PF_PB,
 SI_L1IPF_LAST, SI_L1DPF_LAST,
 SI_VM_MIN, SI_VM_MAJ, SI_VM_MAPPED, SI_VM_SEQ, SI_VM_CNT, SI_VM_LOGN,
 SI_LP_CNT, SI_LP_TOMB, SI_SPF_CNT,
 SI_RAND0) = range(35)
SI_EV_N = SI_RAND0 + _NCACHE
SI_NEXT_POS = SI_EV_N + 1
SI_OPS_RETIRED = SI_NEXT_POS + 1   # live progress counter (kernel-owned)
SI_OPK0 = SI_OPS_RETIRED + 1       # 5 per-op-kind retirement counters
SI_N = SI_OPK0 + 5

SD_IDEAL, SD_UOPS, SD_ST0 = 0, 1, 2
SD_NEXT_HOOK = SD_ST0 + 17         # +inf when no cycle hook is armed
SD_N = SD_NEXT_HOOK + 1

(PD_UOP_FACTOR, PD_INV_WIDTH, PD_PORTS_COEFF, PD_DIV_FRAC, PD_DIV_PEN,
 PD_MICRO_FRAC, PD_MS_PEN, PD_MITE_COEFF,
 PD_ITLB_WALK, PD_DTLB_WALK,
 PD_ICACHE_L2, PD_ICACHE_L3, PD_ICACHE_DRAM,
 PD_L1_HIT, PD_BE_L2, PD_BE_L3, PD_BE_DRAM,
 PD_STORE_PEN, PD_MIS_PEN, PD_RESTEER_PEN, PD_TAKEN_BUBBLE,
 PD_PF_DRAM, PD_MINOR_FAULT, PD_MAJOR_FAULT, PD_PORTS_ON,
 PD_WIDTH, PD_HOOK_INTERVAL) = range(27)
PD_N = 27

(PI_HIST_BITS, PI_HIST_MASK, PI_GS_MASK,
 PI_BTB_MASK, PI_BTB_WAYS,
 PI_LP_MAX, PI_LP_HMASK, PI_VM_HMASK, PI_MAJOR_PERIOD,
 PI_DRAM_BANKS, PI_DRAM_ROWSZ, PI_SPF_MAX, PI_SPF_DEG,
 PI_LLC_SLICES) = range(14)
PI_CACHE0 = 14                     # 5 x (mask, ways, lru, evict_head)
PI_TLB0 = PI_CACHE0 + 4 * _NCACHE  # 3 x (mask, ways)
PI_N = PI_TLB0 + 2 * _NTLB

_C_LLC = 3                         # LLC's index in the caches tuple

(_STATUS_DONE, _STATUS_LIMIT, _STATUS_VM_FULL,
 _STATUS_HOOK, _STATUS_BAD) = 0, 1, 2, 3, -1

#: Kernel-entry telemetry for the fallback/guard tests: proves a config
#: really took the native path (and how) without instrumenting the hot
#: loop.  Monotonic per process; tests diff around a call.  The
#: ``ops_*`` keys are retirement counters the kernel itself increments
#: (one aligned int64 add per op) and ``writeback`` drains here, so the
#: totals survive image teardown; ``vm_hash_builds`` counts the exports
#: that missed the page-hash cache and rebuilt it from ``vm._mapped``.
stats = {"consume_calls": 0, "kernel_calls": 0, "hook_exits": 0,
         "sessions": 0, "ops_retired": 0, "vm_hash_builds": 0,
         "ops_block": 0, "ops_branch": 0, "ops_load": 0,
         "ops_store": 0, "ops_event": 0}
_stats = stats  # alias for scopes where a cache/tlb unpack shadows ``stats``

#: Kernel dispatch order: index ``k`` maps to ``stats["ops_<name>"]``
#: and the ``SI_OPK0 + k`` retirement slot.  Must match ``_kernel.c``.
OP_KIND_NAMES = ("block", "branch", "load", "store", "event")

# Images currently exported to the kernel.  ``ops_retired()`` folds
# their live slots into the drained totals; ``writeback`` removes them.
_live_lock = threading.Lock()
_live_images: dict[int, "CoreImage"] = {}


def ops_retired() -> int:
    """Total trace ops the kernel has retired in this process.

    Safe (and cheap) to poll from another thread mid-run: the ctypes
    call into the kernel releases the GIL, and the kernel's increments
    are aligned int64 stores, so the live-slot reads are tear-free on
    every supported target.  Finished images have drained into
    ``stats``; live ones are read straight from their kernel-owned
    scalar slots, so the sum is monotonic and never double-counts.
    """
    with _live_lock:
        live = sum(int(img.si[SI_OPS_RETIRED])
                   for img in _live_images.values())
    return stats["ops_retired"] + live

# ---------------------------------------------------------------------------
# Kernel build & load.

_SRC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "_kernel.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lib = None
_lib_resolved = False
_lib_error: str | None = None
_lib_lock = threading.Lock()

#: ``engine="vector"`` consume calls that ran on the legacy interpreter,
#: by reason: ``unavailable`` (no kernel) or ``not_nativizable`` (a core
#: configuration the kernel does not model).
delegations = {"unavailable": 0, "not_nativizable": 0}
_delegation_warned = False


def _compiler_identity(cc: str) -> bytes | None:
    """First line of ``cc --version``, or ``None`` if ``cc`` can't run.

    Cache-key ingredient: a toolchain upgrade (same source, same flags,
    new compiler) must recompile the kernel instead of loading the
    previous compiler's ``.so``.
    """
    try:
        res = subprocess.run([cc, "--version"], capture_output=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    first = res.stdout.splitlines()[0] if res.stdout else b"unknown"
    return cc.encode(errors="replace") + b"\0" + first


def _compile_lib():
    with open(_SRC_PATH, "rb") as f:
        src = f.read()
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-posix
        uid = 0
    cache_dir = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    flags = " ".join(_CFLAGS).encode()
    so_path = None
    failures = []
    for cc in [os.environ.get("CC"), "cc", "gcc", "clang"]:
        if not cc:
            continue
        ident = _compiler_identity(cc)
        if ident is None:
            failures.append(f"{cc}: not found")
            continue
        # Content-addressed by everything that shapes the binary:
        # source, CFLAGS, and the compiler's identity.
        tag = hashlib.sha256(b"\0".join((src, flags, ident))) \
            .hexdigest()[:16]
        candidate = os.path.join(cache_dir, f"kernel-{tag}.so")
        if os.path.exists(candidate):
            so_path = candidate
            break
        tmp = f"{candidate}.tmp.{os.getpid()}"
        try:
            res = subprocess.run([cc, *_CFLAGS, "-o", tmp, _SRC_PATH],
                                 capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            failures.append(f"{cc}: {exc}")
            continue
        if res.returncode == 0 and os.path.exists(tmp):
            os.replace(tmp, candidate)   # atomic: racing builds converge
            so_path = candidate
            break
        if os.path.exists(tmp):
            os.unlink(tmp)
        err = res.stderr.decode(errors="replace").strip()
        failures.append(f"{cc}: exit {res.returncode}: {err[-400:]}")
    if so_path is None:
        raise RuntimeError("no C compiler built the kernel ("
                           + "; ".join(failures) + ")")
    lib = ctypes.CDLL(so_path)
    ll = ctypes.c_longlong
    lib.repro_sim_run.restype = ll
    lib.repro_sim_run.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                                  ll, ll, ll]
    lib.repro_vm_build.restype = None
    lib.repro_vm_build.argtypes = [ctypes.c_void_p, ll, ctypes.c_void_p, ll]
    lib.repro_vm_rehash.restype = None
    lib.repro_vm_rehash.argtypes = [ctypes.c_void_p, ll, ctypes.c_void_p, ll]
    return lib


def get_lib():
    """The loaded kernel library, or ``None`` if unavailable/disabled.

    A failed build or load is kept as :func:`last_error`.
    """
    global _lib, _lib_resolved, _lib_error
    if _lib_resolved:
        return _lib
    with _lib_lock:
        if _lib_resolved:
            return _lib
        lib, error = None, None
        if os.environ.get("REPRO_NATIVE", "1") == "0":
            error = "disabled by REPRO_NATIVE=0"
        else:
            try:
                lib = _compile_lib()
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        _lib, _lib_error = lib, error
        _lib_resolved = True
    return _lib


def available() -> bool:
    return get_lib() is not None


def last_error() -> str | None:
    """Why the kernel is unavailable (``None`` while it loads fine)."""
    get_lib()
    return _lib_error


def delegation_reason(core) -> str | None:
    """``None`` when the kernel runs ``core``, else the delegation reason."""
    if not available():
        return "unavailable"
    if not nativizable(core):
        return "not_nativizable"
    return None


def note_delegation(reason: str) -> None:
    """Count one delegated consume call; warn on the first per process."""
    global _delegation_warned
    delegations[reason] += 1
    if obs.enabled():
        obs.add(labeled("native.delegations", reason=reason))
    if not _delegation_warned:
        _delegation_warned = True
        detail = last_error() if reason == "unavailable" else \
            "core configuration outside the kernel's model"
        warnings.warn(
            f"engine 'vector' is running on the legacy interpreter "
            f"({reason}: {detail}); results are identical but 11-35x "
            f"slower", RuntimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# Applicability guard.

def nativizable(core) -> bool:
    """True when ``core``'s configuration is exactly what the kernel models.

    The kernel covers stock single-core configs plus the stock
    :class:`~repro.uarch.multicore.SharedLlc` (slice counting in C,
    contention math in Python between epoch quanta) and armed cycle
    hooks (via the HOOK trampoline).  Anything else (subclassed shared
    LLC, JIT-metadata reactions, non-4K pages, non-64B lines,
    subclassed/custom structures or fetch callbacks) must take the
    legacy interpreter, which handles the full model.
    """
    from repro.uarch.pipeline import Core
    if type(core) is not Core:
        return False
    m = core.machine
    if core.shared_llc is not None:
        from repro.uarch.multicore import SharedLlc
        if type(core.shared_llc) is not SharedLlc:
            return False
    if m.jit_code_prefetch or m.jit_state_transform:
        return False
    for c in (core.l1i, core.l1d, core.l2, core.llc, core.dsb):
        if type(c) is not Cache or c._line_shift != 6:
            return False
    stlb = core.itlb.stlb
    if stlb is None or stlb is not core.dtlb.stlb:
        return False
    for t in (core.itlb.l1, core.dtlb.l1, stlb):
        if type(t) is not Tlb or t.page_shift != 12:
            return False
    pf_i, pf_d = core.l1i_prefetcher, core.l1d_prefetcher
    if type(pf_i) is not NextLinePrefetcher \
            or type(pf_d) is not NextLinePrefetcher:
        return False
    if pf_i.target is not core.l1i or pf_d.target is not core.l1d:
        return False
    if pf_i.fetch is not None:
        return False
    fd = pf_d.fetch
    if getattr(fd, "__self__", None) is not core or \
            getattr(fd, "__func__", None) is not Core._l1_prefetch_backing:
        return False
    if pf_i.page_size != 4096 or pf_d.page_size != 4096 \
            or pf_i.line_size != 64 or pf_d.line_size != 64:
        return False
    pf2 = core.l2_prefetcher
    if type(pf2) is not StreamPrefetcher or pf2.target is not core.l2:
        return False
    f2 = pf2.fetch
    if getattr(f2, "__self__", None) is not core or \
            getattr(f2, "__func__", None) is not Core._prefetch_backing:
        return False
    if pf2.page_size != 4096 or pf2.line_size != 64:
        return False
    bu = core.branch_unit
    if type(bu) is not BranchUnit or type(bu.predictor) is not \
            GsharePredictor or type(bu.btb) is not Btb \
            or type(bu.loop_predictor) is not LoopPredictor:
        return False
    if type(core.dram) is not DramModel or core.dram.line_size != 64:
        return False
    if type(core.vm) is not VirtualMemory or core.vm._page_shift != 12:
        return False
    return True


# ---------------------------------------------------------------------------
# Helpers.

_U64 = (1 << 64) - 1


def _mix(v: int) -> int:
    h = (v * 0x9E3779B97F4A7C15) & _U64
    return h ^ (h >> 29)


def _next_pow2(n: int) -> int:
    return 1 << max(3, (max(n, 1) - 1).bit_length())


def _export_assoc(sets, n_sets, ways, tags, flags):
    """Scatter per-set entry lists into dense (tags, flags?) arrays."""
    cnts = [len(b) for b in sets]
    cnt = np.asarray(cnts, dtype=np.int32)
    total = int(cnt.sum())
    if total:
        cnt64 = cnt.astype(np.int64)
        starts = np.cumsum(cnt64) - cnt64
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt64)
        pos = np.repeat(np.arange(n_sets, dtype=np.int64) * ways,
                        cnt64) + within
        if flags is not None:
            tags[pos] = [e[0] for b in sets for e in b]
            flags[pos] = [(1 if e[1] else 0) | (2 if e[2] else 0)
                          | (4 if e[3] else 0) for b in sets for e in b]
        else:
            tags[pos] = [v for b in sets for v in b]
    return cnt


def _export_cache(cache):
    n = cache.n_sets * cache.ways
    tags = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.uint8)
    cnt = _export_assoc(cache._sets, cache.n_sets, cache.ways, tags, flags)
    st = cache.stats
    stats = np.array([st.accesses, st.misses, st.demand_accesses,
                      st.demand_misses, st.prefetch_fills,
                      st.useful_prefetches, st.useless_prefetches,
                      st.evictions, st.writebacks], dtype=np.int64)
    return tags, flags, cnt, stats


def _import_cache(cache, tags, flags, cnt, stats):
    ways = cache.ways
    tl, fl, cl = tags.tolist(), flags.tolist(), cnt.tolist()
    sets = cache._sets
    lines = cache._lines
    lines.clear()
    for si in range(cache.n_sets):
        base = si * ways
        bucket = []
        for k in range(base, base + cl[si]):
            t, f = tl[k], fl[k]
            bucket.append([t, bool(f & 1), bool(f & 2), bool(f & 4)])
            lines.add(t)
        sets[si] = bucket
    st = cache.stats
    sl = stats.tolist()
    (st.accesses, st.misses, st.demand_accesses, st.demand_misses,
     st.prefetch_fills, st.useful_prefetches, st.useless_prefetches,
     st.evictions, st.writebacks) = sl


def _export_tlb(tlb):
    n = tlb.n_sets * tlb.ways
    vpns = np.zeros(n, dtype=np.int64)
    cnt = _export_assoc(tlb._sets, tlb.n_sets, tlb.ways, vpns, None)
    st = tlb.stats
    stats = np.array([st.accesses, st.misses, st.walks], dtype=np.int64)
    return vpns, cnt, stats


def _import_tlb(tlb, vpns, cnt, stats):
    ways = tlb.ways
    vl, cl = vpns.tolist(), cnt.tolist()
    sets = tlb._sets
    resident = tlb._resident
    resident.clear()
    for si in range(tlb.n_sets):
        base = si * ways
        bucket = vl[base:base + cl[si]]
        resident.update(bucket)
        sets[si] = bucket
    st = tlb.stats
    st.accesses, st.misses, st.walks = stats.tolist()


# ---------------------------------------------------------------------------
# Core state image.

class CoreImage:
    """Flat-array image of a Core's mutable state, shared with the kernel.

    ``__init__`` exports, the kernel mutates the arrays in place through
    the pointer table, ``writeback`` reconstructs the Python objects.
    Derived stall constants are evaluated here with the *same expression
    shapes* the legacy per-op code uses, so the doubles the kernel
    accumulates are bit-identical.

    ``shared_llc_image``: when several cores share one
    :class:`~repro.uarch.multicore.SharedLlc`, the first core's image
    owns the LLC arrays (tags/flags/cnt/stats + epoch counters) and
    every later image aliases them, so the kernels see one coherent
    LLC no matter which core runs.  Only the owner writes the LLC back.
    """

    def __init__(self, core, shared_llc_image=None) -> None:
        from repro.uarch.pipeline import ALL_BUCKETS
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        self.core = core
        self.buckets = ALL_BUCKETS
        m = core.machine
        h = core.hints
        self.si = np.zeros(SI_N, dtype=np.int64)
        self.sd = np.zeros(SD_N, dtype=np.float64)
        self.pd = np.zeros(PD_N, dtype=np.float64)
        self.pi = np.zeros(PI_N, dtype=np.int64)
        self.ptab = (ctypes.c_void_p * P_N)()
        self._keep = []            # arrays the pointer table references

        si, sd, pd, pi = self.si, self.sd, self.pd, self.pi

        # -- scalars -----------------------------------------------------
        c = core.counts
        si[SI_INSTR] = c.instructions
        si[SI_KINSTR] = c.kernel_instructions
        si[SI_BRANCHES] = c.branches
        si[SI_LOADS] = c.loads
        si[SI_STORES] = c.stores
        si[SI_DTLB_LWALK] = c.dtlb_load_walks
        si[SI_DTLB_SWALK] = c.dtlb_store_walks
        si[SI_ITLB_WALK] = c.itlb_walks
        si[SI_LAST_CODE_LINE] = core._last_code_line
        si[SI_LAST_CODE_PAGE] = core._last_code_page
        si[SI_LAST_DATA_VPN] = core._last_data_vpn
        si[SI_KMODE] = int(core._kernel_mode)
        sd[SD_IDEAL] = core._ideal_cycles
        sd[SD_UOPS] = c.uops
        for k, b in enumerate(self.buckets):
            sd[SD_ST0 + k] = core.stalls[b]

        # -- derived constants (legacy expression shapes) -----------------
        width = m.pipeline_width
        pd[PD_UOP_FACTOR] = h.uop_factor
        pd[PD_INV_WIDTH] = 1.0 / width
        pd[PD_WIDTH] = float(width)
        ilp = min(h.ilp, width)
        ports_on = ilp < width
        pd[PD_PORTS_ON] = 1.0 if ports_on else 0.0
        pd[PD_PORTS_COEFF] = (1.0 / ilp - 1.0 / width) if ports_on else 0.0
        pd[PD_DIV_FRAC] = h.div_frac
        pd[PD_DIV_PEN] = core.DIV_PENALTY
        pd[PD_MICRO_FRAC] = h.microcode_frac
        pd[PD_MS_PEN] = float(m.ms_switch_penalty)
        pd[PD_MITE_COEFF] = (1.0 / (m.decode_width * core.MITE_EFFICIENCY)
                             - 1.0 / width)
        pd[PD_ITLB_WALK] = m.page_walk_latency * (1 - core.ITLB_OVERLAP)
        pd[PD_DTLB_WALK] = m.page_walk_latency / h.mlp
        icache_vis = 1 - core.ICACHE_OVERLAP
        hidden = (1 - core.DATA_OVERLAP) / h.mlp
        self._icache_vis = icache_vis
        self._hidden = hidden
        pd[PD_ICACHE_L2] = m.l2.latency * icache_vis
        pd[PD_ICACHE_DRAM] = m.dram_latency * icache_vis
        pd[PD_L1_HIT] = m.l1d.latency * core.L1_VISIBLE
        pd[PD_BE_L2] = (m.l2.latency - m.l1d.latency) * hidden
        pd[PD_BE_DRAM] = (m.dram_latency - m.llc.latency) * hidden
        # L3 latencies fold in the shared LLC's current contention term
        # (0.0 for a private LLC) with the exact legacy expression
        # shapes; refresh_contention() recomputes them after each
        # update_contention epoch.
        self.refresh_contention()
        # Cycle-hook trampoline state: the kernel checks the threshold
        # (a single `if`, like _op_block) and exits with _STATUS_HOOK.
        sd[SD_NEXT_HOOK] = core._next_hook_cycles
        pd[PD_HOOK_INTERVAL] = core.cycle_hook_interval
        pd[PD_STORE_PEN] = core.STORE_MISS_PENALTY
        pd[PD_MIS_PEN] = float(m.mispredict_penalty)
        pd[PD_RESTEER_PEN] = float(m.btb_resteer_penalty)
        pd[PD_TAKEN_BUBBLE] = core.TAKEN_BRANCH_BUBBLE
        pd[PD_PF_DRAM] = m.dram_latency * 0.22 / h.mlp
        vm = core.vm
        pd[PD_MINOR_FAULT] = float(vm.MINOR_FAULT_CYCLES)
        pd[PD_MAJOR_FAULT] = float(vm.MAJOR_FAULT_CYCLES)

        # -- caches -------------------------------------------------------
        self.caches = (core.l1i, core.l1d, core.l2, core.llc, core.dsb)
        self._llc_owner = shared_llc_image is None
        self.cache_arrays = []
        for k, cache in enumerate(self.caches):
            if k == _C_LLC and shared_llc_image is not None:
                tags, flags, cnt, stats = shared_llc_image.cache_arrays[k]
            else:
                tags, flags, cnt, stats = _export_cache(cache)
            self.cache_arrays.append((tags, flags, cnt, stats))
            self._set_ptr(P_CACHE0 + 4 * k, tags)
            self._set_ptr(P_CACHE0 + 4 * k + 1, flags)
            self._set_ptr(P_CACHE0 + 4 * k + 2, cnt)
            self._set_ptr(P_CACHE0 + 4 * k + 3, stats)
            pi[PI_CACHE0 + 4 * k] = cache._index_mask
            pi[PI_CACHE0 + 4 * k + 1] = cache.ways
            pi[PI_CACHE0 + 4 * k + 2] = int(cache._lru)
            pi[PI_CACHE0 + 4 * k + 3] = int(cache._evict_head)
            si[SI_RAND0 + k] = cache._rand_state

        # -- TLBs ---------------------------------------------------------
        self.tlbs = (core.itlb.l1, core.dtlb.l1, core.itlb.stlb)
        self.tlb_arrays = []
        for k, tlb in enumerate(self.tlbs):
            vpns, cnt, stats = _export_tlb(tlb)
            self.tlb_arrays.append((vpns, cnt, stats))
            self._set_ptr(P_TLB0 + 3 * k, vpns)
            self._set_ptr(P_TLB0 + 3 * k + 1, cnt)
            self._set_ptr(P_TLB0 + 3 * k + 2, stats)
            pi[PI_TLB0 + 2 * k] = tlb._index_mask
            pi[PI_TLB0 + 2 * k + 1] = tlb.ways

        # -- branch unit ---------------------------------------------------
        bu = core.branch_unit
        bst = bu.stats
        si[SI_BU_BR] = bst.branches
        si[SI_BU_MIS] = bst.mispredicts
        si[SI_BU_BTBM] = bst.btb_misses
        si[SI_BU_TK] = bst.taken
        gs = bu.predictor
        si[SI_GS_HIST] = gs._history
        pi[PI_HIST_BITS] = gs.history_bits
        pi[PI_HIST_MASK] = ((1 << gs.history_bits) - 1
                            if gs.history_bits else 0)
        pi[PI_GS_MASK] = gs._mask
        self.gs_val = np.ones(gs._mask + 1, dtype=np.int8)
        self.gs_pres = np.zeros(gs._mask + 1, dtype=np.uint8)
        if gs._table:
            idx = np.fromiter(gs._table.keys(), dtype=np.int64,
                              count=len(gs._table))
            val = np.fromiter(gs._table.values(), dtype=np.int8,
                              count=len(gs._table))
            self.gs_val[idx] = val
            self.gs_pres[idx] = 1
        self._set_ptr(P_GS_VAL, self.gs_val)
        self._set_ptr(P_GS_PRES, self.gs_pres)

        lp = bu.loop_predictor
        lp_max = max(1, lp.max_entries)
        pi[PI_LP_MAX] = lp.max_entries
        hsize = _next_pow2(4 * lp_max)
        pi[PI_LP_HMASK] = hsize - 1
        self.lp_slab = np.zeros(lp_max * 4, dtype=np.int64)
        self.lp_order = np.zeros(lp_max, dtype=np.int32)
        self.lp_hkey = np.full(hsize, -1, dtype=np.int64)
        self.lp_hval = np.zeros(hsize, dtype=np.int32)
        si[SI_LP_CNT] = len(lp._table)
        si[SI_LP_TOMB] = 0
        for j, (pc, e) in enumerate(lp._table.items()):
            self.lp_slab[4 * j] = pc
            self.lp_slab[4 * j + 1] = e[0]
            self.lp_slab[4 * j + 2] = e[1]
            self.lp_slab[4 * j + 3] = e[2]
            self.lp_order[j] = j
            hh = _mix(pc) & (hsize - 1)
            while self.lp_hkey[hh] != -1:
                hh = (hh + 1) & (hsize - 1)
            self.lp_hkey[hh] = pc
            self.lp_hval[hh] = j
        self._set_ptr(P_LP_SLAB, self.lp_slab)
        self._set_ptr(P_LP_ORDER, self.lp_order)
        self._set_ptr(P_LP_HKEY, self.lp_hkey)
        self._set_ptr(P_LP_HVAL, self.lp_hval)

        btb = bu.btb
        pi[PI_BTB_MASK] = btb._index_mask
        pi[PI_BTB_WAYS] = btb.ways
        nb = btb.n_sets * btb.ways
        self.btb_key = np.zeros(nb, dtype=np.int64)
        self.btb_tgt = np.zeros(nb, dtype=np.int64)
        self.btb_cnt = np.zeros(btb.n_sets, dtype=np.int32)
        for s_i, bucket in enumerate(btb._sets):
            base = s_i * btb.ways
            self.btb_cnt[s_i] = len(bucket)
            for j, e in enumerate(bucket):
                self.btb_key[base + j] = e[0]
                self.btb_tgt[base + j] = e[1]
        self._set_ptr(P_BTB_KEY, self.btb_key)
        self._set_ptr(P_BTB_TGT, self.btb_tgt)
        self._set_ptr(P_BTB_CNT, self.btb_cnt)

        # -- prefetchers ---------------------------------------------------
        pf_i, pf_d, pf2 = (core.l1i_prefetcher, core.l1d_prefetcher,
                           core.l2_prefetcher)
        si[SI_L1IPF_ISS] = pf_i.stats.issued
        si[SI_L1IPF_PB] = pf_i.stats.page_bounded
        si[SI_L1DPF_ISS] = pf_d.stats.issued
        si[SI_L1DPF_PB] = pf_d.stats.page_bounded
        si[SI_L2PF_ISS] = pf2.stats.issued
        si[SI_L2PF_PB] = pf2.stats.page_bounded
        si[SI_L1IPF_LAST] = pf_i._last_line
        si[SI_L1DPF_LAST] = pf_d._last_line
        pi[PI_SPF_MAX] = pf2.max_streams
        pi[PI_SPF_DEG] = pf2.degree
        spf_cap = max(1, pf2.max_streams)
        self.spf_page = np.zeros(spf_cap, dtype=np.int64)
        self.spf_line = np.zeros(spf_cap, dtype=np.int64)
        si[SI_SPF_CNT] = len(pf2._streams)
        for j, (page, line) in enumerate(pf2._streams.items()):
            self.spf_page[j] = page
            self.spf_line[j] = line
        self._set_ptr(P_SPF_PAGE, self.spf_page)
        self._set_ptr(P_SPF_LINE, self.spf_line)

        # -- DRAM ----------------------------------------------------------
        dram = core.dram
        pi[PI_DRAM_BANKS] = dram.n_banks
        pi[PI_DRAM_ROWSZ] = dram.row_size
        self.dram_rows = np.full(dram.n_banks, -1, dtype=np.int64)
        for bank, row in dram._open_rows.items():
            self.dram_rows[bank] = row
        dst = dram.stats
        self.dram_st = np.array([dst.reads, dst.writes, dst.row_hits,
                                 dst.row_misses, dst.bytes_read,
                                 dst.bytes_written], dtype=np.int64)
        self._set_ptr(P_DRAM_ROWS, self.dram_rows)
        self._set_ptr(P_DRAM_ST, self.dram_st)

        # -- shared-LLC epoch counters ------------------------------------
        # The kernel mirrors SharedLlc.access: bump the epoch total and
        # the slice-hashed bucket on every demand LLC lookup.  The array
        # is the live store while an image exists; writeback copies it
        # into the Python fields (overwrite semantics, so repeated
        # drains are idempotent).  Private LLC: a dummy slot with
        # PI_LLC_SLICES = 0 disables counting in C.
        sll = core.shared_llc
        if sll is None:
            self.llc_epoch = np.zeros(1, dtype=np.int64)
        elif shared_llc_image is not None:
            self.llc_epoch = shared_llc_image.llc_epoch
            pi[PI_LLC_SLICES] = sll.n_slices
        else:
            self.llc_epoch = np.zeros(1 + sll.n_slices, dtype=np.int64)
            self.llc_epoch[0] = sll._accesses_this_epoch
            self.llc_epoch[1:] = sll.slice_accesses
            pi[PI_LLC_SLICES] = sll.n_slices
        self._set_ptr(P_LLC_EPOCH, self.llc_epoch)

        # -- virtual memory ------------------------------------------------
        vst = vm.stats
        si[SI_VM_MIN] = vst.minor_faults
        si[SI_VM_MAJ] = vst.major_faults
        si[SI_VM_MAPPED] = vst.mapped_pages
        si[SI_VM_SEQ] = vm._fault_seq
        si[SI_VM_CNT] = len(vm._mapped)
        frac = vm.major_fault_fraction
        pi[PI_MAJOR_PERIOD] = (max(1, round(1 / frac)) if frac > 0 else 0)
        # The exported page-table hash is the expensive part of an
        # export on page-heavy workloads (SPEC premaps ~10^6 pages), so
        # it is cached on the vm instance keyed by (len, epoch): length
        # catches additions, the epoch catches removals (the one
        # mutation length can miss — see VirtualMemory.unmap_range).
        # After a run the hash holds exactly ``_mapped`` (kernel-added
        # pages are inserted and drained), so consume_stream_native
        # refreshes the key and the next export reuses the arrays.
        key = (len(vm._mapped), vm._map_epoch)
        cached = getattr(vm, "_native_page_hash", None)
        if cached is not None and cached[0] == key:
            _, self.vm_hash, self.vm_log = cached
            pi[PI_VM_HMASK] = len(self.vm_hash) - 1
        else:
            _stats["vm_hash_builds"] += 1
            if _t0 is not None:
                obs.add("native.vm_hash_builds", 1.0)
            # The kernel pauses for _grow_vm before the table passes
            # half load, so twice the live pages (plus headroom) is
            # the smallest table it accepts without an immediate grow.
            cap = _next_pow2(2 * (len(vm._mapped) + 64))
            pi[PI_VM_HMASK] = cap - 1
            self.vm_hash = np.full(cap, -1, dtype=np.int64)
            if vm._mapped:
                keys = np.fromiter(vm._mapped, dtype=np.int64,
                                   count=len(vm._mapped))
                get_lib().repro_vm_build(keys.ctypes.data, len(keys),
                                         self.vm_hash.ctypes.data, cap - 1)
            # Scratch: the kernel writes entries before bumping the
            # count, so the log never needs zero-filling.
            self.vm_log = np.empty(cap, dtype=np.int64)
            vm._native_page_hash = (key, self.vm_hash, self.vm_log)
        self._set_ptr(P_VM_HASH, self.vm_hash)
        self._set_ptr(P_VM_LOG, self.vm_log)

        self._set_ptr(P_SI, si)
        self._set_ptr(P_SD, sd)
        self._set_ptr(P_PD, pd)
        self._set_ptr(P_PI, pi)

        with _live_lock:
            _live_images[id(self)] = self
        if _t0 is not None:
            obs.observe("native.export_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    # ------------------------------------------------------------------
    def _set_ptr(self, slot: int, arr) -> None:
        self.ptab[slot] = arr.ctypes.data
        self._keep.append(arr)

    def _grow_vm(self) -> None:
        old = self.vm_hash
        old_mask = int(self.pi[PI_VM_HMASK])
        cap = (old_mask + 1) * 4
        new = np.full(cap, -1, dtype=np.int64)
        get_lib().repro_vm_rehash(old.ctypes.data, old_mask,
                                  new.ctypes.data, cap - 1)
        self.vm_hash = new
        self.vm_log = np.empty(cap, dtype=np.int64)
        self.pi[PI_VM_HMASK] = cap - 1
        self._set_ptr(P_VM_HASH, new)
        self._set_ptr(P_VM_LOG, self.vm_log)

    def _drain_vm_log(self) -> None:
        n = int(self.si[SI_VM_LOGN])
        if n:
            self.core.vm._mapped.update(self.vm_log[:n].tolist())
            self.si[SI_VM_LOGN] = 0

    def refresh_contention(self) -> None:
        """Re-derive the L3 stall constants from the live contention term.

        ``SharedLlc.update_contention`` runs in Python between epoch
        quanta; the kernel reads ``extra_latency`` only through these
        two doubles, so refreshing them at the epoch boundary gives
        every access in the next quantum the new latency — exactly when
        the legacy per-op ``_llc_extra()`` read would change value.
        The expression shapes match ``_fetch`` and ``_op_mem``.
        """
        core, m = self.core, self.core.machine
        extra = core._llc_extra()
        self.pd[PD_ICACHE_L3] = (m.llc.latency + extra) * self._icache_vis
        self.pd[PD_BE_L3] = (m.llc.latency + extra - m.l2.latency) \
            * self._hidden

    def _drain_llc_epoch(self) -> None:
        """Copy the kernel's epoch counters into the SharedLlc fields."""
        sll = self.core.shared_llc
        if sll is not None:
            ep = self.llc_epoch
            sll._accesses_this_epoch = int(ep[0])
            sll.slice_accesses = ep[1:].tolist()

    def sync_scalars(self) -> None:
        """Publish the cycle-forming scalars without a full writeback.

        Enough for ``core.cycles`` / ``core.counts`` reads between
        multicore quanta (the round loop's epoch arithmetic); caches,
        predictors and VM stay in the arrays until the session closes.
        """
        core = self.core
        sd, si = self.sd, self.si
        core._ideal_cycles = float(sd[SD_IDEAL])
        for k, b in enumerate(self.buckets):
            core.stalls[b] = float(sd[SD_ST0 + k])
        c = core.counts
        c.instructions = int(si[SI_INSTR])
        c.kernel_instructions = int(si[SI_KINSTR])

    # ------------------------------------------------------------------
    def writeback(self) -> None:
        """Reconstruct the Python Core state from the mutated arrays."""
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        core = self.core
        si, sd = self.si, self.sd
        sil = si.tolist()
        c = core.counts
        c.instructions = sil[SI_INSTR]
        c.kernel_instructions = sil[SI_KINSTR]
        c.branches = sil[SI_BRANCHES]
        c.loads = sil[SI_LOADS]
        c.stores = sil[SI_STORES]
        c.dtlb_load_walks = sil[SI_DTLB_LWALK]
        c.dtlb_store_walks = sil[SI_DTLB_SWALK]
        c.itlb_walks = sil[SI_ITLB_WALK]
        c.uops = float(sd[SD_UOPS])
        core._ideal_cycles = float(sd[SD_IDEAL])
        for k, b in enumerate(self.buckets):
            core.stalls[b] = float(sd[SD_ST0 + k])
        core._last_code_line = sil[SI_LAST_CODE_LINE]
        core._last_code_page = sil[SI_LAST_CODE_PAGE]
        core._last_data_vpn = sil[SI_LAST_DATA_VPN]
        core._kernel_mode = bool(sil[SI_KMODE])
        core._next_hook_cycles = float(sd[SD_NEXT_HOOK])

        for k, cache in enumerate(self.caches):
            if k == _C_LLC and not self._llc_owner:
                continue        # the owning image writes the shared LLC
            _import_cache(cache, *self.cache_arrays[k])
            cache._rand_state = sil[SI_RAND0 + k]
        if self._llc_owner:
            self._drain_llc_epoch()
        for k, tlb in enumerate(self.tlbs):
            _import_tlb(tlb, *self.tlb_arrays[k])

        bu = core.branch_unit
        bst = bu.stats
        bst.branches = sil[SI_BU_BR]
        bst.mispredicts = sil[SI_BU_MIS]
        bst.btb_misses = sil[SI_BU_BTBM]
        bst.taken = sil[SI_BU_TK]
        gs = bu.predictor
        gs._history = sil[SI_GS_HIST]
        idx = np.nonzero(self.gs_pres)[0]
        gs._table = dict(zip(idx.tolist(),
                             self.gs_val[idx].tolist()))
        lp = bu.loop_predictor
        slab = self.lp_slab.tolist()
        table = {}
        for j in self.lp_order[:sil[SI_LP_CNT]].tolist():
            table[slab[4 * j]] = [slab[4 * j + 1], slab[4 * j + 2],
                                  slab[4 * j + 3]]
        lp._table = table
        btb = bu.btb
        kl, tl = self.btb_key.tolist(), self.btb_tgt.tolist()
        for s_i, n in enumerate(self.btb_cnt.tolist()):
            base = s_i * btb.ways
            btb._sets[s_i] = [[kl[base + j], tl[base + j]]
                              for j in range(n)]

        pf_i, pf_d, pf2 = (core.l1i_prefetcher, core.l1d_prefetcher,
                           core.l2_prefetcher)
        pf_i.stats.issued = sil[SI_L1IPF_ISS]
        pf_i.stats.page_bounded = sil[SI_L1IPF_PB]
        pf_d.stats.issued = sil[SI_L1DPF_ISS]
        pf_d.stats.page_bounded = sil[SI_L1DPF_PB]
        pf2.stats.issued = sil[SI_L2PF_ISS]
        pf2.stats.page_bounded = sil[SI_L2PF_PB]
        pf_i._last_line = sil[SI_L1IPF_LAST]
        pf_d._last_line = sil[SI_L1DPF_LAST]
        n_spf = sil[SI_SPF_CNT]
        pf2._streams = dict(zip(self.spf_page[:n_spf].tolist(),
                                self.spf_line[:n_spf].tolist()))

        dram = core.dram
        rows = self.dram_rows.tolist()
        dram._open_rows = {b: r for b, r in enumerate(rows) if r != -1}
        dst = dram.stats
        (dst.reads, dst.writes, dst.row_hits, dst.row_misses,
         dst.bytes_read, dst.bytes_written) = self.dram_st.tolist()

        vm = core.vm
        self._drain_vm_log()
        vm.stats.minor_faults = sil[SI_VM_MIN]
        vm.stats.major_faults = sil[SI_VM_MAJ]
        vm.stats.mapped_pages = sil[SI_VM_MAPPED]
        vm._fault_seq = sil[SI_VM_SEQ]

        self._drain_retired(sil)
        if _t0 is not None:
            obs.observe("native.writeback_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    def _drain_retired(self, sil) -> None:
        """Fold the kernel's retirement counters into the module stats.

        Zeroing the slots keeps a second writeback idempotent (the
        BAD-status path writes back before raising, then the caller's
        ``finally`` writes back again), and dropping the image from the
        live registry keeps ``ops_retired()`` from counting the drained
        span twice.
        """
        retired = sil[SI_OPS_RETIRED]
        if retired:
            stats["ops_retired"] += retired
            for k, name in enumerate(OP_KIND_NAMES):
                stats["ops_" + name] += sil[SI_OPK0 + k]
            if obs.enabled():
                obs.add("native.ops_retired", float(retired))
                for k, name in enumerate(OP_KIND_NAMES):
                    if sil[SI_OPK0 + k]:
                        obs.add("native.ops_retired." + name,
                                float(sil[SI_OPK0 + k]))
            self.si[SI_OPS_RETIRED:SI_N] = 0
        with _live_lock:
            _live_images.pop(id(self), None)

    # ------------------------------------------------------------------
    def run_buffer(self, buf, start: int, limit) -> tuple[int, int]:
        """Run the kernel over one trace buffer from ``start``.

        Returns ``(next_pos, status)`` where status is ``_STATUS_DONE``
        (chunk exhausted), ``_STATUS_LIMIT`` (instruction limit reached)
        or ``_STATUS_HOOK`` (the cycle-hook threshold fired: the caller
        must write state back, run the Python hook against the live
        core, and re-enter from ``next_pos``).  Event-hook callbacks are
        replayed from the kernel's event log with the exact cycle stamps
        the legacy engine would have produced.
        """
        lib = get_lib()
        kinds, a0, a1, a2, n_ev = _columns(buf)
        n_ops = len(kinds)
        ptab = self.ptab
        ptab[P_KINDS] = kinds.ctypes.data
        ptab[P_A0] = a0.ctypes.data
        ptab[P_A1] = a1.ctypes.data
        ptab[P_A2] = a2.ctypes.data
        evidx = np.zeros(max(1, n_ev), dtype=np.int64)
        evcyc = np.zeros(max(1, n_ev), dtype=np.float64)
        ptab[P_EVIDX] = evidx.ctypes.data
        ptab[P_EVCYC] = evcyc.ctypes.data
        hook = self.core.event_hook
        events = buf.events
        limit_c = -1 if limit is None else limit
        pos = start
        while True:
            stats["kernel_calls"] += 1
            _t0 = time.perf_counter_ns() if obs.enabled() else None
            status = int(lib.repro_sim_run(ptab, pos, n_ops, limit_c))
            if _t0 is not None:
                obs.add("native.kernel_calls", 1.0)
                obs.observe("native.run_seconds",
                            (time.perf_counter_ns() - _t0) * 1e-9)
            next_pos = int(self.si[SI_NEXT_POS])
            self._drain_vm_log()
            if hook is not None:
                a0l = a0
                for k in range(int(self.si[SI_EV_N])):
                    ev, payload = events[int(a0l[int(evidx[k])])]
                    hook(ev, payload, float(evcyc[k]))
            if status == _STATUS_VM_FULL:
                self._grow_vm()
                pos = next_pos
                continue
            if status == _STATUS_BAD:
                self.writeback()
                raise ValueError(
                    f"unknown op kind {int(kinds[next_pos])!r}")
            return next_pos, status


# ---------------------------------------------------------------------------
# Column extraction (cached on the buffer).

def _columns(buf):
    """Contiguous int64 column arrays for a trace buffer.

    Cached on ``buf._vcols`` keyed by op count, so replayed buffers pay
    the conversion once; ``color_private`` invalidates the cache.
    """
    n = len(buf.kinds)
    cached = buf._vcols
    if cached is not None and cached[0] == n:
        return cached[1]
    kinds = np.ascontiguousarray(np.asarray(buf.kinds, dtype=np.int64))
    a0 = np.ascontiguousarray(np.asarray(buf.a0, dtype=np.int64))
    a1 = np.ascontiguousarray(np.asarray(buf.a1, dtype=np.int64))
    a2 = np.ascontiguousarray(np.asarray(buf.a2, dtype=np.int64))
    n_ev = int(np.count_nonzero(kinds == 4))
    cols = (kinds, a0, a1, a2, n_ev)
    buf._vcols = (n, cols)
    return cols


# ---------------------------------------------------------------------------
# Driver.

def _finish_image(img) -> None:
    """Write an image back and refresh the VM page-hash reuse key.

    After writeback the hash holds exactly ``vm._mapped`` (kernel
    inserts were drained), so the next export reuses the arrays — which
    is what keeps hook-trampoline rebuilds cheap on page-heavy
    workloads.  See CoreImage's vm export.
    """
    img.writeback()
    vm = img.core.vm
    vm._native_page_hash = ((len(vm._mapped), vm._map_epoch),
                            img.vm_hash, img.vm_log)


def consume_stream_native(core, stream, max_instructions=None) -> int:
    """Vector-engine counterpart of ``Core.consume_stream``.

    Callers must have checked :func:`available` and :func:`nativizable`.
    Returns the number of instructions executed, with all core state
    (counters, stalls, caches, predictors, VM) bit-identical to what the
    legacy engine would have produced over the same ops.

    Armed cycle hooks run through the trampoline: the kernel exits with
    ``_STATUS_HOOK`` at the block op that crossed the threshold, state
    is written back, the Python hook runs against the live ``Core``
    (it may read or mutate anything), and the kernel re-enters with a
    fresh image — preserving the legacy hook-before-limit ordering.
    """
    counts = core.counts
    start_instr = counts.instructions
    limit = (start_instr + max_instructions
             if max_instructions is not None else None)
    stats["consume_calls"] += 1
    img = CoreImage(core)
    try:
        while True:
            buf = stream.buffer()
            if buf is None:
                break
            _t0 = time.perf_counter() if obs.enabled() else None
            next_pos, status = img.run_buffer(buf, stream.pos, limit)
            if _t0 is not None:
                obs.observe("sim.consume_buffer_seconds",
                            time.perf_counter() - _t0)
            stream.pos = next_pos
            if status == _STATUS_HOOK:
                stats["hook_exits"] += 1
                if obs.enabled():
                    obs.add("native.hook_exits", 1.0)
                _finish_image(img)
                img = None
                core.cycle_hook(core)
                if limit is not None and counts.instructions >= limit:
                    break
                img = CoreImage(core)
                continue
            if status == _STATUS_LIMIT:
                break
    finally:
        if img is not None:
            _finish_image(img)
    return counts.instructions - start_instr


# ---------------------------------------------------------------------------
# Multicore session: persistent images across interleaved quanta.

class NativeMulticoreSession:
    """Per-core images kept alive across the multicore round loop.

    A fresh export + writeback per 4k-instruction quantum would dominate
    the run (that cost is amortized over ~50x more instructions on the
    single-core path).  The session exports each core once per
    ``MulticoreRunner.run`` call, aliases the shared LLC's arrays (tags,
    flags, counts, stats, epoch counters) into every image so the
    kernels see one coherent LLC, and at quantum boundaries syncs only
    the cycle-forming scalars the round loop reads.  The LLC's eviction
    RNG state lives in per-image scalar slots, so it is carried from the
    core that last ran to the next one.

    ``SharedLlc.update_contention`` stays in Python, unchanged: call
    :meth:`sync_epoch` just before it (publishes + zeroes the epoch
    counters) and :meth:`refresh_contention` right after (re-derives the
    L3 stall constants in every image).

    A cycle hook mid-quantum tears the whole session down (full
    writeback of every core), runs the hook against the live cores, and
    rebuilds — hooks fire every few million cycles, so the rebuild cost
    is noise while correctness is unconditional.
    """

    def __init__(self, cores) -> None:
        self.cores = list(cores)
        self.llc = self.cores[0].shared_llc
        self.images = None
        stats["sessions"] += 1
        self._build()

    def _build(self) -> None:
        primary = CoreImage(self.cores[0])
        self.images = [primary]
        for core in self.cores[1:]:
            self.images.append(CoreImage(core, shared_llc_image=primary))
        self._llc_rand = self.llc.cache._rand_state

    def _teardown(self) -> None:
        owner = self.images[0]
        owner.si[SI_RAND0 + _C_LLC] = self._llc_rand
        for img in self.images:
            _finish_image(img)
        self.images = None

    def close(self) -> None:
        if self.images is not None:
            self._teardown()

    def sync_epoch(self) -> None:
        """Publish epoch counters to the SharedLlc and restart the epoch.

        Call immediately before ``SharedLlc.update_contention`` — which
        consumes and zeroes the Python fields, while the array restarts
        from zero for the next epoch's kernel increments.
        """
        owner = self.images[0]
        owner._drain_llc_epoch()
        owner.llc_epoch[:] = 0

    def refresh_contention(self) -> None:
        """Re-derive every image's L3 constants after update_contention."""
        for img in self.images:
            img.refresh_contention()

    def consume(self, core_index: int, stream, max_instructions: int) -> int:
        """Quantum-interleaved counterpart of ``consume_stream_native``."""
        core = self.cores[core_index]
        img = self.images[core_index]
        start_instr = int(img.si[SI_INSTR])
        limit = start_instr + max_instructions
        img.si[SI_RAND0 + _C_LLC] = self._llc_rand
        stats["consume_calls"] += 1
        while True:
            buf = stream.buffer()
            if buf is None:
                break
            next_pos, status = img.run_buffer(buf, stream.pos, limit)
            stream.pos = next_pos
            if status == _STATUS_HOOK:
                stats["hook_exits"] += 1
                if obs.enabled():
                    obs.add("native.hook_exits", 1.0)
                self._llc_rand = int(img.si[SI_RAND0 + _C_LLC])
                self._teardown()
                core.cycle_hook(core)
                self._build()
                img = self.images[core_index]
                img.si[SI_RAND0 + _C_LLC] = self._llc_rand
                if core.counts.instructions >= limit:
                    break
                continue
            if status == _STATUS_LIMIT:
                break
        self._llc_rand = int(img.si[SI_RAND0 + _C_LLC])
        img.sync_scalars()
        return int(img.si[SI_INSTR]) - start_instr


def multicore_session(cores):
    """A :class:`NativeMulticoreSession` when every core qualifies for
    it, else ``None`` (callers then consume per quantum through
    ``Core.consume_stream``, which counts the delegation)."""
    if not available() or not cores:
        return None
    llc = cores[0].shared_llc
    if llc is None:
        return None
    if not all(c.shared_llc is llc for c in cores):
        return None
    if not all(nativizable(c) for c in cores):
        return None
    return NativeMulticoreSession(cores)
