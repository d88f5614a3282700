"""Native consume backend (``engine="vector"``): build + state marshalling.

The vector engine — the default — runs the per-op simulation loop in a
small C kernel (``_kernel.c``) compiled on first use with the system
compiler and loaded via ctypes.  Python owns every byte of simulator
state as numpy arrays: :class:`CoreImage` exports a
:class:`~repro.uarch.pipeline.Core` into flat arrays that the kernel
mutates in place, and results are bit-identical to the legacy engine,
the reference interpreter.  The same library carries trace
generation's region layout and walk (``repro/_walk.c``, see
:mod:`repro.codegen` and :func:`generator`): two sources, one build,
one cache entry.

**Resident images: books and structure.**  A core is exported once, on
its first native consume, and its image stays attached to it (as
``core._image``) across consume calls, ``reset_stats``, cycle-hook
exits and multicore quanta.  The core's state splits in two:

* The *books* — counts, stall buckets, ideal cycles, every ``.stats``,
  the cycle-hook threshold, the cache RNG states and the shared LLC's
  epoch counters — are what ``collect_counters``, ``profile_core``,
  ``reset_stats``, ``MulticoreResult`` and the sampler read or reset.
  They are synced in both directions at every return to Python (one
  table, :meth:`CoreImage._books`), so Python may read and mutate them
  freely between kernel runs.  The VM's page set is kept current too:
  the kernel logs its inserts, and a page set changed from Python
  (``premap_range``) is rehashed on the next entry.
* The *structure* — cache and TLB sets, gshare, loop and BTB tables,
  prefetch streams, DRAM rows and the last-line scalars — lives only in
  the image.  The Python attributes hold a :class:`Resident` placeholder
  whose every use raises :class:`StaleStructureError`, until
  :func:`release` writes the structure back (including dict insertion
  order where it is semantically observable) and detaches the image.
  The legacy interpreter calls it before it runs a core.

Two stateful-callback cases run natively via resume protocols rather
than falling back:

* **Cycle hooks** (the sampler) use a trampoline: the kernel tracks
  ``next_hook_cycles`` and exits with a ``HOOK`` status at the block op
  that crossed the threshold; the driver syncs the books, runs the
  Python hook against the live ``Core``, syncs them back and re-enters
  the kernel.  A hook that needs structure calls :func:`release`; the
  driver then re-exports before it re-enters.
* **The shared LLC** (multicore) is one set of arrays aliased into
  every image of a core that shares it: slice-hashed epoch counters
  and the contention-folded L3 latency live in C, while Python's M/M/1
  ``update_contention`` runs unchanged on the synced epoch counters
  between quanta.

When the kernel is unavailable (no compiler, ``REPRO_NATIVE=0``) or the
core uses a configuration the kernel does not model (subclassed shared
LLC, JIT metadata reactions, non-stock geometry), the run delegates to
the legacy interpreter: same results, 11-35x slower.  Without the
kernel, trace generation's walks delegate to the Python reference walk
too.  Delegation is never silent — each delegated consume call or walk
is counted in :data:`delegations` (and the
``native.delegations{reason=...}`` metric) and the first is warned
about once per process; :func:`last_error` keeps the reason the kernel
failed to load.  Under ``REPRO_NATIVE=require`` it raises
:class:`DelegationError` instead, for CI and benchmarks.
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
import weakref

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

# Book fields, in kernel slot order (see CoreImage._books).
_COUNT_FIELDS = ("instructions", "kernel_instructions", "branches",
                 "loads", "stores", "dtlb_load_walks", "dtlb_store_walks",
                 "itlb_walks")
_CACHE_STAT_FIELDS = ("accesses", "misses", "demand_accesses",
                      "demand_misses", "prefetch_fills", "useful_prefetches",
                      "useless_prefetches", "evictions", "writebacks")
_TLB_STAT_FIELDS = ("accesses", "misses", "walks")
_BRANCH_STAT_FIELDS = ("branches", "mispredicts", "btb_misses", "taken")
_PF_STAT_FIELDS = ("issued", "page_bounded")
_DRAM_STAT_FIELDS = ("reads", "writes", "row_hits", "row_misses",
                     "bytes_read", "bytes_written")
_VM_STAT_FIELDS = ("minor_faults", "major_faults", "mapped_pages")

# The int books the kernel reaches through their own pointers share one
# array per image (so a sync is one numpy op): 5 x cache stats, 3 x TLB
# stats, the DRAM stats, then [epoch_total, slice_0..slice_{n-1}].
IB_TLB0 = _NCACHE * len(_CACHE_STAT_FIELDS)
IB_DRAM = IB_TLB0 + _NTLB * len(_TLB_STAT_FIELDS)
IB_EPOCH = IB_DRAM + len(_DRAM_STAT_FIELDS)

(_STATUS_DONE, _STATUS_LIMIT, _STATUS_VM_FULL,
 _STATUS_HOOK, _STATUS_BAD) = 0, 1, 2, 3, -1

#: Kernel-entry telemetry for the fallback/guard tests: proves a config
#: really took the native path (and how) without instrumenting the hot
#: loop.  Monotonic per process; tests diff around a call.  ``exports``
#: counts :class:`CoreImage` constructions (one per core and run while
#: images stay resident).  The ``ops_*`` keys are retirement counters
#: the kernel itself increments (one aligned int64 add per op) and every
#: book sync drains here; ``vm_hash_builds`` counts page-hash builds
#: from ``vm._mapped`` (at export, and on entry after Python changed
#: the page set).
stats = {"consume_calls": 0, "kernel_calls": 0, "hook_exits": 0,
         "exports": 0, "ops_retired": 0, "vm_hash_builds": 0,
         "ops_block": 0, "ops_branch": 0, "ops_load": 0,
         "ops_store": 0, "ops_event": 0}

#: Kernel dispatch order: index ``k`` maps to ``stats["ops_<name>"]``
#: and the ``SI_OPK0 + k`` retirement slot.  Must match ``_kernel.c``.
OP_KIND_NAMES = ("block", "branch", "load", "store", "event")

# Images attached to a core.  ``ops_retired()`` folds their live slots
# into the drained totals.  Weak, so a discarded core's image is freed
# with it; its slots were drained at its last book sync.
_live_lock = threading.Lock()
_live_images: "weakref.WeakSet[CoreImage]" = weakref.WeakSet()


def ops_retired() -> int:
    """Total trace ops the kernel has retired in this process.

    Safe (and cheap) to poll from another thread mid-run: the ctypes
    call into the kernel releases the GIL, and the kernel's increments
    are aligned int64 stores, so the live-slot reads are tear-free on
    every supported target.  Book syncs drain the slots into ``stats``
    under the same lock, so the sum is monotonic and never
    double-counts.
    """
    with _live_lock:
        live = sum(int(img.si[SI_OPS_RETIRED]) for img in _live_images)
        return stats["ops_retired"] + live

# ---------------------------------------------------------------------------
# Kernel build & load.

_HERE = os.path.dirname(os.path.abspath(__file__))
#: The library's two translation units: the consume kernel and the
#: code-region walker (:mod:`repro.codegen`'s native twin).
_SOURCES = (os.path.join(_HERE, "_kernel.c"),
            os.path.join(os.path.dirname(_HERE), "_walk.c"))
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
_LDLIBS = ["-lm"]

_lib = None
_lib_resolved = False
_lib_error: str | None = None
_lib_lock = threading.Lock()

#: ``engine="vector"`` consume calls that ran on the legacy interpreter,
#: by reason: ``unavailable`` (no kernel; region walks that ran on the
#: Python walker count here too) or ``not_nativizable`` (a core
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
    srcs = []
    for path in _SOURCES:
        with open(path, "rb") as f:
            srcs.append(f.read())
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-posix
        uid = 0
    cache_dir = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    flags = " ".join(_CFLAGS + _LDLIBS).encode()
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
        # sources, flags, and the compiler's identity.
        tag = hashlib.sha256(b"\0".join((*srcs, flags, ident))) \
            .hexdigest()[:16]
        candidate = os.path.join(cache_dir, f"kernel-{tag}.so")
        if os.path.exists(candidate):
            so_path = candidate
            break
        tmp = f"{candidate}.tmp.{os.getpid()}"
        try:
            res = subprocess.run([cc, *_CFLAGS, "-o", tmp, *_SOURCES,
                                  *_LDLIBS],
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


class DelegationError(RuntimeError):
    """An ``engine="vector"`` run would delegate under
    ``REPRO_NATIVE=require``."""


def note_delegation(reason: str, walk: bool = False) -> None:
    """Count one delegated consume call (or, with ``walk``, one region
    walk on the Python walker); warn on the first per process.

    Under ``REPRO_NATIVE=require`` raise :class:`DelegationError`
    instead, naming the reason and :func:`last_error`, so a run that
    would silently take the 11-35x slower interpreter fails.
    """
    global _delegation_warned
    delegations[reason] += 1
    if obs.enabled():
        obs.add(labeled("native.delegations", reason=reason))
    fallback = "engine 'vector' is running on the legacy interpreter"
    if reason == "unavailable":
        detail = last_error()
        fallback += " and trace generation on the Python walker"
    else:
        detail = "core configuration outside the kernel's model"
    if os.environ.get("REPRO_NATIVE") == "require":
        what = ("trace generation would run on the Python walker" if walk
                else "engine 'vector' would run on the legacy interpreter")
        raise DelegationError(
            f"{what} ({reason}: {detail}) and REPRO_NATIVE=require "
            f"forbids it; native.last_error() = {last_error()!r}")
    if not _delegation_warned:
        _delegation_warned = True
        warnings.warn(
            f"{fallback} ({reason}: {detail}); results are identical but "
            f"11-35x slower", RuntimeWarning, stacklevel=3)


_generator = (None, None)


def generator():
    """The kernel library bound for trace generation — ``repro_layout``
    and ``repro_walk`` of ``_walk.c`` — or ``None`` when the kernel is
    unavailable.

    Resolved at the first code region, through the same build and cache
    as the consume kernel.  Bound through :class:`ctypes.PyDLL`: a
    layout or a walk takes microseconds and never calls back into
    Python, so it keeps the GIL rather than release and re-take it
    around every call.
    """
    global _generator
    lib = get_lib()
    if lib is None:
        return None
    bound_to, gen = _generator
    if bound_to is not lib:
        gen = ctypes.PyDLL(lib._name)
        ll, vp, dbl = ctypes.c_longlong, ctypes.c_void_p, ctypes.c_double
        gen.repro_layout.restype = ll
        gen.repro_layout.argtypes = [ll] * 6 + [dbl] * 6 + [vp, vp]
        gen.repro_walk.restype = ll
        gen.repro_walk.argtypes = [vp, vp, vp, vp, ll, ll, ll, ll, vp]
        _generator = (lib, gen)
    return gen


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
    return tags, flags, cnt


def _import_cache(cache, tags, flags, cnt):
    ways = cache.ways
    tl, fl, cl = tags.tolist(), flags.tolist(), cnt.tolist()
    sets = []
    lines = set()
    for si in range(cache.n_sets):
        base = si * ways
        bucket = []
        for k in range(base, base + cl[si]):
            t, f = tl[k], fl[k]
            bucket.append([t, bool(f & 1), bool(f & 2), bool(f & 4)])
            lines.add(t)
        sets.append(bucket)
    cache._sets = sets
    cache._lines = lines


def _export_tlb(tlb):
    vpns = np.zeros(tlb.n_sets * tlb.ways, dtype=np.int64)
    cnt = _export_assoc(tlb._sets, tlb.n_sets, tlb.ways, vpns, None)
    return vpns, cnt


def _import_tlb(tlb, vpns, cnt):
    ways = tlb.ways
    vl, cl = vpns.tolist(), cnt.tolist()
    sets = [vl[si * ways:si * ways + cl[si]] for si in range(tlb.n_sets)]
    tlb._sets = sets
    tlb._resident = {v for bucket in sets for v in bucket}


# ---------------------------------------------------------------------------
# Resident structure.

class StaleStructureError(RuntimeError):
    """Python used core structure that lives in a native image."""


class Resident:
    """Placeholder for core structure that lives in a native image.

    Export swaps it in for every structure attribute it copies into the
    image, so Python never reads a stale copy: any use raises
    :class:`StaleStructureError` until :func:`release` writes the image
    back.  Only the LLC's placeholder has a ``home``: the
    :class:`_LlcShare` whose arrays the next core sharing that LLC
    aliases.
    """

    __slots__ = ("home",)

    def __init__(self, home=None) -> None:
        self.home = home

    def __repr__(self) -> str:
        return "<structure resident in a native image>"

    def _stale(self, *args, **kwargs):
        raise StaleStructureError(
            "core structure is resident in a native kernel image; call "
            "repro.uarch.native.release(core) before using it from Python")

    __getattr__ = __len__ = __iter__ = __contains__ = _stale
    __getitem__ = __setitem__ = __delitem__ = _stale
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = _stale
    __bool__ = __int__ = __index__ = __float__ = _stale
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _stale
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = _stale
    __lshift__ = __rshift__ = __reduce_ex__ = _stale


RESIDENT = Resident()


class _LlcShare:
    """One LLC's structure arrays and the attached images aliasing them.

    A private LLC has one member.  A
    :class:`~repro.uarch.multicore.SharedLlc` has one per resident core,
    so every kernel sees one coherent LLC whichever core runs.  The
    LLC's books (stats, RNG state, epoch counters) are per image and
    move between cores through Python, like every other book.
    """

    __slots__ = ("arrays", "members")

    def __init__(self, arrays) -> None:
        self.arrays = arrays          # (tags, flags, cnt)
        self.members: list[CoreImage] = []


# ---------------------------------------------------------------------------
# Core state image.

class CoreImage:
    """Flat-array image of a Core's state, resident on the core.

    ``__init__`` exports structure and books and attaches the image as
    ``core._image``; :meth:`push_books` and :meth:`pull_books` sync the
    books at every kernel entry and return to Python; ``run_buffer``
    runs the kernel; ``writeback`` writes the structure back and
    detaches.  Derived stall constants are evaluated with the *same
    expression shapes* the legacy per-op code uses, so the doubles the
    kernel accumulates are bit-identical.

    Cores sharing one :class:`~repro.uarch.multicore.SharedLlc` alias
    one set of LLC structure arrays (tags/flags/cnt): the first core
    exported creates them, later ones find them through the LLC's
    :class:`Resident` placeholder.
    """

    def __init__(self, core) -> None:
        from repro.uarch.pipeline import ALL_BUCKETS
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        stats["exports"] += 1
        self.core = core
        self.buckets = ALL_BUCKETS
        self.si = np.zeros(SI_N, dtype=np.int64)
        self.sd = np.zeros(SD_N, dtype=np.float64)
        self.pd = np.zeros(PD_N, dtype=np.float64)
        self.pi = np.zeros(PI_N, dtype=np.int64)
        self.ptab = (ctypes.c_void_p * P_N)()
        self._keep = {}            # pointer-table slot -> array it points at

        si, pi = self.si, self.pi

        # -- core scalars --------------------------------------------------
        si[SI_LAST_CODE_LINE] = core._last_code_line
        si[SI_LAST_CODE_PAGE] = core._last_code_page
        si[SI_LAST_DATA_VPN] = core._last_data_vpn
        si[SI_KMODE] = int(core._kernel_mode)

        # -- int books the kernel reaches by pointer (see IB_*) -----------
        sll = core.shared_llc
        n_slices = sll.n_slices if sll is not None else 0
        self.ib = np.zeros(IB_EPOCH + 1 + n_slices, dtype=np.int64)
        nc, nt = len(_CACHE_STAT_FIELDS), len(_TLB_STAT_FIELDS)

        # -- caches (the LLC's arrays may be another core's) ---------------
        self.caches = (core.l1i, core.l1d, core.l2, core.llc, core.dsb)
        home = core.llc._sets
        share = home.home if isinstance(home, Resident) \
            else _LlcShare(_export_cache(core.llc))
        share.members.append(self)
        self.llc_share = share
        self.cache_arrays = []
        for k, cache in enumerate(self.caches):
            arrays = share.arrays if k == _C_LLC else _export_cache(cache)
            self.cache_arrays.append(arrays)
            for j, arr in enumerate(arrays):
                self._set_ptr(P_CACHE0 + 4 * k + j, arr)
            self._set_ptr(P_CACHE0 + 4 * k + 3,
                          self.ib[k * nc:(k + 1) * nc])
            pi[PI_CACHE0 + 4 * k] = cache._index_mask
            pi[PI_CACHE0 + 4 * k + 1] = cache.ways
            pi[PI_CACHE0 + 4 * k + 2] = int(cache._lru)
            pi[PI_CACHE0 + 4 * k + 3] = int(cache._evict_head)

        # -- TLBs ---------------------------------------------------------
        self.tlbs = (core.itlb.l1, core.dtlb.l1, core.itlb.stlb)
        self.tlb_arrays = []
        for k, tlb in enumerate(self.tlbs):
            arrays = _export_tlb(tlb)
            self.tlb_arrays.append(arrays)
            for j, arr in enumerate(arrays):
                self._set_ptr(P_TLB0 + 3 * k + j, arr)
            at = IB_TLB0 + k * nt
            self._set_ptr(P_TLB0 + 3 * k + 2, self.ib[at:at + nt])
            pi[PI_TLB0 + 2 * k] = tlb._index_mask
            pi[PI_TLB0 + 2 * k + 1] = tlb.ways

        # -- branch unit ---------------------------------------------------
        bu = core.branch_unit
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
        self._set_ptr(P_DRAM_ROWS, self.dram_rows)
        self._set_ptr(P_DRAM_ST, self.ib[IB_DRAM:IB_EPOCH])

        # -- shared-LLC epoch counters ------------------------------------
        # The kernel mirrors SharedLlc.access: bump the epoch total and
        # the slice-hashed bucket on every demand LLC lookup.  Private
        # LLC: a dummy slot with PI_LLC_SLICES = 0 disables counting.
        pi[PI_LLC_SLICES] = n_slices
        self._set_ptr(P_LLC_EPOCH, self.ib[IB_EPOCH:])

        # -- virtual memory ------------------------------------------------
        frac = core.vm.major_fault_fraction
        pi[PI_MAJOR_PERIOD] = (max(1, round(1 / frac)) if frac > 0 else 0)
        self._build_vm_hash()

        self._set_ptr(P_SI, si)
        self._set_ptr(P_SD, self.sd)
        self._set_ptr(P_PD, self.pd)
        self._set_ptr(P_PI, pi)
        # Flat slot indices per array, in table order: each sync is one
        # fancy-indexed read or write per array.
        rows = self._books()
        self._plan = []
        for arr in (self.si, self.sd, self.ib):
            idx = [slot + j for _, fields, a, slot in rows if a is arr
                   for j in range(len(fields))]
            self._plan.append((arr, np.array(idx, dtype=np.intp)))
        self.push_books()
        self._make_resident()
        core._image = self
        with _live_lock:
            _live_images.add(self)
        if _t0 is not None:
            obs.observe("native.export_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    # ------------------------------------------------------------------
    def _set_ptr(self, slot: int, arr) -> None:
        self.ptab[slot] = arr.ctypes.data
        self._keep[slot] = arr

    def _books(self):
        """The books, as ``(owner, fields, array, first slot)`` rows.

        Everything Python reads or resets between kernel runs: counts,
        ideal cycles, stall buckets, the cycle-hook threshold, every
        ``.stats``, the cache RNG states and the shared LLC's epoch
        counters (the shared LLC's books move from core to core through
        Python).  Owners are looked up on every sync, since
        ``reset_stats`` swaps in new objects; a dict or list owner is
        indexed by its fields.  Rows are grouped by array, in the order
        of ``self._plan``.  Export and both sync directions use this
        table.
        """
        core = self.core
        si, sd, ib = self.si, self.sd, self.ib
        c = core.counts
        rows = [
            (c, _COUNT_FIELDS, si, SI_INSTR),
            (core.branch_unit.stats, _BRANCH_STAT_FIELDS, si, SI_BU_BR),
            (core.l1i_prefetcher.stats, _PF_STAT_FIELDS, si, SI_L1IPF_ISS),
            (core.l1d_prefetcher.stats, _PF_STAT_FIELDS, si, SI_L1DPF_ISS),
            (core.l2_prefetcher.stats, _PF_STAT_FIELDS, si, SI_L2PF_ISS),
            (core.vm.stats, _VM_STAT_FIELDS, si, SI_VM_MIN),
            (core.vm, ("_fault_seq",), si, SI_VM_SEQ),
        ]
        for k, cache in enumerate(self.caches):
            rows.append((cache, ("_rand_state",), si, SI_RAND0 + k))
        rows += [
            (c, ("uops",), sd, SD_UOPS),
            (core, ("_ideal_cycles",), sd, SD_IDEAL),
            (core.stalls, self.buckets, sd, SD_ST0),
            (core, ("_next_hook_cycles",), sd, SD_NEXT_HOOK),
        ]
        nc, nt = len(_CACHE_STAT_FIELDS), len(_TLB_STAT_FIELDS)
        for k, cache in enumerate(self.caches):
            rows.append((cache.stats, _CACHE_STAT_FIELDS, ib, k * nc))
        for k, tlb in enumerate(self.tlbs):
            rows.append((tlb.stats, _TLB_STAT_FIELDS, ib, IB_TLB0 + k * nt))
        rows.append((core.dram.stats, _DRAM_STAT_FIELDS, ib, IB_DRAM))
        sll = core.shared_llc
        if sll is not None:
            rows.append((sll, ("_accesses_this_epoch",), ib, IB_EPOCH))
            rows.append((sll.slice_accesses, range(sll.n_slices), ib,
                         IB_EPOCH + 1))
        return rows

    def push_books(self) -> None:
        """Python -> image, at a kernel entry.

        Besides the books this reloads what they derive from (hints,
        hook interval, the shared LLC's contention term) and rehashes
        the page set if Python changed it since the last return.
        """
        vals = []
        for owner, fields, _, _ in self._books():
            if isinstance(owner, (dict, list)):
                vals += [owner[f] for f in fields]
            else:
                vals += [getattr(owner, f) for f in fields]
        pos = 0
        for arr, idx in self._plan:
            arr[idx] = vals[pos:pos + len(idx)]
            pos += len(idx)
        self._load_params()
        vm = self.core.vm
        if (len(vm._mapped), vm._map_epoch) != self._vm_key:
            self._build_vm_hash()

    def pull_books(self) -> None:
        """Image -> Python, at a return to Python; drains the
        retirement counters."""
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        vals = []
        for arr, idx in self._plan:
            vals += arr[idx].tolist()
        pos = 0
        for owner, fields, _, _ in self._books():
            end = pos + len(fields)
            if isinstance(owner, (dict, list)):
                for f, v in zip(fields, vals[pos:end]):
                    owner[f] = v
            else:
                for f, v in zip(fields, vals[pos:end]):
                    setattr(owner, f, v)
            pos = end
        self._drain_retired()
        if _t0 is not None:
            obs.observe("native.sync_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    def _load_params(self) -> None:
        """Derive the kernel's constants in the legacy expression shapes.

        The L3 latencies fold in the shared LLC's current contention
        term (0.0 for a private LLC) with the shapes of ``_fetch`` and
        ``_op_mem``.  The kernel reads ``extra_latency`` only through
        these two doubles, and this runs at every entry, so each
        multicore quantum sees the latency ``update_contention`` set
        before it — exactly when the legacy per-op ``_llc_extra()``
        read changes value.
        """
        core = self.core
        m, h, pd = core.machine, core.hints, self.pd
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
        extra = core._llc_extra()
        pd[PD_ICACHE_L2] = m.l2.latency * icache_vis
        pd[PD_ICACHE_L3] = (m.llc.latency + extra) * icache_vis
        pd[PD_ICACHE_DRAM] = m.dram_latency * icache_vis
        pd[PD_L1_HIT] = m.l1d.latency * core.L1_VISIBLE
        pd[PD_BE_L2] = (m.l2.latency - m.l1d.latency) * hidden
        pd[PD_BE_L3] = (m.llc.latency + extra - m.l2.latency) * hidden
        pd[PD_BE_DRAM] = (m.dram_latency - m.llc.latency) * hidden
        # Cycle-hook trampoline: the kernel checks the threshold (a
        # single `if`, like _op_block) and exits with _STATUS_HOOK.
        pd[PD_HOOK_INTERVAL] = core.cycle_hook_interval
        pd[PD_STORE_PEN] = core.STORE_MISS_PENALTY
        pd[PD_MIS_PEN] = float(m.mispredict_penalty)
        pd[PD_RESTEER_PEN] = float(m.btb_resteer_penalty)
        pd[PD_TAKEN_BUBBLE] = core.TAKEN_BRANCH_BUBBLE
        pd[PD_PF_DRAM] = m.dram_latency * 0.22 / h.mlp
        pd[PD_MINOR_FAULT] = float(core.vm.MINOR_FAULT_CYCLES)
        pd[PD_MAJOR_FAULT] = float(core.vm.MAJOR_FAULT_CYCLES)

    def _build_vm_hash(self) -> None:
        """Hash ``vm._mapped`` into a fresh open-addressed table.

        The kernel pauses for :meth:`_grow_vm` before the table passes
        half load, so twice the live pages (plus headroom) is the
        smallest table it accepts without an immediate grow.
        """
        vm = self.core.vm
        stats["vm_hash_builds"] += 1
        if obs.enabled():
            obs.add("native.vm_hash_builds", 1.0)
        n = len(vm._mapped)
        cap = _next_pow2(2 * (n + 64))
        self.pi[PI_VM_HMASK] = cap - 1
        self.vm_hash = np.full(cap, -1, dtype=np.int64)
        if n:
            keys = np.fromiter(vm._mapped, dtype=np.int64, count=n)
            get_lib().repro_vm_build(keys.ctypes.data, n,
                                     self.vm_hash.ctypes.data, cap - 1)
        # Scratch: the kernel writes entries before bumping the count,
        # so the log never needs zero-filling.
        self.vm_log = np.empty(cap, dtype=np.int64)
        self.si[SI_VM_CNT] = n
        self._set_ptr(P_VM_HASH, self.vm_hash)
        self._set_ptr(P_VM_LOG, self.vm_log)
        # Length catches additions, the epoch catches removals (the one
        # mutation length can miss — see VirtualMemory.unmap_range).
        self._vm_key = (n, vm._map_epoch)

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
        """Add the kernel's page inserts to ``vm._mapped``, which then
        holds exactly what the hash does."""
        n = int(self.si[SI_VM_LOGN])
        if n:
            vm = self.core.vm
            vm._mapped.update(self.vm_log[:n].tolist())
            self.si[SI_VM_LOGN] = 0
            self._vm_key = (len(vm._mapped), vm._map_epoch)

    def _drain_retired(self) -> None:
        """Fold the kernel's retirement counters into the module stats.

        Under the registry lock, and zeroing the slots, so
        ``ops_retired()`` never counts a span twice or misses it, and a
        repeated drain is a no-op.
        """
        with _live_lock:
            slots = self.si[SI_OPS_RETIRED:SI_N].tolist()
            if not slots[0]:
                return
            stats["ops_retired"] += slots[0]
            for k, name in enumerate(OP_KIND_NAMES):
                stats["ops_" + name] += slots[1 + k]
            self.si[SI_OPS_RETIRED:SI_N] = 0
        if obs.enabled():
            obs.add("native.ops_retired", float(slots[0]))
            for k, name in enumerate(OP_KIND_NAMES):
                if slots[1 + k]:
                    obs.add("native.ops_retired." + name,
                            float(slots[1 + k]))

    def _make_resident(self) -> None:
        """Swap :class:`Resident` placeholders in for the exported
        structure, so a Python read can never see a stale copy."""
        core = self.core
        for k, cache in enumerate(self.caches):
            if k == _C_LLC:
                if isinstance(cache._sets, Resident):
                    continue          # a core sharing it already did
                cache._sets = Resident(self.llc_share)
            else:
                cache._sets = RESIDENT
            cache._lines = RESIDENT
        for tlb in self.tlbs:
            tlb._sets = tlb._resident = RESIDENT
        bu = core.branch_unit
        bu.predictor._table = bu.predictor._history = RESIDENT
        bu.loop_predictor._table = RESIDENT
        bu.btb._sets = RESIDENT
        core.l1i_prefetcher._last_line = RESIDENT
        core.l1d_prefetcher._last_line = RESIDENT
        core.l2_prefetcher._streams = RESIDENT
        core.dram._open_rows = RESIDENT
        core._last_code_line = core._last_code_page = RESIDENT
        core._last_data_vpn = core._kernel_mode = RESIDENT

    # ------------------------------------------------------------------
    def writeback(self) -> None:
        """Write the structure back into the Python objects and detach.

        Covers every image sharing this one's LLC, since they alias one
        set of LLC arrays.  Books are left alone: Python holds them
        whenever the kernel is not running.  A detached image only
        drains its retirement counters.
        """
        share = self.llc_share
        if self not in share.members:
            self._drain_retired()
            return
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        for img in share.members:
            img._write_structure()
        _import_cache(self.caches[_C_LLC], *share.arrays)
        share.members.clear()
        if _t0 is not None:
            obs.observe("native.writeback_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    def _write_structure(self) -> None:
        """This image's private structure back to Python; detach."""
        core = self.core
        sil = self.si.tolist()
        core._last_code_line = sil[SI_LAST_CODE_LINE]
        core._last_code_page = sil[SI_LAST_CODE_PAGE]
        core._last_data_vpn = sil[SI_LAST_DATA_VPN]
        core._kernel_mode = bool(sil[SI_KMODE])
        for k, cache in enumerate(self.caches):
            if k != _C_LLC:
                _import_cache(cache, *self.cache_arrays[k])
        for k, tlb in enumerate(self.tlbs):
            _import_tlb(tlb, *self.tlb_arrays[k])

        bu = core.branch_unit
        gs = bu.predictor
        gs._history = sil[SI_GS_HIST]
        idx = np.nonzero(self.gs_pres)[0]
        gs._table = dict(zip(idx.tolist(), self.gs_val[idx].tolist()))
        slab = self.lp_slab.tolist()
        table = {}
        for j in self.lp_order[:sil[SI_LP_CNT]].tolist():
            table[slab[4 * j]] = [slab[4 * j + 1], slab[4 * j + 2],
                                  slab[4 * j + 3]]
        bu.loop_predictor._table = table
        btb = bu.btb
        kl, tl = self.btb_key.tolist(), self.btb_tgt.tolist()
        btb._sets = [[[kl[base + j], tl[base + j]] for j in range(n)]
                     for base, n in zip(range(0, len(kl), btb.ways),
                                        self.btb_cnt.tolist())]

        core.l1i_prefetcher._last_line = sil[SI_L1IPF_LAST]
        core.l1d_prefetcher._last_line = sil[SI_L1DPF_LAST]
        n_spf = sil[SI_SPF_CNT]
        core.l2_prefetcher._streams = dict(zip(
            self.spf_page[:n_spf].tolist(), self.spf_line[:n_spf].tolist()))
        core.dram._open_rows = {b: r for b, r in
                                enumerate(self.dram_rows.tolist())
                                if r != -1}
        self._drain_retired()
        with _live_lock:
            _live_images.discard(self)
        core._image = None

    # ------------------------------------------------------------------
    def run_buffer(self, buf, start: int, limit) -> tuple[int, int]:
        """Run the kernel over one trace buffer from ``start``.

        Returns ``(next_pos, status)`` where status is ``_STATUS_DONE``
        (chunk exhausted), ``_STATUS_LIMIT`` (instruction limit reached)
        or ``_STATUS_HOOK`` (the cycle-hook threshold fired: the caller
        must sync the books out, run the Python hook against the live
        core, sync them back in and re-enter from ``next_pos``).
        Event-hook callbacks are replayed from the kernel's event log
        with the exact cycle stamps the legacy engine would have
        produced.
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
                raise ValueError(
                    f"unknown op kind {int(kinds[next_pos])!r}")
            return next_pos, status


# ---------------------------------------------------------------------------
# Column extraction (cached on the buffer).

def _columns(buf):
    """Contiguous int64 column arrays for a trace buffer.

    Zero-copy views of int64 columns (generated ``array('q')`` columns
    and replayed ``memoryview`` ones); a replayed chunk's uint8 opcode
    column is the one conversion.  Cached on ``buf._vcols`` keyed by op
    count, so hook re-entries and replays pay it once;
    ``color_private`` invalidates the cache.
    """
    n = len(buf.kinds)
    cached = buf._vcols
    if cached is not None and cached[0] == n:
        return cached[1]
    kinds, a0, a1, a2 = (np.ascontiguousarray(col, dtype=np.int64)
                         for col in (buf.kinds, buf.a0, buf.a1, buf.a2))
    n_ev = int(np.count_nonzero(kinds == 4))
    cols = (kinds, a0, a1, a2, n_ev)
    buf._vcols = (n, cols)
    return cols


# ---------------------------------------------------------------------------
# Driver.

def release(core) -> None:
    """Write native-resident structure back into ``core``'s Python objects.

    Detaches ``core``'s image, and every image sharing its LLC (they
    alias one set of LLC arrays), so Python may read or change any
    structure and the legacy interpreter may run the core.  The next
    native consume exports again.  A no-op when nothing ``core`` can
    reach is resident.
    """
    img = core._image
    if img is None:
        home = getattr(core.llc, "_sets", None)
        if not isinstance(home, Resident):
            return
        img = home.home.members[0]
    img.writeback()


def _enter(core) -> CoreImage:
    """``core``'s resident image with the books pushed in, exported on
    first use."""
    img = core._image
    if img is None:
        return CoreImage(core)
    img.push_books()
    return img


def consume_stream_native(core, stream, max_instructions=None) -> int:
    """Vector-engine counterpart of ``Core.consume_stream``.

    Callers must have checked :func:`available` and :func:`nativizable`.
    Returns the number of instructions executed.  The core's image is
    exported on its first call and stays resident; the books are pushed
    in at entry and pulled out at every return to Python, so counters,
    stalls and stats read bit-identical to what the legacy engine would
    have produced, while the structure stays in the image until
    :func:`release`.

    Armed cycle hooks run through the trampoline: the kernel exits with
    ``_STATUS_HOOK`` at the block op that crossed the threshold, the
    books are pulled, the Python hook runs against the live ``Core``
    (it may read and change the books; structure needs
    :func:`release`, and the core is then exported again), and the
    books are pushed back before the kernel re-enters — preserving the
    legacy hook-before-limit ordering.
    """
    counts = core.counts
    start_instr = counts.instructions
    limit = (start_instr + max_instructions
             if max_instructions is not None else None)
    stats["consume_calls"] += 1
    img = _enter(core)
    in_kernel = True            # the image holds the live books
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
                in_kernel = False
                img.pull_books()
                core.cycle_hook(core)
                if limit is not None and counts.instructions >= limit:
                    break
                img = _enter(core)
                in_kernel = True
                continue
            if status == _STATUS_LIMIT:
                break
    finally:
        if in_kernel:
            img.pull_books()
    return counts.instructions - start_instr
