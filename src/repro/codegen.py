"""Deterministic synthetic-code regions and the walk that executes them.

A :class:`CodeRegion` models a contiguous range of machine code as a
sequence of basic blocks with *fixed, per-block* properties (size, branch
bias, memory-op counts) derived from a seed.  Re-walking the same region
replays the same PCs and branch biases, so PC-indexed hardware structures
(I-cache, I-TLB, BTB, gshare tables, the DSB) can train on it — and lose
that training when the region is re-emitted at a new base address after a
JIT event, which is the central mechanism behind the paper's cold-start
findings (§VII-A1).

The walk is the hot loop of trace generation (it emits ~97% of all
ops), so it runs in the kernel library: ``_walk.c``, built with the
consume kernel by :mod:`repro.uarch.native`.  It draws the exact stream
of the walk's :class:`random.Random` (MT19937, the state crossing once
per walk) and appends its ops in bulk to the buffer's int64 columns.
:meth:`CodeRegion._walk_reference` is the same walk in Python: the
reference the parity tests hold the kernel to, and the fallback when the
kernel is unavailable (counted and warned about like a consume
delegation, an error under ``REPRO_NATIVE=require``).  A region's
layout is built there too: numpy draws it, and ``repro_layout`` turns
the draws into the region's table, since numpy's per-call overhead
would dominate a JIT'd method's few dozen blocks
(:func:`_layout_reference` is the numpy reference).

Where a walk's loads and stores go is an :class:`AddressModel`: one of a
closed set of kinds, each described by an int64 vector of parameters
and state that both walks read and mutate in place, so the kernel and
the reference can continue from each other.
"""

from __future__ import annotations

import _random
import struct
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from repro.trace import (OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE,
                         _KERNEL_BIT)

_LINE = 64

# random.Random's own getstate/setstate: the bare 625-word MT19937 state
# (624 words + index), without the version and gauss_next wrapping.
_getstate = _random.Random.getstate
_setstate = _random.Random.setstate
_MT_STATE = struct.Struct("625I")


@dataclass(frozen=True)
class MixProfile:
    """Instruction-mix shape for generated code.

    ``branch_frac + load_frac + store_frac`` must be < 1; the remainder is
    plain ALU/FP work.  ``avg_block_instr`` is implied by ``branch_frac``
    (one branch terminates each block).
    """

    branch_frac: float = 0.16
    load_frac: float = 0.28
    store_frac: float = 0.14
    bytes_per_instr: float = 4.0
    taken_bias: float = 0.45        # fraction of biased branches biased taken
    bias_spread: float = 0.35       # control-flow entropy knob: scales the
                                    # share of hard-to-predict branches
    loop_frac: float = 0.12         # fraction of blocks that are loop bodies
    avg_loop_trips: float = 6.0
    #: bytes of region per hot entry point — higher = fewer, hotter paths
    #: (native loop-dominated code is far more concentrated than a
    #: managed method soup)
    hot_entry_divisor: int = 2000

    def __post_init__(self) -> None:
        total = self.branch_frac + self.load_frac + self.store_frac
        if not 0 < self.branch_frac <= 0.5:
            raise ValueError(f"branch_frac {self.branch_frac} out of (0, 0.5]")
        if total >= 1.0:
            raise ValueError(f"instruction fractions sum to {total} >= 1")

    @property
    def block_instructions(self) -> float:
        """Average total instructions per basic block (incl. the branch)."""
        return 1.0 / self.branch_frac


# ---------------------------------------------------------------------------
# Address models.  Kinds mirror the M_* enum of _walk.c.

M_CONST, M_UNIFORM, M_HOT_COLD, M_RING, M_DATA = range(5)


class AddressModel:
    """Where a walk's loads and stores go.

    ``m`` is the model's int64 vector: ``m[0]`` is its kind, then the
    kind's parameters and state.  :meth:`load` and :meth:`store` are the
    Python reference draws; ``_walk.c`` implements the same draws per
    kind.  Both read and mutate ``m`` in place and draw from the rng of
    the walk they serve.  The vector is never resized, so ``ptr`` keeps
    its address — which is also why a model cannot be copied or pickled.
    """

    __slots__ = ("m", "ptr")

    def __init__(self, vector) -> None:
        self.m = array("q", vector)
        self.ptr = self.m.buffer_info()[0]

    def __reduce__(self):
        raise TypeError(f"{type(self).__name__} holds raw addresses and "
                        f"cannot be copied or pickled")

    def load(self, rng) -> int:
        raise NotImplementedError

    def store(self, rng) -> int:
        return self.load(rng)


class ConstAddress(AddressModel):
    """Every access hits one address (a lock word); draws nothing."""

    __slots__ = ()

    def __init__(self, addr: int) -> None:
        super().__init__((M_CONST, addr))

    def load(self, rng) -> int:
        return self.m[1]


class UniformLines(AddressModel):
    """A uniformly drawn line of ``n_lines`` from ``base``."""

    __slots__ = ()

    def __init__(self, base: int, n_lines: int) -> None:
        super().__init__((M_UNIFORM, base, n_lines))

    def load(self, rng) -> int:
        m = self.m
        return m[1] + int(rng.random() * m[2]) * _LINE


class HotColdLines(AddressModel):
    """Four in five accesses go to a hot table, quadratically skewed
    towards its start; the rest spread uniformly over a cold slice,
    which :meth:`retarget` moves."""

    __slots__ = ()

    def __init__(self, hot_base: int, hot_lines: int,
                 cold_base: int = 0, cold_lines: int = 1) -> None:
        super().__init__((M_HOT_COLD, hot_base, hot_lines, cold_base,
                          cold_lines))

    def retarget(self, cold_base: int, cold_lines: int) -> None:
        self.m[3] = cold_base
        self.m[4] = cold_lines

    def load(self, rng) -> int:
        m = self.m
        if rng.random() < 0.8:
            return m[1] + int(rng.random() ** 2 * m[2]) * _LINE
        return m[3] + int(rng.random() * m[4]) * _LINE


class ReuseRing(AddressModel):
    """Quadratically skewed lines of ``n_lines`` from ``base``, revisited
    nine times in ten from a FIFO ring of the last :data:`CAP` fresh
    ones.  Vector: ``[kind, base, n_lines, fill, head, ring...]``."""

    __slots__ = ()

    CAP = 8

    def __init__(self, base: int, n_lines: int) -> None:
        super().__init__((M_RING, base, n_lines, 0, 0) + (0,) * self.CAP)

    def load(self, rng) -> int:
        m = self.m
        n = m[3]
        if n and rng.random() < 0.90:
            return m[5 + (m[4] + int(rng.random() * n)) % self.CAP]
        addr = m[1] + int(rng.random() ** 2 * m[2]) * _LINE
        if n < self.CAP:
            m[5 + n] = addr
            m[3] = n + 1
        else:
            head = m[4]
            m[5 + head] = addr
            m[4] = (head + 1) % self.CAP
        return addr


# ---------------------------------------------------------------------------
# Regions.

#: Region table layout (mirrors _walk.c): a header, one int64 column per
#: block property (the taken biases as IEEE-754 bit patterns), then the
#: hot entry blocks.
T_N_BLOCKS, T_N_HOT, T_N_CHUNKS, T_CHUNK_BYTES, T_BURST, T_HDR = range(6)
(C_PC, C_OTHER, C_BYTES, C_LOADS, C_STORES, C_TRIPS, C_TARGET, C_BIAS,
 C_NCOLS) = range(9)


def _layout_reference(n_blocks: int, n_hot_draws: int, base: int,
                      seed: int, n_chunks: int, chunk_bytes: int,
                      mix: MixProfile, draws: np.ndarray) -> np.ndarray:
    """A region's table from its draws, in numpy: the reference of
    ``repro_layout`` in ``_walk.c``, used when the kernel is unavailable.

    ``draws`` holds, in stream order, each block's size draw, the loads'
    and the stores' rounding jitter, four coins (bias, hard branch, hard
    bias, loop body), the loop trip draw, and ``n_hot_draws`` hot entry
    draws.
    """
    n = n_blocks
    normal, jitter, coins, expo, hot = np.split(
        draws, (n, 3 * n, 7 * n, 8 * n))
    total = np.maximum(2, np.rint(normal).astype(np.int64))
    loads = np.clip(
        np.rint(total * mix.load_frac + jitter[:n]).astype(np.int64),
        0, total - 1)
    stores = np.clip(
        np.rint(total * mix.store_frac + jitter[n:]).astype(np.int64),
        0, total - 1 - loads)
    other = np.maximum(0, total - 1 - loads - stores)
    nbytes = np.maximum(
        8, np.rint(total * mix.bytes_per_instr).astype(np.int64))
    # Real code's branch biases are bimodal: most branches are strongly
    # biased (predictable), a minority are data-dependent coin flips.
    # bias_spread scales that minority share.
    bias = np.where(coins[:n] < mix.taken_bias, 0.97, 0.03)
    hard = coins[n:2 * n] < mix.bias_spread * 0.22
    bias = np.where(hard, 0.25 + coins[2 * n:3 * n] * 0.5, bias)
    bias = np.clip(bias, 0.02, 0.98)
    # Loop bodies repeat ``trips`` times; every other block once.
    trips = np.where(coins[3 * n:] < mix.loop_frac,
                     np.maximum(2, np.rint(expo)), 1).astype(np.int64)
    pc = base + np.concatenate(([0], np.cumsum(nbytes)[:-1]))
    # Each block's taken-branch target is fixed (direct branches have one
    # target); only the periodic indirect-call jump varies.
    idx = np.arange(n, dtype=np.int64)
    taken_target = (idx + 2 + ((idx * 2654435761 + seed) & 3)) % n
    entries = np.unique((hot ** 2 * n).astype(np.int64))
    # Most instructions one block can add to a walk past its target (all
    # of a loop's trips run once it is entered, each ``total`` = other +
    # loads + stores + branch): sizes the native walk's output.
    burst = int((trips * total).max())
    return np.concatenate((
        [n, len(entries), n_chunks, chunk_bytes, burst],
        pc, other, nbytes, loads, stores, trips, taken_target,
        bias.view(np.int64), entries)).astype(np.int64, copy=False)


class _Scratch:
    """What the native walk reads and writes besides the region and the
    model: the rng state it draws from, four ``cap``-long int64 output
    columns (in one array) that the buffer copies, and the slot that
    receives the instructions executed.  One per thread."""

    __slots__ = ("cap", "mt", "mt_ptr", "out", "columns", "ptr", "res",
                 "res_ptr")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.mt = array("I", bytes(_MT_STATE.size))
        self.mt_ptr = self.mt.buffer_info()[0]
        self.out = array("q", bytes(32 * cap))
        view = memoryview(self.out).cast("B")
        #: byte views of the kinds, a0, a1 and a2 output columns
        self.columns = tuple(view[8 * k * cap:8 * (k + 1) * cap]
                             for k in range(4))
        self.ptr = self.out.buffer_info()[0]
        self.res = array("q", [0])
        self.res_ptr = self.res.buffer_info()[0]


_local = threading.local()
_native = None


def _kernel():
    """The kernel library bound for generation (``repro_layout`` and
    ``repro_walk``), or ``None``; the kernel glue is imported, and the
    library resolved, at the first region."""
    global _native
    if _native is None:
        from repro.uarch import native
        _native = native
    return _native.generator()


class CodeRegion:
    """A seeded, immutable layout of basic blocks in one code range.

    Parameters
    ----------
    base:
        Starting virtual address.  Rebasing a region (JIT re-emission)
        means constructing a new region with the same seed and a new base:
        identical structure, disjoint PCs.
    size_bytes:
        Region size; the number of blocks follows from the mix profile.
    seed:
        Layout seed; two regions with equal (seed, size, mix) have
        identical internal structure.

    The layout is one int64 table (see ``T_*``/``C_*``), built from the
    region's numpy draws by the kernel library (``repro_layout``) or,
    without it, by :func:`_layout_reference`.
    """

    #: regions larger than this model one chunk of blocks and alias its
    #: layout across the full range (keeps construction O(1 MiB) while
    #: I-side structures still see the full footprint on excursions)
    MODEL_BYTES = 1024 * 1024

    __slots__ = ("base", "size_bytes", "mix", "seed", "n_blocks",
                 "n_chunks", "_table", "_table_ptr", "_burst", "_lists")

    def __init__(self, base: int, size_bytes: int, seed: int,
                 mix: MixProfile | None = None) -> None:
        mix = mix or MixProfile()
        self.base = base
        self.size_bytes = size_bytes
        self.mix = mix
        self.seed = seed
        model_bytes = min(size_bytes, self.MODEL_BYTES)
        self.n_chunks = n_chunks = max(1, size_bytes // model_bytes)
        block_bytes = mix.block_instructions * mix.bytes_per_instr
        n_blocks = max(1, int(model_bytes / block_bytes))
        self.n_blocks = n_blocks
        # Hot entry points: dynamic execution concentrates on a bounded
        # set of paths (~entry * 8-block runs), sized so a region's hot
        # code footprint saturates around 100-200 KiB regardless of its
        # static size — matching how real programs execute a small slice
        # of their text most of the time.
        h = min(n_blocks, max(4, model_bytes // mix.hot_entry_divisor))
        # Vectorized draws (regions can have tens of thousands of
        # blocks).  Each value takes one draw, so one call of 2n or 4n
        # values draws what two or four calls of n would.
        rng = np.random.default_rng(seed)
        target_total = mix.block_instructions
        draws = np.concatenate((
            rng.normal(target_total, target_total * 0.3, n_blocks),
            rng.uniform(-0.5, 0.5, 2 * n_blocks),
            rng.random(4 * n_blocks),
            rng.exponential(mix.avg_loop_trips, n_blocks),
            rng.random(h)))
        lib = _kernel()
        if lib is None:
            table = _layout_reference(n_blocks, h, base, seed, n_chunks,
                                      model_bytes, mix, draws)
            ptr = table.ctypes.data
        else:
            table = np.empty(T_HDR + C_NCOLS * n_blocks + h, np.int64)
            ptr = table.ctypes.data
            n_hot = lib.repro_layout(
                n_blocks, h, base, seed, n_chunks, model_bytes,
                mix.load_frac, mix.store_frac, mix.bytes_per_instr,
                mix.taken_bias, mix.bias_spread * 0.22, mix.loop_frac,
                draws.ctypes.data, ptr)
            table = table[:T_HDR + C_NCOLS * n_blocks + n_hot]
        self._table = table
        self._table_ptr = ptr
        self._burst = int(table[T_BURST])
        self._lists = None

    def rebased(self, new_base: int) -> "CodeRegion":
        """Identical region at a different base address (JIT re-emission)."""
        return CodeRegion(new_base, self.size_bytes, self.seed, self.mix)

    def __reduce__(self):
        # Rebuilt from its arguments, never copied: the walk reads the
        # table through a raw address.
        return CodeRegion, (self.base, self.size_bytes, self.seed, self.mix)

    def _column(self, col: int) -> np.ndarray:
        start = T_HDR + col * self.n_blocks
        return self._table[start:start + self.n_blocks]

    @property
    def end(self) -> int:
        return int(self._column(C_PC)[-1] + self._column(C_BYTES)[-1])

    def _reference_lists(self) -> tuple:
        """The table as Python lists (C_* order, the biases as floats,
        then the hot entries), built at the reference walk's first use:
        plain lists index faster than numpy scalars in its loop."""
        lists = self._lists
        if lists is None:
            nb = self.n_blocks
            body = self._table[T_HDR:T_HDR + C_BIAS * nb].tolist()
            lists = self._lists = (
                *(body[k * nb:(k + 1) * nb] for k in range(C_BIAS)),
                self._column(C_BIAS).view(np.float64).tolist(),
                self._table[T_HDR + C_NCOLS * nb:].tolist())
        return lists

    # The layout as lists, for inspection (tests compare regions by it).
    @property
    def _pc(self) -> list[int]:
        return self._reference_lists()[C_PC]

    @property
    def _p_taken(self) -> list[float]:
        return self._reference_lists()[C_BIAS]

    # ------------------------------------------------------------------
    def walk_into(self, buf, rng, n_instructions: int,
                  addresses: AddressModel, is_kernel: bool = False,
                  entry: int | None = None) -> None:
        """Push ops for roughly ``n_instructions`` of execution into ``buf``.

        ``addresses`` places the walk's loads and stores (the
        data-locality model lives with the caller); ``rng`` is a
        :class:`random.Random`, which the walk and the model draw from.
        ``entry`` selects the starting block (defaults to a random one,
        biased towards the region start — hot entry points).

        Execution walks blocks sequentially; loop blocks repeat with a
        highly-predictable backward branch, and every ~8 blocks control
        transfers to a new spot in the region (call/jump), exercising the
        BTB.  Entries and jump targets concentrate near the region start
        (hot paths): most dynamic execution covers ~10-20% of the static
        blocks, as in real code, so predictors and caches can train on it.

        Runs in the kernel library, which appends the ops to the
        buffer's columns (see :class:`repro.trace.TraceBuffer`) in one
        copy per column; without the kernel, the walk is delegated to
        :meth:`_walk_reference`.
        """
        lib = _kernel()
        if lib is None:
            _native.note_delegation("unavailable", walk=True)
            self._walk_reference(buf, rng, n_instructions, addresses,
                                 is_kernel, entry)
            return
        need = n_instructions + self._burst
        sc = getattr(_local, "scratch", None)
        if sc is None or sc.cap < need:
            sc = _local.scratch = _Scratch(max(need, 1 << 14,
                                               2 * sc.cap if sc else 0))
        cap = sc.cap
        _MT_STATE.pack_into(sc.mt, 0, *_getstate(rng))
        n_ops = lib.repro_walk(
            self._table_ptr, addresses.ptr, sc.mt_ptr, sc.ptr, cap,
            n_instructions, -1 if entry is None else entry % self.n_blocks,
            _KERNEL_BIT if is_kernel else 0, sc.res_ptr)
        _setstate(rng, _MT_STATE.unpack_from(sc.mt))
        if n_ops < 0:
            raise RuntimeError(f"native walk overflowed its {cap}-op "
                               f"output")
        size = 8 * n_ops
        kinds, a0, a1, a2 = sc.columns
        buf.kinds.frombytes(kinds[:size])
        buf.a0.frombytes(a0[:size])
        buf.a1.frombytes(a1[:size])
        buf.a2.frombytes(a2[:size])
        buf.n_instructions += sc.res[0]

    def _walk_reference(self, buf, rng, n_instructions: int,
                        addresses: AddressModel, is_kernel: bool = False,
                        entry: int | None = None) -> None:
        """:meth:`walk_into` in Python, op for op and draw for draw."""
        (pcs, n_other, n_bytes, n_loads, n_stores, trips, taken_target,
         p_taken, hot_entries) = self._reference_lists()
        n_blocks = self.n_blocks
        n_hot = len(hot_entries)
        n_chunks = self.n_chunks
        chunk_bytes = int(self._table[T_CHUNK_BYTES])
        load_addr = addresses.load
        store_addr = addresses.store
        kinds = buf.kinds
        a0 = buf.a0
        a1 = buf.a1
        a2 = buf.a2
        kernel_bit = _KERNEL_BIT if is_kernel else 0
        random_ = rng.random
        off = 0                      # current chunk's address offset
        if entry is None:
            i = hot_entries[int(random_() ** 3 * n_hot)]
        else:
            i = entry % n_blocks
        executed = 0
        run_len = 0
        while executed < n_instructions:
            reps = trips[i]
            for rep in range(reps):
                other = n_other[i]
                if other:
                    kinds.append(OP_BLOCK)
                    a0.append(pcs[i] + off)
                    a1.append(other)
                    a2.append(n_bytes[i] | kernel_bit)
                for _ in range(n_loads[i]):
                    kinds.append(OP_LOAD)
                    a0.append(load_addr(rng))
                    a1.append(0)
                    a2.append(0)
                for _ in range(n_stores[i]):
                    kinds.append(OP_STORE)
                    a0.append(store_addr(rng))
                    a1.append(0)
                    a2.append(0)
                executed += other + n_loads[i] + n_stores[i] + 1
                branch_pc = pcs[i] + off + n_bytes[i] - 4
                if rep < reps - 1:
                    # Loop backedge: taken, target = same block.
                    kinds.append(OP_BRANCH)
                    a0.append(branch_pc)
                    a1.append(pcs[i] + off)
                    a2.append(1)
                    continue
                run_len += 1
                if run_len >= 8:
                    # Call/jump: almost always to a hot entry point (in
                    # the home chunk); a small fraction excursions
                    # anywhere in the full region (cold paths).
                    run_len = 0
                    if random_() < 0.98:
                        j = hot_entries[int(random_() ** 3 * n_hot)]
                        off = 0
                    else:
                        j = int(random_() * n_blocks)
                        if n_chunks > 1:
                            off = int(random_() * n_chunks) * chunk_bytes
                    kinds.append(OP_BRANCH)
                    a0.append(branch_pc)
                    a1.append(pcs[j] + off)
                    a2.append(1)
                    i = j
                else:
                    taken = random_() < p_taken[i]
                    if taken:
                        j = taken_target[i]
                        kinds.append(OP_BRANCH)
                        a0.append(branch_pc)
                        a1.append(pcs[j] + off)
                        a2.append(1)
                        i = j
                    else:
                        nxt = (i + 1) % n_blocks
                        kinds.append(OP_BRANCH)
                        a0.append(branch_pc)
                        a1.append(pcs[nxt] + off)
                        a2.append(0)
                        i = nxt
        buf.n_instructions += executed
