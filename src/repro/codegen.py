"""Deterministic synthetic-code regions.

A :class:`CodeRegion` models a contiguous range of machine code as a
sequence of basic blocks with *fixed, per-block* properties (size, branch
bias, memory-op counts) derived from a seed.  Re-walking the same region
replays the same PCs and branch biases, so PC-indexed hardware structures
(I-cache, I-TLB, BTB, gshare tables, the DSB) can train on it — and lose
that training when the region is re-emitted at a new base address after a
JIT event, which is the central mechanism behind the paper's cold-start
findings (§VII-A1).

The walker is the single hottest loop of trace generation: it pushes
ops straight onto the columns of a :class:`repro.trace.TraceBuffer`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.trace import (OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE,
                         _KERNEL_BIT)


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
    """

    #: regions larger than this model one chunk of blocks and alias its
    #: layout across the full range (keeps construction O(1 MiB) while
    #: I-side structures still see the full footprint on excursions)
    MODEL_BYTES = 1024 * 1024

    __slots__ = ("base", "size_bytes", "mix", "seed", "n_blocks",
                 "_pc", "_n_other", "_n_bytes", "_p_taken",
                 "_n_loads", "_n_stores", "_is_loop", "_trips",
                 "_taken_target", "_hot_entries", "n_chunks",
                 "_chunk_bytes")

    def __init__(self, base: int, size_bytes: int, seed: int,
                 mix: MixProfile | None = None) -> None:
        mix = mix or MixProfile()
        self.base = base
        self.size_bytes = size_bytes
        self.mix = mix
        self.seed = seed
        model_bytes = min(size_bytes, self.MODEL_BYTES)
        self.n_chunks = max(1, size_bytes // model_bytes)
        self._chunk_bytes = model_bytes
        block_bytes = mix.block_instructions * mix.bytes_per_instr
        n_blocks = max(1, int(model_bytes / block_bytes))
        self.n_blocks = n_blocks
        # Vectorized construction (regions can have tens of thousands of
        # blocks; per-block Python RNG calls dominated startup cost).
        rng = np.random.default_rng(seed)
        target_total = mix.block_instructions
        total = np.maximum(
            2, np.rint(rng.normal(target_total, target_total * 0.3,
                                  n_blocks)).astype(np.int64))
        loads = np.clip(
            np.rint(total * mix.load_frac
                    + rng.uniform(-0.5, 0.5, n_blocks)).astype(np.int64),
            0, total - 1)
        stores = np.clip(
            np.rint(total * mix.store_frac
                    + rng.uniform(-0.5, 0.5, n_blocks)).astype(np.int64),
            0, total - 1 - loads)
        other = np.maximum(0, total - 1 - loads - stores)
        nbytes = np.maximum(
            8, np.rint(total * mix.bytes_per_instr).astype(np.int64))
        # Real code's branch biases are bimodal: most branches are
        # strongly biased (predictable), a minority are data-dependent
        # coin flips.  bias_spread scales that minority share.
        bias = np.where(rng.random(n_blocks) < mix.taken_bias, 0.97, 0.03)
        hard = rng.random(n_blocks) < mix.bias_spread * 0.22
        bias = np.where(hard, 0.25 + rng.random(n_blocks) * 0.5, bias)
        is_loop = rng.random(n_blocks) < mix.loop_frac
        trips = np.where(
            is_loop,
            np.maximum(2, np.rint(rng.exponential(mix.avg_loop_trips,
                                                  n_blocks))),
            1).astype(np.int64)
        pc = self.base + np.concatenate(
            ([0], np.cumsum(nbytes)[:-1]))
        # Each block's taken-branch target is fixed (direct branches have
        # one target); only the periodic indirect-call jump varies.
        idx = np.arange(n_blocks, dtype=np.int64)
        taken_target = (idx + 2 + ((idx * 2654435761 + seed) & 3)) % n_blocks
        # Hot entry points: dynamic execution concentrates on a bounded
        # set of paths (~entry * 8-block runs), sized so a region's hot
        # code footprint saturates around 100-200 KiB regardless of its
        # static size — matching how real programs execute a small slice
        # of their text most of the time.
        h = min(n_blocks, max(4, min(size_bytes, self.MODEL_BYTES)
                               // mix.hot_entry_divisor))
        entries = np.unique((rng.random(h) ** 2 * n_blocks).astype(int))
        self._hot_entries = entries.tolist() or [0]
        # Plain lists index faster than numpy scalars in the walk loop.
        self._pc = pc.tolist()
        self._n_other = other.tolist()
        self._n_bytes = nbytes.tolist()
        self._p_taken = np.clip(bias, 0.02, 0.98).tolist()
        self._n_loads = loads.tolist()
        self._n_stores = stores.tolist()
        self._is_loop = is_loop.tolist()
        self._trips = trips.tolist()
        self._taken_target = taken_target.tolist()

    def rebased(self, new_base: int) -> "CodeRegion":
        """Identical region at a different base address (JIT re-emission)."""
        return CodeRegion(new_base, self.size_bytes, self.seed, self.mix)

    @property
    def end(self) -> int:
        return self._pc[-1] + self._n_bytes[-1]

    # ------------------------------------------------------------------
    def walk_into(self, buf, rng: random.Random, n_instructions: int,
                  load_addr, store_addr, is_kernel: bool = False,
                  entry: int | None = None) -> None:
        """Push ops for roughly ``n_instructions`` of execution into ``buf``.

        ``load_addr`` / ``store_addr`` are zero-argument callables
        producing data addresses (the data-locality model lives with the
        caller).  ``entry`` selects the starting block (defaults to a
        random one, biased towards the region start — hot entry points).

        Execution walks blocks sequentially; loop blocks repeat with a
        highly-predictable backward branch, and every ~8 blocks control
        transfers to a new spot in the region (call/jump), exercising the
        BTB.  Entries and jump targets concentrate near the region start
        (hot paths): most dynamic execution covers ~10-20% of the static
        blocks, as in real code, so predictors and caches can train on it.
        Ops go straight onto the buffer's columns (see
        :class:`repro.trace.TraceBuffer`).
        """
        pcs = self._pc
        n_other = self._n_other
        n_bytes = self._n_bytes
        p_taken = self._p_taken
        n_loads = self._n_loads
        n_stores = self._n_stores
        is_loop = self._is_loop
        trips = self._trips
        taken_target = self._taken_target
        n_blocks = self.n_blocks
        hot_entries = self._hot_entries
        n_hot = len(hot_entries)
        n_chunks = self.n_chunks
        chunk_bytes = self._chunk_bytes
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
            reps = trips[i] if is_loop[i] else 1
            for rep in range(reps):
                other = n_other[i]
                if other:
                    kinds.append(OP_BLOCK)
                    a0.append(pcs[i] + off)
                    a1.append(other)
                    a2.append(n_bytes[i] | kernel_bit)
                for _ in range(n_loads[i]):
                    kinds.append(OP_LOAD)
                    a0.append(load_addr())
                    a1.append(0)
                    a2.append(0)
                for _ in range(n_stores[i]):
                    kinds.append(OP_STORE)
                    a0.append(store_addr())
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
