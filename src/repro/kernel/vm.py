"""Virtual memory model: demand paging and page-fault accounting.

Pages become *mapped* the first time they are touched (demand paging).
Because a first touch always implies a TLB walk, the pipeline only needs to
consult :meth:`VirtualMemory.touch` on TLB-walk paths, keeping the fault
check off the hot path.

Page faults feed Table I metric 18 (page faults PKI).  JITed code pages and
ever-growing gen0 allocation frontiers both generate first-touch faults,
which is how the paper's "ASP.NET has ~300x the page faults of SPEC"
observation arises in this model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace import PAGE_SIZE


@dataclass
class VmStats:
    minor_faults: int = 0
    major_faults: int = 0
    mapped_pages: int = 0
    unmapped_pages: int = 0       # pages released (e.g. decommitted heap)

    @property
    def faults(self) -> int:
        return self.minor_faults + self.major_faults

    def snapshot(self) -> "VmStats":
        return VmStats(self.minor_faults, self.major_faults,
                       self.mapped_pages, self.unmapped_pages)


class VirtualMemory:
    """Tracks which virtual pages of one address space are mapped.

    ``major_fault_fraction`` models the small fraction of faults that hit
    backing storage (file-backed code pages on first load).
    """

    #: cycles charged for servicing a fault (handler runs in kernel mode).
    #: Scaled below the real ~1-4k/60k+ cycle costs because fault *rates*
    #: are inflated in short simulated windows (first-touch transients
    #: that would amortize over billions of instructions) — same scale
    #: treatment as the GC budgets.
    MINOR_FAULT_CYCLES = 250
    MAJOR_FAULT_CYCLES = 20_000

    def __init__(self, page_size: int = PAGE_SIZE,
                 major_fault_fraction: float = 0.002) -> None:
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self._mapped: set[int] = set()
        self.major_fault_fraction = major_fault_fraction
        self.stats = VmStats()
        self._fault_seq = 0
        self._map_epoch = 0          # bumped on page removal (see below)

    def touch(self, addr: int) -> int:
        """Record an access to ``addr``.

        Returns the fault-handling cost in cycles (0 if the page was
        already mapped).
        """
        vpn = addr >> self._page_shift
        if vpn in self._mapped:
            return 0
        self._mapped.add(vpn)
        self.stats.mapped_pages += 1
        self._fault_seq += 1
        # Deterministic "every Nth fault is major" approximation.
        if (self.major_fault_fraction > 0
                and self._fault_seq % max(1, round(1 / self.major_fault_fraction)) == 0):
            self.stats.major_faults += 1
            return self.MAJOR_FAULT_CYCLES
        self.stats.minor_faults += 1
        return self.MINOR_FAULT_CYCLES

    def is_mapped(self, addr: int) -> bool:
        return (addr >> self._page_shift) in self._mapped

    def premap_range(self, start: int, length: int) -> None:
        """Map ``[start, start+length)`` without faulting.

        Used for warm regions measurement should not see faults for (e.g.
        SPEC's statically initialized working set, the kernel image).
        """
        first = start >> self._page_shift
        last = (start + max(length, 1) - 1) >> self._page_shift
        mapped = self._mapped
        before = len(mapped)
        mapped.update(range(first, last + 1))
        self.stats.mapped_pages += len(mapped) - before

    def unmap_range(self, start: int, length: int) -> None:
        """Decommit pages (heap shrink after GC); future touches fault again."""
        first = start >> self._page_shift
        last = (start + max(length, 1) - 1) >> self._page_shift
        mapped = self._mapped
        before = len(mapped)
        mapped.difference_update(range(first, last + 1))
        self.stats.unmapped_pages += before - len(mapped)
        # Removals are the one mutation a (len, epoch) key cannot see
        # through set length alone (remove+add keeps len constant), so
        # they bump the epoch.  A resident repro.uarch.native image
        # rehashes its page table on entry only when that key changed.
        self._map_epoch += 1

    @property
    def resident_bytes(self) -> int:
        return len(self._mapped) * self.page_size

    def reset_stats(self) -> None:
        self.stats = VmStats()
