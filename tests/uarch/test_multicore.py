"""Tests for the shared-LLC multicore model (Figs 11-12 substrate)."""

import itertools

from repro.trace import OP_BLOCK, OP_LOAD, TraceBufferStream
from repro.uarch.machine import i9_9980xe
from repro.uarch.multicore import MulticoreRunner, SharedLlc


def stream_factory(core_id):
    """Simple per-core workload: blocks + loads over a private region."""
    def ops():
        base = 0x4000_0000 + core_id * 0x100_0000
        data = 0x8000_0000 + core_id * 0x100_0000
        for i in itertools.count():
            yield (OP_BLOCK, base + (i % 64) * 64, 10, 48, False)
            yield (OP_LOAD, data + (i * 64) % (1 << 21))
    from repro.uarch.pipeline import WorkloadHints
    return TraceBufferStream(ops=ops()), WorkloadHints()


class TestSharedLlc:
    def test_contention_increases_with_traffic(self):
        llc = SharedLlc(i9_9980xe())
        for i in range(20_000):
            llc.access(i * 64, core_id=0)
        llc.update_contention(epoch_cycles=5_000, active_cores=16)
        high = llc.extra_latency
        llc2 = SharedLlc(i9_9980xe())
        for i in range(100):
            llc2.access(i * 64, core_id=0)
        llc2.update_contention(epoch_cycles=5_000, active_cores=1)
        low = llc2.extra_latency
        assert high > low

    def test_queue_delay_capped(self):
        llc = SharedLlc(i9_9980xe())
        for i in range(10 ** 6 // 64):
            llc.access(i * 64, core_id=0)
        llc.update_contention(epoch_cycles=1.0, active_cores=16)
        assert llc.extra_latency < llc.base_latency \
            * SharedLlc.MAX_QUEUE_FACTOR + 100

    def test_noc_delay_grows_with_cores(self):
        llc1 = SharedLlc(i9_9980xe())
        llc1.update_contention(epoch_cycles=1000, active_cores=1)
        llc16 = SharedLlc(i9_9980xe())
        llc16.update_contention(epoch_cycles=1000, active_cores=16)
        assert llc16.extra_latency > llc1.extra_latency

    def test_zero_epoch_is_safe(self):
        llc = SharedLlc(i9_9980xe())
        llc.update_contention(epoch_cycles=0, active_cores=4)


class TestMulticoreRunner:
    def test_all_cores_execute(self):
        runner = MulticoreRunner(i9_9980xe(), 4, stream_factory,
                                 epoch_instructions=500)
        result = runner.run(3_000)
        for core in result.cores:
            assert core.counts.instructions >= 3_000

    def test_llc_shared_between_cores(self):
        runner = MulticoreRunner(i9_9980xe(), 2, stream_factory,
                                 epoch_instructions=500)
        result = runner.run(2_000)
        assert result.llc.cache.stats.accesses > 0

    def test_more_cores_more_llc_latency(self):
        lat = {}
        for n in (1, 8):
            runner = MulticoreRunner(i9_9980xe(), n, stream_factory,
                                     epoch_instructions=500)
            runner.run(4_000)
            lat[n] = runner.llc.extra_latency
        assert lat[8] > lat[1]

    def test_per_core_llc_mpki(self):
        runner = MulticoreRunner(i9_9980xe(), 2, stream_factory,
                                 epoch_instructions=500)
        result = runner.run(2_000)
        assert result.per_core_llc_mpki() >= 0.0
        assert result.total_instructions >= 4_000
