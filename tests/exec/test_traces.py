"""Tests for the content-addressed trace store."""

import itertools
from pathlib import Path

import pytest

from repro.exec.traces import TraceStore, trace_fingerprint
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.trace import OP_BLOCK, OP_LOAD
from repro.workloads.dotnet import dotnet_category_specs


def _spec():
    return next(s for s in dotnet_category_specs()
                if s.name == "System.Runtime")


def _configs():
    gc = GcConfig()
    return gc, HeapConfig(max_heap_bytes=gc.max_heap_bytes,
                          gen0_budget_bytes=gc.gen0_budget())


def fake_ops():
    """Deterministic synthetic op stream (10-instr block + load pairs)."""
    pc = 0x4000_0000
    while True:
        yield (OP_BLOCK, pc, 10, 48, False)
        yield (OP_LOAD, 0xC000_0000 + (pc & 0xFFFF))
        pc += 64


class FakeProgram:
    """:func:`fake_ops` through the push-style ``fill_buffer`` protocol
    the trace store generates from."""

    def __init__(self):
        self._ops = fake_ops()

    def fill_buffer(self, buf, n_instructions):
        return buf.fill_from(self._ops, n_instructions)

    def premap_ranges(self):
        return [(0x4000_0000, 0x4010_0000), (0xC000_0000, 0xC001_0000)]


def _key(store, **over):
    gc, heap = _configs()
    kw = dict(seed=0, code_bloat=1.0, gc_config=gc, heap_config=heap,
              fingerprint="fp0")
    kw.update(over)
    return store.key_for(_spec(), **kw)


class TestKeying:
    def test_key_is_deterministic(self, tmp_path):
        store = TraceStore(tmp_path)
        assert _key(store) == _key(store)

    @pytest.mark.parametrize("over", [
        {"seed": 1},
        {"code_bloat": 1.5},
        {"reuse_code_pages": True},
        {"compaction_enabled": False},
        {"fingerprint": "fp1"},
    ])
    def test_trace_relevant_inputs_change_key(self, tmp_path, over):
        store = TraceStore(tmp_path)
        assert _key(store, **over) != _key(store)


class TestEnsure:
    def test_cold_generates_warm_replays(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        calls = []

        def make():
            calls.append(1)
            return FakeProgram()

        meta, generated = store.ensure(key, 10_000, make)
        assert generated and len(calls) == 1
        assert meta["n_instructions"] >= 11_000          # 10% slack
        assert meta["premap_ranges"] == [[0x4000_0000, 0x4010_0000],
                                         [0xC000_0000, 0xC001_0000]]
        # Warm hit: the second machine config never builds the program.
        meta2, generated2 = store.ensure(key, 10_000, make)
        assert not generated2 and len(calls) == 1
        assert meta2 == meta
        assert list(store.keys()) == [key]

    def test_too_short_entry_is_regenerated(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 1_000, FakeProgram)
        short = meta["n_instructions"]
        meta, generated = store.ensure(key, short * 4, FakeProgram)
        assert generated
        assert meta["n_instructions"] >= short * 4

    def test_push_and_pull_programs_record_same_stream(self, tmp_path):
        """The pushed, recorded and replayed stream equals the op
        sequence pulled straight from the source, for any key."""
        store = TraceStore(tmp_path)
        ka, kb = _key(store), _key(store, seed=1)
        store.ensure(ka, 5_000, FakeProgram)
        store.ensure(kb, 5_000, FakeProgram)

        def ops_of(key, n):
            ops = itertools.chain.from_iterable(
                buf.iter_ops() for buf in store.replay(key))
            return list(itertools.islice(ops, n))

        assert ops_of(ka, 500) == ops_of(kb, 500) \
            == list(itertools.islice(fake_ops(), 500))

    def test_corrupt_meta_reads_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgram)
        store.meta_path(key).write_text("{not json")
        assert store.meta(key) is None
        # corruption deletes the entry so lookup is a clean miss
        assert store.lookup(key, 1) is None
        assert not store.trace_path(key).exists()

    def test_delete(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgram)
        assert store.delete(key)
        assert store.lookup(key, 1) is None
        assert not store.delete(key)


class TestFingerprint:
    def _tree(self, tmp_path, name, uarch="x = 1", workloads="y = 1"):
        root = tmp_path / name
        (root / "workloads").mkdir(parents=True)
        (root / "uarch").mkdir()
        (root / "trace.py").write_text("# trace\n")
        (root / "workloads" / "gen.py").write_text(workloads)
        (root / "uarch" / "pipeline.py").write_text(uarch)
        return root

    def test_uarch_edits_do_not_invalidate(self, tmp_path):
        """The point of the split fingerprint: pipeline-model edits keep
        recorded traces valid."""
        a = self._tree(tmp_path, "a")
        b = self._tree(tmp_path, "b", uarch="x = 2")
        assert trace_fingerprint(a, refresh=True) \
            == trace_fingerprint(b, refresh=True)

    def test_generator_edits_invalidate(self, tmp_path):
        a = self._tree(tmp_path, "a")
        b = self._tree(tmp_path, "b", workloads="y = 2")
        assert trace_fingerprint(a, refresh=True) \
            != trace_fingerprint(b, refresh=True)

    def test_default_root_is_cached_and_stable(self):
        assert trace_fingerprint() == trace_fingerprint()

    def test_kernel_sources_split_between_fingerprints(self, tmp_path):
        """On a copy of the package: the consume kernel's C source is
        simulator code (result keys change) but not generation code
        (trace keys hold); the walk's C source is both."""
        import shutil

        import repro
        from repro.exec.jobs import code_fingerprint

        root = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, root,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def edit(rel):
            with (root / rel).open("a") as fh:
                fh.write("/* edited */\n")

        code = code_fingerprint(root, refresh=True)
        trace = trace_fingerprint(root, refresh=True)
        edit("uarch/_kernel.c")
        assert code_fingerprint(root, refresh=True) != code
        assert trace_fingerprint(root, refresh=True) == trace
        code = code_fingerprint(root, refresh=True)
        edit("_walk.c")
        assert code_fingerprint(root, refresh=True) != code
        assert trace_fingerprint(root, refresh=True) != trace


class TestTraceIntegrity:
    def test_sidecar_records_checksum(self, tmp_path):
        import zlib
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 2_000, FakeProgram)
        data = store.trace_path(key).read_bytes()
        assert meta["bytes"] == len(data)
        assert meta["crc32"] == zlib.crc32(data)

    def test_bit_rot_is_quarantined_and_regenerated(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 2_000, FakeProgram)
        path = store.trace_path(key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.lookup(key, 1) is None
        assert not path.exists()            # moved out of the namespace
        assert any(store.corrupt_dir.iterdir())
        meta2, generated = store.ensure(key, 2_000, FakeProgram)
        assert generated
        assert store.lookup(key, 2_000) == meta2

    def test_truncation_detected_by_size(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgram)
        path = store.trace_path(key)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert store.lookup(key, 1) is None
        assert any(store.corrupt_dir.iterdir())

    def test_legacy_meta_without_checksum_still_replays(self, tmp_path):
        import json
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 2_000, FakeProgram)
        legacy = {k: v for k, v in meta.items()
                  if k not in ("crc32", "bytes")}
        store.meta_path(key).write_text(json.dumps(legacy))
        assert store.lookup(key, 2_000) == legacy


class TestRunnerFallback:
    def test_corrupt_legacy_trace_regenerates_not_raises(self, tmp_path):
        """Satellite: a corrupted trace chunk that slips past the store
        checksum (legacy entry without one) must fall back to
        regeneration inside run_workload, not propagate the decode
        error — and the recovered run is bit-identical."""
        import json
        from repro.harness.runner import Fidelity, run_workload
        from repro.uarch.machine import get_machine

        fid = Fidelity(warmup_instructions=6_000,
                       measure_instructions=10_000)
        spec = _spec()
        machine = get_machine("i9")
        store = TraceStore(tmp_path)
        clean = run_workload(spec, machine, fid, trace_store=store)
        (key,) = store.keys()

        # Age the entry to the pre-checksum format, then damage it.
        meta = json.loads(store.meta_path(key).read_text())
        del meta["crc32"], meta["bytes"]
        store.meta_path(key).write_text(json.dumps(meta))
        data = store.trace_path(key).read_bytes()
        store.trace_path(key).write_bytes(data[:len(data) // 2])

        rerun = run_workload(spec, machine, fid, trace_store=store)
        assert rerun.counters == clean.counters
        assert any(store.corrupt_dir.iterdir())
        # the store now holds a fresh valid entry under the same key
        assert store.lookup(key, 1) is not None
