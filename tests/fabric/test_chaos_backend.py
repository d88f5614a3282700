"""ChaosBackend: deterministic fault injection at the I/O seam."""

import errno

import pytest

import repro.exec.backend as backend_mod
from repro.exec.backend import (LocalDirBackend, SharedDirBackend,
                                backend_for)
from repro.exec.chaos import BackendChaosConfig, ChaosBackend
from repro.exec.resilience import BackendUnavailable, RetryPolicy, retry_call
from repro.exec.store import ResultStore, StoreCorruption

KEY = "a" * 64


def _chaos(tmp_path, **rates):
    return ChaosBackend(LocalDirBackend(tmp_path / "store"),
                        BackendChaosConfig(**rates))


class TestConfigParse:
    def test_env_spelling(self):
        cfg = BackendChaosConfig.parse(
            "seed=7,eio=0.05,stale=0.1,latency=0.2,latency_seconds=0.5")
        assert cfg.seed == 7
        assert cfg.eio_rate == 0.05
        assert cfg.stale_rate == 0.1
        assert cfg.latency_rate == 0.2
        assert cfg.latency_seconds == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            BackendChaosConfig.parse("bogus=1")

    def test_empty_spec_is_all_defaults(self):
        assert BackendChaosConfig.parse("") == BackendChaosConfig()


class TestDeterminism:
    def _outcomes(self, root, seed):
        backend = ChaosBackend(LocalDirBackend(root),
                               BackendChaosConfig(seed=seed, eio_rate=0.5))
        probe = backend.root / "probe"
        probe.parent.mkdir(parents=True, exist_ok=True)
        probe.write_bytes(b"x")
        out = []
        for _ in range(32):
            try:
                backend.read_bytes(probe)
                out.append(True)
            except OSError:
                out.append(False)
        return out

    def test_same_seed_same_fault_sequence(self, tmp_path):
        a = self._outcomes(tmp_path / "a", seed=3)
        b = self._outcomes(tmp_path / "b", seed=3)
        assert a == b
        assert True in a and False in a     # rate 0.5 really mixes

    def test_different_seed_different_weather(self, tmp_path):
        assert self._outcomes(tmp_path / "a", seed=3) \
            != self._outcomes(tmp_path / "b", seed=4)

    def test_retries_roll_fresh_so_bounded_retry_converges(self,
                                                           tmp_path):
        backend = _chaos(tmp_path, seed=1, eio_rate=0.5)
        probe = backend.root / "probe"
        probe.parent.mkdir(parents=True, exist_ok=True)
        probe.write_bytes(b"payload")
        out = retry_call(lambda: backend.read_bytes(probe),
                         policy=RetryPolicy(retries=16, backoff=0.0,
                                            deadline=None))
        assert out == b"payload"


class TestFaults:
    def test_eio_read_degrades_store_get_to_miss(self, tmp_path):
        inner = LocalDirBackend(tmp_path / "store")
        ResultStore(backend=inner).put(KEY, {"v": 1})
        chaotic = ResultStore(backend=ChaosBackend(
            inner, BackendChaosConfig(eio_rate=1.0)))
        assert chaotic.get(KEY) is None
        assert ResultStore(backend=inner).get(KEY) == {"v": 1}

    def test_enospc_publish_raises_and_leaves_no_dst(self, tmp_path):
        backend = _chaos(tmp_path, enospc_rate=1.0)
        backend.root.mkdir(parents=True, exist_ok=True)
        tmp = backend.root / ".t.tmp"
        tmp.write_bytes(b"data")
        with pytest.raises(OSError) as err:
            backend.publish(tmp, backend.root / "dst")
        assert err.value.errno == errno.ENOSPC
        assert not (backend.root / "dst").exists()

    def test_torn_publish_reports_success_with_truncated_bytes(
            self, tmp_path):
        backend = _chaos(tmp_path, torn_rate=1.0)
        backend.root.mkdir(parents=True, exist_ok=True)
        tmp = backend.root / ".t.tmp"
        tmp.write_bytes(b"0123456789")
        backend.publish(tmp, backend.root / "dst")      # "succeeds"
        assert (backend.root / "dst").read_bytes() == b"012345"

    def test_torn_result_write_is_caught_by_store_framing(
            self, tmp_path, metrics):
        torn = ResultStore(backend=_chaos(tmp_path, torn_rate=1.0))
        torn.put(KEY, {"v": 1})     # reported success, torn on disk
        clean = ResultStore(backend=LocalDirBackend(tmp_path / "store"))
        assert clean.get(KEY) is None   # quarantined, not crashed
        assert clean.get(KEY) is None   # and stays a plain miss


@pytest.mark.parametrize("kind", ["corrupt", "torn"])
class TestDamagedStoreEntries:
    """Damage that reports success: a flipped byte (the store's CRC
    check catches it) or a truncation (its length check does)."""

    def test_damaged_write_is_detected_as_miss(self, tmp_path, kind):
        store = ResultStore(backend=_chaos(tmp_path,
                                           **{f"{kind}_rate": 1.0}))
        store.put(KEY, {"payload": list(range(100))})
        clean = ResultStore(backend=LocalDirBackend(tmp_path / "store"))
        assert clean.get(KEY, "MISS") == "MISS"

    def test_damaged_write_is_quarantined(self, tmp_path, kind):
        store = ResultStore(backend=_chaos(tmp_path,
                                           **{f"{kind}_rate": 1.0}))
        store.put(KEY, {"payload": list(range(100))})
        clean = ResultStore(backend=LocalDirBackend(tmp_path / "store"))
        clean.get(KEY)
        assert clean.stats().corrupt == 1   # quarantined, not deleted

    def test_damage_trips_its_own_frame_check(self, tmp_path, kind):
        # torn fails the length check, corrupt (full length) the CRC,
        # so between them both checks stay exercised
        store = ResultStore(backend=_chaos(tmp_path,
                                           **{f"{kind}_rate": 1.0}))
        path = store.put(KEY, {"payload": list(range(100))})
        with pytest.raises(StoreCorruption,
                           match={"corrupt": "CRC",
                                  "torn": "length"}[kind]):
            ResultStore._check_frame(path.read_bytes())

    def test_undamaged_writes_survive(self, tmp_path, kind):
        backend = _chaos(tmp_path, **{f"{kind}_rate": 0.5})
        store = ResultStore(backend=backend)
        keys = [f"{i:02x}" * 32 for i in range(16)]
        for k in keys:
            store.put(k, {"k": k})
        bad = set(backend.doomed_names(
            kind, [store.path_for(k).name for k in keys]))
        assert 0 < len(bad) < len(keys)
        clean = ResultStore(backend=LocalDirBackend(tmp_path / "store"))
        for k in keys:
            value = clean.get(k, "MISS")
            assert (value == "MISS") == (store.path_for(k).name in bad)


class TestStaleReadDiscipline:
    """Satellite: the shared backend bounds its ESTALE retry loop."""

    def _stale_patch(self, monkeypatch, target, fail_times):
        from pathlib import Path
        real = Path.read_bytes
        calls = {"n": 0}

        def maybe_stale(self):
            if self == target:
                calls["n"] += 1
                if calls["n"] <= fail_times:
                    raise OSError(errno.ESTALE, "stale NFS handle")
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", maybe_stale)
        return calls

    def _policy(self, monkeypatch, **fields):
        monkeypatch.setattr(backend_mod, "STALE_READ_POLICY",
                            RetryPolicy(**fields))

    def test_persistent_staleness_raises_typed_after_budget(
            self, tmp_path, monkeypatch):
        self._policy(monkeypatch, retries=3, backoff=0.001,
                     deadline=10.0)
        backend = SharedDirBackend(tmp_path / "store")
        target = backend.root / "entry"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"x")
        calls = self._stale_patch(monkeypatch, target, fail_times=99)
        with pytest.raises(BackendUnavailable):
            backend.read_bytes(target)
        assert calls["n"] == 4      # first try + policy retries

    def test_staleness_that_heals_succeeds(self, tmp_path, monkeypatch):
        self._policy(monkeypatch, retries=5, backoff=0.001,
                     deadline=10.0)
        backend = SharedDirBackend(tmp_path / "store")
        target = backend.root / "entry"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"fresh")
        self._stale_patch(monkeypatch, target, fail_times=2)
        assert backend.read_bytes(target) == b"fresh"

    def test_default_policy_budget(self):
        policy = backend_mod.STALE_READ_POLICY
        assert list(policy.delays()) == pytest.approx(
            [0.02, 0.04, 0.08, 0.16, 0.32])
        assert policy.max_backoff == 0.5 and policy.deadline == 2.0

    def test_hard_deadline_cuts_the_retry_budget(self, tmp_path,
                                                 monkeypatch):
        self._policy(monkeypatch, retries=50, backoff=0.05,
                     deadline=0.0)
        backend = SharedDirBackend(tmp_path / "store")
        target = backend.root / "entry"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"x")
        calls = self._stale_patch(monkeypatch, target, fail_times=99)
        with pytest.raises(BackendUnavailable):
            backend.read_bytes(target)
        assert calls["n"] == 1


class TestEnvWrapping:
    def test_env_wraps_factory_built_backends(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_BACKEND", "seed=3,eio=0.25")
        backend = backend_for(f"local:{tmp_path / 'fab'}")
        assert isinstance(backend, ChaosBackend)
        assert backend.scheme == "chaos+local"
        assert backend.config.seed == 3
        shared = backend_for(f"shared:{tmp_path / 'fab'}")
        assert shared.scheme == "chaos+shared"

    def test_prebuilt_backends_pass_through_unwrapped(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_BACKEND", "eio=1.0")
        prebuilt = LocalDirBackend(tmp_path / "fab")
        assert backend_for(prebuilt) is prebuilt

    def test_no_env_no_wrapping(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_BACKEND", raising=False)
        assert isinstance(backend_for(str(tmp_path / "fab")),
                          LocalDirBackend)
