"""Tests for pluggable cache backends, the LRU size cap, entry-point
mechanism discovery, and heartbeat-board hygiene — the satellite tasks of
the distributed campaign service PR."""

import os
import time

import pytest

from repro.experiments import (
    ArtifactCache,
    BACKEND_CHOICES,
    LocalDirBackend,
    MemoryBackend,
    SharedStoreBackend,
    make_backend,
)


class TestBackendContract:
    """Every backend satisfies the same read/write/remove/entries contract."""

    @pytest.fixture(params=BACKEND_CHOICES)
    def backend(self, request, tmp_path):
        return make_backend(request.param, tmp_path / "store")

    def test_roundtrip(self, backend):
        assert backend.read("results", "fp") is None
        backend.write("results", "fp", b'{"v": 1}')
        assert backend.read("results", "fp") == b'{"v": 1}'

    def test_overwrite_replaces(self, backend):
        backend.write("results", "fp", b"old")
        backend.write("results", "fp", b"newer")
        assert backend.read("results", "fp") == b"newer"

    def test_remove_is_idempotent(self, backend):
        backend.write("results", "fp", b"x")
        backend.remove("results", "fp")
        backend.remove("results", "fp")  # second removal: no error
        assert backend.read("results", "fp") is None

    def test_entries_enumerates_kinds_and_sizes(self, backend):
        backend.write("results", "a", b"aaaa")
        backend.write("traces", "b", b"bb")
        entries = {(e.kind, e.fingerprint): e.size for e in backend.entries()}
        assert entries == {("results", "a"): 4, ("traces", "b"): 2}
        assert backend.total_bytes() == 6


class TestLocalDirBackend:
    def test_layout_is_byte_compatible_with_legacy_caches(self, tmp_path):
        """Pre-backend caches wrote <root>/results/<fp>.json directly;
        the local backend must keep hitting those entries."""
        legacy = tmp_path / "cache" / "results"
        legacy.mkdir(parents=True)
        (legacy / "deadbeef.json").write_bytes(b'{"old": true}')
        backend = LocalDirBackend(tmp_path / "cache")
        assert backend.read("results", "deadbeef") == b'{"old": true}'
        backend.write("results", "cafe", b"{}")
        assert (tmp_path / "cache" / "results" / "cafe.json").exists()

    def test_temp_files_are_not_entries(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        backend.write("results", "fp", b"x")
        (tmp_path / "cache" / "results" / ".junk.123.tmp").write_bytes(b"partial")
        assert [e.fingerprint for e in backend.entries()] == ["fp"]


class TestSharedStoreBackend:
    def test_identical_payloads_share_one_blob(self, tmp_path):
        backend = SharedStoreBackend(tmp_path / "store")
        payload = b'{"result": "same"}'
        backend.write("results", "fp-a", payload)
        backend.write("results", "fp-b", payload)
        backend.write("traces", "fp-c", payload)
        stats = backend.dedup_stats()
        assert stats["refs"] == 3
        assert stats["objects"] == 1
        assert stats["deduped_bytes"] == 2 * len(payload)

    def test_blob_survives_until_last_ref_dies(self, tmp_path):
        backend = SharedStoreBackend(tmp_path / "store")
        payload = b"shared-bytes"
        backend.write("results", "a", payload)
        backend.write("results", "b", payload)
        backend.remove("results", "a")
        assert backend.collect_garbage() == 0  # "b" still references it
        assert backend.read("results", "b") == payload
        backend.remove("results", "b")
        assert backend.collect_garbage() == len(payload)

    def test_dangling_ref_reads_as_miss_and_self_heals(self, tmp_path):
        backend = SharedStoreBackend(tmp_path / "store")
        backend.write("results", "fp", b"doomed")
        # Simulate a GC'd/corrupted-away blob behind a live ref.
        for shard in (tmp_path / "store" / "objects").iterdir():
            for obj in shard.iterdir():
                obj.unlink()
        assert backend.read("results", "fp") is None
        assert backend.entries() == [] or all(
            e.fingerprint != "fp" for e in backend.entries()
        )

    def test_make_backend_rejects_unknown_and_rootless(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            make_backend("s3", tmp_path)
        with pytest.raises(ValueError, match="requires a root"):
            make_backend("shared", None)


class TestSizeCapLRU:
    def test_put_evicts_least_recently_used_first(self, tmp_path):
        backend = MemoryBackend()
        cache = ArtifactCache(backend=backend, max_bytes=40)
        cache.put_result("old", {"pad": "x" * 5})
        cache.put_result("hot", {"pad": "y" * 5})
        cache.get_result("old")  # refresh: "old" is now the MRU entry
        cache.put_result("new", {"pad": "z" * 5})  # overflows the cap
        assert cache.get_result("hot") is None  # LRU victim
        assert cache.get_result("old") is not None
        assert cache.get_result("new") is not None
        assert cache.stats.evicted == 1

    def test_disk_lru_uses_mtime(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        cache.put_result("stale", {"v": 1})
        cache.put_result("fresh", {"v": 2})
        # Force a clear mtime ordering without sleeping.
        old = time.time() - 1000
        os.utime(tmp_path / "cache" / "results" / "stale.json", (old, old))
        report = cache.prune(max_bytes=10)
        assert report.evicted == 1
        assert cache.get_result("fresh") is not None
        assert cache.get_result("stale") is None

    def test_prune_zero_empties_and_gc_runs(self, tmp_path):
        backend = SharedStoreBackend(tmp_path / "store")
        cache = ArtifactCache(backend=backend)
        cache.put_result("a", {"v": 1})
        cache.put_result("b", {"v": 1})  # dedup: same blob
        report = cache.prune(max_bytes=0)
        assert report.evicted == 2
        assert report.gc_bytes > 0  # orphaned blob collected
        assert report.remaining_entries == 0
        assert backend.total_bytes() == 0

    def test_env_var_cap_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "25")
        cache = ArtifactCache(backend=MemoryBackend())
        assert cache.max_bytes == 25
        cache.put_result("a", {"pad": "x" * 10})
        cache.put_result("b", {"pad": "y" * 10})
        assert cache.backend.total_bytes() <= 25

    def test_usage_reports_backend_and_kinds(self, tmp_path):
        cache = ArtifactCache(backend=MemoryBackend(), max_bytes=1000)
        cache.put_result("a", {"v": 1})
        usage = cache.usage()
        assert usage["entries"] == 1
        assert usage["max_bytes"] == 1000
        assert "results" in usage["kinds"]
        assert usage["backend"].startswith("memory")


class TestEntryPointDiscovery:
    """Out-of-tree mechanisms register via the ``repro.mechanisms``
    entry-point group (satellite: plugin discovery).  The tests simulate
    an installed dummy distribution by monkeypatching
    ``importlib.metadata.entry_points``."""

    def _registry_with_entry_points(self, monkeypatch, points):
        import importlib.metadata

        from repro.mechanisms import ENTRY_POINT_GROUP
        from repro.mechanisms.registry import MechanismRegistry

        def fake_entry_points(*args, **kwargs):
            assert kwargs.get("group") == ENTRY_POINT_GROUP
            return points

        monkeypatch.setattr(importlib.metadata, "entry_points", fake_entry_points)
        return MechanismRegistry()

    @staticmethod
    def _clone_spec(name):
        """An aos clone under a new name + cache token (tokens must be
        unique registry-wide or cached artifacts would collide)."""
        import dataclasses

        from repro.mechanisms import REGISTRY

        return dataclasses.replace(
            REGISTRY.get("aos"), name=name, cache_token=f"token-{name}"
        )

    def test_callable_entry_point_registers_mechanism(self, monkeypatch):
        clone = self._clone_spec("thirdparty-aos")

        class FakeEntryPoint:
            name = "thirdparty"

            @staticmethod
            def load():
                return lambda registry: registry.register(clone)

        registry = self._registry_with_entry_points(monkeypatch, [FakeEntryPoint()])
        assert "thirdparty-aos" in registry.names()
        assert registry.get("thirdparty-aos").factory is clone.factory

    def test_spec_entry_point_registers_directly(self, monkeypatch):
        clone = self._clone_spec("dummy-dist-mech")

        class FakeEntryPoint:
            name = "dummy"

            @staticmethod
            def load():
                return clone

        registry = self._registry_with_entry_points(monkeypatch, [FakeEntryPoint()])
        assert "dummy-dist-mech" in registry.names()

    def test_broken_entry_point_warns_and_is_skipped(self, monkeypatch):
        good = self._clone_spec("survivor-mech")

        class BrokenEntryPoint:
            name = "broken"

            @staticmethod
            def load():
                raise ImportError("plugin has a bug")

        class GoodEntryPoint:
            name = "good"

            @staticmethod
            def load():
                return good

        with pytest.warns(RuntimeWarning, match="broken"):
            registry = self._registry_with_entry_points(
                monkeypatch, [BrokenEntryPoint(), GoodEntryPoint()]
            )
            names = registry.names()
        # The bad plugin is skipped without poisoning discovery.
        assert "survivor-mech" in names

    def test_non_spec_non_callable_entry_point_is_skipped(self, monkeypatch):
        class JunkEntryPoint:
            name = "junk"

            @staticmethod
            def load():
                return 42

        with pytest.warns(RuntimeWarning, match="junk"):
            registry = self._registry_with_entry_points(monkeypatch, [JunkEntryPoint()])
            registry.names()

    def test_global_registry_still_serves_builtins(self):
        """Entry-point discovery must not disturb the builtin set the
        rest of the repo (CLI choices, sweeps) enumerates."""
        from repro.mechanisms import REGISTRY

        assert "aos" in REGISTRY.names()


class TestHeartbeatHygiene:
    """Stale heartbeat files from crashed runs are swept, not trusted
    (satellite: heartbeat hygiene)."""

    def test_sweep_stale_removes_old_stamps_only(self, tmp_path):
        from repro.supervise import HeartbeatBoard

        board = HeartbeatBoard(tmp_path / "board")
        board.start_task("fresh-task")
        board.start_task("old-task")
        # Age every stamp, then re-stamp the fresh task: what remains old
        # is exactly old-task's .start/.beat pair.
        old = time.time() - 7200
        for stamp in (tmp_path / "board").iterdir():
            os.utime(stamp, (old, old))
        board.start_task("fresh-task")
        removed = board.sweep_stale(max_age_s=3600)
        assert removed == 2  # old-task's .start (+ no .beat) and stale leftovers
        assert board.last_beat("fresh-task") is not None
