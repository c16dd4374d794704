"""Tests for the on-disk artifact store: its directory layout, atomic
writes, the LRU size cap, and the ``repro cache`` maintenance command."""

import os
import time

import pytest

from repro.cli import main
from repro.experiments import ArtifactCache


def _age(path, seconds):
    """Set ``path``'s mtime ``seconds`` into the past (no sleeping)."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestStoreContract:
    """Read, overwrite, remove and enumerate on a ``tmp_path`` store."""

    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        assert cache.get_result("fp") is None
        cache.put_result("fp", {"v": 1})
        assert cache.get_result("fp") == {"v": 1}

    def test_overwrite_replaces(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        cache.put_result("fp", {"v": "old"})
        cache.put_result("fp", {"v": "newer"})
        assert cache.get_result("fp") == {"v": "newer"}

    def test_remove_is_idempotent(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        cache.put_result("fp", {"v": 1})
        cache.remove("results", "fp")
        cache.remove("results", "fp")  # second removal: no error
        assert cache.get_result("fp") is None

    def test_entries_enumerates_kinds_and_sizes(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        cache.put_result("a", {"v": 1})
        (tmp_path / "store" / "traces").mkdir()
        (tmp_path / "store" / "traces" / "b.pkl").write_bytes(b"bb")
        entries = {(e.kind, e.fingerprint): e.size for e in cache.entries()}
        assert entries == {("results", "a"): len(b'{"v": 1}'), ("traces", "b"): 2}
        assert cache.usage()["bytes"] == len(b'{"v": 1}') + 2


class TestOnDiskLayout:
    def test_layout_is_byte_compatible_with_legacy_caches(self, tmp_path):
        """Earlier versions wrote <root>/results/<fp>.json directly; the
        store keeps hitting those entries and writes the same layout."""
        legacy = tmp_path / "cache" / "results"
        legacy.mkdir(parents=True)
        (legacy / "deadbeef.json").write_bytes(b'{"old": true}')
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.get_result("deadbeef") == {"old": True}
        cache.put_result("cafe", {})
        assert (legacy / "cafe.json").read_bytes() == b"{}"

    def test_native_modules_are_entries_and_prunable(self, tmp_path):
        """The C kernel's ``native/<digest><EXT_SUFFIX>`` builds share the
        directory; a dotted suffix still maps back to the same file."""
        native = tmp_path / "cache" / "native"
        native.mkdir(parents=True)
        built = native / "abc123.cpython-312-x86_64-linux-gnu.so"
        built.write_bytes(b"\x7fELF")
        cache = ArtifactCache(tmp_path / "cache")
        assert [(e.kind, e.size) for e in cache.entries()] == [("native", 4)]
        assert cache.prune(max_bytes=0).evicted == 1
        assert not built.exists()

    def test_temp_files_are_not_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put_result("fp", {"v": 1})
        (tmp_path / "cache" / "results" / ".junk.123.tmp").write_bytes(b"partial")
        assert [e.fingerprint for e in cache.entries()] == ["fp"]

    def test_failed_write_leaves_no_entry_and_no_temp_file(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cache.put_result("fp", {"v": 1})
        assert list((tmp_path / "cache" / "results").iterdir()) == []
        assert cache.stats.stores == 0


class TestSizeCapLRU:
    def test_put_evicts_least_recently_used_first(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache", max_bytes=40)
        results = tmp_path / "cache" / "results"
        cache.put_result("old", {"pad": "x" * 5})
        cache.put_result("hot", {"pad": "y" * 5})
        _age(results / "old.json", 2000)  # written first...
        _age(results / "hot.json", 1000)
        cache.get_result("old")  # ...but used last: "hot" is now the LRU
        cache.put_result("new", {"pad": "z" * 5})  # overflows the cap
        assert cache.get_result("hot") is None  # LRU victim
        assert cache.get_result("old") is not None
        assert cache.get_result("new") is not None
        assert cache.stats.evicted == 1

    def test_disk_lru_uses_mtime(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        cache.put_result("stale", {"v": 1})
        cache.put_result("fresh", {"v": 2})
        _age(tmp_path / "cache" / "results" / "stale.json", 1000)
        report = cache.prune(max_bytes=10)
        assert report.evicted == 1
        assert cache.get_result("fresh") is not None
        assert cache.get_result("stale") is None

    def test_prune_zero_empties(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        cache.put_result("a", {"v": 1})
        cache.put_result("b", {"v": 1})
        report = cache.prune(max_bytes=0)
        assert report.evicted == 2
        assert report.remaining_entries == 0
        assert cache.entries() == []

    def test_env_var_cap_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "25")
        cache = ArtifactCache(tmp_path / "store")
        assert cache.max_bytes == 25
        cache.put_result("a", {"pad": "x" * 10})
        cache.put_result("b", {"pad": "y" * 10})
        assert cache.usage()["bytes"] <= 25

    def test_usage_reports_root_and_kinds(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store", max_bytes=1000)
        cache.put_result("a", {"v": 1})
        usage = cache.usage()
        assert usage["entries"] == 1
        assert usage["max_bytes"] == 1000
        assert "results" in usage["kinds"]
        assert usage["root"] == str(tmp_path / "store")


class TestCacheCommand:
    """``python -m repro cache`` on a ``tmp_path`` store."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.put_result("a", {"v": 1})
        cache.put_result("b", {"v": 22})
        (root / "traces").mkdir()
        (root / "traces" / "t.pkl").write_bytes(b"trace")
        return root

    def test_stats_lists_kinds_and_cap(self, store, capsys):
        assert main(["cache", "--cache-dir", str(store), "--stats",
                     "--cache-max-bytes", "4096"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"artifact cache @ {store}",
            "  entries: 3  bytes: 22  cap: 4096",
            "  results: 2 entries, 17 bytes",
            "  traces: 1 entries, 5 bytes",
        ]

    def test_stats_is_the_default_action(self, store, capsys):
        assert main(["cache", "--cache-dir", str(store)]) == 0
        assert "  entries: 3  bytes: 22  cap: unlimited" in capsys.readouterr().out

    def test_prune_to_zero_empties_the_store(self, store, capsys):
        assert main(["cache", "--cache-dir", str(store), "--prune",
                     "--cache-max-bytes", "0"]) == 0
        assert capsys.readouterr().out.strip() == (
            "evicted 3 entries (22 bytes reclaimed); 0 entries / 0 bytes remain"
        )
        assert ArtifactCache(store).entries() == []

    def test_no_cache_is_an_error(self, store, capsys):
        assert main(["cache", "--no-cache", "--stats"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "repro: error: cache --no-cache is contradictory"

    def test_prune_without_a_cap_is_an_error(self, store, capsys):
        assert main(["cache", "--cache-dir", str(store), "--prune"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: cache --prune needs a cap")
        assert len(err.strip().splitlines()) == 1
        assert len(ArtifactCache(store).entries()) == 3  # nothing evicted
