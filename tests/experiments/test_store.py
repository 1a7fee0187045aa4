"""Tests for the content-addressed per-run-file ResultStore."""

import os
import threading

from repro.experiments.store import (
    ResultStore,
    default_store,
    set_default_store,
)


class TestBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("abcdef0123", {"ipc": 2.5, "extras": {"e": 1.0}})
        assert store.get("abcdef0123") == {"ipc": 2.5, "extras": {"e": 1.0}}
        assert store.get("missing") is None

    def test_per_run_file_layout(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("abcdef0123", {"x": 1})
        store.put("ab99999999", {"x": 2})
        store.put("cd00000000", {"x": 3})
        # Sharded by key prefix, one JSON file per run.
        assert os.path.exists(tmp_path / "store" / "ab" / "abcdef0123.json")
        assert os.path.exists(tmp_path / "store" / "ab" / "ab99999999.json")
        assert os.path.exists(tmp_path / "store" / "cd" / "cd00000000.json")

    def test_persistence_across_instances(self, tmp_path):
        ResultStore(str(tmp_path / "store")).put("aa11", {"v": 7})
        fresh = ResultStore(str(tmp_path / "store"))
        assert fresh.get("aa11") == {"v": 7}
        assert "aa11" in fresh
        assert len(fresh) == 1
        assert list(fresh.keys()) == ["aa11"]

    def test_clear_memory_vs_disk(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("aa11", {"v": 7})
        store.clear()
        assert store.get("aa11") == {"v": 7}  # reloaded from disk
        store.clear(disk=True)
        assert store.get("aa11") is None
        assert len(store) == 0

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("aa11", {"v": 7})
        store.clear()
        path = tmp_path / "store" / "aa" / "aa11.json"
        path.write_text("{not json")
        assert store.get("aa11") is None

    def test_info(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put("aa11", {"v": 7})
        info = store.info()
        assert info["entries"] == 1
        assert info["path"] == str(tmp_path / "store")


class TestConcurrency:
    def test_concurrent_writers(self, tmp_path):
        """Many threads writing distinct and shared keys must not corrupt."""
        store = ResultStore(str(tmp_path / "store"))
        errors = []

        def writer(tid):
            try:
                for n in range(20):
                    store.put(f"aa{tid:02d}{n:04d}", {"tid": tid, "n": n})
                    store.put("shared00", {"same": "content"})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        fresh = ResultStore(str(tmp_path / "store"))  # disk-only view
        assert fresh.get("shared00") == {"same": "content"}
        for tid in range(8):
            for n in range(20):
                assert fresh.get(f"aa{tid:02d}{n:04d}") == {"tid": tid, "n": n}
        assert len(fresh) == 8 * 20 + 1

    def test_no_leftover_temp_files(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        for n in range(10):
            store.put(f"aa{n:04d}", {"n": n})
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path / "store")
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestDefaultStore:
    def test_respects_repro_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env_store"))
        set_default_store(None)
        store = default_store()
        assert store.root == str(tmp_path / "env_store")
        assert default_store() is store  # singleton until reset

    def test_set_default_store_returns_previous(self, tmp_path):
        mine = ResultStore(str(tmp_path / "mine"))
        previous = set_default_store(mine)
        try:
            assert default_store() is mine
        finally:
            set_default_store(previous)
