"""Concurrent-writer atomicity for shared on-disk state (repro.atomicio).

The plan cache and the BENCH_*.json reports are written by concurrent
soak/tune/service workers.  The regression these tests pin: writes must
go through a *unique* temp file + ``os.replace`` — a fixed ``.tmp`` name
lets writer B truncate writer A's temp mid-write and rename a torn file
into place, which is exactly the corruption a reader then loads.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.atomicio import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        path = tmp_path / "out.txt"
        assert atomic_write_text(path, "hello") == path
        assert path.read_text() == "hello"

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_no_temp_left_on_success(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"x" * 1024)
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_temp_cleaned_up_on_failure(self, tmp_path, monkeypatch):
        import repro.atomicio as atomicio

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicio.os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "out.bin", b"payload")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_never_tear(self, tmp_path):
        """N threads hammer the same path with distinct payloads while a
        reader samples it: every observed state must be one writer's
        complete payload, never a mix or a truncation."""
        path = tmp_path / "contended.json"
        workers = 8
        rounds = 40
        payloads = {
            i: json.dumps({"writer": i, "fill": "x" * (2000 + 137 * i)}, sort_keys=True)
            for i in range(workers)
        }
        complete = set(payloads.values())
        errors = []
        stop = threading.Event()

        def writer(i):
            try:
                for _ in range(rounds):
                    atomic_write_text(path, payloads[i])
            except Exception as err:  # pragma: no cover - failure path
                errors.append(f"writer {i}: {err}")

        def reader():
            while not stop.is_set():
                try:
                    text = path.read_text()
                except FileNotFoundError:
                    continue
                if text not in complete:
                    errors.append(f"torn read: {text[:80]!r}... ({len(text)} bytes)")
                    return

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(workers)]
        observer = threading.Thread(target=reader)
        observer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        observer.join()
        assert errors == []
        assert path.read_text() in complete


class TestPlanCacheConcurrency:
    def test_concurrent_saves_leave_valid_cache(self, tmp_path, monkeypatch):
        """Many PlanCache.save() calls racing on one path must always
        leave a parseable cache file (the pre-atomicio failure mode was
        a torn JSON file that silently reset everyone's plans)."""
        from repro.tuning.cache import PlanCache

        cache_path = tmp_path / "cache.json"
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(cache_path))
        errors = []

        def saver(i):
            try:
                cache = PlanCache()
                for _ in range(20):
                    cache.save()
            except Exception as err:  # pragma: no cover - failure path
                errors.append(str(err))

        threads = [threading.Thread(target=saver, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        json.loads(cache_path.read_text())
        assert PlanCache() is not None  # loads cleanly


class TestBenchJsonAtomicity:
    def test_write_bench_json_is_atomic(self, tmp_path):
        from repro.bench.harness import write_bench_json

        payloads = [{"round": i, "fill": "y" * 3000} for i in range(6)]
        threads = [
            threading.Thread(target=write_bench_json, args=("atomic", p, tmp_path))
            for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        data = json.loads((tmp_path / "BENCH_atomic.json").read_text())
        assert data["round"] in range(6)
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_atomic.json"]
