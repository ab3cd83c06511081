"""Worker-process cache lifecycle: store teardown and corrupt-DB degradation."""

import os
import shutil

import pytest

from repro.runtime import worker
from repro.runtime.job import JobSpec
from repro.runtime.scheduler import Scheduler


def _tiny_spec():
    return JobSpec(
        "rpl",
        sizes={"n_a": 1, "n_b": 0},
        engine={"scenario": "complete", "max_iterations": 200},
        label="lifecycle",
    )


class TestStoreTeardown:
    def test_close_process_oracles_releases_sqlite_sidecars(self, tmp_path):
        path = str(tmp_path / "oracle.db")
        oracle = worker._oracle_for(path, use_cache=True)
        oracle.store.put("k", {"v": 1})
        assert os.path.exists(path + "-wal")  # WAL sidecar while open
        worker.close_process_oracles()
        assert not worker._PROCESS_ORACLES
        # SQLite removes -wal/-shm when the last connection closes.
        assert not os.path.exists(path + "-wal")
        assert not os.path.exists(path + "-shm")

    def test_close_is_idempotent_and_reentrant(self, tmp_path):
        worker._oracle_for(str(tmp_path / "a.db"), use_cache=True)
        worker.close_process_oracles()
        worker.close_process_oracles()  # second close must not raise

    def test_oracle_close_survives_closed_store(self, tmp_path):
        oracle = worker._oracle_for(str(tmp_path / "b.db"), use_cache=True)
        oracle.close()
        oracle.close()  # store already detached: no-op


class TestPooledStoreTeardown:
    def test_pool_close_leaves_a_self_contained_cache(self, tmp_path):
        # Pool workers skip atexit handlers; their finalizer must close
        # the store so every answer is checkpointed into oracle.db.
        path = tmp_path / "oracle.db"
        specs = [
            _tiny_spec(),
            JobSpec("epn", sizes={"left": 1, "right": 0, "apu": 0}),
        ]
        with Scheduler(max_workers=1, cache_path=str(path)) as scheduler:
            cold = scheduler.run(specs)
        assert [r.status for r in cold] == ["optimal", "optimal"]
        assert all(r.cache["misses"] > 0 for r in cold)
        assert not os.path.exists(f"{path}-wal")
        assert not os.path.exists(f"{path}-shm")
        copy = tmp_path / "copy" / "oracle.db"
        copy.parent.mkdir()
        shutil.copyfile(path, copy)
        warm = Scheduler(serial=True, cache_path=str(copy)).run(specs)
        assert [r.status for r in warm] == ["optimal", "optimal"]
        assert [r.cache["misses"] for r in warm] == [0, 0]
        assert all(r.cache["hits"] > 0 for r in warm)


class TestCorruptCacheDegradation:
    def test_corrupt_db_degrades_to_memory_only(self, tmp_path):
        garbage = tmp_path / "corrupt.db"
        garbage.write_bytes(b"this is not a sqlite database at all\x00\xff")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            oracle = worker._oracle_for(str(garbage), use_cache=True)
        assert oracle is not None and oracle.store is None

    def test_jobs_still_succeed_and_record_the_warning(self, tmp_path):
        garbage = tmp_path / "corrupt.db"
        garbage.write_bytes(b"\x00" * 64)
        with pytest.warns(RuntimeWarning):
            results = Scheduler(
                serial=True, cache_path=str(garbage), use_cache=True
            ).run([_tiny_spec()])
        assert results[0].status == "optimal"
        assert "degraded" in results[0].cache["warning"]
