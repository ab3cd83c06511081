"""OracleCache behaviour: memoization, LRU, persistence, correctness."""

import sqlite3

import pytest

from repro.casestudies import rpl
from repro.explore.encoding import build_candidate_milp
from repro.explore.engine import ContrArcExplorer
from repro.expr.terms import continuous
from repro.runtime.oracle import OracleCache
from repro.runtime.store import SQLiteStore
from repro.solver.feasibility import check_sat, get_backend
from repro.solver.result import SolveStatus


class TestSatMemoization:
    def test_hit_on_equivalent_formula(self):
        oracle = OracleCache()
        f1 = continuous("x", 0, 10) + 2 <= 5
        r1 = check_sat(f1, oracle=oracle)
        f2 = continuous("x", 0, 10) + 2 <= 5  # distinct Var object
        r2 = check_sat(f2, oracle=oracle)
        assert oracle.stats.hits == 1 and oracle.stats.misses == 1
        assert r1.satisfiable == r2.satisfiable

    def test_witness_rebound_to_query_vars(self):
        oracle = OracleCache()
        x1 = continuous("x", 0, 10)
        check_sat(x1 >= 3, oracle=oracle)
        x2 = continuous("x", 0, 10)
        result = check_sat(x2 >= 3, oracle=oracle)
        assert result.satisfiable
        # The cached witness must be keyed by the *second* query's Var.
        assert x2 in result.assignment
        assert result.assignment[x2] >= 3 - 1e-6

    def test_unsat_cached(self):
        oracle = OracleCache()
        x = continuous("x", 0, 1)
        assert not check_sat(x >= 5, oracle=oracle)
        assert not check_sat(continuous("x", 0, 1) >= 5, oracle=oracle)
        assert oracle.stats.hits == 1

    def test_no_oracle_is_identity(self):
        x = continuous("x", 0, 10)
        assert check_sat(x >= 3).satisfiable
        assert not check_sat(x >= 30).satisfiable


class TestMilpMemoization:
    def test_candidate_milp_served_from_cache(self):
        oracle = OracleCache()
        solve = get_backend("scipy")
        m1 = build_candidate_milp(*rpl.build_problem(1, 0))
        r1 = oracle.milp_solve(m1, "scipy", solve)
        m2 = build_candidate_milp(*rpl.build_problem(1, 0))
        r2 = oracle.milp_solve(m2, "scipy", solve)
        assert oracle.stats.hits == 1
        assert r1.status is SolveStatus.OPTIMAL
        assert r2.status is SolveStatus.OPTIMAL
        assert r2.objective == pytest.approx(r1.objective)
        # The replayed assignment is bound to m2's own variables.
        assert m2.is_feasible(r2.assignment)


class TestLru:
    def test_eviction_keeps_capacity(self):
        oracle = OracleCache(max_entries=2)
        for i in range(5):
            check_sat(continuous(f"x{i}", 0, 1) >= 0.5, oracle=oracle)
        assert len(oracle) == 2
        assert oracle.stats.misses == 5

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            OracleCache(max_entries=0)


class TestPersistence:
    def test_disk_store_survives_new_oracle(self, tmp_path):
        path = str(tmp_path / "cache.db")
        with SQLiteStore(path) as store:
            oracle = OracleCache(store=store)
            check_sat(continuous("x", 0, 10) >= 3, oracle=oracle)
            assert oracle.stats.misses == 1
        with SQLiteStore(path) as store:
            fresh = OracleCache(store=store)
            result = check_sat(continuous("x", 0, 10) >= 3, oracle=fresh)
            assert fresh.stats.hits == 1 and fresh.stats.misses == 0
            assert result.satisfiable

    def test_store_roundtrip(self, tmp_path):
        with SQLiteStore(str(tmp_path / "kv.db")) as store:
            assert store.get("missing") is None
            store.put("k", {"a": 1.5, "b": [1, 2]})
            assert store.get("k") == {"a": 1.5, "b": [1, 2]}
            store.put("k", {"a": 2.0})
            assert store.get("k") == {"a": 2.0}
            assert "k" in store and len(store) == 1


class _LockedOnOpen:
    """Connection double whose switch to WAL first reports a lock.

    Mirrors two workers opening one fresh database file at once: SQLite
    answers the loser's ``PRAGMA journal_mode=WAL`` with "database is
    locked" without waiting on the busy timeout.
    """

    def __init__(self, conn, failures):
        self._conn = conn
        self.failures = failures

    def execute(self, sql, *args):
        if sql.startswith("PRAGMA journal_mode") and self.failures:
            self.failures -= 1
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestStoreOpenRace:
    def _patch_connect(self, monkeypatch, failures):
        real_connect = sqlite3.connect
        doubles = []

        def connect(*args, **kwargs):
            doubles.append(_LockedOnOpen(real_connect(*args, **kwargs), failures))
            return doubles[-1]

        monkeypatch.setattr(sqlite3, "connect", connect)
        return doubles

    def test_open_waits_out_a_transient_lock(self, monkeypatch, tmp_path):
        doubles = self._patch_connect(monkeypatch, failures=3)
        with SQLiteStore(str(tmp_path / "kv.db")) as store:
            store.put("k", {"v": 1})
            assert store.get("k") == {"v": 1}
        assert doubles[0].failures == 0

    def test_lock_outlasting_busy_timeout_raises(self, monkeypatch, tmp_path):
        self._patch_connect(monkeypatch, failures=10**9)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            SQLiteStore(str(tmp_path / "kv.db"), busy_timeout=0.05)


class TestEndToEnd:
    def test_warm_rerun_is_all_hits_and_same_answer(self):
        oracle = OracleCache()
        cold = ContrArcExplorer(*rpl.build_problem(1, 0), oracle=oracle).explore()
        cold_misses = oracle.stats.misses
        warm = ContrArcExplorer(*rpl.build_problem(1, 0), oracle=oracle).explore()
        assert warm.cost == cold.cost
        assert warm.stats.num_iterations == cold.stats.num_iterations
        # The warm run issues the same queries and misses none.
        assert oracle.stats.misses == cold_misses
        assert oracle.stats.hits >= cold_misses

    def test_cached_run_matches_uncached(self):
        plain = ContrArcExplorer(*rpl.build_problem(1, 0)).explore()
        cached = ContrArcExplorer(
            *rpl.build_problem(1, 0), oracle=OracleCache()
        ).explore()
        assert cached.status is plain.status
        assert cached.cost == plain.cost
        assert cached.stats.num_iterations == plain.stats.num_iterations

    @pytest.mark.parametrize("sizes", [(1, 0), (1, 1)])
    def test_run_partly_answered_by_another_keeps_its_trajectory(self, sizes):
        """A job whose first candidate MILPs another job already solved
        (a shared disk oracle) must follow the uncached trajectory: its
        session starts at a later model, not with other tie-breaks."""
        plain = ContrArcExplorer(*rpl.build_problem(*sizes)).explore()
        oracle = OracleCache()
        ContrArcExplorer(
            *rpl.build_problem(*sizes), oracle=oracle, max_iterations=1
        ).explore()
        hits = oracle.stats.hits
        partly = ContrArcExplorer(*rpl.build_problem(*sizes), oracle=oracle).explore()
        assert oracle.stats.hits > hits
        assert partly.cost == plain.cost
        assert partly.stats.num_iterations == plain.stats.num_iterations
        assert partly.stats.total_cuts == plain.stats.total_cuts


class TestStoreBatchedAccess:
    def test_get_many_and_put_many_roundtrip(self, tmp_path):
        with SQLiteStore(str(tmp_path / "kv.db")) as store:
            store.put_many({f"k{i}": {"i": i} for i in range(10)})
            found = store.get_many([f"k{i}" for i in range(12)])
            assert found == {f"k{i}": {"i": i} for i in range(10)}
            assert len(store) == 10

    def test_get_many_deduplicates_keys(self, tmp_path):
        with SQLiteStore(str(tmp_path / "kv.db")) as store:
            store.put("k", {"v": 1})
            assert store.get_many(["k", "k", "k"]) == {"k": {"v": 1}}

    def test_get_many_chunks_large_key_sets(self, tmp_path):
        # More keys than one IN(...) statement carries (500): the reads
        # must be chunked, not truncated.
        with SQLiteStore(str(tmp_path / "kv.db")) as store:
            entries = {f"k{i:04d}": {"i": i} for i in range(1203)}
            store.put_many(entries)
            assert store.get_many(list(entries)) == entries
