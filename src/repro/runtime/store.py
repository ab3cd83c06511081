"""On-disk persistence for the oracle cache.

A :class:`SQLiteStore` is a process-safe key/value table of JSON
payloads. Worker processes of one sweep share a single database file:
SQLite's own locking (plus WAL journaling and a generous busy timeout)
serializes the writes, and because every entry is content-addressed a
lost race simply re-writes an identical row.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Any, Dict, Mapping, Optional, Sequence

_SCHEMA = """
CREATE TABLE IF NOT EXISTS oracle_cache (
    key     TEXT PRIMARY KEY,
    value   TEXT NOT NULL,
    created REAL NOT NULL
)
"""


class SQLiteStore:
    """Persistent JSON key/value store backing :class:`OracleCache`."""

    def __init__(self, path: str, busy_timeout: float = 30.0) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, timeout=busy_timeout)
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                self._conn.execute(_SCHEMA)
                self._conn.commit()
                return
            except sqlite3.OperationalError as error:
                # Workers that open a fresh file at the same moment race
                # on the switch to WAL, and SQLite reports that race as
                # "database is locked" without consulting the busy
                # timeout; wait it out here instead.
                if "locked" in str(error) and time.monotonic() < deadline:
                    self._conn.rollback()
                    time.sleep(0.01)
                    continue
                self._conn.close()
                raise
            except sqlite3.DatabaseError:
                # A corrupt/garbage file fails here, not in connect();
                # release the handle before surfacing it so the caller's
                # degradation path does not leak a connection.
                self._conn.close()
                raise

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT value FROM oracle_cache WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Fetch every present key in one query (absent keys are omitted)."""
        found: Dict[str, Dict[str, Any]] = {}
        distinct = list(dict.fromkeys(keys))
        # SQLite caps host parameters per statement; stay well below it.
        for start in range(0, len(distinct), 500):
            chunk = distinct[start : start + 500]
            placeholders = ",".join("?" for _ in chunk)
            rows = self._conn.execute(
                f"SELECT key, value FROM oracle_cache "
                f"WHERE key IN ({placeholders})",
                chunk,
            ).fetchall()
            for key, value in rows:
                found[key] = json.loads(value)
        return found

    def put(self, key: str, value: Dict[str, Any]) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO oracle_cache (key, value, created) "
            "VALUES (?, ?, ?)",
            (key, json.dumps(value, sort_keys=True), time.time()),
        )
        self._conn.commit()

    def put_many(self, entries: Mapping[str, Dict[str, Any]]) -> None:
        """Insert a batch of entries in one transaction."""
        if not entries:
            return
        now = time.time()
        self._conn.executemany(
            "INSERT OR REPLACE INTO oracle_cache (key, value, created) "
            "VALUES (?, ?, ?)",
            [
                (key, json.dumps(value, sort_keys=True), now)
                for key, value in entries.items()
            ],
        )
        self._conn.commit()

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM oracle_cache").fetchone()[0]

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SQLiteStore({self.path!r}, entries={len(self)})"
