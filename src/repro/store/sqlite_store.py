"""SQLite-backed ResultStore: WAL-mode persistence of experiment records.

One table, one invariant: a row is the finished
:class:`~repro.experiments.sweep.ExperimentRecord` of exactly one
``(spec_key, code_fingerprint)`` pair.  ``get_many`` answers a whole plan's
lookup in one query; ``put_many`` upserts inside one transaction (WAL mode
plus a generous busy timeout make concurrent writer *processes* safe — the
two-process test in ``tests/test_store.py`` pins this).  The schema carries
a version header: opening a store written by a **newer** schema refuses
loudly instead of misreading it, and a file that is not a SQLite database at
all produces a recovery message naming the path.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.store.keys import code_fingerprint, spec_key

#: bump when the table layout changes; older code refuses newer stores
SCHEMA_VERSION = 1

#: default store location (overridable via $REPRO_STORE and the CLI flags)
DEFAULT_STORE_FILENAME = ".repro-store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    spec_key    TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    protocol    TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    record_json TEXT NOT NULL,
    created_at  REAL NOT NULL,
    PRIMARY KEY (spec_key, fingerprint)
);
CREATE INDEX IF NOT EXISTS idx_records_fingerprint ON records (fingerprint);
CREATE INDEX IF NOT EXISTS idx_records_protocol ON records (protocol);
"""


class StoreError(RuntimeError):
    """A result store could not be opened or refused the running code."""


def default_store_path() -> str:
    """``$REPRO_STORE`` when set, else ``.repro-store.sqlite`` in the CWD."""
    return os.environ.get("REPRO_STORE") or DEFAULT_STORE_FILENAME


def resolve_store(
    store: Optional[str], no_store: bool = False
) -> Optional["ResultStore"]:
    """CLI flag resolution: ``--no-store`` wins; ``--store`` (``""`` = "use
    the default path") next; then ``$REPRO_STORE``; with neither flag nor
    env var set there is no store."""
    if no_store:
        return None
    if store is not None:
        return ResultStore(store or default_store_path())
    env = os.environ.get("REPRO_STORE")
    return ResultStore(env) if env else None


class ResultStore:
    """Content-addressed persistence of experiment records.

    Parameters
    ----------
    path:
        SQLite database file; created (with parent directories) on first
        open.  ``":memory:"`` gives a process-private ephemeral store.
    fingerprint:
        The code identity new records are stamped with and lookups are
        matched against; defaults to :func:`repro.store.keys.code_fingerprint`.

    The instance is safe to share across threads (one connection guarded by
    a lock — the service's request threads and its background worker all go
    through one store), and separate *processes* each open their own
    instance against the same file (WAL mode).
    """

    def __init__(self, path: str, fingerprint: Optional[str] = None) -> None:
        self.path = str(path)
        self.fingerprint = fingerprint or code_fingerprint()
        parent = os.path.dirname(os.path.abspath(self.path))
        if self.path != ":memory:" and parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        #: specs :meth:`get_many` found and missed since this instance opened
        self._lookup_hits = 0
        self._lookup_misses = 0
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            with self._conn:
                self._conn.executescript(_SCHEMA)
                self._check_schema_version()
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"result store at {self.path!r} is not a readable SQLite "
                f"database ({exc}); if it is corrupted, delete the file to "
                f"start a fresh store (records are re-computable from specs)"
            ) from exc

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_schema_version(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            return
        found = int(row[0])
        if found > SCHEMA_VERSION:
            raise StoreError(
                f"result store at {self.path!r} uses schema version {found}, "
                f"newer than this code's version {SCHEMA_VERSION}; refusing "
                f"to read it — upgrade the package (or point --store at a "
                f"fresh path)"
            )

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get_many(self, specs: Sequence) -> List[Optional[object]]:
        """Records for ``specs`` under the current fingerprint, aligned with
        the input (``None`` per miss) — one query for the whole plan."""
        from repro.experiments.sweep import ExperimentRecord

        keys = [spec_key(spec) for spec in specs]
        if not keys:
            return []
        found: Dict[str, str] = {}
        with self._lock:
            # chunked IN (...) lookup: SQLite's default variable limit is 999
            for start in range(0, len(keys), 500):
                chunk = sorted(set(keys[start : start + 500]))
                marks = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT spec_key, record_json FROM records "
                    f"WHERE fingerprint = ? AND spec_key IN ({marks})",
                    [self.fingerprint, *chunk],
                ).fetchall()
                found.update(rows)
            hits = sum(map(found.__contains__, keys))
            self._lookup_hits += hits
            self._lookup_misses += len(keys) - hits
        return [
            ExperimentRecord.from_dict(json.loads(found[key])) if key in found else None
            for key in keys
        ]

    def get(self, spec) -> Optional[object]:
        """The record for one spec, or ``None`` on a miss."""
        return self.get_many([spec])[0]

    def query(
        self,
        protocol: Optional[str] = None,
        fingerprint: Optional[str] = None,
        limit: int = 100,
    ) -> List[Dict[str, object]]:
        """Record dicts matching the filters, newest first (service queries)."""
        clauses, args = [], []
        if protocol is not None:
            clauses.append("protocol = ?")
            args.append(protocol)
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            args.append(fingerprint)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT record_json FROM records {where} "
                f"ORDER BY created_at DESC, spec_key LIMIT ?",
                [*args, max(0, int(limit))],
            ).fetchall()
        return [json.loads(row[0]) for row in rows]

    def stats(self) -> Dict[str, object]:
        """Store summary: totals, per-fingerprint and per-protocol counts.

        ``lookup_hits`` / ``lookup_misses`` count the specs this instance's
        :meth:`get_many` found and missed since it was opened (a fresh
        ``python -m repro store stats`` reads 0/0).
        """
        with self._lock:
            total = self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            by_fingerprint = dict(
                self._conn.execute(
                    "SELECT fingerprint, COUNT(*) FROM records "
                    "GROUP BY fingerprint ORDER BY fingerprint"
                ).fetchall()
            )
            by_protocol = dict(
                self._conn.execute(
                    "SELECT protocol, COUNT(*) FROM records "
                    "GROUP BY protocol ORDER BY protocol"
                ).fetchall()
            )
            hits, misses = self._lookup_hits, self._lookup_misses
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "records": total,
            "current_fingerprint": self.fingerprint,
            "current_fingerprint_records": by_fingerprint.get(self.fingerprint, 0),
            "by_fingerprint": by_fingerprint,
            "by_protocol": by_protocol,
            "size_bytes": size,
            "lookup_hits": hits,
            "lookup_misses": misses,
        }

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put_many(self, records: Iterable) -> int:
        """Upsert records under the current fingerprint; returns the count.

        Records are stamped with the store's fingerprint regardless of where
        they were computed — callers are expected to hand over records they
        just ran under this code identity.
        """
        now = time.time()
        rows = []
        for record in records:
            # Natural (insertion) key order, NOT sort_keys: a served record
            # must re-serialize byte-identically to the freshly computed one,
            # and dict order (e.g. protocol extras) survives the round trip
            # only if stored as produced.
            data = record.to_dict()
            rows.append(
                (
                    spec_key(record.spec),
                    self.fingerprint,
                    record.spec.protocol,
                    json.dumps(data["spec"], separators=(",", ":")),
                    json.dumps(data, separators=(",", ":")),
                    now,
                )
            )
        if not rows:
            return 0
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO records "
                "(spec_key, fingerprint, protocol, spec_json, record_json, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def put(self, record) -> None:
        """Upsert one record (the sweep runner's incremental flush)."""
        self.put_many([record])

    def prune(
        self, fingerprint: Optional[str] = None, keep_current: bool = False
    ) -> int:
        """Delete records by fingerprint; returns the number removed.

        ``fingerprint`` deletes exactly that code identity's records;
        ``keep_current=True`` deletes everything *except* the store's own
        fingerprint (the "garbage-collect stale code" mode).  Exactly one of
        the two must be given.
        """
        if (fingerprint is None) == (not keep_current):
            raise ValueError(
                "prune needs exactly one of fingerprint=... or keep_current=True"
            )
        with self._lock, self._conn:
            if keep_current:
                cursor = self._conn.execute(
                    "DELETE FROM records WHERE fingerprint != ?", (self.fingerprint,)
                )
            else:
                cursor = self._conn.execute(
                    "DELETE FROM records WHERE fingerprint = ?", (fingerprint,)
                )
        return cursor.rowcount
