"""The relational baseline: SQLite standing in for PostgreSQL.

Two roles live here.  :class:`SqliteEventStore` is a full
:class:`~repro.storage.backend.StorageBackend` implementation (the
``sqlite`` registry entry): an indexed events table that the *optimized
engine* drives through the select/estimate surface, letting the
scheduler's pruning-power ordering and binding propagation run on top of a
relational substrate.  :class:`RelationalBaseline` is the paper's
evaluation baseline, which instead executes the *monolithic* translated
SQL join query.

For the baseline, two storage configurations reproduce the paper's two
comparisons:

* ``optimized=True`` — "PostgreSQL w/ our optimized storage" (Figure 4):
  the events table gets the composite spatial/temporal index plus
  secondary indexes on the attributes AIQL indexes in memory, and the
  planner is fed ANALYZE statistics.
* ``optimized=False`` — "PostgreSQL w/o our optimized storage" (Figure 5):
  a flat heap table with no secondary indexes and SQLite's automatic
  transient indexes disabled, so every join degenerates the way the paper
  describes.

Either way the baseline executes the *monolithic* SQL join query produced
by :mod:`repro.baselines.sql_translator` — all joins and constraints woven
together, scheduling left to the SQL planner — which is precisely the
methodology of the paper's evaluation.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import StorageError, TranslationError
from repro.lang.ast import Query
from repro.model.entities import (Entity, FileEntity, NetworkEntity,
                                  ProcessEntity)
from repro.model.events import Event, validate_operation
from repro.model.timeutil import SECONDS_PER_DAY, SPAN_EPSILON, Window
from repro.baselines.schema import CREATE_EVENTS_SQL, OPTIMIZED_INDEX_SQL
from repro.baselines.sql_translator import translate
from repro.storage.backend import (AccessPathInfo, ScanSpec, StorageBackend,
                                   resolve_spec, select_batches_via_select,
                                   select_via_candidates)
from repro.storage.dedup import EntityInterner
from repro.storage.scanstats import FrequencySketch
from repro.storage.serialize import entity_from_dict, entity_to_dict
from repro.storage.stats import PatternProfile

if TYPE_CHECKING:
    from repro.engine.filters import CompiledPredicate


@dataclass
class SqlRun:
    """One executed SQL statement with its timing and result rows."""

    sql: str
    columns: list[str]
    rows: list[tuple]
    elapsed: float


class RelationalBaseline:
    """An events table in SQLite, loadable from a store or event list."""

    def __init__(self, optimized: bool = True) -> None:
        self.optimized = optimized
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute(CREATE_EVENTS_SQL)
        if not optimized:
            # Without the automatic transient indexes SQLite would quietly
            # build per-join indexes and mask the unoptimized storage.
            self._conn.execute("PRAGMA automatic_index = OFF")
        self._entity_ids: dict[tuple, int] = {}
        self._loaded = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _entity_id(self, identity: tuple) -> int:
        existing = self._entity_ids.get(identity)
        if existing is not None:
            return existing
        assigned = len(self._entity_ids) + 1
        self._entity_ids[identity] = assigned
        return assigned

    def load_events(self, events) -> int:
        """Bulk-insert events (flattening entities into columns)."""
        rows = [self._flatten(event) for event in events]
        self._conn.executemany(
            "INSERT INTO events VALUES (" + ", ".join(["?"] * 28) + ")",
            rows)
        self._conn.commit()
        self._loaded += len(rows)
        return len(rows)

    def load_store(self, store: StorageBackend) -> int:
        return self.load_events(store.scan())

    def finalize(self) -> None:
        """Create indexes and statistics (optimized configuration only)."""
        if self.optimized:
            for statement in OPTIMIZED_INDEX_SQL:
                self._conn.execute(statement)
            self._conn.execute("ANALYZE")
        self._conn.commit()

    def _flatten(self, event: Event) -> tuple:
        subject = event.subject
        obj = event.object
        subj_id = self._entity_id(subject.identity)
        obj_id = self._entity_id(obj.identity)
        base = (event.id, event.ts, event.agentid, event.operation,
                obj.entity_type, event.amount, event.failcode,
                subj_id, subject.agentid, subject.pid, subject.exe_name,
                subject.user, subject.cmdline, subject.start_time, obj_id)
        if isinstance(obj, ProcessEntity):
            return base + (obj.agentid, obj.pid, obj.exe_name, obj.user,
                           obj.cmdline, obj.start_time, None, None,
                           None, None, None, None, None)
        if isinstance(obj, FileEntity):
            return base + (obj.agentid, None, None, None, None, None,
                           obj.name, obj.owner, None, None, None, None,
                           None)
        if isinstance(obj, NetworkEntity):
            return base + (obj.agentid, None, None, None, None, None,
                           None, None, obj.src_ip, obj.src_port,
                           obj.dst_ip, obj.dst_port, obj.protocol)
        raise TranslationError(f"unknown entity type {obj!r}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_sql(self, sql: str) -> SqlRun:
        started = time.perf_counter()
        cursor = self._conn.execute(sql)
        rows = cursor.fetchall()
        elapsed = time.perf_counter() - started
        columns = [desc[0] for desc in cursor.description or ()]
        return SqlRun(sql=sql, columns=columns, rows=rows, elapsed=elapsed)

    def run_query(self, query: Query) -> SqlRun:
        """Translate an AIQL query and execute it."""
        return self.run_sql(translate(query))

    @property
    def event_count(self) -> int:
        return self._loaded

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RelationalBaseline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# SqliteEventStore: the ``sqlite`` StorageBackend
# ---------------------------------------------------------------------------

_BACKEND_SCHEMA = """
CREATE TABLE IF NOT EXISTS backend_events (
    id INTEGER NOT NULL,
    ts REAL NOT NULL,
    agentid INTEGER NOT NULL,
    etype TEXT NOT NULL,
    op TEXT NOT NULL,
    subject_name TEXT NOT NULL,
    object_value TEXT,
    payload TEXT NOT NULL,
    subject_key TEXT NOT NULL DEFAULT '',
    object_key TEXT NOT NULL DEFAULT ''
)
"""

_BACKEND_COLUMNS = ("id", "ts", "agentid", "etype", "op", "subject_name",
                    "object_value", "payload", "subject_key", "object_key")


def _aiql_like(pattern: str, value: object) -> bool:
    """SQL-callable LIKE with the engine's exact (Unicode) semantics."""
    from repro.storage.indexes import like_to_regex
    return (isinstance(value, str)
            and like_to_regex(pattern).match(value) is not None)


def identity_key(identity: tuple) -> str:
    """Canonical text form of an entity identity tuple.

    Identity tuples are flat sequences of JSON scalars, so the compact
    JSON list is a stable, persistent key — the column the identity
    pushdown's ``IN (...)`` predicates compare against.  Numbers are
    normalized to float first: Python compares ``0 == 0.0`` (so the
    engine's identity joins and the ``admits`` fallback treat them as the
    same identity) but their JSON texts differ, and a textual mismatch
    here would silently drop true matches from the pushdown.
    """
    return json.dumps(
        [float(value)
         if isinstance(value, (int, float)) and not isinstance(value, bool)
         else value
         for value in identity],
        separators=(",", ":"))


_BACKEND_INDEXES = (
    "CREATE INDEX IF NOT EXISTS be_agent_ts ON backend_events(agentid, ts)",
    "CREATE INDEX IF NOT EXISTS be_ts ON backend_events(ts)",
    "CREATE INDEX IF NOT EXISTS be_type_op ON backend_events(etype, op)",
    "CREATE INDEX IF NOT EXISTS be_subject ON backend_events(subject_name)",
    "CREATE INDEX IF NOT EXISTS be_object "
    "ON backend_events(etype, object_value)",
    "CREATE INDEX IF NOT EXISTS be_subject_key "
    "ON backend_events(subject_key)",
    "CREATE INDEX IF NOT EXISTS be_object_key "
    "ON backend_events(object_key)",
)


class SqliteEventStore:
    """An indexed SQLite events table behind the StorageBackend surface.

    The index-visible parts of a pattern profile compile to a SQL
    ``WHERE`` clause (the relational analogue of the row store's
    best-access-path selection); the fused residual predicate then runs
    per candidate, exactly as for the row store.  Events round-trip
    through the JSONL wire format in a ``payload`` column, with entities
    re-interned on materialization so identity joins stay canonical.
    """

    backend_name = "sqlite"

    def __init__(self, bucket_seconds: float = SECONDS_PER_DAY,
                 path: str = ":memory:") -> None:
        if bucket_seconds <= 0:
            raise StorageError("bucket size must be positive")
        self._bucket_seconds = bucket_seconds
        # Queries can arrive from several threads (the web UI's server);
        # SQLite connections are not thread-safe, so serialize access.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        with self._lock:
            self._conn.execute(_BACKEND_SCHEMA)
            self._migrate_identity_keys()
            for statement in _BACKEND_INDEXES:
                self._conn.execute(statement)
            # AIQL-LIKE with exact engine semantics (Unicode case folding),
            # so LIKE pushdown can never drop rows SQL LIKE would miss.
            self._conn.create_function(
                "aiql_like", 2, _aiql_like, deterministic=True)
        self._interner = EntityInterner()
        # Identity-key frequency sketches: built lazily on first use (a
        # reopened archive back-fills them with one key scan), updated
        # incrementally on insert.  They cap estimates for binding sets
        # too large to compile into an ``IN (...)`` predicate.
        self._sketches: tuple[FrequencySketch, FrequencySketch] | None = None
        # A persistent path may reopen an existing table: resume counters
        # from it so len()/span stay truthful and new ids never collide.
        row = self._conn.execute(
            "SELECT COUNT(*), MAX(id) FROM backend_events").fetchone()
        self._count = int(row[0])
        self._max_id = int(row[1]) if row[1] is not None else 0

    #: Bounded retry for write transactions that hit SQLITE_BUSY — a
    #: persistent archive can be shared with another process holding the
    #: write lock.  ``BUSY_BACKOFF`` seconds before the first retry,
    #: doubling each attempt; after ``BUSY_RETRIES`` retries the busy
    #: error surfaces as a :class:`~repro.errors.StorageError`.
    BUSY_RETRIES = 5
    BUSY_BACKOFF = 0.01

    @staticmethod
    def _is_busy(exc: sqlite3.OperationalError) -> bool:
        text = str(exc).lower()
        return "locked" in text or "busy" in text

    def _write_transaction(self, work, locked: bool = False) -> None:
        """Run ``work(conn)`` in one explicit immediate transaction.

        ``BEGIN IMMEDIATE`` takes the write lock up front, so a busy
        database fails here — before any statement ran — and the whole
        transaction retries with exponential backoff.  Either every
        statement ``work`` issues commits atomically or none do.
        ``locked=True`` means the caller already holds ``self._lock``
        (the constructor's migration path).
        """
        delay = self.BUSY_BACKOFF
        for attempt in range(self.BUSY_RETRIES + 1):
            with nullcontext() if locked else self._lock:
                try:
                    self._conn.execute("BEGIN IMMEDIATE")
                except sqlite3.OperationalError as exc:
                    if not self._is_busy(exc):
                        raise
                    if attempt == self.BUSY_RETRIES:
                        raise StorageError(
                            f"database busy after {attempt} retries: {exc}"
                            ) from exc
                else:
                    try:
                        work(self._conn)
                        self._conn.execute("COMMIT")
                        return
                    except sqlite3.OperationalError as exc:
                        if self._conn.in_transaction:
                            self._conn.execute("ROLLBACK")
                        if not self._is_busy(exc):
                            raise
                        if attempt == self.BUSY_RETRIES:
                            raise StorageError(
                                f"database busy after {attempt} retries: "
                                f"{exc}") from exc
            # Back off outside the lock so readers are not starved while
            # the other writer finishes.
            time.sleep(delay)
            delay *= 2

    def _migrate_identity_keys(self) -> None:
        """Upgrade a pre-pushdown persistent table in place.

        Databases written before the identity-key columns existed lack
        ``subject_key``/``object_key``; add them and backfill from the
        payload so ``IN (...)`` pushdown works against old archives too.
        Caller holds the lock.
        """
        columns = {row[1] for row in self._conn.execute(
            "PRAGMA table_info(backend_events)")}
        if "subject_key" in columns:
            return

        def migrate(conn: sqlite3.Connection) -> None:
            for name in ("subject_key", "object_key"):
                conn.execute(
                    f"ALTER TABLE backend_events "
                    f"ADD COLUMN {name} TEXT NOT NULL DEFAULT ''")
            # Backfill in bounded rowid-keyed chunks: a large archive
            # never pulls every payload into memory, and each SELECT
            # completes before its chunk's UPDATEs run.
            last_rowid = 0
            while True:
                rows = conn.execute(
                    "SELECT rowid, payload FROM backend_events "
                    "WHERE rowid > ? ORDER BY rowid LIMIT 10000",
                    (last_rowid,)).fetchall()
                if not rows:
                    break
                updates = []
                for rowid, payload_text in rows:
                    payload = json.loads(payload_text)
                    subject = entity_from_dict(payload["subject"])
                    obj = entity_from_dict(payload["object"])
                    updates.append((identity_key(subject.identity),
                                    identity_key(obj.identity), rowid))
                conn.executemany(
                    "UPDATE backend_events "
                    "SET subject_key = ?, object_key = ? "
                    "WHERE rowid = ?", updates)
                last_rowid = rows[-1][0]

        # One immediate transaction: a concurrent writer sees either the
        # pre-migration table or the fully backfilled one, never a torn
        # half-migrated schema.
        self._write_transaction(migrate, locked=True)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def record(self, ts: float, agentid: int, operation: str,
               subject: ProcessEntity, obj: Entity, amount: int = 0,
               failcode: int = 0) -> Event:
        subject = self._interner.intern(subject)
        obj = self._interner.intern(obj)
        operation = validate_operation(obj.entity_type, operation)
        event = Event(id=self._max_id + 1, ts=ts, agentid=agentid,
                      operation=operation, subject=subject, object=obj,
                      amount=amount, failcode=failcode)
        self._insert([event])
        return event

    def ingest(self, events: Iterable[Event],
               chunk_size: int = 1000) -> int:
        """Stream events into the table in bounded executemany chunks."""
        batch: list[Event] = []
        count = 0
        for event in events:
            subject = self._interner.intern(event.subject)
            obj = self._interner.intern(event.object)
            if subject is not event.subject or obj is not event.object:
                event = Event(id=event.id, ts=event.ts,
                              agentid=event.agentid,
                              operation=event.operation, subject=subject,
                              object=obj, amount=event.amount,
                              failcode=event.failcode)
            batch.append(event)
            if len(batch) >= chunk_size:
                self._insert(batch)
                count += len(batch)
                batch.clear()
        if batch:
            self._insert(batch)
            count += len(batch)
        return count

    def _insert(self, events: list[Event]) -> None:
        rows = [(event.id, event.ts, event.agentid, event.event_type,
                 event.operation, event.subject.exe_name,
                 event.object.default_attribute,
                 json.dumps(self._payload(event), separators=(",", ":")),
                 identity_key(event.subject.identity),
                 identity_key(event.object.identity))
                for event in events]
        columns = ", ".join(_BACKEND_COLUMNS)
        marks = ", ".join("?" for _ in _BACKEND_COLUMNS)
        self._write_transaction(lambda conn: conn.executemany(
            f"INSERT INTO backend_events ({columns}) VALUES ({marks})",
            rows))
        self._count += len(rows)
        if self._sketches is not None:
            subject_sketch, object_sketch = self._sketches
            for row in rows:
                subject_sketch.add(row[8])
                object_sketch.add(row[9])
        for event in events:
            if event.id > self._max_id:
                self._max_id = event.id

    @staticmethod
    def _payload(event: Event) -> dict:
        return {"amount": event.amount, "failcode": event.failcode,
                "subject": entity_to_dict(event.subject),
                "object": entity_to_dict(event.object)}

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _materialize(self, row: tuple) -> Event:
        eid, ts, agentid, operation, payload_text = row
        payload = json.loads(payload_text)
        subject = self._interner.intern(entity_from_dict(payload["subject"]))
        obj = self._interner.intern(entity_from_dict(payload["object"]))
        assert isinstance(subject, ProcessEntity)
        return Event(id=eid, ts=ts, agentid=agentid, operation=operation,
                     subject=subject, object=obj,
                     amount=payload.get("amount", 0),
                     failcode=payload.get("failcode", 0))

    @staticmethod
    def _bounds(window: Window | None, agentids: set[int] | None,
                ) -> tuple[list[str], list[object]]:
        clauses: list[str] = []
        params: list[object] = []
        if window is not None:
            clauses.append("ts >= ? AND ts < ?")
            params.extend((window.start, window.end))
        if agentids is not None:
            if not agentids:
                clauses.append("0")
            else:
                marks = ", ".join("?" for _ in agentids)
                clauses.append(f"agentid IN ({marks})")
                params.extend(sorted(agentids))
        return clauses, params

    @staticmethod
    def _profile_clauses(profile: PatternProfile,
                         ) -> tuple[list[str], list[object]]:
        clauses: list[str] = []
        params: list[object] = []
        if profile.event_type is not None:
            clauses.append("etype = ?")
            params.append(profile.event_type)
        if profile.operations:
            marks = ", ".join("?" for _ in profile.operations)
            clauses.append(f"op IN ({marks})")
            params.extend(sorted(profile.operations))
        # LIKE goes through the registered aiql_like() function, not SQL
        # LIKE: SQL LIKE is only ASCII case-insensitive while AIQL LIKE
        # folds full Unicode (on the data side too), and a narrower
        # pushdown would drop true matches from the candidate superset.
        if profile.subject_exact is not None:
            clauses.append("subject_name = ?")
            params.append(profile.subject_exact)
        elif profile.subject_like is not None:
            clauses.append("aiql_like(?, subject_name)")
            params.append(profile.subject_like)
        if profile.event_type is not None:
            if profile.object_exact is not None:
                clauses.append("object_value = ?")
                params.append(profile.object_exact)
            elif profile.object_like is not None:
                clauses.append("aiql_like(?, object_value)")
                params.append(profile.object_like)
        return clauses, params

    #: Combined host-parameter budget for the binding ``IN (...)`` lists
    #: of one statement.  SQLite caps host parameters (999 on builds
    #: before 3.32); a side that does not fit the remaining budget is
    #: dropped and the scheduler's exact post-filter takes over, which is
    #: always sound.
    MAX_BINDING_PARAMS = 500

    @classmethod
    def _binding_clauses(cls, bindings: "IdentityBindings | None",
                         ) -> tuple[list[str], list[object],
                                    list[tuple[str, frozenset]]]:
        """Compile identity bindings into indexed ``IN (...)`` predicates.

        Returns ``(clauses, params, dropped)`` where ``dropped`` lists
        the sides that blew the host-parameter budget — the scan falls
        back to the engine's exact post-filter for those, and ``estimate``
        caps their cardinality with the identity-key frequency sketches.
        """
        clauses: list[str] = []
        params: list[object] = []
        dropped: list[tuple[str, frozenset]] = []
        if bindings is None or not bindings:
            return clauses, params, dropped
        budget = cls.MAX_BINDING_PARAMS
        for column, identities in (("subject_key", bindings.subjects),
                                   ("object_key", bindings.objects)):
            if identities is None:
                continue
            if len(identities) > budget:
                dropped.append((column, identities))
                continue
            if not identities:
                clauses.append("0")
                continue
            keys = sorted(identity_key(identity) for identity in identities)
            marks = ", ".join("?" for _ in keys)
            clauses.append(f"{column} IN ({marks})")
            params.extend(keys)
            budget -= len(keys)
        return clauses, params, dropped

    @staticmethod
    def _bounds_clauses(bounds: "TemporalBounds | None",
                        ) -> tuple[list[str], list[object]]:
        """Compile temporal bounds into indexed ts predicates.

        An inclusive two-sided interval becomes ``ts BETWEEN ? AND ?``;
        strict sides fall back to plain comparisons.  Either shape drives
        the ``be_ts`` (or composite ``be_agent_ts``) index, so the
        narrowed interval is a range scan instead of a post-filter.
        """
        clauses: list[str] = []
        params: list[object] = []
        if bounds is None or not bounds:
            return clauses, params
        if bounds.unsatisfiable:
            return ["0"], []
        lo_finite = bounds.lo != -math.inf
        hi_finite = bounds.hi != math.inf
        if (lo_finite and hi_finite
                and not bounds.lo_strict and not bounds.hi_strict):
            clauses.append("ts BETWEEN ? AND ?")
            params.extend((bounds.lo, bounds.hi))
            return clauses, params
        if lo_finite:
            clauses.append("ts > ?" if bounds.lo_strict else "ts >= ?")
            params.append(bounds.lo)
        if hi_finite:
            clauses.append("ts < ?" if bounds.hi_strict else "ts <= ?")
            params.append(bounds.hi)
        return clauses, params

    def _fetch(self, sql: str, params: list[object]) -> list[tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def scan(self, window: Window | None = None,
             agentids: set[int] | None = None) -> list[Event]:
        clauses, params = self._bounds(window, agentids)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._fetch(
            "SELECT id, ts, agentid, op, payload FROM backend_events"
            + where + " ORDER BY ts, id", params)
        return [self._materialize(row) for row in rows]

    def _candidates(self, profile: PatternProfile,
                    spec: ScanSpec) -> list[Event]:
        clauses, params, _dropped = self._where_parts(profile, spec)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._fetch(
            "SELECT id, ts, agentid, op, payload FROM backend_events"
            + where, params)
        return [self._materialize(row) for row in rows]

    def select(self, profile: PatternProfile,
               predicate: "CompiledPredicate",
               spec: ScanSpec | None = None) -> tuple[list[Event], int]:
        spec = resolve_spec(spec)
        order, limit = spec.order, spec.effective_limit
        if order is not None and limit is not None:
            return self._select_ordered(profile, predicate, spec, order,
                                        limit)
        return select_via_candidates(self._candidates, profile, predicate,
                                     spec)

    #: :meth:`select`'s survivors as per-agent column batches.
    select_batches = select_batches_via_select

    #: Cursor page size for the ordered scan: small enough that stopping
    #: after the k-th survivor leaves most of an unselective table
    #: unread, large enough to amortize the fetchmany round-trip.
    ORDERED_FETCH = 256

    def _select_ordered(self, profile: PatternProfile,
                        predicate: "CompiledPredicate", spec: ScanSpec,
                        order: "ScanOrder", limit: int,
                        ) -> tuple[list[Event], int]:
        """Push ``ORDER BY`` into the compiled SQL, stop at ``limit``.

        ``ORDER BY ts, id`` (or ``ts DESC, id`` — equal timestamps keep
        ascending ids, the engine's descending tiebreak) makes the
        cursor yield candidates in exactly the requested comparator
        order, so the first ``limit`` *survivors* of the residual filter
        are the true first/last k.  No SQL ``LIMIT`` is emitted: the
        WHERE clause selects a candidate superset (the residual
        predicate and any binding side that blew the host-parameter
        budget still filter), and a SQL-level cap could starve true
        survivors behind non-matching rows.  Instead the cursor drains
        in :data:`ORDERED_FETCH` pages and stops early — an unselective
        table is mostly unread when the k-th survivor arrives.
        """
        if spec.unsatisfiable:
            return [], 0
        clauses, params, _dropped = self._where_parts(profile, spec)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        direction = "DESC" if order.descending else "ASC"
        sql = ("SELECT id, ts, agentid, op, payload FROM backend_events"
               + where + f" ORDER BY ts {direction}, id ASC")
        test = predicate.event_predicate
        admits = spec.admits
        survivors: list[Event] = []
        fetched = 0
        with self._lock:
            cursor = self._conn.execute(sql, params)
            while len(survivors) < limit:
                rows = cursor.fetchmany(self.ORDERED_FETCH)
                if not rows:
                    break
                fetched += len(rows)
                for row in rows:
                    event = self._materialize(row)
                    if admits(event) and test(event):
                        survivors.append(event)
                        if len(survivors) >= limit:
                            break
        return survivors, fetched

    def estimate(self, profile: PatternProfile,
                 spec: ScanSpec | None = None) -> int:
        spec = resolve_spec(spec)
        if spec.unsatisfiable:
            return 0
        clauses, params, dropped = self._where_parts(profile, spec)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._fetch(
            "SELECT COUNT(*) FROM backend_events" + where, params)
        count = int(rows[0][0])
        if count and dropped:
            # A binding side too large for SQL still bounds the result:
            # the frequency sketch answers in O(|keys|) without touching
            # the table, and never under-counts, so a zero stays sound.
            subject_sketch, object_sketch = self._frequency_sketches()
            for column, identities in dropped:
                sketch = (subject_sketch if column == "subject_key"
                          else object_sketch)
                count = min(count, sketch.estimate_total(
                    identity_key(identity) for identity in identities))
        return count

    def access_path(self, profile: PatternProfile,
                    spec: ScanSpec | None = None) -> AccessPathInfo:
        """Describe the indexed SQL predicate the scan compiles to."""
        spec = resolve_spec(spec)
        if spec.unsatisfiable:
            return AccessPathInfo("unsatisfiable", 0)
        tags: list[str] = []
        if spec.window is not None:
            tags.append("ts")
        if spec.bounds is not None and spec.bounds:
            tags.append("ts-bounds")
        if spec.agentids is not None:
            tags.append("agent")
        if profile.event_type is not None or profile.operations:
            tags.append("etype+op")
        if profile.subject_exact is not None:
            tags.append("subject")
        elif profile.subject_like is not None:
            tags.append("subject-like")
        if profile.event_type is not None:
            if profile.object_exact is not None:
                tags.append("object")
            elif profile.object_like is not None:
                tags.append("object-like")
        bindings = spec.bindings
        if bindings is not None and bindings:
            _clauses, _params, dropped = self._binding_clauses(bindings)
            dropped_columns = {column for column, _ids in dropped}
            if (bindings.subjects is not None
                    and "subject_key" not in dropped_columns):
                tags.append("subject-key")
            if (bindings.objects is not None
                    and "object_key" not in dropped_columns):
                tags.append("object-key")
        name = f"sql-index({','.join(tags)})" if tags else "sql-scan"
        rows = self.estimate(profile, spec)
        return AccessPathInfo(name=name, rows=rows,
                              considered=(("sql-scan", len(self)),
                                          (name, rows)))

    def _frequency_sketches(self) -> tuple[FrequencySketch, FrequencySketch]:
        if self._sketches is None:
            subject_sketch, object_sketch = FrequencySketch(), \
                FrequencySketch()
            rows = self._fetch(
                "SELECT subject_key, object_key FROM backend_events", [])
            for subject_key, object_key in rows:
                subject_sketch.add(subject_key)
                object_sketch.add(object_key)
            self._sketches = (subject_sketch, object_sketch)
        return self._sketches

    def _where_parts(self, profile: PatternProfile, spec: ScanSpec,
                     ) -> tuple[list[str], list[object],
                                list[tuple[str, frozenset]]]:
        """One WHERE compilation shared by the scan and ``estimate``
        — parity by construction: the count the scheduler orders on is the
        count of exactly the rows the scan would return."""
        clauses, params = self._bounds(spec.window, spec.agentids)
        binding_clauses, binding_params, dropped = self._binding_clauses(
            spec.bindings)
        for extra_clauses, extra_params in (
                self._profile_clauses(profile),
                (binding_clauses, binding_params),
                self._bounds_clauses(spec.bounds)):
            clauses += extra_clauses
            params += extra_params
        return clauses, params, dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def span(self) -> Window | None:
        rows = self._fetch(
            "SELECT MIN(ts), MAX(ts) FROM backend_events", [])
        low, high = rows[0]
        if low is None:
            return None
        return Window(low, high + SPAN_EPSILON)

    @property
    def agentids(self) -> set[int]:
        rows = self._fetch(
            "SELECT DISTINCT agentid FROM backend_events", [])
        return {row[0] for row in rows}

    @property
    def entity_count(self) -> int:
        return len(self._interner)

    @property
    def dedup_ratio(self) -> float:
        return self._interner.dedup_ratio

    @property
    def partition_count(self) -> int:
        # CAST truncates toward zero; the correction term makes it floor
        # division so negative timestamps bucket exactly like the row and
        # columnar hypertables (int(ts // bucket)).
        bucket = ("CAST(ts / :b AS INTEGER) "
                  "- (ts / :b < CAST(ts / :b AS INTEGER))")
        rows = self._fetch(
            f"SELECT COUNT(*) FROM (SELECT DISTINCT agentid, {bucket} "
            "FROM backend_events)", {"b": self._bucket_seconds})
        return int(rows[0][0])

    @property
    def bucket_seconds(self) -> float:
        return self._bucket_seconds

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        with self._lock:
            self._conn.close()
