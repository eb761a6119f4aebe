"""The durability tier: WAL-backed stores, checkpoints, and recovery.

Nothing in the in-memory backends survives a restart; this module makes
any registered backend crash-safe by wrapping it in a
:class:`DurableStore` that owns an on-disk directory:

    <dir>/
        wal.log                — the write-ahead log (current tail)
        checkpoint-<n>.wal     — versioned snapshot segments (same
                                 CRC-framed batch format as the WAL, so
                                 segment corruption is detected too)
        MANIFEST               — which checkpoint is authoritative

The write path is write-*ahead*: every ``ingest``/``record`` batch is
appended (and, under the default sync policy, fsynced) to the WAL before
it reaches the wrapped backend, so an acknowledged batch is always
recoverable.  Reads delegate untouched — the wrapped backend keeps its
scan machinery, access paths, and statistics, and the engine never
notices the wrapper.

``checkpoint()`` bounds recovery time: it snapshots the wrapped
backend's full contents to a new versioned segment, swaps the manifest
atomically (tmp + fsync + rename + directory fsync), then truncates the
WAL.  Every crash window in that sequence is recoverable:

* crash before the manifest swap → the old checkpoint plus the full WAL
  still cover everything (the orphan segment is overwritten later);
* crash after the swap but before the WAL reset → the WAL's prefix
  duplicates the checkpoint, and replay's idempotent dedup
  (:class:`~repro.storage.dedup.ReplayDeduper`) drops it.

``recover(path)`` — equivalently, constructing a :class:`DurableStore`
over an existing directory — rebuilds the backend by loading the
manifest's segment and replaying WAL batches past it, deduplicated, in
log order.  Because batches are framed with CRCs and replay stops at the
first torn frame, the recovered state is always the longest
cleanly-committed prefix of the original ingest — the property the
crash-recovery suite asserts byte-identical query results on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import StorageError
from repro.model.entities import Entity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import SECONDS_PER_DAY, Window
from repro.storage.backend import (AccessPathInfo, ColumnBatch, ScanSpec,
                                   StorageBackend, create_backend)
from repro.storage.dedup import ReplayDeduper
from repro.storage.faults import FaultInjector, resolve_injector
from repro.storage.stats import PatternProfile
from repro.storage.wal import WriteAheadLog, fsync_directory

if TYPE_CHECKING:
    from repro.engine.filters import CompiledPredicate

WAL_NAME = "wal.log"
MANIFEST_NAME = "MANIFEST"
MANIFEST_VERSION = 1

#: Chunk size for streaming a checkpoint segment back into the backend.
_LOAD_CHUNK = 4096


@dataclass
class RecoveryStats:
    """What one recovery pass found and applied."""

    checkpoint: int = 0            # manifest's checkpoint counter (0: none)
    checkpoint_events: int = 0     # events loaded from the segment
    wal_batches: int = 0           # cleanly-framed batches replayed
    wal_events: int = 0            # events those batches carried
    deduplicated: int = 0          # replay duplicates dropped
    applied: int = 0               # events actually (re)ingested

    def describe(self) -> str:
        return (f"checkpoint #{self.checkpoint} "
                f"({self.checkpoint_events} events) + "
                f"{self.wal_batches} WAL batches "
                f"({self.wal_events} events, "
                f"{self.deduplicated} duplicates dropped) -> "
                f"{self.applied + self.checkpoint_events} events recovered")


@dataclass
class _Manifest:
    checkpoint: int = 0
    segment: str | None = None
    backend: str | None = None
    extra: dict = field(default_factory=dict)


def _read_manifest(path: Path) -> _Manifest:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        return _Manifest()
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StorageError(f"{manifest_path}: unreadable manifest: {exc}"
                           ) from None
    if data.get("version", MANIFEST_VERSION) > MANIFEST_VERSION:
        raise StorageError(
            f"{manifest_path}: manifest version {data.get('version')} is "
            f"newer than this build understands ({MANIFEST_VERSION})")
    return _Manifest(checkpoint=int(data.get("checkpoint", 0)),
                     segment=data.get("segment"),
                     backend=data.get("backend"))


def _write_manifest(path: Path, manifest: _Manifest) -> None:
    """Atomic manifest swap: tmp + fsync + rename + directory fsync."""
    payload = json.dumps({
        "version": MANIFEST_VERSION,
        "checkpoint": manifest.checkpoint,
        "segment": manifest.segment,
        "backend": manifest.backend,
    }, indent=2, sort_keys=True)
    tmp = path / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path / MANIFEST_NAME)
    fsync_directory(path)


class DurableStore:
    """Any registered backend, made crash-safe behind a WAL + checkpoints.

    ``backend`` names a registry backend to create (or is an already-built
    store to wrap).  Opening a directory that already holds durable state
    *is* recovery: the manifest's checkpoint segment is loaded and the
    WAL replayed (deduplicated) before the store accepts new writes; the
    pass is summarized in :attr:`recovery`.

    ``auto_checkpoint`` (events) bounds the WAL between checkpoints: once
    that many events have been appended since the last checkpoint, the
    next ingest triggers one.  ``sync`` is the WAL fsync policy
    (``always``/``close``/``never``).  ``faults`` threads the
    fault-injection layer through the WAL and the checkpoint sequence.
    """

    def __init__(self, path: str | Path,
                 backend: str | StorageBackend = "row",
                 bucket_seconds: float = SECONDS_PER_DAY,
                 sync: str = "always",
                 auto_checkpoint: int | None = None,
                 faults: FaultInjector | None = None) -> None:
        if auto_checkpoint is not None and auto_checkpoint <= 0:
            raise StorageError("auto_checkpoint must be positive")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._faults = resolve_injector(faults)
        manifest = _read_manifest(self.path)
        if isinstance(backend, str):
            # A reopened directory remembers which backend it snapshots;
            # an explicit mismatch is honored (the caller may migrate).
            name = backend if backend != "row" or manifest.backend is None \
                else manifest.backend
            self._inner: StorageBackend = create_backend(name, bucket_seconds)
        else:
            self._inner = backend
        self._manifest = manifest
        self._manifest.backend = getattr(self._inner, "backend_name",
                                         type(self._inner).__name__)
        self._auto_checkpoint = auto_checkpoint
        self._since_checkpoint = 0
        self.recovery = self._load_existing()
        self._wal = WriteAheadLog(self.path / WAL_NAME, sync=sync,
                                  faults=self._faults)
        self.backend_name = f"durable[{self._manifest.backend}]"
        self._closed = False

    # ------------------------------------------------------------------
    # Recovery (runs on open)
    # ------------------------------------------------------------------
    def _load_existing(self) -> RecoveryStats:
        stats = RecoveryStats(checkpoint=self._manifest.checkpoint)
        deduper = ReplayDeduper()
        inner = self._inner
        if self._manifest.segment is not None:
            segment = self.path / self._manifest.segment
            if not segment.exists():
                raise StorageError(
                    f"{self.path}: manifest names missing checkpoint "
                    f"segment {self._manifest.segment!r}")
            # A manifest-named segment was fully written and fsynced
            # before the swap, so unlike the WAL a torn frame here is
            # after-the-fact corruption — and silently recovering a
            # *partial* checkpoint would break the prefix property.  The
            # trailer record carries the event count to verify against.
            from repro.storage.wal import RT_NOTE, decode_event_batch
            loaded = 0
            trailer: int | None = None
            for record in WriteAheadLog.replay(segment):
                if record.rtype == RT_NOTE:
                    trailer = int(json.loads(record.payload)["events"])
                    continue
                batch = decode_event_batch(record.payload)
                loaded += len(batch)
                admitted = deduper.admit_batch(batch)
                if admitted:
                    inner.ingest(admitted)
                    stats.checkpoint_events += len(admitted)
            if trailer is None or trailer != loaded:
                raise StorageError(
                    f"{segment}: checkpoint segment is corrupt "
                    f"(loaded {loaded} events, trailer says "
                    f"{'missing' if trailer is None else trailer})")
        for batch in WriteAheadLog.replay_events(self.path / WAL_NAME):
            stats.wal_batches += 1
            stats.wal_events += len(batch)
            admitted = deduper.admit_batch(batch)
            if admitted:
                inner.ingest(admitted)
                stats.applied += len(admitted)
        stats.deduplicated = deduper.duplicates
        self._since_checkpoint = stats.applied
        return stats

    # ------------------------------------------------------------------
    # Write path (write-ahead)
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[Event]) -> int:
        self._check_open()
        batch = list(events)
        if not batch:
            return 0
        self._wal.append_events(batch)
        count = self._inner.ingest(batch)
        self._since_checkpoint += len(batch)
        if (self._auto_checkpoint is not None
                and self._since_checkpoint >= self._auto_checkpoint):
            self.checkpoint()
        return count

    def record(self, ts: float, agentid: int, operation: str,
               subject: ProcessEntity, obj: Entity, amount: int = 0,
               failcode: int = 0) -> Event:
        self._check_open()
        event = self._inner.record(ts, agentid, operation, subject, obj,
                                   amount=amount, failcode=failcode)
        self._wal.append_events([event])
        self._since_checkpoint += 1
        return event

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot the backend, swap the manifest, truncate the WAL.

        Returns the new checkpoint number.  Crash-safe at every step —
        see the module docstring for the window-by-window argument.
        """
        self._check_open()
        faults = self._faults
        self._wal.sync()
        number = self._manifest.checkpoint + 1
        segment_name = f"checkpoint-{number:06d}.wal"
        tmp = self.path / (segment_name + ".tmp")
        faults.crash_point("checkpoint.segment")
        self._write_segment(tmp)
        with open(tmp, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, self.path / segment_name)
        fsync_directory(self.path)
        faults.crash_point("checkpoint.manifest")
        previous_segment = self._manifest.segment
        self._manifest = _Manifest(checkpoint=number, segment=segment_name,
                                   backend=self._manifest.backend)
        _write_manifest(self.path, self._manifest)
        faults.crash_point("checkpoint.truncate")
        self._wal.reset()
        self._since_checkpoint = 0
        if previous_segment is not None and previous_segment != segment_name:
            # The old segment is no longer reachable from the manifest;
            # best-effort cleanup (recovery never depends on its absence).
            try:
                os.unlink(self.path / previous_segment)
            except OSError:
                pass
        return number

    def _write_segment(self, tmp: Path) -> None:
        """Snapshot the backend to ``tmp`` in the CRC-framed batch format.

        Ends with a count trailer so a torn segment is *detected* on
        load instead of silently recovered as a partial checkpoint.
        """
        from repro.storage.wal import RT_NOTE
        # A crashed earlier checkpoint may have left a stale tmp; opening
        # it for append would splice old batches under the new trailer.
        tmp.unlink(missing_ok=True)
        events = self._inner.scan()
        with WriteAheadLog(tmp, sync="never") as segment:
            for start in range(0, len(events), _LOAD_CHUNK):
                segment.append_events(events[start:start + _LOAD_CHUNK])
            segment.append(RT_NOTE, json.dumps(
                {"events": len(events)}).encode("utf-8"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("durable store is closed")

    def close(self) -> None:
        """Sync and close the WAL (the wrapped backend stays queryable)."""
        if self._closed:
            return
        self._wal.close()
        self._closed = True

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def wal_size(self) -> int:
        """Bytes of cleanly-framed WAL since the last checkpoint."""
        return self._wal.size

    @property
    def inner(self) -> StorageBackend:
        """The wrapped backend (reads go straight to it)."""
        return self._inner

    # ------------------------------------------------------------------
    # Read path: pure delegation
    # ------------------------------------------------------------------
    def scan(self, window: Window | None = None,
             agentids: set[int] | None = None) -> list[Event]:
        return self._inner.scan(window, agentids)

    def select(self, profile: PatternProfile,
               predicate: "CompiledPredicate",
               spec: ScanSpec | None = None) -> tuple[list[Event], int]:
        return self._inner.select(profile, predicate, spec)

    def select_batches(self, profile: PatternProfile,
                       predicate: "CompiledPredicate",
                       spec: ScanSpec | None = None,
                       ) -> tuple[list[ColumnBatch], int]:
        return self._inner.select_batches(profile, predicate, spec)

    def estimate(self, profile: PatternProfile,
                 spec: ScanSpec | None = None) -> int:
        return self._inner.estimate(profile, spec)

    def access_path(self, profile: PatternProfile,
                    spec: ScanSpec | None = None) -> AccessPathInfo:
        return self._inner.access_path(profile, spec)

    # ------------------------------------------------------------------
    # Introspection: pure delegation
    # ------------------------------------------------------------------
    @property
    def span(self) -> Window | None:
        return self._inner.span

    @property
    def agentids(self) -> set[int]:
        return self._inner.agentids

    @property
    def entity_count(self) -> int:
        return self._inner.entity_count

    @property
    def dedup_ratio(self) -> float:
        return self._inner.dedup_ratio

    @property
    def partition_count(self) -> int:
        return self._inner.partition_count

    @property
    def bucket_seconds(self) -> float:
        return self._inner.bucket_seconds

    def __len__(self) -> int:
        return len(self._inner)


def recover(path: str | Path, backend: str = "row",
            bucket_seconds: float = SECONDS_PER_DAY,
            sync: str = "always") -> DurableStore:
    """Rebuild a durable store's state from its directory.

    Loads the manifest's checkpoint segment, replays the WAL past it
    with idempotent dedup, and returns the (re-openable, appendable)
    store.  ``recover(path).recovery`` summarizes the pass.  Running it
    twice — or over a log whose prefix a checkpoint already applied —
    yields the same state: the replay-idempotence suite locks this in.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no durable store at {path}")
    return DurableStore(path, backend=backend,
                        bucket_seconds=bucket_seconds, sync=sync)
