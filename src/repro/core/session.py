"""AiqlSession: the library's public facade.

A session owns a :class:`~repro.storage.backend.StorageBackend` and exposes
the full investigation loop the demo walks through: ingest monitoring data,
issue AIQL queries (all three classes), inspect plans, and check syntax.

>>> from repro import AiqlSession
>>> session = AiqlSession()                  # row store by default
>>> session = AiqlSession(backend="columnar")  # batch-scanning store
>>> # ... ingest events (see repro.telemetry) ...
>>> result = session.query('proc p["%cmd.exe"] start proc c as e1 return c')
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.analysis.diagnostics import AiqlAnalysisError, Diagnostic
from repro.core.results import QueryResult
from repro.engine.executor import DEFAULT_OPTIONS, EngineOptions, execute, explain
from repro.errors import StorageError
from repro.lang.ast import Query
from repro.lang.errors import AiqlSyntaxError, check_syntax
from repro.lang.parser import parse, parse_with_spans
from repro.lang.semantics import analyze_query
from repro.model.events import Event
from repro.model.timeutil import SECONDS_PER_DAY
from repro.obs.metrics import REGISTRY, MetricsSnapshot
from repro.obs.trace import Tracer
from repro.storage.backend import StorageBackend, create_backend
from repro.storage.ingest import IngestPipeline, IngestStats

if TYPE_CHECKING:
    from repro.stream.continuous import ContinuousQuery
    from repro.stream.session import StreamSession


def _surface(diagnostics: list[Diagnostic], source: str | None) -> None:
    """Fail on analyzer errors; print warnings and continue."""
    if any(d.is_error for d in diagnostics):
        raise AiqlAnalysisError(source or "", diagnostics)
    if diagnostics:
        import sys
        for diagnostic in diagnostics:
            print(diagnostic.render(source), file=sys.stderr)


class AiqlSession:
    """One investigation session over one storage backend."""

    def __init__(self, store: StorageBackend | None = None,
                 options: EngineOptions = DEFAULT_OPTIONS,
                 bucket_seconds: float = SECONDS_PER_DAY,
                 backend: str = "row",
                 durable_dir: "str | None" = None,
                 sync: str = "always",
                 shards: int | None = None,
                 shard_backend: str | None = None) -> None:
        if durable_dir is not None and store is not None:
            raise StorageError(
                "pass either an explicit store or durable_dir, not both — "
                "a durable session owns its backend via the recovery dir")
        if ((shards is not None or shard_backend is not None)
                and not (store is None and durable_dir is None
                         and (backend == "sharded"
                              or backend.startswith("sharded(")))):
            raise StorageError(
                "shards/shard_backend configure backend='sharded' only")
        if durable_dir is not None:
            # Crash-safe tier: WAL every ingested batch and recover the
            # wrapped backend from disk on reopen (see repro.storage.durable).
            from repro.storage.durable import DurableStore
            store = DurableStore(durable_dir, backend=backend,
                                 bucket_seconds=bucket_seconds, sync=sync)
        elif store is None and (shards is not None
                                or shard_backend is not None):
            # Scatter-gather tier with explicit fan-out:
            # AiqlSession(backend="sharded", shards=4, shard_backend=...)
            from repro.storage.sharded import ShardedStore, parse_backend_name
            inner, default_shards = parse_backend_name(backend)
            store = ShardedStore(
                shards=shards if shards is not None else default_shards,
                backend=shard_backend if shard_backend is not None else inner,
                bucket_seconds=bucket_seconds)
        elif store is None:
            store = create_backend(backend, bucket_seconds)
        self.store = store
        self.options = options
        self._stream = None
        self._last_tracer: Tracer | None = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[Event], batch_size: int = 1000,
               merge_window: float | None = None) -> IngestStats:
        """Load events through the batch-commit pipeline."""
        with IngestPipeline(self.store, batch_size=batch_size,
                            merge_window=merge_window) as pipeline:
            pipeline.add_all(events)
        return pipeline.stats

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, durable_dir: str, *,
                options: EngineOptions = DEFAULT_OPTIONS,
                bucket_seconds: float = SECONDS_PER_DAY,
                backend: str = "row",
                sync: str = "always") -> "AiqlSession":
        """Open a session over a crash-recovered durable directory.

        Replays the checkpoint and the surviving WAL suffix (torn tails
        dropped, duplicates deduplicated) and returns a queryable
        session; the recovery tally is on ``session.store.recovery``.
        Raises :class:`~repro.errors.StorageError` if ``durable_dir``
        does not exist.
        """
        from repro.storage.durable import recover as recover_store
        store = recover_store(durable_dir, backend=backend,
                              bucket_seconds=bucket_seconds, sync=sync)
        return cls(store=store, options=options)

    def checkpoint(self) -> int:
        """Snapshot a durable store and truncate its WAL.

        Only meaningful for durable sessions; raises
        :class:`~repro.errors.StorageError` otherwise.
        """
        checkpoint = getattr(self.store, "checkpoint", None)
        if checkpoint is None:
            raise StorageError(
                "checkpoint() needs a durable session — construct with "
                "AiqlSession(durable_dir=...)")
        return checkpoint()

    # ------------------------------------------------------------------
    # Streaming / continuous queries
    # ------------------------------------------------------------------
    def stream(self, **kwargs) -> "StreamSession":
        """The session's live feed (created on first use).

        Events published through it are appended to this session's store
        *and* evaluated against every standing query registered via
        :meth:`register`.  Keyword arguments (``batch_size``,
        ``lateness``, ``threaded``, ...) configure the feed on first
        creation; see :class:`repro.stream.session.StreamSession`.
        """
        if self._stream is None or self._stream.closed:
            from repro.stream.session import StreamSession
            self._stream = StreamSession(self.store, **kwargs)
        elif kwargs:
            # Silently discarding configuration would be a footgun:
            # register() creates the stream lazily, so a later
            # stream(batch_size=...) call would otherwise be a no-op.
            raise StorageError(
                "the session's stream is already active; configure it on "
                "first use (before register()) or close() it first")
        return self._stream

    def register(self, source: "str | Query", callback=None,
                 name: str | None = None,
                 retain_results: bool = True) -> "ContinuousQuery":
        """Register a standing query on this session's live feed.

        ``source`` is AIQL text (or an already-parsed query) of any of
        the three query classes; ``callback(standing, row)`` fires for
        every match/alert as the stream produces it.  The returned handle
        exposes ``result()`` — after the stream is closed, byte-identical
        to :meth:`query` on the fully-ingested store.  For unbounded
        tailing pass ``retain_results=False``: matches reach the callback
        only, and nothing accumulates.
        """
        if isinstance(source, str):
            parsed = self._analyzed(source)
        else:
            parsed = source
            _surface(analyze_query(parsed), None)
        return self.stream().register(parsed, callback=callback, name=name,
                                      retain_results=retain_results)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def parse(self, source: str) -> Query:
        """Parse AIQL text (raises AiqlSyntaxError with diagnostics)."""
        return parse(source)

    def query(self, source: str,
              options: EngineOptions | None = None,
              trace: bool = False) -> QueryResult:
        """Parse, lint, and execute an AIQL query.

        The semantic analyzer runs on every query before execution:
        error diagnostics raise :class:`AiqlAnalysisError` (the query
        could never mean what was written), warnings are printed to
        stderr and the query proceeds.

        ``trace=True`` records a hierarchical span tree for this one
        query (parse → analyze → plan → schedule → per-pattern scan →
        join → project), retrievable afterwards via :meth:`last_trace`
        or exportable with ``repro query --trace-out``.
        """
        opts = options if options is not None else self.options
        if not trace:
            parsed = self._analyzed(source)
            return execute(self.store, parsed, opts)
        tracer = Tracer()
        self._last_tracer = tracer
        with tracer.span("query"):
            with tracer.span("parse"):
                parsed, spans = parse_with_spans(source, check=False)
            with tracer.span("analyze"):
                _surface(analyze_query(parsed, spans), source)
            return execute(self.store, parsed, replace(opts, tracer=tracer))

    def _analyzed(self, source: str) -> Query:
        """Parse with spans and run the semantic analyzer.

        ``check=False``: the analyzer re-runs every legacy parser check
        with source spans attached, so the span-less versions would only
        shadow the better diagnostics.
        """
        parsed, spans = parse_with_spans(source, check=False)
        _surface(analyze_query(parsed, spans), source)
        return parsed

    def explain(self, source: str) -> str:
        """Describe the execution plan without running the query."""
        return explain(self.store, parse(source), self.options)

    def check(self, source: str) -> AiqlSyntaxError | None:
        """Syntax-check a query; None means it parses."""
        return check_syntax(source)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsSnapshot:
        """The merged metrics snapshot for everything this process ran.

        The process-local registry plus — for a sharded store — every
        worker's registry, gathered over the shard RPC and merged
        (counters sum, gauges last-write, histogram buckets add).  Scan
        work under sharding happens only worker-side, so the merged
        ``storage.scan.*`` totals equal what a single-node run of the
        same queries would report.
        """
        snapshots = [REGISTRY.snapshot()]
        worker_metrics = getattr(self.store, "worker_metrics", None)
        if worker_metrics is not None:
            snapshots.extend(worker_metrics())
        return MetricsSnapshot.merged(snapshots)

    def last_trace(self) -> Tracer | None:
        """The span tree of the most recent ``query(..., trace=True)``."""
        return self._last_tracer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def event_count(self) -> int:
        return len(self.store)

    @property
    def entity_count(self) -> int:
        return self.store.entity_count

    @property
    def backend_name(self) -> str:
        """Registry name of the active storage backend."""
        return getattr(self.store, "backend_name", type(self.store).__name__)

    def describe(self) -> str:
        """One-line store summary for the UI status area."""
        span = self.store.span
        span_text = str(span) if span is not None else "(empty)"
        text = (f"{len(self.store)} events, {self.store.entity_count} "
                f"entities, {self.store.partition_count} partitions, "
                f"agents={sorted(self.store.agentids)}, span={span_text}, "
                f"backend={self.backend_name}")
        coordinator_stats = getattr(self.store, "coordinator_stats", None)
        if coordinator_stats is not None:
            stats = coordinator_stats()
            text += (f", shards={stats['shards']}, "
                     f"restarts={stats['restarts']}")
            if stats["restarts_by_shard"]:
                per_shard = ",".join(
                    f"{index}:{count}" for index, count
                    in stats["restarts_by_shard"].items())
                text += f" ({per_shard})"
        return text
