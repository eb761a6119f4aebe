"""``investigate`` — the paper's headline: the Figure-4 and Figure-5 catalogs.

One analyst replays both investigations (20 + 26 queries) in a closed loop
against ``row`` stores with default ``EngineOptions``.  Every catalog query
is pinned to an agent and an indicator, so it is answered from an index and
costs the same at 57k and at 142k events: the *front end* (``lang``,
``engine.planner``, scheduler bookkeeping, ``core.session``) is most of the
time and scans and joins are almost none.  A storage or join optimisation
must predict "no change" here.
"""

from __future__ import annotations

from aiqlbench import feeds, queryload
from aiqlbench.harness import (Checker, HostSpeed, Recorder, Scale,
                               ingest_metrics, median, oracle_digests,
                               repeat_setup, settle)
from repro.core.session import AiqlSession
from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
from repro.storage.backend import create_backend


class _Loaded:
    """Both scenarios in ``row`` stores, warmed up."""

    def __init__(self, seed: int, scale: Scale, host: HostSpeed) -> None:
        self.ops: list[tuple[AiqlSession, str, str]] = []
        self.sessions: list[AiqlSession] = []     # Figure 4, Figure 5
        self.events = 0
        self.ingest_seconds = 0.0
        self.setup_seconds = 0.0
        scenarios = feeds.investigate_scenarios(seed, scale)
        for scenario, catalog in zip(scenarios,
                                     (FIGURE4_QUERIES, FIGURE5_QUERIES)):
            generate_s, events = host.timed(scenario.events)
            store = create_backend("row")
            ingest_s = host.timed_each(
                store.ingest, feeds.chunks(events, scale.ingest_chunk))
            self.ingest_seconds += ingest_s
            self.setup_seconds += generate_s + ingest_s
            self.events += len(events)
            session = AiqlSession(store=store)
            self.sessions.append(session)
            self.ops += [(session, entry.id, entry.aiql) for entry in catalog]
        self.setup_seconds += host.timed(self._warm_up(scale))[0]

    def _warm_up(self, scale: Scale):
        def passes() -> None:
            for _ in range(scale.warmup_passes):
                for session, _qid, text in self.ops:
                    session.query(text)
        return passes


def _baselines(loaded: _Loaded, checker: Checker,
               aiql_ms: dict[str, float]) -> dict[str, float]:
    """One pass of each catalog through the SQL and graph baselines.

    Figure 4 compares against the relational baseline *with* the
    domain-specific storage optimisations, Figure 5 against it without
    them and against the graph baseline — as the paper does.  The SQL
    row counts double as a second oracle.  The graph baseline cannot run
    anomaly queries, so its ratio is over the queries it does run.
    """
    from repro.baselines.graph import GraphStore
    from repro.baselines.sqlite_backend import RelationalBaseline
    from repro.lang.parser import parse
    sql_ms = graph_ms = aiql_graph_ms = 0.0
    for session, catalog, optimized in zip(
            loaded.sessions, (FIGURE4_QUERIES, FIGURE5_QUERIES),
            (True, False)):
        relational = RelationalBaseline(optimized=optimized)
        relational.load_store(session.store)
        relational.finalize()
        graph = GraphStore()
        graph.load_store(session.store)
        for entry in catalog:
            parsed = parse(entry.aiql)
            run = checker.call(f"sql:{entry.id}",
                               lambda: relational.run_query(parsed))
            if run is not None:
                sql_ms += run.elapsed * 1e3
                checker.expect(f"sql-rows:{entry.id}", len(run.rows),
                               len(session.query(entry.aiql).rows))
            if entry.kind != "anomaly":
                run = checker.call(f"graph:{entry.id}",
                                   lambda: graph.run_query(parsed))
                if run is not None:
                    graph_ms += run.elapsed * 1e3
                    aiql_graph_ms += aiql_ms[entry.id]
    aiql_total = sum(aiql_ms.values())
    return {"baselines.sql_pass_ms": sql_ms,
            "baselines.graph_pass_ms": graph_ms,
            "baselines.speedup_vs_sql": sql_ms / aiql_total,
            "baselines.speedup_vs_graph": graph_ms / aiql_graph_ms}


def run(seed: int, seconds: float, scale: Scale, checker: Checker,
        host: HostSpeed, recorder: Recorder | None) -> dict[str, float]:
    """``recorder`` is None on the timing pass and set on the traced one;
    the caller restores whatever it wrapped and writes the span file."""
    setup_s, loaded = repeat_setup(scale.setup_reps,
                                   lambda: _Loaded(seed, scale, host))
    oracle: dict[str, str] = {}
    for session in loaded.sessions:
        oracle.update(oracle_digests(
            session.store, [(qid, text) for s, qid, text in loaded.ops
                            if s is session]))
    settle()
    if recorder is not None:
        queryload.patch_engine(recorder)
    log = queryload.run_passes(loaded.ops, oracle, checker, host, seconds,
                               recorder)
    metrics = queryload.end_to_end(log.rounds)
    metrics["setup_s"] = setup_s
    metrics.update(ingest_metrics(loaded.events, loaded.ingest_seconds))
    if recorder is not None:
        metrics.update(queryload.per_layer(log, "storage.row.select_ms"))
        aiql_ms = {qid: median(r[index] for r in log.rounds) * 1e3
                   for index, (_s, qid, _t) in enumerate(loaded.ops)}
        metrics.update(_baselines(loaded, checker, aiql_ms))
    return metrics
