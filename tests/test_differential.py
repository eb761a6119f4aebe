"""Cross-engine differential tests.

The strongest correctness evidence in the repo: the optimized AIQL engine,
the monolithic-SQL relational baseline, and the graph traversal baseline
must return identical result sets for every multievent/dependency query in
both paper catalogs, on full simulated scenarios.
"""

import pytest

from repro.baselines.graph import GraphStore
from repro.baselines.sqlite_backend import RelationalBaseline
from repro.engine.executor import execute
from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
from repro.lang.parser import parse


@pytest.fixture(scope="module")
def demo_backends(demo_scenario):
    from repro.storage.store import EventStore
    store = EventStore()
    demo_scenario.load(store)
    relational = RelationalBaseline(optimized=True)
    relational.load_store(store)
    relational.finalize()
    graph = GraphStore()
    graph.load_store(store)
    return store, relational, graph


@pytest.fixture(scope="module")
def case2_backends(case2_scenario):
    from repro.storage.store import EventStore
    store = EventStore()
    case2_scenario.load(store)
    relational = RelationalBaseline(optimized=True)
    relational.load_store(store)
    relational.finalize()
    graph = GraphStore()
    graph.load_store(store)
    return store, relational, graph


def _multievent_entries(catalog):
    return [entry for entry in catalog
            if entry.kind in ("multievent", "dependency")]


@pytest.mark.parametrize("entry", _multievent_entries(FIGURE4_QUERIES),
                         ids=lambda e: e.id)
def test_figure4_engines_agree(entry, demo_backends):
    store, relational, graph = demo_backends
    query = parse(entry.aiql)
    engine_rows = set(execute(store, query).rows)
    sql_rows = set(relational.run_query(query).rows)
    graph_rows = set(graph.run_query(query).rows)
    assert engine_rows == sql_rows, f"{entry.id}: engine vs SQL"
    assert engine_rows == graph_rows, f"{entry.id}: engine vs graph"


@pytest.mark.parametrize("entry", _multievent_entries(FIGURE5_QUERIES),
                         ids=lambda e: e.id)
def test_figure5_engines_agree(entry, case2_backends):
    store, relational, graph = case2_backends
    query = parse(entry.aiql)
    engine_rows = set(execute(store, query).rows)
    sql_rows = set(relational.run_query(query).rows)
    graph_rows = set(graph.run_query(query).rows)
    assert engine_rows == sql_rows, f"{entry.id}: engine vs SQL"
    assert engine_rows == graph_rows, f"{entry.id}: engine vs graph"


def test_anomaly_sql_finds_same_spikes(demo_backends):
    """The anomaly query's SQL translation flags the same processes.

    Exact window-row parity is not expected: the SQL LAG() skips windows
    where a group had no events, while the AIQL engine evaluates known
    groups in every window (documented divergence).  Both must agree on
    *which processes* spiked.
    """
    store, relational, _graph = demo_backends
    entry = FIGURE4_QUERIES.get("a5-1")
    query = parse(entry.aiql)
    engine_procs = {row[1] for row in execute(store, query).rows}
    sql_run = relational.run_query(query)
    sql_procs = {row[1] for row in sql_run.rows}
    assert engine_procs == sql_procs


# ---------------------------------------------------------------------------
# The IOC-free join and dependency shapes of the benchmark's ``hunt`` set.
# Neither baseline runs ``joiner._extend``, so they are an independent
# reference for the interval-probe join on every backend.
# ---------------------------------------------------------------------------

HUNT_JOIN_IDS = ("h07-dropper-then-spawn", "h08-staged-archives",
                 "h09-edit-burst", "h11-doc-provenance")
HUNT_BACKENDS = ("row", "columnar", "sqlite", "sharded(columnar)")


@pytest.fixture(scope="module")
def hunt_feed():
    """An enterprise day just large enough for all four to return rows."""
    from repro.telemetry import build_demo_scenario
    return build_demo_scenario(events_per_host=3000, seed=3,
                               extra_clients=3).events()


@pytest.fixture(scope="module")
def hunt_baseline_rows(hunt_feed):
    from aiqlbench.hunt_queries import HUNT_QUERIES
    from repro.storage.store import EventStore
    store = EventStore()
    store.ingest(hunt_feed)
    relational = RelationalBaseline(optimized=True)
    relational.load_store(store)
    relational.finalize()
    graph = GraphStore()
    graph.load_store(store)
    expected = {}
    for qid, text in HUNT_QUERIES:
        if qid in HUNT_JOIN_IDS:
            query = parse(text)
            sql_rows = set(relational.run_query(query).rows)
            assert sql_rows == set(graph.run_query(query).rows), qid
            assert sql_rows, f"{qid}: the feed no longer exercises it"
            expected[qid] = (query, sql_rows)
    return expected


@pytest.fixture(scope="module", params=HUNT_BACKENDS)
def hunt_store(request, hunt_feed):
    from repro.storage.backend import create_backend
    store = create_backend(request.param)
    store.ingest(hunt_feed)
    yield store
    close = getattr(store, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("qid", HUNT_JOIN_IDS)
def test_hunt_joins_agree_with_baselines(qid, hunt_store, hunt_baseline_rows):
    query, expected = hunt_baseline_rows[qid]
    assert set(execute(hunt_store, query).rows) == expected
