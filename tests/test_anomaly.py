"""Tests for the sliding-window anomaly engine."""

import operator
import random

import pytest

from repro.errors import SemanticError
from repro.lang import ast
from repro.lang.parser import parse
from repro.model.entities import NetworkEntity, ProcessEntity
from repro.model.timeutil import format_timestamp, sliding_windows
from repro.engine.aggregates import aggregate
from repro.engine.anomaly import execute_anomaly
from repro.engine.planner import plan_multievent
from repro.storage.backend import create_backend
from repro.storage.store import EventStore

from tests.conftest import BASE_TS, DAY


def transfer_store(amounts_by_proc: dict[str, list[tuple[float, int]]],
                   agent: int = 3) -> EventStore:
    """amounts_by_proc: exe_name -> [(offset seconds, amount)]."""
    store = EventStore()
    conn = NetworkEntity(agent, "10.0.0.3", 50000, "203.0.113.129", 443)
    for pid, (exe, series) in enumerate(amounts_by_proc.items(), start=1):
        proc = ProcessEntity(agent, pid, exe)
        for offset, amount in series:
            store.record(BASE_TS + offset, agent, "write", proc, conn,
                         amount=amount)
    return store


def run(store, source: str):
    query = parse(source)
    return execute_anomaly(store, query)


SPIKE_QUERY = f'''
(at "{DAY}")
agentid = 3
window = 1 min, step = 10 sec
proc p write ip i[dstip = "203.0.113.129"] as evt
return p, avg(evt.amount) as amt
group by p
having (amt > 2 * (amt + amt[1] + amt[2]) / 3)
'''


class TestMovingAverageSpike:
    def test_spike_after_baseline_fires(self):
        baseline = [(i * 10.0, 100) for i in range(60)]
        burst = [(600 + i * 10.0, 900_000) for i in range(6)]
        store = transfer_store({"sbblv.exe": baseline + burst})
        output = run(store, SPIKE_QUERY)
        assert output.rows
        assert all(row[1] == "sbblv.exe" for row in output.rows)

    def test_constant_rate_never_fires(self):
        steady = [(i * 10.0, 5000) for i in range(100)]
        store = transfer_store({"steady.exe": steady})
        output = run(store, SPIKE_QUERY)
        assert output.rows == []

    def test_spike_without_history_does_not_fire(self):
        # A process whose first-ever windows are already the burst has no
        # amt[2] history: None comparisons are false (documented).
        burst_only = [(i * 10.0, 900_000) for i in range(3)]
        store = transfer_store({"burst.exe": burst_only})
        output = run(store, SPIKE_QUERY)
        assert output.rows == []

    def test_groups_are_independent(self):
        baseline = [(i * 10.0, 100) for i in range(60)]
        burst = [(600 + i * 10.0, 900_000) for i in range(6)]
        store = transfer_store({
            "quiet.exe": baseline,
            "noisy.exe": baseline + burst,
        })
        output = run(store, SPIKE_QUERY)
        names = {row[1] for row in output.rows}
        assert names == {"noisy.exe"}


class TestAggregationSemantics:
    def test_count_and_sum_per_window(self):
        store = transfer_store({"p.exe": [(0.0, 10), (5.0, 20),
                                          (70.0, 30)]})
        output = run(store, f'''
(at "{DAY}")
window = 1 min, step = 1 min
proc p write ip i as evt
return p, count(evt) as c, sum(evt.amount) as s
group by p
''')
        # Tumbling windows: [0,60) has 2 events, [60,120) has 1; later
        # windows report the empty-set conventions (0, 0).
        by_window = {row[0]: (row[2], row[3]) for row in output.rows[:2]}
        values = list(by_window.values())
        assert values[0] == (2, 30)
        assert values[1] == (1, 30)

    def test_empty_windows_keep_group_alive(self):
        store = transfer_store({"p.exe": [(0.0, 10)]})
        output = run(store, f'''
(at "{DAY}")
window = 1 min, step = 1 min
proc p write ip i as evt
return p, count(evt) as c
group by p
having c = 0
''')
        # The group appears once, then is evaluated (with count 0) in
        # every later window of the day.
        assert len(output.rows) > 100

    def test_group_by_attribute_value(self):
        store = EventStore()
        conn = NetworkEntity(3, "10.0.0.3", 1, "9.9.9.9", 443)
        for pid in (1, 2):
            proc = ProcessEntity(3, pid, "worker.exe")
            store.record(BASE_TS + pid, 3, "write", proc, conn, amount=10)
        output = run(store, f'''
(at "{DAY}")
window = 1 min, step = 1 min
proc p write ip i as evt
return p.exe_name, sum(evt.amount) as s
group by p.exe_name
having s > 0
''')
        # Grouping by the attribute merges the two worker pids.
        assert output.rows[0][2] == 20

    def test_bare_entity_groups_by_identity(self):
        store = EventStore()
        conn = NetworkEntity(3, "10.0.0.3", 1, "9.9.9.9", 443)
        for pid in (1, 2):
            proc = ProcessEntity(3, pid, "worker.exe")
            store.record(BASE_TS + pid, 3, "write", proc, conn, amount=10)
        output = run(store, f'''
(at "{DAY}")
window = 1 min, step = 1 min
proc p write ip i as evt
return p, sum(evt.amount) as s
group by p
having s > 0
''')
        # Two distinct processes with the same name: two groups.
        assert len(output.rows) == 2

    def test_having_aggregate_not_in_return(self):
        store = transfer_store({"p.exe": [(0.0, 10), (1.0, 30)]})
        output = run(store, f'''
(at "{DAY}")
window = 1 min, step = 1 min
proc p write ip i as evt
return p, count(evt) as c
group by p
having max(evt.amount) >= 30
''')
        assert output.rows
        assert output.rows[0][2] == 2


class TestValidation:
    def test_multiple_patterns_rejected(self):
        store = EventStore()
        query = parse(f'''
window = 1 min, step = 1 min
proc p write ip i as e1
proc q write ip j as e2
return count(e1) as c
''')
        with pytest.raises(SemanticError, match="exactly one"):
            execute_anomaly(store, query)

    def test_non_grouped_return_item_rejected(self):
        store = transfer_store({"p.exe": [(0.0, 10)]})
        query = parse(f'''
(at "{DAY}")
window = 1 min, step = 1 min
proc p write ip i as evt
return i, count(evt) as c
group by p
''')
        with pytest.raises(SemanticError, match="group by"):
            execute_anomaly(store, query)

    def test_empty_store_returns_no_rows(self):
        store = EventStore()
        query = parse('''
window = 1 min, step = 1 min
proc p write ip i as evt
return count(evt) as c
''')
        output = execute_anomaly(store, query)
        assert output.rows == []


# ---------------------------------------------------------------------------
# The engine against a brute-force pane loop.
#
# The reference below is the §2.2.3 semantics the slow way: every pane
# slices the sorted events, groups them, aggregates *every* known group and
# interprets the having tree — no per-group columns, no compiled having, no
# steady-state cache, no skipped pane.  The engine must return the same
# rows in the same order on every backend.
# ---------------------------------------------------------------------------

def _ref_value(pattern, ref, event, identity=False):
    if ref.variable == pattern.event_var:
        return event.attribute(ref.attribute or "id")
    entity = (event.subject if ref.variable == pattern.subject.variable
              else event.object)
    if ref.attribute is None:
        return entity.identity if identity else entity.default_attribute
    return entity.attribute(ref.attribute)


def _ref_aggregate(pattern, call, members):
    if call.arg is None:
        return aggregate(call.func, [1] * len(members))
    return aggregate(call.func,
                     [_ref_value(pattern, call.arg, e) for e in members])


def _ref_having(expr, pattern, group_by, key, members, current, history):
    def value(node):
        if isinstance(node, ast.Literal):
            return node.value
        if isinstance(node, ast.HistoryRef):
            ring = history.get((key, node.alias), [])
            return ring[node.offset] if node.offset < len(ring) else None
        if isinstance(node, ast.AggCall):
            return (current[str(node)] if str(node) in current
                    else _ref_aggregate(pattern, node, members))
        if isinstance(node, ast.VarRef):
            if node.attribute is None and node.variable in current:
                return current[node.variable]
            return key[[str(ref) for ref in group_by].index(str(node))]
        if isinstance(node, ast.NotOp):
            inner = value(node.operand)
            return False if inner is None else not inner
        left, right = value(node.left), value(node.right)
        if node.op in ("and", "or"):
            return (bool(left) and bool(right) if node.op == "and"
                    else bool(left) or bool(right))
        if left is None or right is None:
            return None
        if node.op in ("/", "%") and not right:
            return None
        try:
            return {"+": operator.add, "-": operator.sub,
                    "*": operator.mul, "/": operator.truediv,
                    "%": operator.mod, "=": operator.eq,
                    "!=": operator.ne, "<": operator.lt,
                    "<=": operator.le, ">": operator.gt,
                    ">=": operator.ge}[node.op](left, right)
        except TypeError:
            return None
    return value(expr)


def brute_force(store, query):
    pattern = query.patterns[0]
    dq = plan_multievent(ast.MultieventQuery(
        header=query.header, patterns=query.patterns, temporal=(),
        return_items=(ast.ReturnItem(ast.VarRef(pattern.event_var)),),
    )).data_queries[0]
    events = sorted((e for e in store.scan(query.header.window, dq.agentids)
                     if dq.predicate(e)), key=lambda e: (e.ts, e.id))
    span = query.header.window or store.span
    known, history, rows = {}, {}, []
    for window in (sliding_windows(span, query.window_spec.width,
                                   query.window_spec.step) if span else ()):
        by_group = {}
        for e in events:
            if window.start <= e.ts < window.end:
                key = tuple(_ref_value(pattern, ref, e, identity=True)
                            for ref in query.group_by)
                by_group.setdefault(key, []).append(e)
                known.setdefault(key, tuple(_ref_value(pattern, ref, e)
                                            for ref in query.group_by))
        for key, display in known.items():
            members = by_group.get(key, [])
            current = {}
            for item in query.return_items:
                if isinstance(item.expr, ast.AggCall):
                    current[item.name] = _ref_aggregate(pattern, item.expr,
                                                        members)
                    history.setdefault((key, item.name), []).insert(
                        0, current[item.name])
            verdict = (True if query.having is None else _ref_having(
                query.having, pattern, query.group_by, key, members,
                current, history))
            if verdict is not None and verdict:
                rows.append((format_timestamp(window.start),) + tuple(
                    current[item.name]
                    if isinstance(item.expr, ast.AggCall)
                    else display[query.group_by.index(item.expr)]
                    for item in query.return_items))
    return rows


ANOMALY_BACKENDS = ("row", "columnar", "sqlite", "sharded(columnar)")


def synthetic_events():
    """Two hosts, five processes, ties on ``ts``, bursts and long silences,
    and events before and after the header window of ``HEADER``."""
    rng = random.Random(20)
    store = EventStore()
    conns = {agent: NetworkEntity(agent, f"10.0.0.{agent}", 5000,
                                  "203.0.113.129", 443)
             for agent in (3, 4)}
    procs = [ProcessEntity(3 + pid % 2, pid, f"proc{pid % 3}.exe",
                           start_time=float(pid)) for pid in range(5)]
    for index in range(420):
        proc = procs[rng.randrange(5) if index < 300 else rng.randrange(2)]
        # A 10 s grid gives ties and events exactly on pane boundaries;
        # the last stretch is sparse, so groups go quiet and come back.
        tick = (rng.randrange(-6, 90) if index < 300
                else rng.randrange(150, 400))
        store.record(BASE_TS + 10.0 * tick, proc.agentid, "write", proc,
                     conns[proc.agentid],
                     amount=rng.choice((0, 0, 7, 10, 250, 4000, 90_000)))
    return store.scan()


HEADER = f'(from "{DAY} 00:00:00" to "{DAY} 01:10:00")'

SHAPES = {
    "width-multiple-of-step": (HEADER, "1 min", "20 sec"),
    "width-not-multiple-of-step": (HEADER, "50 sec", "20 sec"),
    "gapped-panes": (HEADER, "20 sec", "1 min"),
    "no-header": ("", "2 min", "1 min"),
}

EVERY_AGGREGATE = '''proc p write ip i as evt
return p, count(evt) as c, count(*) as n, sum(evt.amount) as s,
       avg(evt.amount) as a, min(evt.amount) as lo, max(evt.amount) as hi,
       stddev(evt.amount) as sd, median(evt.amount) as med,
       first(evt.amount) as f, last(evt.amount) as l
group by p'''

BODIES = {
    "every-aggregate": EVERY_AGGREGATE,
    "history-two-back": '''proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total > total[2] and total[2] >= 0''',
    "divides-by-zero-aggregate": '''proc p write ip i as evt
return p.exe_name, sum(evt.amount) as s, count(evt) as c
group by p.exe_name
having s / c > 1000 or s % c = 7''',
    "aggregate-not-returned": '''proc p write ip i as evt
return p, i, count(evt) as c
group by p, i
having max(evt.amount) >= 4000 and not (last(evt.amount) = 0)''',
    "quiet-groups-keep-passing": '''proc p write ip i as evt
return p, count(evt) as c
group by p
having c = 0''',
}


@pytest.fixture(scope="module")
def reference_store():
    store = EventStore()
    store.ingest(synthetic_events())
    return store


@pytest.fixture(scope="module", params=ANOMALY_BACKENDS)
def anomaly_backend(request):
    store = create_backend(request.param)
    store.ingest(synthetic_events())
    yield store
    close = getattr(store, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("body", BODIES)
@pytest.mark.parametrize("shape", SHAPES)
def test_engine_equals_brute_force(shape, body, anomaly_backend,
                                   reference_store):
    header, width, step = SHAPES[shape]
    query = parse(f"{header}\nwindow = {width}, step = {step}\n"
                  f"{BODIES[body]}")
    expected = brute_force(reference_store, query)
    assert expected, "the case no longer emits anything"
    assert execute_anomaly(anomaly_backend, query).rows == expected


@pytest.mark.parametrize("backend", ANOMALY_BACKENDS)
def test_catalog_and_hunt_anomalies_equal_brute_force(backend,
                                                      demo_scenario):
    from aiqlbench.hunt_queries import HUNT_QUERIES
    from repro.investigate import FIGURE4_QUERIES
    events = demo_scenario.events()
    reference = EventStore()
    reference.ingest(events)
    store = create_backend(backend)
    try:
        store.ingest(events)
        for text in (FIGURE4_QUERIES.get("a5-1").aiql,
                     dict(HUNT_QUERIES)["h10-volume-spike"]):
            query = parse(text)
            expected = brute_force(reference, query)
            assert expected
            assert execute_anomaly(store, query).rows == expected
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()


def test_standing_volume_anomaly_equals_batch_and_brute_force(demo_scenario):
    """The scoring core from the ``ContinuousAnomaly`` side: the stream
    groups each pane's events itself and must land on the same rows as
    the column-fed batch engine."""
    from aiqlbench.hunt_queries import STANDING_QUERIES
    from repro import AiqlSession
    text = dict(STANDING_QUERIES)["s8-volume-anomaly"].replace(
        "2000000", "20000")    # the small feed must cross the threshold
    session = AiqlSession(backend="columnar")
    stream = session.stream(batch_size=997)
    standing = session.register(text, name="s8")
    stream.publish_many(demo_scenario.events())
    stream.close()
    batch = session.query(text)
    assert batch.rows
    assert standing.result().rows == batch.rows
    assert batch.rows == brute_force(session.store, parse(text))
