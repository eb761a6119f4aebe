"""End-to-end tests for the executor on the paper's three query classes."""

import pytest

from repro import AiqlSession
from repro.engine.executor import EngineOptions, execute, explain
from repro.errors import ExecutionError, SemanticError
from repro.lang.parser import parse
from repro.model.entities import FileEntity, ProcessEntity
from repro.storage.durable import DurableStore

from tests.conftest import (DAY, QUERY1, QUERY1_ROW, general_engine_rows,
                            open_backend)


class TestMultieventExecution:
    def test_paper_query1_finds_exactly_the_attack(self, exfil_store):
        result = execute(exfil_store, parse(QUERY1))
        assert result.columns == ["p1", "p2", "p3", "f1", "p4", "i1"]
        assert result.rows == [QUERY1_ROW]
        assert result.kind == "multievent"

    def test_report_is_populated(self, exfil_store):
        result = execute(exfil_store, parse(QUERY1))
        assert "pattern order" in result.report
        assert result.elapsed > 0

    def test_distinct_deduplicates(self, exfil_store):
        duplicated = f'''(at "{DAY}")
proc p["%svchost%"] write file f["%log0%"] as e1
return distinct p'''
        result = execute(exfil_store, parse(duplicated))
        assert result.rows == [("svchost.exe",)]

    def test_without_distinct_keeps_multiplicity(self, exfil_store):
        query = f'''(at "{DAY}")
proc p["%svchost%"] write file f["%log0%"] as e1
return p'''
        result = execute(exfil_store, parse(query))
        assert len(result.rows) > 1

    def test_event_attribute_projection(self, exfil_store):
        query = f'''(at "{DAY}")
proc p["%sqlservr%"] write file f as e1
return f, e1.amount, e1.operation'''
        result = execute(exfil_store, parse(query))
        assert result.rows[0][1] == 500_000
        assert result.rows[0][2] == "write"

    def test_rows_ordered_by_time(self, exfil_store):
        query = f'''(at "{DAY}")
proc p["%svchost%"] write file f as e1
return e1.ts'''
        result = execute(exfil_store, parse(query))
        timestamps = [row[0] for row in result.rows]
        assert timestamps == sorted(timestamps)

    def test_empty_result_when_no_match(self, exfil_store):
        query = 'proc p["%ghost.exe%"] write file f as e1\nreturn f'
        result = execute(exfil_store, parse(query))
        assert result.rows == []

    def test_options_do_not_change_results(self, exfil_store):
        reference = execute(exfil_store, parse(QUERY1)).rows
        for prioritize in (True, False):
            for propagate in (True, False):
                options = EngineOptions(prioritize=prioritize,
                                        propagate=propagate)
                assert execute(exfil_store, parse(QUERY1),
                               options).rows == reference


class TestDependencyExecution:
    def test_dependency_result_kind(self, exfil_store):
        query = f'''(at "{DAY}")
forward: proc p["%sqlservr%"] ->[write] file f["%backup1%"]
<-[read] proc q["%sbblv%"]
return p, f, q'''
        result = execute(exfil_store, parse(query))
        assert result.kind == "dependency"
        assert result.rows == [("sqlservr.exe", r"C:\backup\backup1.dmp",
                                "sbblv.exe")]


class TestAnomalyExecution:
    def test_anomaly_result_has_window_column(self, exfil_store):
        query = f'''(at "{DAY}")
window = 1 hour, step = 1 hour
proc p write ip i as evt
return p, sum(evt.amount) as s
group by p
having s > 0'''
        result = execute(exfil_store, parse(query))
        assert result.columns[0] == "window"
        assert result.kind == "anomaly"
        assert result.rows


class TestExplain:
    def test_multievent_plan_shows_estimates(self, exfil_store):
        text = explain(exfil_store, parse(QUERY1))
        assert "estimated" in text
        assert "evt1" in text

    def test_dependency_explains_rewrite(self, exfil_store):
        text = explain(exfil_store, parse(
            'forward: proc p ->[write] file f return f'))
        assert "compiled to multievent" in text

    def test_anomaly_explained(self, exfil_store):
        text = explain(exfil_store, parse(
            'window = 1 min, step = 10 sec\nproc p write ip i as evt\n'
            'return count(evt) as c'))
        assert "sliding-window" in text


class TestProjectionErrors:
    def test_unknown_return_attribute(self, exfil_store):
        query = parse('proc p start proc c as e1\nreturn c')
        # Patch in a bad attribute to exercise the projection guard.
        from repro.lang import ast
        bad = ast.MultieventQuery(
            header=query.header, patterns=query.patterns,
            temporal=query.temporal,
            return_items=(ast.ReturnItem(
                ast.VarRef("c", "dst_ip")),),
            distinct=False)
        with pytest.raises(SemanticError):
            execute(exfil_store, bad)


class TestVectorizedAndTopK:
    """The vectorized path on every backend must produce byte-identical
    rows to the general engine's bounded-heap ``top`` — ties at the cut,
    null sort keys, and ``top`` larger than the result included."""

    @pytest.fixture
    def tied_store(self):
        """Timestamp ties spanning any small ``top`` cut, plus events
        with a null sort attribute (amount-less reads)."""
        from repro.storage.store import EventStore
        store = EventStore()
        writer = ProcessEntity(1, 10, "writer.exe")
        # user=None: a genuinely null sort key for the null-safe
        # composite comparator (the dataclass does not enforce str).
        ghost = ProcessEntity(1, 11, "ghost.exe", user=None)
        for step in range(6):
            for dup in range(4):
                store.record(1000.0 + step * 10, 1, "write",
                             writer if dup % 2 == 0 else ghost,
                             FileEntity(1, f"/t/{dup}.txt"),
                             amount=dup * 100)
        return store

    def _rows(self, store, aiql):
        """Rows of the general engine (schedule, join, project) on the
        row store, after checking that the executor returns exactly the
        same on the row store and on columnar and sqlite replays."""
        from repro.storage.backend import create_backend
        query = parse(aiql)
        rows = general_engine_rows(store, query)
        assert execute(store, query).rows == rows, "row"
        for name in ("columnar", "sqlite"):
            replay = create_backend(name)
            replay.ingest(store.scan())
            assert execute(replay, query).rows == rows, name
        return rows

    def test_ties_at_the_top_cut(self, tied_store):
        rows = self._rows(
            tied_store, 'proc p write file f as e1\n'
                        'return f, e1.ts sort by e1.ts desc top 6')
        assert len(rows) == 6
        # Descending ts, ties broken toward the *earlier* event: the two
        # newest tie groups fully, then the cut lands mid-group keeping
        # the smallest-id rows (stable descending sort semantics).
        assert [row[1] for row in rows] == [1050.0] * 4 + [1040.0] * 2
        assert rows[4][0] == "/t/0.txt" and rows[5][0] == "/t/1.txt"

    def test_top_larger_than_result(self, tied_store):
        rows = self._rows(
            tied_store, 'proc p write file f as e1\n'
                        'return f sort by e1.ts top 500')
        assert len(rows) == 24

    def test_descending_sort_with_nulls(self, tied_store):
        """Half the subjects carry ``user=None``: the null-safe
        composite key must rank nulls identically in the bounded heap,
        the full stable sort, and the vectorized path — nulls last
        under ``desc``, ties still broken by time order."""
        rows = self._rows(
            tied_store, 'proc p write file f as e1\n'
                        'return f, p.user sort by p.user desc top 15')
        assert len(rows) == 15
        users = [row[1] for row in rows]
        # Strings outrank nulls in the null-safe key, so desc puts the
        # twelve "system" rows first and nulls fill the tail of the cut.
        assert users[:12] == ["system"] * 12
        assert users[12:] == [None] * 3

    def test_projection_of_never_filtered_attribute(self, tied_store):
        """Returning an attribute no constraint mentions exercises
        projection pushdown's "carry the column anyway" path."""
        rows = self._rows(
            tied_store, 'amount >= 200\nproc p write file f as e1\n'
                        'return e1.failcode, f, e1.amount')
        assert rows
        assert all(row[0] == 0 for row in rows)
        assert all(row[2] >= 200 for row in rows)

    def test_distinct_top_keeps_full_sort_semantics(self, tied_store):
        rows = self._rows(
            tied_store, 'proc p write file f as e1\n'
                        'return distinct f sort by e1.ts top 3')
        assert len(rows) == 3
        assert len(set(rows)) == 3

    def test_filtered_descending_top(self, tied_store):
        rows = self._rows(
            tied_store, 'amount >= 100\nproc p write file f as e1\n'
                        'return f, e1.amount sort by e1.ts desc top 10')
        assert len(rows) == 10
        assert all(row[1] >= 100 for row in rows)


SINGLE_PATTERN = 'proc p["w.exe"] write file f as e1\nreturn f, e1.amount'

ANOMALY = ('window = 1 min, step = 1 min\n'
           'proc p write file f as evt\n'
           'return p, sum(evt.amount) as total\n'
           'group by p')


def _load_writes(store, count: int = 10) -> None:
    """``count`` writes by w.exe that match :data:`SINGLE_PATTERN`, plus
    reads that do not."""
    writer = ProcessEntity(1, 10, "w.exe")
    reader = ProcessEntity(1, 11, "r.exe")
    for i in range(count):
        store.record(1000.0 + i, 1, "write", writer,
                     FileEntity(1, f"/out/{i}"), amount=i)
        store.record(1000.5 + i, 1, "read", reader, FileEntity(1, "/in"))


def _scan_spans(session: AiqlSession) -> list:
    return [span for span in session.last_trace().spans()
            if span.name == "scan"]


class TestOneScanPath:
    """Every backend serves ``select_batches``, so which path a query
    takes depends on its shape alone — never on the store object."""

    def test_durable_columnar_single_pattern_is_vectorized(self, tmp_path):
        with DurableStore(tmp_path, backend="columnar",
                          sync="never") as store:
            _load_writes(store)
            session = AiqlSession(store=store)
            rows = session.query(SINGLE_PATTERN, trace=True).rows
        assert rows == general_engine_rows(store, parse(SINGLE_PATTERN))
        assert [span.attrs.get("vectorized")
                for span in _scan_spans(session)] == [True]

    def test_durable_columnar_anomaly_hydrates_nothing(self, tmp_path):
        with DurableStore(tmp_path, backend="columnar",
                          sync="never") as store:
            _load_writes(store)
            session = AiqlSession(store=store)
            rows = session.query(ANOMALY, trace=True).rows
        assert rows == AiqlSession(store=store.inner).query(ANOMALY).rows
        assert [span.attrs.get("bytes_hydrated")
                for span in _scan_spans(session)] == [0]

    @pytest.mark.parametrize("backend", ["row", "columnar", "sqlite",
                                         "durable(columnar)",
                                         "sharded(row)"])
    def test_row_limit_guards_single_pattern_queries(self, backend,
                                                     tmp_path_factory):
        """An explicit ``row_limit`` below the survivor count raises the
        joiner's error on every backend, without running a join; at
        the limit the query answers."""
        store = open_backend(backend, tmp_path_factory)
        try:
            _load_writes(store)
            session = AiqlSession(store=store)
            with pytest.raises(ExecutionError, match="exceeded 5 "):
                session.query(SINGLE_PATTERN, EngineOptions(row_limit=5),
                              trace=True)
            names = {span.name for span in session.last_trace().spans()}
            assert "scan" in names and "join" not in names
            assert len(session.query(SINGLE_PATTERN,
                                     EngineOptions(row_limit=10)).rows) == 10
        finally:
            close = getattr(store, "close", None)
            if close is not None:
                close()
