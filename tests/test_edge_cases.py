"""Edge-case and failure-injection tests across layers.

Covers corners a downstream user hits in practice: interning collisions,
out-of-order ingest, pathological constraint shapes, empty stores, and
row-limit enforcement through the public API.
"""

import pytest

from repro import AiqlSession, EngineOptions, ExecutionError
from repro.model.entities import FileEntity, ProcessEntity
from repro.model.timeutil import Window
from repro.storage.store import EventStore

from tests.conftest import BASE_TS


class TestInterningSemantics:
    def test_identity_collision_keeps_first_record(self):
        """Two records with the same identity key intern to the first.

        Identity is (agent, pid, start_time) for processes; an agent
        reporting a different exe_name for the same identity is a data
        quality issue the store resolves deterministically (first wins),
        never by mixing attributes.
        """
        store = EventStore()
        first = ProcessEntity(1, 10, "original.exe", start_time=5.0)
        imposter = ProcessEntity(1, 10, "imposter.exe", start_time=5.0)
        target = FileEntity(1, "/tmp/x")
        store.record(BASE_TS, 1, "write", first, target)
        event = store.record(BASE_TS + 1, 1, "write", imposter, target)
        assert event.subject.exe_name == "original.exe"
        assert store.entity_count == 2  # one proc + one file

    def test_distinct_start_times_stay_distinct(self):
        store = EventStore()
        target = FileEntity(1, "/tmp/x")
        store.record(BASE_TS, 1, "write",
                     ProcessEntity(1, 10, "a.exe", start_time=1.0), target)
        store.record(BASE_TS, 1, "write",
                     ProcessEntity(1, 10, "a.exe", start_time=2.0), target)
        assert store.entity_count == 3


class TestOutOfOrderIngest:
    def test_reverse_order_ingest_still_queryable(self):
        store = EventStore()
        proc = ProcessEntity(1, 1, "w.exe")
        for index in reversed(range(50)):
            store.record(BASE_TS + index, 1, "write", proc,
                         FileEntity(1, f"/f{index}"))
        events = store.scan(Window(BASE_TS + 10, BASE_TS + 20))
        assert [e.ts - BASE_TS for e in events] == list(range(10, 20))

    def test_session_query_on_reverse_ingest(self):
        session = AiqlSession()
        proc = ProcessEntity(1, 1, "w.exe")
        target = FileEntity(1, "/x")
        reader = ProcessEntity(1, 2, "r.exe")
        session.store.record(BASE_TS + 100, 1, "read", reader, target)
        session.store.record(BASE_TS + 50, 1, "write", proc, target)
        result = session.query(
            'proc w["%w.exe%"] write file f as e1\n'
            'proc r["%r.exe%"] read file f as e2\n'
            'with e1 before e2\nreturn f')
        assert len(result) == 1


class TestEmptyAndDegenerate:
    def test_query_on_empty_store(self):
        session = AiqlSession()
        assert session.query(
            'proc p start proc c as e1\nreturn c').rows == []

    def test_anomaly_on_empty_store_without_window(self):
        session = AiqlSession()
        result = session.query(
            'window = 1 min, step = 1 min\n'
            'proc p write ip i as evt\nreturn count(evt) as c')
        assert result.rows == []

    def test_contradictory_constraints_return_empty(self, exfil_store):
        session = AiqlSession(store=exfil_store)
        result = session.query(
            'proc p[pid = 100, pid = 999] start proc c as e1\nreturn c')
        assert result.rows == []

    def test_like_pattern_of_only_wildcards(self, exfil_store):
        session = AiqlSession(store=exfil_store)
        result = session.query(
            '(at "06/10/2026")\n'
            'proc p["%"] start proc c["%%%"] as e1\nreturn distinct c')
        assert result.rows  # %-only patterns match everything

    def test_empty_in_list_is_syntax_error(self, exfil_store):
        from repro.lang.errors import AiqlSyntaxError
        session = AiqlSession(store=exfil_store)
        with pytest.raises(AiqlSyntaxError):
            session.query('proc p[user in ()] start proc c as e1\nreturn c')


class TestRowLimitThroughApi:
    def test_row_limit_option_raises_cleanly(self):
        session = AiqlSession()
        proc_a = ProcessEntity(1, 1, "a.exe")
        proc_b = ProcessEntity(1, 2, "b.exe")
        for index in range(30):
            session.store.record(BASE_TS + index, 1, "write", proc_a,
                                 FileEntity(1, f"/a{index}"))
            session.store.record(BASE_TS + index, 1, "write", proc_b,
                                 FileEntity(1, f"/b{index}"))
        with pytest.raises(ExecutionError, match="intermediate rows"):
            session.query(
                'proc a["%a.exe%"] write file f as e1\n'
                'proc b["%b.exe%"] write file g as e2\nreturn f, g',
                options=EngineOptions(row_limit=50))

    def test_row_limit_bounds_the_whole_query_not_each_agent(self):
        """Three agents whose joins are 25 rows each: under the limit one
        agent at a time, over it together — the guard counts together."""
        session = AiqlSession()
        for agent in (1, 2, 3):
            proc = ProcessEntity(agent, 7, "p.exe")
            for index in range(5):
                session.store.record(BASE_TS + index, agent, "read", proc,
                                     FileEntity(agent, f"/in{index}"))
                session.store.record(BASE_TS + 100 + index, agent, "write",
                                     proc, FileEntity(agent, f"/out{index}"))
        aiql = ('proc p read file f as e1\nproc p write file g as e2\n'
                'with e1 before e2\nreturn f, g')
        assert len(session.query(aiql).rows) == 75
        with pytest.raises(ExecutionError, match="intermediate rows"):
            session.query(aiql, options=EngineOptions(row_limit=40))


class TestRenderEdges:
    def test_render_empty_result(self):
        from repro.core.results import QueryResult
        from repro.ui.render import render_table
        empty = QueryResult(columns=["a", "b"], rows=[], elapsed=0.001,
                            kind="multievent")
        text = render_table(empty)
        assert "(0 rows" in text
        assert "a" in text.splitlines()[0]

    def test_render_none_cells(self):
        from repro.core.results import QueryResult
        from repro.ui.render import render_table
        result = QueryResult(columns=["x"], rows=[(None,)], elapsed=0,
                             kind="anomaly")
        assert "(1 rows" in render_table(result)
