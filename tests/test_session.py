"""Tests for the AiqlSession public facade."""

import pytest

from repro import AiqlSession, EngineOptions
from repro.errors import ParseError
from repro.lang.errors import AiqlSyntaxError

from tests.conftest import QUERY1, QUERY1_ROW, make_exfil_store


class TestQueryFlow:
    def test_query_end_to_end(self):
        session = AiqlSession(store=make_exfil_store())
        result = session.query(QUERY1)
        assert result.rows == [QUERY1_ROW]

    def test_parse_surfaces_syntax_errors(self):
        session = AiqlSession()
        with pytest.raises(AiqlSyntaxError):
            session.parse("proc p[ return p")

    def test_check_returns_error_object(self):
        session = AiqlSession()
        error = session.check("proc p[% return p")
        assert error is not None
        assert error.line == 1
        assert session.check("proc p start proc c as e1\nreturn c") is None

    def test_explain(self):
        session = AiqlSession(store=make_exfil_store())
        assert "estimated" in session.explain(QUERY1)

    def test_custom_options(self):
        session = AiqlSession(store=make_exfil_store(),
                              options=EngineOptions(prioritize=False))
        assert session.query(QUERY1).rows == [QUERY1_ROW]

    def test_per_query_option_override(self):
        session = AiqlSession(store=make_exfil_store())
        result = session.query(QUERY1,
                               options=EngineOptions(propagate=False))
        assert result.rows == [QUERY1_ROW]


class TestIngest:
    def test_ingest_via_pipeline(self, demo_scenario):
        session = AiqlSession()
        stats = session.ingest(demo_scenario.events(), batch_size=500)
        assert stats.committed == len(demo_scenario.events())
        assert stats.batches >= 2
        assert session.event_count == stats.committed

    def test_ingest_with_merging(self, demo_scenario):
        merged = AiqlSession()
        # 15s covers the attack's 10s-interval C2 heartbeats, which are
        # the classic mergeable burst (same subject/object/operation).
        stats = merged.ingest(demo_scenario.events(), merge_window=15.0)
        assert stats.merged_away > 0
        assert merged.event_count < len(demo_scenario.events())

    def test_describe_summary(self):
        session = AiqlSession(store=make_exfil_store())
        text = session.describe()
        assert "events" in text
        assert "agents=[3]" in text

    def test_empty_session_describe(self):
        assert "(empty)" in AiqlSession().describe()
        assert AiqlSession().entity_count == 0
