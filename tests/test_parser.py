"""Tests for the AIQL parser: the three query classes + diagnostics."""

import pytest

from repro.errors import SemanticError
from repro.lang import ast
from repro.lang.errors import AiqlSyntaxError
from repro.lang.parser import parse
from repro.model.timeutil import SECONDS_PER_DAY

MULTI = '''
(at "06/10/2026")
agentid = 3
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip="10.0.0.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1
'''

DEP = '''
forward: proc p1["%/bin/cp%", agentid = 1] ->[write] file f1["/var/www/%i%"]
<-[read] proc p2["%apache%"]
->[connect] proc p3[agentid=2]
->[write] file f2["%i%"]
return f1, p1, p2, p3, f2
'''

ANOM = '''
(at "06/10/2026")
agentid = 3
window = 1 min, step = 10 sec
proc p write ip i[dstip="10.0.0.129"] as evt
return p, avg(evt.amount) as amt
group by p
having (amt > 2 * (amt + amt[1] + amt[2]) / 3)
'''


class TestMultievent:
    def test_paper_query_1_structure(self):
        query = parse(MULTI)
        assert isinstance(query, ast.MultieventQuery)
        assert len(query.patterns) == 4
        assert query.distinct
        assert [p.event_var for p in query.patterns] == [
            "evt1", "evt2", "evt3", "evt4"]
        assert query.patterns[3].operations == ("read", "write")
        assert query.header.window.duration == SECONDS_PER_DAY
        assert query.header.agentids() == {3}
        assert len(query.temporal) == 3
        assert len(query.return_items) == 6

    def test_bare_string_desugars_to_like_on_wildcard(self):
        query = parse('proc p["%cmd.exe"] start proc c as e1 return c')
        constraint = query.patterns[0].subject.constraints[0]
        assert constraint.op == "like"
        assert constraint.attribute is None

    def test_bare_string_without_wildcard_is_equality(self):
        query = parse('proc p["cmd.exe"] start proc c as e1 return c')
        assert query.patterns[0].subject.constraints[0].op == "="

    def test_named_constraint_with_wildcard_is_like(self):
        query = parse('proc p[cmdline = "%-enc%"] start proc c as e1 '
                      'return c')
        assert query.patterns[0].subject.constraints[0].op == "like"

    def test_in_constraint(self):
        query = parse('proc p start proc c[exe_name in ("a.exe", "b.exe")] '
                      'as e1 return c')
        constraint = query.patterns[0].object.constraints[0]
        assert constraint.op == "in"
        assert constraint.value == ("a.exe", "b.exe")

    def test_attribute_alias_canonicalized_in_constraint(self):
        query = parse('proc p write ip i[dstip = "1.2.3.4"] as e1 return i')
        assert query.patterns[0].object.constraints[0].attribute == "dst_ip"

    def test_within_clause(self):
        query = parse('proc a start proc b as e1\nproc b start proc c as '
                      'e2\nwith e1 before e2 within 5 min\nreturn c')
        assert query.temporal[0].within == 300.0

    def test_after_relation(self):
        query = parse('proc a start proc b as e1\nproc b start proc c as '
                      'e2\nwith e2 after e1\nreturn c')
        normalized = query.temporal[0].normalized()
        assert (normalized.left, normalized.right) == ("e1", "e2")

    def test_from_to_window(self):
        query = parse('(from "06/10/2026" to "06/12/2026")\n'
                      'proc a start proc b as e1 return b')
        assert query.header.window.duration == 2 * SECONDS_PER_DAY

    def test_return_with_attributes_and_alias(self):
        query = parse('proc a start proc b as e1 '
                      'return b.pid as child, e1.ts')
        assert query.return_items[0].alias == "child"
        assert query.return_items[1].name == "e1.ts"


class TestMultieventErrors:
    def test_duplicate_event_var(self):
        with pytest.raises(SemanticError, match="duplicate"):
            parse('proc a start proc b as e1\nproc a start proc c as e1\n'
                  'return b')

    def test_variable_type_conflict(self):
        with pytest.raises(SemanticError, match="both"):
            parse('proc a start proc b as e1\nproc a write file b as e2\n'
                  'return b')

    def test_unknown_temporal_var(self):
        with pytest.raises(AiqlSyntaxError, match="unknown event variable"):
            parse('proc a start proc b as e1\nwith e1 before e9\nreturn b')

    def test_unknown_return_var(self):
        with pytest.raises(SemanticError, match="unknown variable"):
            parse('proc a start proc b as e1\nreturn zz')

    def test_aggregate_rejected_outside_anomaly(self):
        with pytest.raises(SemanticError, match="anomaly"):
            parse('proc a write ip i as e1\nreturn avg(e1.amount)')

    def test_missing_return(self):
        with pytest.raises(AiqlSyntaxError):
            parse('proc a start proc b as e1')

    def test_caret_diagnostic_points_at_error(self):
        try:
            parse('proc p1[%cmd] start proc p2 as e1\nreturn p1')
        except AiqlSyntaxError as exc:
            assert exc.line == 1
            assert exc.col == 9
            assert "^" in exc.render()
        else:
            pytest.fail("expected a syntax error")

    @pytest.mark.parametrize("source", ["// a\rb\nproc p @ x",
                                        "// a\u2028b\nproc p @ x"])
    def test_caret_snippet_is_the_lexers_line(self, source):
        # Lines are counted at "\n" only; str.splitlines() also splits
        # at "\r", U+2028 and friends and would show the wrong line.
        with pytest.raises(AiqlSyntaxError) as excinfo:
            parse(source)
        assert excinfo.value.line == 2
        assert excinfo.value.render().split("\n")[1:] == [
            "  proc p @ x", "         ^"]

    def test_analyzer_snippet_is_the_lexers_line(self):
        from repro.analysis import analyze, render_all
        source = 'proc p["a\u2028b"] start proc c as e1\nreturn zz'
        (diagnostic,) = [d for d in analyze(source) if d.span is not None
                         and d.span.line == 2]
        assert render_all([diagnostic], source).split("\n")[1:] == [
            "  return zz", "         ^~"]

    def test_unknown_attribute_in_brackets(self):
        with pytest.raises(AiqlSyntaxError, match="no attribute"):
            parse('proc p[dst_ip = "x"] start proc c as e1 return c')

    def test_overlapping_windows_intersect(self):
        query = parse('(from "06/10/2026" to "06/12/2026")\n'
                      '(from "06/11/2026" to "06/13/2026")\n'
                      'proc a start proc b as e1 return b')
        assert query.header.window.duration == SECONDS_PER_DAY

    def test_disjoint_windows_rejected(self):
        with pytest.raises(AiqlSyntaxError, match="overlap"):
            parse('(at "06/10/2026")\n(at "06/12/2026")\n'
                  'proc a start proc b as e1 return b')


class TestDependency:
    def test_paper_query_2_structure(self):
        query = parse(DEP)
        assert isinstance(query, ast.DependencyQuery)
        assert query.direction == "forward"
        assert len(query.nodes) == 5
        assert len(query.edges) == 4
        assert [e.subject_side for e in query.edges] == [
            "left", "right", "left", "left"]

    def test_backward_direction(self):
        query = parse('backward: file f["%x%"] <-[write] proc p '
                      'return p')
        assert query.direction == "backward"

    def test_subject_must_be_process(self):
        with pytest.raises(SemanticError, match="subject"):
            parse('forward: file f ->[write] file g return f')

    def test_needs_at_least_one_edge(self):
        with pytest.raises(AiqlSyntaxError, match="edge"):
            parse("forward: proc p return p")

    def test_alternated_edge_operations(self):
        query = parse('forward: proc p ->[read || write] ip i return p')
        assert query.edges[0].operations == ("read", "write")


class TestAnomaly:
    def test_paper_query_3_structure(self):
        query = parse(ANOM)
        assert isinstance(query, ast.AnomalyQuery)
        assert query.window_spec.width == 60.0
        assert query.window_spec.step == 10.0
        assert query.group_by == (ast.VarRef("p"),)
        aggregates = ast.expr_aggregates(query.return_items[1].expr)
        assert aggregates[0].func == "avg"
        history = ast.expr_history_refs(query.having)
        assert sorted(ref.offset for ref in history) == [1, 2]

    def test_having_precedence(self):
        query = parse('window = 1 min, step = 30 sec\n'
                      'proc p write ip i as evt\n'
                      'return count(evt) as c\n'
                      'having c > 1 + 2 * 3')
        having = query.having
        assert isinstance(having, ast.BinOp) and having.op == ">"
        right = having.right
        assert isinstance(right, ast.BinOp) and right.op == "+"

    def test_having_boolean_operators(self):
        query = parse('window = 1 min, step = 30 sec\n'
                      'proc p write ip i as evt\n'
                      'return sum(evt.amount) as s\n'
                      'having s > 10 and not (s < 100 or s = 50)')
        assert isinstance(query.having, ast.BinOp)
        assert query.having.op == "and"

    def test_requires_aggregate(self):
        with pytest.raises(SemanticError, match="aggregate"):
            parse('window = 1 min, step = 30 sec\n'
                  'proc p write ip i as evt\nreturn p\ngroup by p')

    def test_unknown_history_alias(self):
        with pytest.raises(SemanticError, match="alias"):
            parse('window = 1 min, step = 30 sec\n'
                  'proc p write ip i as evt\n'
                  'return avg(evt.amount) as amt\ngroup by p\n'
                  'having nope[1] > 2')

    def test_unknown_group_by(self):
        with pytest.raises(SemanticError, match="group by"):
            parse('window = 1 min, step = 30 sec\n'
                  'proc p write ip i as evt\n'
                  'return avg(evt.amount) as amt\ngroup by zz')

    def test_negative_history_offset_rejected(self):
        with pytest.raises(AiqlSyntaxError):
            parse('window = 1 min, step = 30 sec\n'
                  'proc p write ip i as evt\n'
                  'return avg(evt.amount) as amt\ngroup by p\n'
                  'having amt[-1] > 2')

    def test_count_star(self):
        query = parse('window = 1 min, step = 30 sec\n'
                      'proc p write ip i as evt\n'
                      'return count(*) as c\ngroup by p\nhaving c > 3')
        assert query.return_items[0].expr.arg is None


class TestTrailingInput:
    def test_trailing_tokens_rejected(self):
        with pytest.raises(AiqlSyntaxError, match="trailing"):
            parse('proc a start proc b as e1 return b extra')
