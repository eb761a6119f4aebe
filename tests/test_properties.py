"""Cross-cutting property tests: randomized differential execution.

Hypothesis generates random event stores and random (but valid) AIQL
multievent queries; the optimized engine, the monolithic-SQL baseline, and
the graph traversal baseline must all return identical result multisets,
and all engine optimization toggles must be result-invariant.

This is the reproduction's strongest guard against scheduler/join bugs:
any unsound binding propagation, window narrowing, or partition pruning
shows up as a cross-engine mismatch on some generated case.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.graph import GraphStore
from repro.baselines.sqlite_backend import RelationalBaseline
from repro.engine.executor import EngineOptions, execute
from repro.lang.parser import parse
from repro.model.entities import FileEntity, ProcessEntity
from repro.storage.store import EventStore

EXES = ("alpha.exe", "beta.exe", "gamma.exe")
FILES = ("/data/one", "/data/two", "/logs/app")

event_spec = st.tuples(
    st.floats(min_value=0, max_value=1000),     # timestamp
    st.integers(min_value=1, max_value=2),      # agent
    st.sampled_from(EXES),                      # subject exe
    st.sampled_from(["read", "write"]),         # operation
    st.sampled_from(FILES),                     # object file
    st.integers(min_value=0, max_value=500),    # amount
)


def build_store(specs) -> EventStore:
    store = EventStore(bucket_seconds=400)
    for index, (ts, agent, exe, op, path, amount) in enumerate(specs):
        subject = ProcessEntity(agent, 100 + EXES.index(exe), exe)
        store.record(ts, agent, op, subject, FileEntity(agent, path),
                     amount=amount)
    return store


@st.composite
def random_query(draw) -> str:
    """A random 1–3 pattern multievent query over the tiny vocabulary."""
    pattern_count = draw(st.integers(min_value=1, max_value=3))
    lines = []
    event_vars = []
    share_subject = draw(st.booleans())
    share_object = draw(st.booleans())
    for index in range(pattern_count):
        subject_var = "p" if share_subject else f"p{index}"
        object_var = "f" if share_object else f"f{index}"
        subject_constraint = draw(st.sampled_from(
            ["", '["%alpha%"]', '["beta.exe"]', '[user = "system"]']))
        object_constraint = draw(st.sampled_from(
            ["", '["%data%"]', '["/logs/app"]']))
        operation = draw(st.sampled_from(["read", "write",
                                          "read || write"]))
        event_var = f"e{index}"
        event_vars.append(event_var)
        # Constraints attach to the first occurrence only; chaining
        # propagates them (and the SQL translator mirrors that).
        if index > 0 and share_subject:
            subject_constraint = ""
        if index > 0 and share_object:
            object_constraint = ""
        lines.append(
            f"proc {subject_var}{subject_constraint} {operation} "
            f"file {object_var}{object_constraint} as {event_var}")
    clauses = []
    if pattern_count > 1 and draw(st.booleans()):
        clauses.append(f"{event_vars[0]} before {event_vars[1]}")
    if pattern_count > 1 and draw(st.booleans()):
        left = "p" if share_subject else "p0"
        right = "p" if share_subject else "p1"
        if left != right:
            clauses.append(f"{left}.agentid = {right}.agentid")
    if clauses:
        lines.append("with " + ", ".join(clauses))
    returns = ", ".join(
        draw(st.sampled_from(
            [f"p{'' if share_subject else index}",
             f"f{'' if share_object else index}",
             f"e{index}.amount"]))
        for index in range(pattern_count))
    distinct = "distinct " if draw(st.booleans()) else ""
    lines.append(f"return {distinct}{returns}")
    if draw(st.booleans()):
        lines.append("agentid = 1")
        lines.insert(0, lines.pop())  # global constraints lead
    return "\n".join(lines)


@settings(max_examples=30, deadline=None)
@given(st.lists(event_spec, min_size=0, max_size=25), random_query())
def test_three_engines_agree(specs, source):
    store = build_store(specs)
    query = parse(source)
    engine_rows = Counter(execute(store, query).rows)

    relational = RelationalBaseline(optimized=True)
    relational.load_store(store)
    relational.finalize()
    sql_rows = Counter(tuple(row) for row in
                       relational.run_query(query).rows)
    relational.close()
    assert engine_rows == sql_rows, f"engine vs SQL for:\n{source}"

    graph = GraphStore()
    graph.load_store(store)
    graph_rows = Counter(graph.run_query(query).rows)
    assert engine_rows == graph_rows, f"engine vs graph for:\n{source}"


@settings(max_examples=30, deadline=None)
@given(st.lists(event_spec, min_size=0, max_size=30), random_query())
def test_optimizations_are_result_invariant(specs, source):
    store = build_store(specs)
    query = parse(source)
    reference = Counter(execute(store, query).rows)
    for options in (EngineOptions(prioritize=False),
                    EngineOptions(propagate=False),
                    EngineOptions(prioritize=False, propagate=False)):
        assert Counter(execute(store, query, options).rows) == reference, \
            f"option {options} changed results for:\n{source}"


@settings(max_examples=25, deadline=None)
@given(st.lists(event_spec, min_size=1, max_size=30))
def test_joined_rows_satisfy_all_constraints(specs):
    """Every returned binding satisfies every pattern's predicate."""
    from repro.engine.planner import plan_multievent
    from repro.engine.scheduler import execute_plan
    store = build_store(specs)
    query = parse('proc p["%alpha%"] write file f["%data%"] as e1\n'
                  'proc q read file f as e2\n'
                  'with e1 before e2\nreturn p, q, f')
    plan = plan_multievent(query)
    bindings, _report = execute_plan(store, plan)
    for binding in bindings:
        e1, e2 = binding["e1"], binding["e2"]
        assert e1.operation == "write" and e2.operation == "read"
        assert "alpha" in e1.subject.exe_name
        assert "data" in e1.object.name
        assert e1.object.identity == e2.object.identity
        assert e1.ts < e2.ts
