"""One execution path, checked against an independent reference; and the
plan-soundness verifier: sound specs pass, corrupted specs fail.

Differential: every figure-4/figure-5 catalog query and the IOC-free hunt
set (joins, ``%like%``, ``top N``, anomaly, dependency) returns, on every
storage backend, with and without ``EngineOptions.verify_plans``, exactly
the rows of the row store run with ``prioritize=False, propagate=False``
— declaration order, unrestricted scans, the join doing all the work,
and single-pattern queries forced through that general engine too
rather than the vectorized path every backend now takes.
With ``verify_plans`` on, the scheduler also never emits a
:class:`~repro.storage.backend.ScanSpec` the independent re-derivation in
:mod:`repro.engine.verify` rejects.  Negative direction: hand-corrupted
specs (dropped projection columns, over-tight bounds, unjustified order
or bindings) raise :class:`PlanVerificationError` with a message naming
the exact violation.

CI's backend matrix restricts each leg via ``REPRO_CONTRACT_BACKENDS``,
mirroring the backend contract suite.
"""

from __future__ import annotations

import math
import os

import pytest

from aiqlbench.hunt_queries import HUNT_QUERIES
from repro.engine.executor import execute
from repro.engine.options import EngineOptions
from repro.engine.planner import plan_multievent
from repro.engine.verify import (PlanVerificationError, consumed_columns,
                                 implied_bounds, verify_spec)
from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
from repro.lang.parser import parse
from repro.storage.backend import (IdentityBindings, ScanOrder, ScanSpec,
                                   TemporalBounds, create_backend)

from tests.conftest import general_engine_rows, open_backend

ALL_BACKENDS = ("row", "columnar", "sqlite", "sharded(columnar)")

BACKENDS = tuple(
    name for name in os.environ.get("REPRO_CONTRACT_BACKENDS",
                                    ",".join(ALL_BACKENDS)).split(",")
    if name) or ALL_BACKENDS

CONFIGS = {
    "default": EngineOptions(),
    "verify": EngineOptions(verify_plans=True),
}

#: Neither scheduling lever: the reference every other run must equal.
REFERENCE = EngineOptions(prioritize=False, propagate=False)

#: ``(scenario, query id, AIQL)`` — the hunt set runs on the demo day.
QUERIES = (
    [("demo", entry.id, entry.aiql) for entry in FIGURE4_QUERIES]
    + [("case2", entry.id, entry.aiql) for entry in FIGURE5_QUERIES]
    + [("demo", qid, aiql) for qid, aiql in HUNT_QUERIES])


@pytest.fixture(scope="module")
def scenarios(demo_scenario, case2_scenario):
    return {"demo": demo_scenario, "case2": case2_scenario}


@pytest.fixture(scope="module")
def reference_rows(scenarios):
    """Rows per query from the row store with both levers off, through
    the general engine."""
    stores = {}
    for name, scenario in scenarios.items():
        stores[name] = create_backend("row")
        scenario.load(stores[name])
    return {qid: general_engine_rows(stores[name], parse(aiql), REFERENCE)
            for name, qid, aiql in QUERIES}


@pytest.fixture(params=BACKENDS, scope="module")
def stores(request, scenarios, tmp_path_factory):
    loaded = {}
    for name, scenario in scenarios.items():
        loaded[name] = open_backend(request.param, tmp_path_factory)
        scenario.load(loaded[name])
    yield loaded
    for store in loaded.values():
        close = getattr(store, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("scenario,qid,aiql", QUERIES,
                         ids=[qid for _name, qid, _aiql in QUERIES])
def test_rows_equal_the_lever_free_reference(scenario, qid, aiql, config,
                                             stores, reference_rows):
    result = execute(stores[scenario], parse(aiql), CONFIGS[config])
    assert result.rows == reference_rows[qid]


def test_reference_is_not_vacuous(reference_rows):
    """Most queries of each set return rows at the test scale."""
    for queries in (FIGURE4_QUERIES, FIGURE5_QUERIES):
        ids = [entry.id for entry in queries]
        assert sum(bool(reference_rows[qid]) for qid in ids) > len(ids) // 2
    hunt = [qid for qid, _aiql in HUNT_QUERIES]
    assert sum(bool(reference_rows[qid]) for qid in hunt) > len(hunt) // 2


# ---------------------------------------------------------------------------
# The verifier is actually in the loop (both execution paths)
# ---------------------------------------------------------------------------

class TestVerifierIsWired:
    def test_scheduler_path_calls_verifier(self, exfil_session, monkeypatch):
        import repro.engine.verify as verify_mod
        calls = []
        real = verify_mod.verify_spec
        def spy(plan, dq, spec, **state):
            calls.append(dq.event_var)
            return real(plan, dq, spec, **state)
        monkeypatch.setattr(verify_mod, "verify_spec", spy)
        from tests.conftest import QUERY1
        exfil_session.query(QUERY1,
                            options=EngineOptions(verify_plans=True))
        assert len(calls) >= 4  # one spec per executed pattern, at least

    def test_vectorized_path_calls_verifier(self, monkeypatch):
        import repro.engine.verify as verify_mod
        calls = []
        real = verify_mod.verify_spec
        def spy(plan, dq, spec, **state):
            calls.append(spec)
            return real(plan, dq, spec, **state)
        monkeypatch.setattr(verify_mod, "verify_spec", spy)
        from repro.model.entities import FileEntity, ProcessEntity
        store = create_backend("columnar")
        writer = ProcessEntity(1, 10, "writer.exe")
        for i in range(20):
            store.record(float(i), 1, "write", writer,
                         FileEntity(1, f"/data/{i}.txt"), amount=100)
        query = parse('proc p1 write file f1 as evt\n'
                      'return p1.exe_name, f1.name')
        plan = plan_multievent(query)
        from repro.engine.vectorized import execute_vectorized
        fast = execute_vectorized(store, plan, query,
                                  EngineOptions(verify_plans=True))
        assert fast is not None        # the fast path actually ran
        assert len(calls) == 1

    def test_off_by_default(self, exfil_session, monkeypatch):
        import repro.engine.verify as verify_mod
        def explode(*args, **kwargs):
            raise AssertionError("verifier ran with verify_plans=False")
        monkeypatch.setattr(verify_mod, "verify_spec", explode)
        from tests.conftest import QUERY1
        exfil_session.query(QUERY1)  # default options: must not verify


# ---------------------------------------------------------------------------
# Corrupted specs: every check fires, with a precise message
# ---------------------------------------------------------------------------

TWO_PATTERN = ('proc p1 write file f1 as e1\n'
               'proc p2 read file f1 as e2\n'
               'with e1 before e2 within 10 sec\n'
               'return p1.exe_name, f1.name')

F1_IDS = {("file", 1, "/a"), ("file", 1, "/b"), ("file", 1, "/c")}


@pytest.fixture()
def two_pattern():
    plan = plan_multievent(parse(TWO_PATTERN))
    dq = next(d for d in plan.data_queries if d.event_var == "e2")
    state = dict(closure=plan.temporal_closure(),
                 identity_sets={"f1": set(F1_IDS)},
                 ts_bounds={"e1": (100.0, 200.0)})
    return plan, dq, state


class TestCorruptedSpecs:
    def test_scheduler_shaped_spec_is_sound(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(
            bindings=IdentityBindings(objects=frozenset(F1_IDS)),
            bounds=TemporalBounds(lo=100.0, hi=210.0, lo_strict=True),
            projection=frozenset({"subject", "object"}))
        verify_spec(plan, dq, spec, **state)  # must not raise

    def test_projection_missing_consumed_column(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(projection=frozenset({"amount"}))
        with pytest.raises(PlanVerificationError,
                           match=r"missing consumed column\(s\) \['object'\]"):
            verify_spec(plan, dq, spec, **state)

    def test_bounds_tighter_than_closure_implies(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(bounds=TemporalBounds(lo=150.0, hi=180.0))
        with pytest.raises(PlanVerificationError) as info:
            verify_spec(plan, dq, spec, **state)
        message = str(info.value)
        assert "lower temporal bound" in message
        assert "upper temporal bound" in message
        assert "tighter than the implied" in message

    def test_bounds_without_any_executed_partner(self, two_pattern):
        plan, dq, state = two_pattern
        state["ts_bounds"] = {}
        spec = ScanSpec(bounds=TemporalBounds(lo=5.0))
        with pytest.raises(PlanVerificationError,
                           match="no executed partner implies any"):
            verify_spec(plan, dq, spec, **state)

    def test_looser_bounds_are_fine(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(bounds=TemporalBounds(lo=50.0, hi=500.0))
        verify_spec(plan, dq, spec, **state)  # looser only costs work

    def test_order_in_multi_pattern_plan(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(order=ScanOrder(descending=True, limit=3))
        with pytest.raises(PlanVerificationError,
                           match="multi-pattern plan"):
            verify_spec(plan, dq, spec, **state)

    def test_bindings_dropping_live_identity(self, two_pattern):
        plan, dq, state = two_pattern
        shrunk = frozenset(sorted(F1_IDS)[:2])
        spec = ScanSpec(bindings=IdentityBindings(objects=shrunk))
        with pytest.raises(
                PlanVerificationError,
                match="excludes 1 propagated identity that still has "
                      "join partners"):
            verify_spec(plan, dq, spec, **state)

    def test_bindings_inventing_identity(self, two_pattern):
        plan, dq, state = two_pattern
        padded = frozenset(F1_IDS) | {("file", 9, "/ghost")}
        spec = ScanSpec(bindings=IdentityBindings(objects=padded))
        with pytest.raises(PlanVerificationError,
                           match="admits 1 identity no executed pattern "
                                 "produced"):
            verify_spec(plan, dq, spec, **state)

    def test_bindings_for_unbound_variable(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(bindings=IdentityBindings(
            subjects=frozenset({("proc", 1, 2, 0.0)})))
        with pytest.raises(PlanVerificationError,
                           match="although no executed pattern bound it"):
            verify_spec(plan, dq, spec, **state)


SINGLE_TOP = ('proc p1 write file f1 as e1\n'
              'return p1.exe_name, f1.name\n'
              'sort by e1.ts desc\ntop 5')


class TestOrderRules:
    @pytest.fixture()
    def single_top(self):
        plan = plan_multievent(parse(SINGLE_TOP))
        return plan, plan.data_queries[0]

    def empty_state(self):
        return dict(closure={}, identity_sets={}, ts_bounds={})

    def test_sound_topk_spec(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=True, limit=5))
        verify_spec(plan, dq, spec, **self.empty_state())

    def test_limit_below_top(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=True, limit=3))
        with pytest.raises(PlanVerificationError,
                           match="smaller than the query's top 5"):
            verify_spec(plan, dq, spec, **self.empty_state())

    def test_direction_mismatch(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=False, limit=5))
        with pytest.raises(PlanVerificationError,
                           match="does not match the query's"):
            verify_spec(plan, dq, spec, **self.empty_state())

    def test_order_with_coexisting_bounds(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=True, limit=5),
                        bounds=TemporalBounds(lo=1.0))
        with pytest.raises(PlanVerificationError,
                           match="together with bindings/bounds"):
            verify_spec(plan, dq, spec, **self.empty_state())

    def test_limit_without_top(self):
        plan = plan_multievent(parse(
            'proc p1 write file f1 as e1\n'
            'return p1.exe_name\nsort by e1.ts'))
        spec = ScanSpec(order=ScanOrder(limit=7))
        with pytest.raises(PlanVerificationError,
                           match="although the query has no 'top N'"):
            verify_spec(plan, plan.data_queries[0], spec,
                        **self.empty_state())


# ---------------------------------------------------------------------------
# The re-derivation helpers themselves
# ---------------------------------------------------------------------------

class TestDerivations:
    def test_consumed_columns_cover_joins_and_returns(self, two_pattern):
        plan, dq, _state = two_pattern
        # e2 reads nothing event-level; f1 is its object and also joins.
        assert consumed_columns(plan.query, plan, dq) == frozenset({"object"})
        e1 = next(d for d in plan.data_queries if d.event_var == "e1")
        # p1.exe_name is returned -> subject; f1 joins -> object.
        assert consumed_columns(plan.query, plan, e1) == \
            frozenset({"subject", "object"})

    def test_consumed_columns_unknowable_for_expressions(self):
        # Non-variable return items (an aggregate sneaked past the lax
        # parse used by tooling) are compiled against full rows; the only
        # sound projection is none at all.
        from repro.lang.parser import parse_with_spans
        query, _spans = parse_with_spans(
            'proc p1 write file f1 as e1\n'
            'return avg(e1.amount)', check=False)
        plan = plan_multievent(query)
        assert consumed_columns(query, plan,
                                plan.data_queries[0]) is None

    def test_implied_bounds_from_executed_partner(self, two_pattern):
        plan, dq, state = two_pattern
        bounds = implied_bounds(dq, state["closure"], state["ts_bounds"])
        assert bounds == TemporalBounds(lo=100.0, hi=210.0, lo_strict=True,
                                        hi_strict=False)

    def test_implied_bounds_none_without_partners(self, two_pattern):
        plan, dq, state = two_pattern
        assert implied_bounds(dq, state["closure"], {}) is None
        assert implied_bounds(dq, {}, state["ts_bounds"]) is None

    def test_implied_bounds_unbounded_delay(self):
        # A plain 'before' (no within) bounds only one side per direction.
        plan = plan_multievent(parse(
            'proc p1 write file f1 as e1\n'
            'proc p2 read file f1 as e2\n'
            'with e1 before e2\n'
            'return p1.exe_name, f1.name'))
        dq = next(d for d in plan.data_queries if d.event_var == "e2")
        bounds = implied_bounds(dq, plan.temporal_closure(),
                                {"e1": (100.0, 200.0)})
        assert bounds.lo == 100.0 and bounds.lo_strict
        assert bounds.hi == math.inf
