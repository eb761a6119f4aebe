"""Tests for the multi-way join of pattern matches."""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ExecutionError
from repro.lang.parser import parse
from repro.model.entities import FileEntity, ProcessEntity
from repro.engine.joiner import TemporalCheck, join
from repro.engine.options import EngineOptions
from repro.engine.planner import plan_multievent
from repro.engine.scheduler import Scheduler
from repro.storage.store import EventStore

from tests.conftest import BASE_TS


def build_store(records):
    store = EventStore()
    for ts, op, subject, obj in records:
        store.record(BASE_TS + ts, 1, op, subject, obj)
    return store


def run(store, source, options=None):
    plan = plan_multievent(parse(source))
    scheduler = Scheduler(store) if options is None else Scheduler(store,
                                                                   options)
    scheduled = scheduler.run(plan)
    return plan, join(plan, scheduled)


class TestSharedVariableJoin:
    def test_shared_file_joins_on_identity(self):
        a = ProcessEntity(1, 1, "a.exe")
        b = ProcessEntity(1, 2, "b.exe")
        f1 = FileEntity(1, "/one")
        f2 = FileEntity(1, "/two")
        store = build_store([
            (0, "write", a, f1),
            (1, "write", a, f2),
            (2, "read", b, f1),   # joins with the /one write only
        ])
        _plan, rows = run(store, 'proc a["%a.exe%"] write file f as e1\n'
                                 'proc b["%b.exe%"] read file f as e2\n'
                                 'return f')
        assert len(rows) == 1
        assert rows[0]["f"].name == "/one"

    def test_same_path_on_other_host_does_not_join(self):
        a1 = ProcessEntity(1, 1, "a.exe")
        b2 = ProcessEntity(2, 2, "b.exe")
        store = build_store([
            (0, "write", a1, FileEntity(1, "/same")),
            (1, "read", b2, FileEntity(2, "/same")),
        ])
        _plan, rows = run(store, 'proc a write file f as e1\n'
                                 'proc b read file f as e2\nreturn f')
        assert rows == []

    def test_cross_product_without_shared_vars(self):
        a = ProcessEntity(1, 1, "a.exe")
        b = ProcessEntity(1, 2, "b.exe")
        store = build_store([
            (0, "write", a, FileEntity(1, "/x")),
            (1, "write", a, FileEntity(1, "/y")),
            (2, "write", b, FileEntity(1, "/z")),
            (3, "write", b, FileEntity(1, "/w")),
        ])
        _plan, rows = run(store, 'proc a["%a.exe%"] write file f as e1\n'
                                 'proc b["%b.exe%"] write file g as e2\n'
                                 'return f, g')
        assert len(rows) == 4  # 2 x 2


class TestTemporalChecks:
    def test_before_is_strict(self):
        a = ProcessEntity(1, 1, "a.exe")
        b = ProcessEntity(1, 2, "b.exe")
        f = FileEntity(1, "/f")
        store = build_store([
            (5, "write", a, f),
            (5, "read", b, f),   # same timestamp: NOT before
        ])
        _plan, rows = run(store, 'proc a["%a.exe%"] write file f as e1\n'
                                 'proc b["%b.exe%"] read file f as e2\n'
                                 'with e1 before e2\nreturn f')
        assert rows == []

    def test_within_bound(self):
        a = ProcessEntity(1, 1, "a.exe")
        b = ProcessEntity(1, 2, "b.exe")
        f = FileEntity(1, "/f")
        store = build_store([
            (0, "write", a, f),
            (100, "read", b, f),
            (400, "read", b, f),
        ])
        _plan, rows = run(
            store,
            'proc a["%a.exe%"] write file f as e1\n'
            'proc b["%b.exe%"] read file f as e2\n'
            'with e1 before e2 within 3 min\nreturn e2.ts',
            # Disable window propagation so the joiner itself is under test.
            EngineOptions(propagate=False))
        assert len(rows) == 1

    def test_transitive_chain(self):
        a = ProcessEntity(1, 1, "a.exe")
        f = FileEntity(1, "/f")
        store = build_store([
            (0, "write", a, f),
            (10, "read", a, f),
            (5, "write", a, f),
        ])
        _plan, rows = run(store,
                          'proc a write file f as e1\n'
                          'proc a read file f as e2\n'
                          'proc a write file g as e3\n'
                          'with e1 before e2, e3 before e2\n'
                          'return e1.id, e2.id, e3.id')
        # e2 is the read at +10; e1 and e3 range over both writes.
        assert len(rows) == 4


class TestRowLimit:
    def test_join_explosion_is_capped(self):
        a = ProcessEntity(1, 1, "a.exe")
        b = ProcessEntity(1, 2, "b.exe")
        records = []
        for index in range(40):
            records.append((index, "write", a, FileEntity(1, f"/a{index}")))
            records.append((index, "write", b, FileEntity(1, f"/b{index}")))
        store = build_store(records)
        plan = plan_multievent(parse(
            'proc a["%a.exe%"] write file f as e1\n'
            'proc b["%b.exe%"] write file g as e2\nreturn f, g'))
        scheduled = Scheduler(store).run(plan)
        with pytest.raises(ExecutionError, match="intermediate rows"):
            join(plan, scheduled, row_limit=100)


# ---------------------------------------------------------------------------
# Property: the interval-probe join against a reference it shares no code
# with — the full cross product of the per-pattern matches, an identity
# check per shared variable, then ``holds``.
# ---------------------------------------------------------------------------

#: Timestamps sit on a 0.1 s grid and every ``within`` is a multiple of it,
#: so gaps *exactly equal* to the bound (in decimal — not always in binary,
#: which is the floating-point case the probe's slack exists for) and ties
#: are common.
GRID = 0.1
WITHIN = "300 ms"

CHAINS = (
    # shared subject, bounded
    ('proc p write file f as e1\nproc p read file g as e2\n'
     f'with e1 before e2 within {WITHIN}\nreturn e1.id, e2.id'),
    # shared object, unbounded
    ('proc p write file f as e1\nproc q read file f as e2\n'
     'with e1 before e2\nreturn e1.id, e2.id'),
    # no shared variable: one bucket, probed
    ('proc p write file f as e1\nproc q read file g as e2\n'
     f'with e2 before e1 within {WITHIN}\nreturn e1.id, e2.id'),
    # three-pattern chain, both hops bounded
    ('proc p write file f as e1\nproc q read file f as e2\n'
     'proc q write file g as e3\n'
     f'with e1 before e2 within {WITHIN}, e2 before e3 within 500 ms\n'
     'return e1.id, e2.id, e3.id'),
    # two relations meet in one pattern, one bounded and one not
    ('proc p write file f as e1\nproc p read file g as e2\n'
     'proc p write file h as e3\n'
     f'with e1 before e3 within {WITHIN}, e2 before e3\n'
     'return e1.id, e2.id, e3.id'),
)

join_event = st.tuples(
    st.integers(min_value=0, max_value=12),     # grid tick
    st.integers(min_value=0, max_value=1),      # process
    st.sampled_from(["read", "write"]),
    st.integers(min_value=0, max_value=1),      # file
)


def reference_join(plan, matches):
    """Every combination of one match per pattern that joins."""
    checks = [TemporalCheck(rel.left, rel.right, rel.within)
              for rel in plan.temporal]
    joined = []
    for combination in itertools.product(
            *(matches[dq.index] for dq in plan.data_queries)):
        binding, consistent = {}, True
        for dq, event in zip(plan.data_queries, combination):
            binding[dq.event_var] = event
            for var, entity in ((dq.subject_var, event.subject),
                                (dq.object_var, event.object)):
                seen = binding.setdefault(var, entity)
                consistent &= seen.identity == entity.identity
        if consistent and all(check.holds(binding) for check in checks):
            joined.append(binding)
    return joined


def event_ids(plan, bindings):
    return Counter(tuple(binding[dq.event_var].id
                         for dq in plan.data_queries)
                   for binding in bindings)


@settings(max_examples=120, deadline=None)
@given(specs=st.lists(join_event, min_size=0, max_size=14),
       chain=st.sampled_from(CHAINS), order=st.permutations(range(3)))
# Ticks 1 and 4 are 0.3 s apart in decimal but 0.30000019 s apart as
# floats at this epoch: inside the probe's slack, rejected by ``holds``.
@example(specs=[(1, 0, "write", 0), (4, 0, "read", 1)], chain=CHAINS[0],
         order=[0, 1, 2])
@example(specs=[(1, 0, "write", 0), (4, 0, "read", 1)], chain=CHAINS[0],
         order=[1, 0, 2])
def test_join_equals_cross_product_then_holds(specs, chain, order):
    procs = [ProcessEntity(1, pid, f"p{pid}.exe") for pid in (1, 2)]
    files = [FileEntity(1, f"/f{index}") for index in (0, 1)]
    store = build_store([(tick * GRID, op, procs[proc], files[file])
                         for tick, proc, op, file in specs])
    plan = plan_multievent(parse(chain))
    # Unrestricted per-pattern matches, so any execution order is valid.
    scheduled = Scheduler(store, EngineOptions(
        prioritize=False, propagate=False)).run(plan)
    expected = event_ids(plan, reference_join(plan, scheduled.events))
    scheduled.order = [plan.data_queries[index] for index in order
                       if index < len(plan.data_queries)]
    assert event_ids(plan, join(plan, scheduled)) == expected
