"""Tests for the optimized scheduler (ordering, propagation, short-circuit)."""

import pytest

from repro.lang.parser import parse
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.engine.options import EngineOptions
from repro.engine.planner import plan_multievent
from repro.engine.scheduler import Scheduler
from repro.storage.store import EventStore

from tests.conftest import BASE_TS


@pytest.fixture
def store() -> EventStore:
    store = EventStore()
    agent = 1
    rare = ProcessEntity(agent, 1, "rare.exe")
    common = ProcessEntity(agent, 2, "common.exe")
    target = FileEntity(agent, "/data/secret")
    store.record(BASE_TS + 500, agent, "read", rare, target, amount=1)
    for index in range(300):
        store.record(BASE_TS + index, agent, "write", common,
                     FileEntity(agent, f"/logs/{index % 7}"), amount=1)
    store.record(BASE_TS + 600, agent, "write", common, target, amount=1)
    return store


QUERY = '''
proc c["%common%"] write file f as e1
proc r["%rare%"] read file f as e2
return distinct c, r, f
'''


class TestOrdering:
    def test_most_selective_pattern_runs_first(self, store):
        plan = plan_multievent(parse(QUERY))
        scheduled = Scheduler(store).run(plan)
        assert scheduled.report.order == ["e2", "e1"]

    def test_declaration_order_when_disabled(self, store):
        plan = plan_multievent(parse(QUERY))
        scheduled = Scheduler(store, EngineOptions(prioritize=False)).run(plan)
        assert scheduled.report.order == ["e1", "e2"]

    def test_same_matches_either_way(self, store):
        plan = plan_multievent(parse(QUERY))
        fast = Scheduler(store).run(plan)
        slow = Scheduler(store, EngineOptions(prioritize=False,
                                       propagate=False)).run(plan)
        fast_ids = {frozenset(e.id for e in events)
                    for events in fast.events.values() if events}
        # Propagation prunes e1's candidate list down to events joinable
        # with e2's matches; the final joined results are checked in
        # test_executor — here we check e2's matches agree exactly.
        e2_index = plan.data_queries[1].index
        assert ({e.id for e in fast.events[e2_index]}
                == {e.id for e in slow.events[e2_index]})


class TestPropagation:
    def test_binding_propagation_prunes_candidates(self, store):
        plan = plan_multievent(parse(QUERY))
        with_prop = Scheduler(store, EngineOptions(propagate=True)).run(plan)
        without = Scheduler(store, EngineOptions(propagate=False)).run(plan)
        e1_index = plan.data_queries[0].index
        # e2 matched only /data/secret, so propagation restricts e1 to
        # writes of that file: 1 candidate instead of 301.
        assert len(with_prop.events[e1_index]) == 1
        assert len(without.events[e1_index]) == 301

    def test_temporal_propagation_narrows_window(self):
        store = EventStore()
        agent = 1
        a = ProcessEntity(agent, 1, "a.exe")
        b = ProcessEntity(agent, 2, "b.exe")
        child = ProcessEntity(agent, 3, "c.exe")
        store.record(BASE_TS + 1000, agent, "start", a, child)
        # b starts things both before and after a's event.
        for offset in (500, 1500):
            grandchild = ProcessEntity(agent, 4 + offset, "d.exe")
            store.record(BASE_TS + offset, agent, "start", b, grandchild)
        plan = plan_multievent(parse(
            'proc a["%a.exe%"] start proc x as e1\n'
            'proc b["%b.exe%"] start proc y as e2\n'
            'with e1 before e2\nreturn y'))
        scheduled = Scheduler(store).run(plan)
        e2_matches = scheduled.events[1]
        # Only the start at +1500 can follow e1 (+1000).
        assert [e.ts for e in e2_matches] == [BASE_TS + 1500]

    def test_short_circuit_on_empty_pattern(self, store):
        plan = plan_multievent(parse(
            'proc z["%absent%"] write file f as e1\n'
            'proc c["%common%"] write file f as e2\nreturn f'))
        scheduled = Scheduler(store).run(plan)
        assert scheduled.report.short_circuited
        # The expensive pattern was never fetched.
        fetched = {t.event_var: t.fetched for t in scheduled.report.patterns}
        assert fetched.get("e2") is None


class TestTransitiveNarrowing:
    """A match on one pattern tightens every *reachable* pattern's bounds
    through chains of ``before``/``within`` relations — not just its
    direct temporal partners."""

    def _chain_store(self) -> EventStore:
        store = EventStore()
        agent = 1
        rare = ProcessEntity(agent, 1, "rare.exe")
        mid = ProcessEntity(agent, 2, "mid.exe")
        tail = ProcessEntity(agent, 3, "tail.exe")
        secret = FileEntity(agent, "/secret")
        # The selective anchor: e1 matches exactly once, at +1000.
        store.record(BASE_TS + 1000, agent, "read", rare, secret)
        # e3 candidates on both sides of the anchor; only the late one
        # can transitively follow e1 (e1 before e2, e2 before e3).
        store.record(BASE_TS + 500, agent, "write", tail, secret)
        store.record(BASE_TS + 1500, agent, "write", tail, secret)
        # e2 partners so the chain joins — plus enough noise that e2
        # stays the most expensive pattern and executes *last*: e3's
        # narrowing must then come from e1 through the unexecuted e2.
        store.record(BASE_TS + 1200, agent, "write", mid,
                     FileEntity(agent, "/mid"))
        for index in range(50):
            store.record(BASE_TS + 2000 + index, agent, "write", mid,
                         FileEntity(agent, f"/noise/{index}"))
        return store

    CHAIN = ('proc r["%rare%"] read file f as e1\n'
             'proc m["%mid%"] write file g as e2\n'
             'proc t["%tail%"] write file f as e3\n'
             'with e1 before e2, e2 before e3\n'
             'return f')

    def test_chain_narrows_unrelated_middle_hop(self):
        store = self._chain_store()
        plan = plan_multievent(parse(self.CHAIN))
        scheduled = Scheduler(store).run(plan)
        # e1 (1 match) executes first and e3 (2 matches) second; noisy e2
        # goes last.  At e3's execution its only temporal path to e1 goes
        # *through the unexecuted e2* — only the transitive closure can
        # derive e3.ts > e1.ts and drop the +500 decoy.
        assert scheduled.report.order == ["e1", "e3", "e2"]
        e3_matches = scheduled.events[2]
        assert [e.ts for e in e3_matches] == [BASE_TS + 1500]

    def test_within_delays_add_along_the_chain(self):
        """``e1 before e2 within 10`` + ``e2 before e3 within 10`` bounds
        e3 to ``(e1.ts, e1.ts + 20]`` — the summed inclusive edge must
        survive exactly, one ulp later must not."""
        store = EventStore()
        agent = 1
        rare = ProcessEntity(agent, 1, "rare.exe")
        mid = ProcessEntity(agent, 2, "mid.exe")
        tail = ProcessEntity(agent, 3, "tail.exe")
        secret = FileEntity(agent, "/secret")
        store.record(BASE_TS, agent, "read", rare, secret)
        store.record(BASE_TS + 10, agent, "write", mid,
                     FileEntity(agent, "/mid"))
        # Noise *inside* e2's narrowed interval keeps e2 the most
        # expensive pattern even after temporal re-estimation, so e3
        # executes before it and e3's bound is the transitive sum, not
        # e2's direct one.
        for index in range(50):
            store.record(BASE_TS + 1 + index * 0.15, agent, "write", mid,
                         FileEntity(agent, f"/noise/{index}"))
        # Exactly at the summed inclusive bound (+20), and just past it.
        store.record(BASE_TS + 20, agent, "write", tail, secret)
        store.record(BASE_TS + 20.0001, agent, "write", tail, secret)
        plan = plan_multievent(parse(
            'proc r["%rare%"] read file f as e1\n'
            'proc m["%mid%"] write file g as e2\n'
            'proc t["%tail%"] write file f as e3\n'
            'with e1 before e2 within 10 sec, e2 before e3 within 10 sec\n'
            'return f'))
        scheduled = Scheduler(store).run(plan)
        assert scheduled.report.order == ["e1", "e3", "e2"]
        assert [e.ts for e in scheduled.events[2]] == [BASE_TS + 20]

    def test_closure_takes_tightest_path(self):
        """Two chains between the same pair: the shortest-path closure
        must keep the tighter summed ``within``."""
        from repro.engine.planner import temporal_closure
        from repro.lang.ast import TemporalRelation
        closure = temporal_closure((
            TemporalRelation("e1", "before", "e2", 100.0),
            TemporalRelation("e2", "before", "e4", 100.0),
            TemporalRelation("e1", "before", "e3", 5.0),
            TemporalRelation("e3", "before", "e4", 5.0),
        ))
        assert closure[("e1", "e4")] == 10.0
        assert closure[("e1", "e2")] == 100.0
        assert ("e4", "e1") not in closure

    def test_unbounded_hop_keeps_precedence_only(self):
        from repro.engine.planner import temporal_closure
        from repro.lang.ast import TemporalRelation
        import math
        closure = temporal_closure((
            TemporalRelation("e1", "before", "e2", 5.0),
            TemporalRelation("e2", "before", "e3", None),
        ))
        assert closure[("e1", "e3")] == math.inf
        assert closure[("e1", "e2")] == 5.0


class TestIntervalNarrowing:
    """Two-sided interval narrowing: a pattern executed *later* shrinks
    the recorded span of an earlier, broader pattern, and every bound
    derived from that span tightens with it."""

    WITHIN_CHAIN = ('proc r["%rare%"] read file f as e1\n'
                    'proc m["%mid%"] write file g as e2\n'
                    'proc t["%tail%"] write file f as e3\n'
                    'with e1 before e2 within 10 sec, '
                    'e2 before e3 within 10 sec\n'
                    'return f')

    def _store(self) -> EventStore:
        store = EventStore()
        agent = 1
        rare = ProcessEntity(agent, 1, "rare.exe")
        mid = ProcessEntity(agent, 2, "mid.exe")
        tail = ProcessEntity(agent, 3, "tail.exe")
        secret = FileEntity(agent, "/secret")
        # e2 (2 events, broad span) executes first; e1 (3 events) second.
        store.record(BASE_TS + 500, agent, "write", mid,
                     FileEntity(agent, "/mid-early"))
        store.record(BASE_TS + 1005, agent, "write", mid,
                     FileEntity(agent, "/mid-late"))
        for offset in (995.0, 996.0, 1000.0):
            store.record(BASE_TS + offset, agent, "read", rare, secret)
        # e3 candidates: only +1012 can follow a *usable* e2 event.  The
        # +1000 decoy sits inside the one-sided transitive bound from e1
        # ((e1_min, e1_min+20]) — only retro-narrowing e2's span to its
        # surviving +1005 event derives ts > 1005 and excludes it.
        store.record(BASE_TS + 505, agent, "write", tail, secret)
        store.record(BASE_TS + 800, agent, "write", tail, secret)
        store.record(BASE_TS + 1000, agent, "write", tail, secret)
        store.record(BASE_TS + 1012, agent, "write", tail, secret)
        return store

    def test_later_match_retro_narrows_executed_span(self):
        store = self._store()
        plan = plan_multievent(parse(self.WITHIN_CHAIN))
        scheduled = Scheduler(store).run(plan)
        assert scheduled.report.order == ["e2", "e1", "e3"]
        # e1's matches pin e2's usable events to (+995, +1010] — only the
        # +1005 write — so e3's bounds become (+1005, +1015] and the
        # decoys at +505/+800/+1000 never survive the scan.
        assert [e.ts for e in scheduled.events[2]] == [BASE_TS + 1012]

    def test_narrowing_is_result_invariant(self):
        store = self._store()
        plan = plan_multievent(parse(self.WITHIN_CHAIN))
        reference = None
        for options in (EngineOptions(),
                        EngineOptions(propagate=False)):
            scheduled = Scheduler(store, options).run(plan)
            from repro.engine.joiner import join
            rows = sorted(binding["f"].name
                          for binding in join(plan, scheduled))
            if reference is None:
                reference = rows
            assert rows == reference, options
        # One join row per e1 match (three reads pair with the same
        # surviving e2/e3 chain).
        assert reference == ["/secret"] * 3


class TestPushdown:
    def test_pushdown_shrinks_fetch(self, store):
        """The propagated bindings reach the backend: it never fetches
        the 301 writes an unrestricted scan materializes."""
        plan = plan_multievent(parse(QUERY))
        pushed = Scheduler(store).run(plan)
        unrestricted = Scheduler(store,
                                 EngineOptions(propagate=False)).run(plan)
        fetched_pushed = {t.event_var: t.fetched
                          for t in pushed.report.patterns}
        fetched_unrestricted = {t.event_var: t.fetched
                                for t in unrestricted.report.patterns}
        assert fetched_pushed["e1"] < fetched_unrestricted["e1"]

    def test_bindings_reorder_remaining_patterns(self):
        """Re-estimation under propagated bindings flips the order of the
        not-yet-executed patterns when propagation changed their cost."""
        store = EventStore()
        agent = 1
        rare = ProcessEntity(agent, 1, "rare.exe")
        noisy = ProcessEntity(agent, 2, "noisy.exe")
        busy = ProcessEntity(agent, 3, "busy.exe")
        secret = FileEntity(agent, "/secret")
        store.record(BASE_TS, agent, "read", rare, secret)
        store.record(BASE_TS + 1, agent, "write", busy, secret)
        for index in range(200):
            store.record(BASE_TS + 2 + index, agent, "write", noisy,
                         FileEntity(agent, f"/noise/{index}"))
        for index in range(300):
            store.record(BASE_TS + 300 + index, agent, "write", busy,
                         FileEntity(agent, f"/busy/{index}"))
        plan = plan_multievent(parse(
            'proc r["%rare%"] read file f as e1\n'
            'proc n["%noisy%"] write file g as e2\n'
            'proc b["%busy%"] write file f as e3\n'
            'return f'))
        # Upfront estimates: e1=1, e2=200, e3=301 — but once e1 pins f to
        # /secret, e3 collapses to 1 and must jump ahead of e2.
        adaptive = Scheduler(store).run(plan)
        assert adaptive.report.order == ["e1", "e3", "e2"]
        static = Scheduler(store, EngineOptions(propagate=False)).run(plan)
        assert static.report.order == ["e1", "e2", "e3"]
        # Either order joins to the same rows.
        from repro.engine.joiner import join

        def joined(scheduled):
            return sorted(tuple(binding[dq.event_var].id
                                for dq in plan.data_queries)
                          for binding in join(plan, scheduled))

        assert joined(adaptive) == joined(static)


class TestReport:
    def test_report_describes_execution(self, store):
        plan = plan_multievent(parse(QUERY))
        scheduled = Scheduler(store).run(plan)
        text = scheduled.report.describe()
        assert "pattern order" in text
        assert "e2" in text and "e1" in text
        assert "ms" in text
