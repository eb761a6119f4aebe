"""Columnar store internals: batch scans, zone maps, dictionary encoding.

The cross-backend contract lives in ``test_backend_contract.py``; this file
exercises what is specific to the columnar representation — the generated
row filter, zone-map pruning, the lazy time sort, the materialization
cache, and (property-tested) exact agreement between batch evaluation and
the row store's per-event evaluation.
"""

from __future__ import annotations

import os
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.filters import Atom, compile_atoms
from repro.engine.planner import plan_multievent
from repro.errors import StorageError
from repro.lang.parser import parse
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.timeutil import Window
from repro.storage.backend import ScanSpec
from repro.storage.columnar import ColumnarEventStore, _compile_row_filter
from repro.storage.stats import PatternProfile
from repro.storage.store import EventStore


def _twin_stores(bucket_seconds=1000.0):
    return EventStore(bucket_seconds), ColumnarEventStore(bucket_seconds)


@pytest.fixture
def store() -> ColumnarEventStore:
    store = ColumnarEventStore(bucket_seconds=1000)
    writer = ProcessEntity(1, 10, "writer.exe")
    reader = ProcessEntity(1, 11, "reader.exe")
    for i in range(40):
        store.record(float(i), 1, "write", writer,
                     FileEntity(1, f"/data/{i % 4}.txt"), amount=10 * i)
    for i in range(10):
        store.record(2000.0 + i, 2, "read", reader,
                     FileEntity(2, "/data/0.txt"), amount=5)
    return store


class TestConstruction:
    def test_bad_bucket_size(self):
        with pytest.raises(StorageError):
            ColumnarEventStore(bucket_seconds=0)

    def test_partitions_split_by_agent_and_bucket(self, store):
        assert store.partition_count == 2
        assert store.agentids == {1, 2}


class TestBatchScan:
    def test_unsatisfiable_atom_short_circuits(self, store):
        compiled = compile_atoms([
            Atom("event", "operation", "=", "no-such-op")])
        events, fetched = store.select(
            PatternProfile(event_type=None, operations=None), compiled)
        assert events == [] and fetched == 0

    def test_amount_atom_is_a_residual_test(self, store):
        # An amount atom filters rows; it prunes no partition, so the
        # walked extent is what access_path (profile-only) reports.
        compiled = compile_atoms([Atom("event", "amount", ">", 100)])
        profile = PatternProfile(event_type=None, operations=None)
        events, fetched = store.select(profile, compiled)
        assert sorted(e.amount for e in events) == [10 * i
                                                    for i in range(11, 40)]
        assert fetched == 50 == store.access_path(profile).rows

    def test_postings_supply_candidates(self, store):
        compiled = compile_atoms([Atom("event", "operation", "=", "read")])
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}))
        events, fetched = store.select(profile, compiled)
        assert len(events) == 10 and fetched == 10
        info = store.access_path(profile)
        assert info.rows == 10
        assert info.name == "posting-batch(type+op)[1 zone-pruned]"

    def test_string_valued_ordered_atom_matches_nothing(self, store):
        # _compare semantics: number <op> string is False, so an ordered
        # comparison against a string survives codegen as a fallback test.
        compiled = compile_atoms([Atom("event", "amount", ">", "high")])
        events, _fetched = store.select(
            PatternProfile(event_type=None, operations=None), compiled)
        assert events == []

    def test_in_atom_on_numeric_column(self, store):
        compiled = compile_atoms([Atom("event", "amount", "in", (5, 30))])
        events, _fetched = store.select(
            PatternProfile(event_type=None, operations=None), compiled)
        assert {e.amount for e in events} == {5, 30}

    def test_entity_atom_uses_dictionary(self, store):
        compiled = compile_atoms([
            Atom("subject", "exe_name", "like", "%read%")])
        events, _fetched = store.select(
            PatternProfile(event_type=None, operations=None), compiled)
        assert len(events) == 10
        assert all(e.subject.exe_name == "reader.exe" for e in events)

    def test_window_clips_via_lazy_sort(self):
        store = ColumnarEventStore(bucket_seconds=10_000)
        proc = ProcessEntity(1, 1, "p.exe")
        for ts in (5.0, 1.0, 3.0, 9.0):  # out of order on purpose
            store.record(ts, 1, "write", proc, FileEntity(1, "/f"))
        got = store.scan(Window(2.0, 8.0))
        assert [e.ts for e in got] == [3.0, 5.0]

    def test_select_survivors_are_cached(self, store):
        compiled = compile_atoms([
            Atom("subject", "exe_name", "=", "reader.exe")])
        profile = PatternProfile(event_type=None, operations=None)
        first, _ = store.select(profile, compiled)
        second, _ = store.select(profile, compiled)
        assert first and all(a is b for a, b in zip(first, second))

    def test_full_scan_does_not_populate_cache(self, store):
        store.scan()
        cached = sum(len(p.materialized)
                     for p in store._partitions.values())
        assert cached == 0


class TestRowFilterCodegen:
    def test_inlines_numeric_comparisons(self):
        fn = _compile_row_filter(
            [("ops", {1, 2})],
            [("amounts", Atom("event", "amount", ">", 10))])
        ids = [1, 2, 3]
        ts = [0.0, 1.0, 2.0]
        ops = [1, 3, 2]
        amounts = [50, 50, 5]
        rows = fn(range(3), ids, ts, ops, [0] * 3, [0] * 3, [0] * 3,
                  amounts, [0] * 3)
        assert rows == [0]  # row 1 fails ops, row 2 fails amount

    def test_empty_condition_accepts_all(self):
        fn = _compile_row_filter([], [])
        assert fn(range(3), [], [], [], [], [], [], [], []) == [0, 1, 2]
        # No residual: the candidates come back as a list, untested.
        assert fn(array("q", [4, 9]), *[[]] * 8) == [4, 9]

    def test_bitmap_dimension_compiles_to_flag_lookup(self):
        from repro.storage.backend import Bitmap
        fn = _compile_row_filter([("subjects", Bitmap({0, 2}, 4))], [])
        subjects = [0, 1, 2, 3]
        rows = fn(range(4), [0] * 4, [0.0] * 4, [0] * 4, [0] * 4,
                  subjects, [0] * 4, [0] * 4, [0] * 4)
        assert rows == [0, 2]

    def test_non_contiguous_candidates(self):
        """Posting candidates skip rows: only the listed rows are tested,
        and survivors keep the candidates' ascending order."""
        fn = _compile_row_filter(
            [("subjects", {7})],
            [("amounts", Atom("event", "amount", ">=", 10))])
        subjects = [7, 7, 1, 7, 7, 7]
        amounts = [50, 50, 50, 5, 10, 99]
        columns = ([0] * 6, [0.0] * 6, [0] * 6, [0] * 6, subjects,
                   [0] * 6, amounts, [0] * 6)
        # Rows 1 and 5 would pass but are not candidates.
        assert fn(array("q", [0, 2, 3, 4]), *columns) == [0, 4]
        assert fn([5], *columns) == [5]
        assert fn(array("q"), *columns) == []


class TestBitmapBindings:
    """Binding sets above BITMAP_THRESHOLD compact into a dense Bitmap in
    the fused loop — and produce exactly the set-probe results."""

    def _wide_store(self) -> ColumnarEventStore:
        store = ColumnarEventStore(bucket_seconds=10_000)
        for index in range(400):
            store.record(float(index), 1, "write",
                         ProcessEntity(1, index + 10, f"proc{index}.exe"),
                         FileEntity(1, f"/data/{index}"))
        return store

    def test_large_binding_set_matches_post_filter(self):
        from repro.storage.backend import (BITMAP_THRESHOLD,
                                           IdentityBindings)
        store = self._wide_store()
        identities = frozenset(
            ProcessEntity(1, index + 10, f"proc{index}.exe").identity
            for index in range(300))
        assert len(identities) > BITMAP_THRESHOLD
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        dq = plan_multievent(parse(
            "proc p write file f as e1 return f")).data_queries[0]
        bindings = IdentityBindings(subjects=identities)
        survivors, _fetched = store.select(
            dq.profile, dq.compiled, ScanSpec(bindings=bindings))
        baseline, _ = store.select(dq.profile, dq.compiled)
        assert (sorted(e.id for e in survivors)
                == sorted(e.id for e in baseline if bindings.admits(e)))
        assert len(survivors) == 300
        assert store.estimate(profile, ScanSpec(bindings=bindings)) == 300

    def test_bitmap_class_membership(self):
        from repro.storage.backend import Bitmap
        bitmap = Bitmap({1, 5, 5, 9}, 12)
        assert len(bitmap) == 3
        assert 5 in bitmap and 9 in bitmap
        assert 0 not in bitmap and 11 not in bitmap


class TestBloomTier:
    """Binding sets above BITMAP_THRESHOLD but sparse against a huge
    vocabulary take the bloom tier: exact membership (the set confirms),
    bounded footprint, identical scan results."""

    def test_bloomed_set_membership_is_exact(self):
        from repro.storage.backend import BloomedSet
        bloomed = BloomedSet(range(0, 10_000, 7))
        assert len(bloomed) == len(set(range(0, 10_000, 7)))
        for code in (0, 7, 9996):
            assert code in bloomed
        for code in (1, 8, 9995, 123_456):
            assert code not in bloomed
        # The flag table is sized to the set, not any vocabulary.
        assert len(bloomed.flags) < 16 * len(bloomed)

    def test_compaction_picks_bloom_for_huge_vocabularies(self):
        from repro.storage.backend import (BITMAP_THRESHOLD,
                                           BLOOM_VOCAB_RATIO, Bitmap,
                                           BloomedSet)
        allowed = set(range(BITMAP_THRESHOLD + 1))
        dense_vocab = len(allowed) * BLOOM_VOCAB_RATIO
        assert isinstance(
            ColumnarEventStore._compacted(allowed, dense_vocab), Bitmap)
        assert isinstance(
            ColumnarEventStore._compacted(allowed, dense_vocab + 1),
            BloomedSet)
        small = set(range(BITMAP_THRESHOLD))
        assert ColumnarEventStore._compacted(small, dense_vocab) is small

    def test_bloom_row_filter_matches_set_probe(self):
        from repro.storage.backend import BloomedSet
        allowed = set(range(0, 400, 3))
        plain = _compile_row_filter([("subjects", allowed)], [])
        bloomed = _compile_row_filter([("subjects", BloomedSet(allowed))],
                                      [])
        subjects = list(range(400))
        args = ([0] * 400, [0.0] * 400, [0] * 400, [0] * 400,
                subjects, [0] * 400, [0] * 400, [0] * 400)
        assert plain(range(400), *args) == bloomed(range(400), *args)
        scattered = array("q", range(1, 400, 7))
        assert plain(scattered, *args) == bloomed(scattered, *args)
        assert plain(scattered, *args)

    def test_bloom_tier_scan_matches_post_filter(self, monkeypatch):
        """End to end on a columnar store: with thresholds forced down so
        the bloom tier engages, select results equal the exact
        post-filter."""
        import repro.storage.backend as backend_module
        from repro.storage.backend import IdentityBindings
        monkeypatch.setattr(backend_module, "BITMAP_THRESHOLD", 8)
        monkeypatch.setattr(backend_module, "BLOOM_VOCAB_RATIO", 2)
        store = ColumnarEventStore(bucket_seconds=10_000)
        for index in range(200):
            store.record(float(index), 1, "write",
                         ProcessEntity(1, index + 10, f"p{index}.exe"),
                         FileEntity(1, f"/data/{index}"))
        identities = frozenset(
            ProcessEntity(1, index + 10, f"p{index}.exe").identity
            for index in range(0, 40, 2))
        dq = plan_multievent(parse(
            "proc p write file f as e1 return f")).data_queries[0]
        bindings = IdentityBindings(subjects=identities)
        survivors, _fetched = store.select(dq.profile, dq.compiled,
                                           ScanSpec(bindings=bindings))
        baseline, _ = store.select(dq.profile, dq.compiled)
        expected = sorted(e.id for e in baseline if bindings.admits(e))
        assert sorted(e.id for e in survivors) == expected
        assert expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["read", "write"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=500)), max_size=80))
def test_batch_select_agrees_with_row_store(specs):
    """Property: columnar batch evaluation == row-store per-event path."""
    row, columnar = _twin_stores(bucket_seconds=2000)
    for ts, agent, op, fid, amount in specs:
        for store in (row, columnar):
            store.record(ts, agent, op, ProcessEntity(agent, 1, "p.exe"),
                         FileEntity(agent, f"/f/{fid}"), amount=amount)
    plan = plan_multievent(parse(
        'amount >= 100\n'
        'proc p read || write file f["%/f/0%"] as e1\n'
        'return f'))
    dq = plan.data_queries[0]
    window = Window(1000.0, 9000.0)
    spec = ScanSpec(window=window, agentids={1, 2})
    row_events, _ = row.select(dq.profile, dq.compiled, spec)
    col_events, _ = columnar.select(dq.profile, dq.compiled, spec)
    assert ({e.id for e in row_events} == {e.id for e in col_events})


def test_full_query_agreement_on_shared_plan(store):
    """The same planned query yields identical rows on both stores."""
    row = EventStore(bucket_seconds=1000)
    row.ingest(store.scan())
    plan_query = ('proc p["%writer%"] write file f as e1\n'
                  'return distinct p, f')
    from repro.engine.executor import execute
    left = execute(row, parse(plan_query)).rows
    right = execute(store, parse(plan_query)).rows
    assert left == right and left


# ---------------------------------------------------------------------------
# (type, op) postings: the candidate rows of every columnar scan
# ---------------------------------------------------------------------------

#: Raised in CI's scheduler-ablation job (the property is cheap per example).
POSTINGS_EXAMPLES = int(os.environ.get("REPRO_POSTINGS_EXAMPLES", "25"))

_KINDS = (("file", "read"), ("file", "write"), ("ip", "write"),
          ("ip", "read"), ("proc", "start"))

_POSTING_PATTERNS = [plan_multievent(parse(text)).data_queries[0]
                     for text in (
    "proc p read || write file f as e1 return f",
    "proc p write ip i as e1 return i",
    'proc p["%1%"] start proc c as e1 return c',
    "amount >= 150\nproc p write file f as e1 return f",
    'proc p write file f["%/f/2%"] as e1 return f',
)]


def _posting_event(eid, ts, agent, kind, subject, obj, amount):
    from repro.model.events import Event
    etype, op = _KINDS[kind]
    proc = ProcessEntity(agent, subject, f"p{subject}.exe")
    target = {"file": lambda: FileEntity(agent, f"/f/{obj}"),
              "ip": lambda: NetworkEntity(agent, "10.0.0.1", 1000,
                                          f"10.0.1.{obj}", 443),
              "proc": lambda: ProcessEntity(agent, 100 + obj,
                                            f"c{obj}.exe")}[etype]()
    return Event(id=eid, ts=float(ts), agentid=agent, operation=op,
                 subject=proc, object=target, amount=amount)


def _assert_posting_invariant(store):
    for partition in store._partitions.values():
        rows = sorted(row for posting in partition.postings.values()
                      for row in posting)
        assert rows == list(range(len(partition)))
        for (etype, op), posting in partition.postings.items():
            assert list(posting) == sorted(posting)
            assert all(partition.etypes[row] == etype
                       and partition.ops[row] == op for row in posting)


def _ids(events):
    return [event.id for event in events]


def _assert_scans_agree(row, columnar):
    from repro.storage.backend import ScanOrder
    span = row.span
    windows = [None]
    if span is not None and span.end - span.start > 10:
        windows.append(Window(span.start + 5, span.end - 5))
    for dq in _POSTING_PATTERNS:
        for window in windows:
            spec = ScanSpec(window=window)
            expected, _ = row.select(dq.profile, dq.compiled, spec)
            got, fetched = columnar.select(dq.profile, dq.compiled, spec)
            assert sorted(_ids(got)) == sorted(_ids(expected))
            batches, batch_fetched = columnar.select_batches(
                dq.profile, dq.compiled, spec)
            assert sorted(eid for batch in batches
                          for eid in batch.ids) == sorted(_ids(expected))
            assert fetched == batch_fetched == columnar.access_path(
                dq.profile, spec).rows
            # k = 33 opens a 66-row chunk; behind a residual that keeps
            # about half, the k-th survivor sits near the chunk start.
            for k in (1, 3, 8, 33):
                limited, _ = columnar.select(dq.profile, dq.compiled,
                                             ScanSpec(window=window,
                                                      limit=k))
                assert len(limited) == min(k, len(expected))
                assert set(_ids(limited)) <= set(_ids(expected))
                for descending in (False, True):
                    ordered = ScanSpec(window=window, order=ScanOrder(
                        descending=descending, limit=k))
                    want, _ = row.select(dq.profile, dq.compiled, ordered)
                    top, _ = columnar.select(dq.profile, dq.compiled,
                                             ordered)
                    assert _ids(top) == _ids(want)
                    top_batches, _ = columnar.select_batches(
                        dq.profile, dq.compiled, ordered)
                    assert sorted(eid for batch in top_batches
                                  for eid in batch.ids) == sorted(_ids(want))


def _posting_feed(ts_top: int):
    return st.lists(st.tuples(
        st.integers(min_value=0, max_value=ts_top),
        st.sampled_from((1, 1, 1, 2)),           # agent (2 partitions)
        # Writes dominate, so one posting outgrows the first ordered
        # chunk (64 candidates).
        st.sampled_from((0, 1, 1, 1, 1, 2, 2, 3, 4)),
        st.integers(min_value=0, max_value=3),   # subject
        st.integers(min_value=0, max_value=3),   # object
        st.integers(min_value=0, max_value=300)),  # amount
        min_size=120, max_size=400)


@settings(max_examples=POSTINGS_EXAMPLES, deadline=None)
# A 2-value ts range makes the top-ts tie group outgrow the descending
# walk's first chunk, so the tie rule decides where the walk stops; a
# 4-value one puts tie groups across chunk boundaries; a 31-value one
# keeps the groups small.
@given(st.sampled_from((1, 3, 30)).flatmap(_posting_feed),
       st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=4))
def test_postings_agree_with_row_store(specs, rng, rounds):
    """Property: ingesting out of (ts, id) order over several calls, with
    queries in between (lazy re-sorts, posting rebuilds, appends after a
    sort), every columnar scan equals the row backend and the postings
    partition each partition's rows by (type, op)."""
    events = [_posting_event(eid, *spec)
              for eid, spec in enumerate(specs, start=1)]
    rng.shuffle(events)
    row, columnar = _twin_stores(bucket_seconds=10_000)
    cut = max(1, len(events) // rounds)
    for start in range(0, len(events), cut):
        chunk = events[start:start + cut]
        row.ingest(chunk)
        columnar.ingest(chunk)
        _assert_posting_invariant(columnar)
        _assert_scans_agree(row, columnar)
        _assert_posting_invariant(columnar)


def test_access_path_rows_equal_fetched_on_hunt_queries():
    """Explain reports the extent the scan walks: for every data query of
    the eleven hunt queries, ``access_path(...).rows`` is the ``fetched``
    of ``select`` and ``select_batches`` over the same spec."""
    from aiqlbench.hunt_queries import HUNT_QUERIES
    from repro.engine.dependency import rewrite_dependency
    from repro.lang.ast import MultieventQuery, ReturnItem, VarRef
    from repro.telemetry import build_demo_scenario
    store = ColumnarEventStore()
    store.ingest(build_demo_scenario(events_per_host=1000, seed=7,
                                     extra_clients=3).events())
    checked = set()
    for qid, text in HUNT_QUERIES:
        query = parse(text)
        if query.kind == "dependency":
            query = rewrite_dependency(query)
        elif query.kind == "anomaly":
            pattern = query.patterns[0]
            query = MultieventQuery(
                header=query.header, patterns=query.patterns, temporal=(),
                return_items=(ReturnItem(VarRef(pattern.event_var)),))
        plan = plan_multievent(query)
        for dq in plan.data_queries:
            spec = ScanSpec(window=plan.window, agentids=dq.agentids)
            info = store.access_path(dq.profile, spec)
            _events, fetched = store.select(dq.profile, dq.compiled, spec)
            _batches, batch_fetched = store.select_batches(
                dq.profile, dq.compiled, spec)
            assert info.rows == fetched == batch_fetched, (qid, dq.event_var)
            assert info.name.startswith("posting-batch(type+op")
            checked.add(qid)
    assert len(checked) == len(HUNT_QUERIES)
