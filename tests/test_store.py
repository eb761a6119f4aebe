"""Tests for the EventStore facade: index-backed scans, estimates,
ingest."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.planner import plan_multievent
from repro.errors import DataModelError, StorageError
from repro.lang.parser import parse
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import Window
from repro.storage.backend import ScanSpec
from repro.storage.ingest import IngestPipeline
from repro.storage.stats import PatternProfile
from repro.storage.store import EventStore


@pytest.fixture
def store() -> EventStore:
    st = EventStore(bucket_seconds=1000)
    writer = ProcessEntity(1, 10, "writer.exe")
    reader = ProcessEntity(1, 11, "reader.exe")
    remote = ProcessEntity(2, 12, "remote.exe")
    for i in range(50):
        st.record(float(i), 1, "write", writer,
                  FileEntity(1, f"/data/{i % 5}.txt"), amount=100)
    for i in range(10):
        st.record(100.0 + i, 1, "read", reader,
                  FileEntity(1, "/data/0.txt"), amount=10)
    st.record(500.0, 2, "write", remote,
              NetworkEntity(2, "10.0.0.2", 1, "8.8.8.8", 53))
    return st


class TestRecordAndScan:
    def test_record_interns_entities(self, store):
        # writer.exe appears in 50 events but is one entity.
        assert store.entity_count < 70
        assert store.dedup_ratio > 0.5

    def test_scan_orders_by_time(self, store):
        events = store.scan()
        assert [e.ts for e in events] == sorted(e.ts for e in events)
        assert len(events) == 61

    def test_scan_with_window_and_agent(self, store):
        got = store.scan(Window(100.0, 200.0), {1})
        assert len(got) == 10
        assert all(e.operation == "read" for e in got)

    def test_record_validates_operation(self, store):
        with pytest.raises(DataModelError):
            store.record(0.0, 1, "accept", ProcessEntity(1, 1, "x"),
                         FileEntity(1, "/f"))

    def test_span_and_agentids(self, store):
        assert store.agentids == {1, 2}
        assert store.span.contains(500.0)


class TestCandidates:
    """The index-backed fetch behind ``select``: whichever access path a
    partition costs cheapest, no true match is lost."""

    def test_exact_subject_path(self, store):
        got = _survivors(store,
                         'proc p["reader.exe"] read file f as e1 return f')
        assert len(got) == 10

    def test_like_object_path_is_superset_of_matches(self, store):
        got = _survivors(store,
                         'proc p write file f["%/data/0%"] as e1 return f')
        assert len(got) == 10
        assert all(e.operation == "write" and e.object.name == "/data/0.txt"
                   for e in got)

    def test_candidates_clipped_to_window(self, store):
        got = _survivors(store, "proc p write file f as e1 return f",
                         ScanSpec(window=Window(0.0, 10.0)))
        assert len(got) == 10

    def test_estimate_close_to_truth_for_exact(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="reader.exe")
        assert store.estimate(profile) == 10

    def test_estimate_zero_for_absent_agent(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}))
        assert store.estimate(profile, ScanSpec(agentids={99})) == 0

    def test_candidates_superset_of_matches(self, store):
        """The chosen access path never loses a matching event."""
        got = _survivors(store,
                         'proc p["writer.exe"] write file f as e1 return f')
        assert {e.id for e in got} == {
            event.id for event in store.scan()
            if event.event_type == "file" and event.operation == "write"
            and event.subject.exe_name == "writer.exe"}


def _survivors(store, aiql, spec=None):
    """``select`` survivors of a single-pattern query, checked against
    the same rows through ``select_batches``."""
    dq = plan_multievent(parse(aiql)).data_queries[0]
    events, fetched = store.select(dq.profile, dq.compiled, spec)
    batches, batch_fetched = store.select_batches(dq.profile, dq.compiled,
                                                  spec)
    assert batch_fetched == fetched
    assert (sorted(eid for batch in batches for eid in batch.ids)
            == sorted(e.id for e in events))
    return events


class TestIngestPipeline:
    def _event(self, eid, ts):
        return Event(id=eid, ts=ts, agentid=1, operation="write",
                     subject=ProcessEntity(1, 1, "w"),
                     object=FileEntity(1, "/f"), amount=1)

    def test_batches_commit_at_threshold(self):
        store = EventStore()
        pipeline = IngestPipeline(store, batch_size=10)
        for i in range(25):
            pipeline.add(self._event(i, float(i)))
        assert len(store) == 20  # two full batches committed
        stats = pipeline.close()
        assert len(store) == 25
        assert stats.batches == 3
        assert stats.received == stats.committed == 25

    def test_merging_reduces_committed(self):
        store = EventStore()
        with IngestPipeline(store, batch_size=100,
                            merge_window=10.0) as pipeline:
            for i in range(30):
                pipeline.add(self._event(i, 0.1 * i))
        assert len(store) == 1
        assert pipeline.stats.merged_away == 29

    def test_closed_pipeline_rejects_events(self):
        store = EventStore()
        pipeline = IngestPipeline(store, batch_size=10)
        pipeline.close()
        with pytest.raises(StorageError):
            pipeline.add(self._event(1, 1.0))

    def test_bad_batch_size(self):
        with pytest.raises(StorageError):
            IngestPipeline(EventStore(), batch_size=0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["read", "write"]),
    st.integers(min_value=0, max_value=4)), max_size=80))
def test_candidates_equal_scan_filter(specs):
    """Property: index-backed fetch + residual == full scan filter."""
    store = EventStore(bucket_seconds=2000)
    for index, (ts, agent, op, fid) in enumerate(specs):
        store.record(ts, agent, op, ProcessEntity(agent, 1, "p.exe"),
                     FileEntity(agent, f"/f/{fid}"), amount=1)
    window = Window(1000.0, 9000.0)
    got = {e.id for e in _survivors(
        store, 'proc p write file f["/f/0"] as e1 return f',
        ScanSpec(window=window, agentids={1, 2}))}
    expected = {e.id for e in store.scan(window, {1, 2})
                if e.operation == "write" and e.object.name == "/f/0"}
    assert got == expected
