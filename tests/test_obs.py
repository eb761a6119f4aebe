"""The observability layer: metrics merge semantics, tracer contracts,
EXPLAIN ANALYZE surfaces, and the sharded metrics-shipping path.

The load-bearing contract here is **mergeability**: shard workers ship
their registry snapshots over the shard RPC and the coordinator folds
them together — counters sum, gauges last-write, histogram buckets add —
so the sharded test asserts the coordinator-aggregated scan metrics
equal the sum of the per-worker snapshots exactly (scan instrumentation
lives only in the worker-side select paths; the coordinator merge adds
nothing of its own).
"""

import json
import math

import pytest

from repro.core.session import AiqlSession
from repro.obs.clock import monotonic
from repro.obs.metrics import (REGISTRY, HistogramSnapshot, MetricsRegistry,
                               MetricsSnapshot, bucket_index, bucket_value)
from repro.obs.trace import NULL_TRACER, Tracer, chrome_trace
from repro.telemetry import build_demo_scenario

SCAN_COUNTERS = ("storage.scan.count", "storage.scan.fetched",
                 "storage.scan.matched")


# ---------------------------------------------------------------------------
# Metrics: recording, snapshots, merge semantics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (0.001, 0.002, 0.004, 0.2):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap.counters["c"] == 5
        assert snap.gauges["g"] == 2.5
        hist = snap.histograms["h"]
        assert hist.count == 4
        assert hist.vmin == 0.001 and hist.vmax == 0.2
        assert abs(hist.total - 0.207) < 1e-12

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10)
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert not snap.counters and not snap.histograms
        assert snap.gauges["g"] == 0.0   # gauge exists, never written

    def test_reset_keeps_cached_handles_live(self):
        registry = MetricsRegistry()
        handle = registry.counter("c")
        handle.inc(3)
        registry.reset()
        assert registry.snapshot().counters == {}
        handle.inc()                      # the same handle still records
        assert registry.snapshot().counters["c"] == 1

    def test_counter_merge_sums(self):
        a = MetricsSnapshot(counters={"x": 3, "y": 1})
        b = MetricsSnapshot(counters={"x": 4, "z": 2})
        merged = a.merge(b)
        assert merged.counters == {"x": 7, "y": 1, "z": 2}

    def test_gauge_merge_is_last_write(self):
        a = MetricsSnapshot(gauges={"depth": 5.0, "lag": 1.0})
        b = MetricsSnapshot(gauges={"depth": 2.0})
        assert a.merge(b).gauges == {"depth": 2.0, "lag": 1.0}
        assert b.merge(a).gauges == {"depth": 5.0, "lag": 1.0}

    def test_histogram_merge_is_bucketwise_add(self):
        r1, r2, pooled = (MetricsRegistry() for _ in range(3))
        first = [0.001, 0.01, 0.01, 0.5]
        second = [0.01, 2.0, 0.0]
        for value in first:
            r1.histogram("h").observe(value)
        for value in second:
            r2.histogram("h").observe(value)
        for value in first + second:
            pooled.histogram("h").observe(value)
        merged = r1.snapshot().merge(r2.snapshot()).histograms["h"]
        expect = pooled.snapshot().histograms["h"]
        assert merged.buckets == expect.buckets
        assert merged.count == expect.count == 7
        assert merged.total == pytest.approx(expect.total)
        assert merged.vmin == 0.0 and merged.vmax == 2.0

    def test_merged_classmethod_folds_many(self):
        parts = [MetricsSnapshot(counters={"n": i}) for i in (1, 2, 3)]
        assert MetricsSnapshot.merged(parts).counters["n"] == 6

    def test_percentiles_within_bucket_error(self):
        registry = MetricsRegistry()
        values = [i / 1000.0 for i in range(1, 1001)]   # 1ms .. 1s uniform
        for value in values:
            registry.histogram("h").observe(value)
        hist = registry.snapshot().histograms["h"]
        for q in (0.50, 0.95, 0.99):
            exact = values[math.ceil(q * len(values)) - 1]
            got = hist.percentile(q)
            assert exact / 1.3 <= got <= exact * 1.3, (q, got, exact)
        assert hist.percentile(1.0) <= hist.vmax

    def test_zero_and_negative_observations(self):
        registry = MetricsRegistry()
        for value in (0.0, -1.0, 0.5):
            registry.histogram("h").observe(value)
        hist = registry.snapshot().histograms["h"]
        assert hist.count == 3
        # Non-positive values collapse into the zero bucket (represented
        # as 0.0); the true minimum survives on ``vmin``.
        assert hist.percentile(0.01) == 0.0
        assert hist.vmin == -1.0

    def test_bucket_index_midpoint_roundtrip(self):
        for value in (1e-6, 0.003, 0.9, 1.0, 17.0, 9999.0):
            index = bucket_index(value)
            mid = bucket_value(index)
            assert mid / value <= 10 ** 0.1 + 1e-9
            assert value / mid <= 10 ** 0.1 + 1e-9

    def test_snapshot_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(-1.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        back = MetricsSnapshot.from_json(snap.to_json())
        assert back == snap
        # and an empty histogram survives the min/max null encoding
        empty = HistogramSnapshot.from_dict(HistogramSnapshot().to_dict())
        assert empty.count == 0 and empty.vmin == math.inf

    def test_clock_seam_is_monotonic(self):
        a = monotonic()
        b = monotonic()
        assert isinstance(a, float) and b >= a


# ---------------------------------------------------------------------------
# Tracer: nesting, exception paths, Chrome export
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", a=1):
            with tracer.span("inner") as span:
                span.set(rows=7)
        spans = tracer.spans()
        names = {s.name: s for s in spans}
        assert set(names) == {"outer", "inner"}
        assert names["inner"].depth == names["outer"].depth + 1
        assert names["inner"].attrs["rows"] == 7
        assert names["outer"].attrs["a"] == 1
        outer, inner = names["outer"], names["inner"]
        assert outer.start <= inner.start and inner.end <= outer.end

    def test_span_closed_on_exception_path(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("inside")
        (span,) = tracer.spans()
        assert span.end is not None and span.end >= span.start

    def test_chrome_export_schema(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("scan", pattern="e1"):
                pass
        data = json.loads(tracer.to_json())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid", "cat"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        scan = next(e for e in events if e["name"] == "scan")
        assert scan["args"]["pattern"] == "e1"

    def test_chrome_args_stringify_non_primitives(self):
        tracer = Tracer()
        with tracer.span("s", spec=object(), n=3, ok=True, label="x"):
            pass
        (event,) = chrome_trace(tracer.spans())["traceEvents"]
        assert isinstance(event["args"]["spec"], str)
        assert event["args"]["n"] == 3 and event["args"]["ok"] is True

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as span:
            span.set(more=2)
        assert NULL_TRACER.spans() == []


# ---------------------------------------------------------------------------
# End-to-end: engine threading, EXPLAIN ANALYZE, sharded shipping
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_events():
    return build_demo_scenario(events_per_host=120, seed=11).events()


QUERY = ('proc p read file f as e1\n'
         'proc p write ip i as e2\n'
         'with e1 before e2\n'
         'return f, i')


class TestEndToEnd:
    def test_query_scan_metrics_and_trace(self, demo_events):
        REGISTRY.reset()
        session = AiqlSession(backend="columnar")
        session.ingest(demo_events)
        REGISTRY.reset()                      # drop ingest-time signal
        result = session.query(QUERY, trace=True)
        snap = session.metrics()
        assert snap.counters["storage.scan.count"] >= 2
        assert snap.counters["storage.scan.fetched"] > 0
        assert snap.histograms["storage.scan.seconds"].count >= 2
        names = [s.name for s in session.last_trace().spans()]
        for expected in ("parse", "analyze", "plan", "scan", "query"):
            assert expected in names, names
        assert result.execution is not None
        assert result.execution.patterns

    def test_sharded_scan_metrics_equal_sum_of_worker_snapshots(
            self, demo_events):
        single = AiqlSession(backend="columnar")
        single.ingest(demo_events)
        REGISTRY.reset()
        reference = single.query(QUERY)
        baseline = REGISTRY.snapshot()

        session = AiqlSession(backend="sharded(columnar)", shards=2)
        try:
            session.ingest(demo_events)
            REGISTRY.reset()
            result = session.query(QUERY)
            assert result.rows == reference.rows

            workers = session.store.worker_metrics()
            assert len(workers) == 2
            merged = session.metrics()
            # Scan work happens only worker-side: the coordinator's own
            # registry must contribute none of it...
            local = REGISTRY.snapshot()
            for name in SCAN_COUNTERS:
                assert name not in local.counters
            # ...so the aggregated totals are exactly the per-worker sum.
            for name in SCAN_COUNTERS:
                total = sum(w.counters.get(name, 0) for w in workers)
                assert merged.counters[name] == total, name
            assert merged.counters["storage.scan.count"] >= 2
            worker_hist = [w.histograms["storage.scan.seconds"]
                           for w in workers
                           if "storage.scan.seconds" in w.histograms]
            assert (merged.histograms["storage.scan.seconds"].count
                    == sum(h.count for h in worker_hist))
            # Both shards actually scanned (the workload spans agents).
            assert all(w.counters.get("storage.scan.count", 0) > 0
                       for w in workers)
            # The matched totals agree with the single-node run: the
            # survivors are byte-identical, so the counters must be too.
            assert (merged.counters["storage.scan.matched"]
                    == baseline.counters["storage.scan.matched"])
        finally:
            session.store.close()

    def test_sharded_rpc_and_coordinator_stats(self, demo_events):
        session = AiqlSession(backend="sharded(row)", shards=2)
        try:
            session.ingest(demo_events)
            REGISTRY.reset()
            session.query(QUERY)
            local = REGISTRY.snapshot()
            rpc = [name for name in local.histograms
                   if name.startswith("shard.rpc.seconds[")]
            assert rpc, local.histograms.keys()
            stats = session.store.coordinator_stats()
            assert stats["shards"] == 2
            assert stats["restarts"] == 0
            assert stats["restarts_by_shard"] == {}
            assert "shards=2" in session.describe()
        finally:
            session.store.close()

    def test_restarts_surface_per_shard(self, demo_events):
        from repro.storage import Fault
        session = AiqlSession(backend="sharded(row)", shards=2)
        try:
            session.ingest(demo_events)
            REGISTRY.reset()
            session.store.arm_fault(
                1, Fault(point="shard.worker.select", mode="kill"))
            from repro.storage.sharded import ShardFailedError
            with pytest.raises(ShardFailedError):
                session.query(QUERY)
            stats = session.store.coordinator_stats()
            assert stats["restarts"] == 1
            assert stats["restarts_by_shard"] == {1: 1}
            assert (REGISTRY.snapshot().counters["shard.restarts[shard=1]"]
                    == 1)
            assert "restarts=1 (1:1)" in session.describe()
            # The store stays available: the restarted worker answers
            # again (its data is gone, so we assert liveness, not rows).
            assert session.query(QUERY).execution is not None
        finally:
            session.store.close()


class TestAnalyzeSurfaces:
    @pytest.mark.parametrize("backend", ["row", "columnar", "sqlite",
                                         "sharded(columnar)"])
    def test_catalog_queries_report_actuals(self, demo_events, backend):
        """Every figure-4 catalog query yields per-pattern actual rows
        and elapsed time (the EXPLAIN ANALYZE payload) on every backend
        family."""
        from repro.investigate import FIGURE4_QUERIES
        from repro.ui.main import _render_analyze

        if backend.startswith("sharded"):
            session = AiqlSession(backend=backend, shards=2)
        else:
            session = AiqlSession(backend=backend)
        try:
            session.ingest(demo_events)
            for entry in FIGURE4_QUERIES:
                result = session.query(entry.aiql)
                assert result.execution is not None, entry.id
                rendered = _render_analyze(result)
                patterns = result.execution.patterns
                assert patterns, entry.id
                for trace in patterns:
                    assert trace.matched >= 0
                    assert trace.elapsed >= 0.0
                assert "est-error=" in rendered, entry.id
                assert "actual=" in rendered, entry.id
        finally:
            close = getattr(session.store, "close", None)
            if close is not None:
                close()

    def test_cli_analyze_prices_the_front_end(self, demo_events, tmp_path):
        """``repro query --analyze`` ends with the parse / analyze / plan
        span times of the traced query."""
        import io
        import re

        from repro.storage.serialize import write_events
        from repro.ui.main import main

        data = tmp_path / "day.jsonl"
        write_events(demo_events, str(data))
        out = io.StringIO()
        assert main(["query", str(data), QUERY, "--analyze"], out) == 0
        match = re.search(r"^front end: parse=(\d+\.\d\d) "
                          r"analyze=(\d+\.\d\d) plan=(\d+\.\d\d) ms$",
                          out.getvalue(), re.MULTILINE)
        assert match is not None, out.getvalue()
        assert sum(float(ms) for ms in match.groups()) > 0

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    def test_anomaly_query_reports_its_scan(self, demo_events, backend):
        """An anomaly query's report names its pattern and the scan's
        estimate/fetched/matched — from the event source (row) and from
        the column source (columnar) alike."""
        from repro.engine.options import EngineOptions
        from repro.investigate import FIGURE4_QUERIES

        session = AiqlSession(backend=backend)
        session.ingest(demo_events)
        aiql = FIGURE4_QUERIES.get("a5-1").aiql
        result = session.query(aiql, options=EngineOptions(explain=True),
                               trace=True)
        assert result.report.startswith("pattern order: evt")
        (trace,) = result.execution.patterns
        assert trace.event_var == "evt"
        assert trace.fetched >= trace.matched > 0
        assert trace.estimate > 0
        assert trace.path
        (scan,) = [span for span in session.last_trace().spans()
                   if span.name == "scan"]
        assert scan.attrs["pattern"] == "evt"
        assert scan.attrs["estimate"] == trace.estimate
        assert scan.attrs["fetched"] == trace.fetched
        assert scan.attrs["matched"] == trace.matched
        if backend == "columnar":
            assert scan.attrs["vectorized"] is True
            assert scan.attrs["bytes_hydrated"] == 0


class TestStreamAndWalMetrics:
    def test_stream_metrics_flow(self, demo_events):
        session = AiqlSession()
        REGISTRY.reset()
        standing = session.register(
            'proc p read || write file f as e1 return f', name="watch")
        stream = session.stream()
        stream.publish_many(demo_events)
        stream.close()
        snap = REGISTRY.snapshot()
        assert snap.counters["stream.bus.published"] == len(demo_events)
        assert snap.counters["stream.bus.batches"] >= 1
        assert snap.histograms["stream.match.seconds"].count >= 1
        assert snap.counters["stream.matches[query=watch]"] \
            == standing.matches
        assert snap.gauges["stream.state_size[query=watch]"] \
            == standing.state_size()
        assert "stream.watermark.lag" in snap.gauges

    def test_wal_metrics_flow(self, tmp_path, demo_events):
        REGISTRY.reset()
        session = AiqlSession(durable_dir=str(tmp_path / "d"), sync="always")
        session.ingest(demo_events[:200])
        session.store.close()
        snap = REGISTRY.snapshot()
        assert snap.histograms["wal.append.seconds"].count >= 1
        assert snap.histograms["wal.fsync.seconds"].count >= 1
        assert snap.counters["wal.append.bytes"] > 0

        REGISTRY.reset()
        recovered = AiqlSession.recover(str(tmp_path / "d"))
        assert recovered.event_count == 200
        snap = REGISTRY.snapshot()
        assert snap.counters["wal.replay.records"] >= 1
        assert snap.histograms["wal.replay.seconds"].count >= 1
        recovered.store.close()
