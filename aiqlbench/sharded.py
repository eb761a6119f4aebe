"""``sharded`` — the process boundary: ``hunt`` through ``sharded(columnar,2)``.

The same feed and the same eleven queries as ``hunt``, but the events live
in two worker processes behind the scatter-gather coordinator.  It is the
only workload where ``storage.sharded`` and ``storage.shardrpc`` run at
all; against ``hunt`` on identical queries and data it isolates the cost of
the pickle RPC.  Two workers on two cores share them with the coordinator,
so it reports latency and bytes, not a scaling curve.
"""

from __future__ import annotations

from collections import Counter

from aiqlbench import queryload
from aiqlbench.harness import (Checker, HostSpeed, Recorder, Scale,
                               ingest_metrics, median, peak_rss_mb,
                               repeat_setup, settle)
from aiqlbench.hunt import Loaded, feed_oracle
from repro.obs.metrics import REGISTRY, HistogramSnapshot

SHARDS = 2
BACKEND = f"sharded(columnar,{SHARDS})"
#: Events per ``store.ingest`` call — one pickled RPC round per chunk.
INGEST_CHUNK = 4096


class _WireCounter:
    """Bytes crossing the shard pipes, counted at the connection."""

    def __init__(self, recorder: Recorder) -> None:
        import repro.storage.sharded as coordinator
        self.sent = self.received = 0
        counter = self

        class Counting:
            def __init__(self, conn) -> None:
                self._conn = conn

            def send_bytes(self, data) -> None:
                counter.sent += len(data)
                self._conn.send_bytes(data)

            def recv_bytes(self):
                data = self._conn.recv_bytes()
                counter.received += len(data)
                return data

        send_msg, recv_msg = coordinator.send_msg, coordinator.recv_msg
        recorder.replace(coordinator, "send_msg",
                         lambda conn, payload: send_msg(Counting(conn), payload))
        recorder.replace(coordinator, "recv_msg",
                         lambda conn: recv_msg(Counting(conn)))

    @property
    def total(self) -> int:
        return self.sent + self.received

    def reset(self) -> int:
        """Zero the counters; the total they held."""
        total = self.total
        self.sent = self.received = 0
        return total


def _rpc_histograms() -> list[HistogramSnapshot]:
    """The coordinator's per-shard round-trip histograms, in shard order."""
    snapshot = REGISTRY.snapshot()
    return [snapshot.histograms.get(f"shard.rpc.seconds[shard={index}]",
                                    HistogramSnapshot())
            for index in range(SHARDS)]


def run(seed: int, seconds: float, scale: Scale, checker: Checker,
        host: HostSpeed, recorder: Recorder | None) -> dict[str, float]:
    # Counted from the start, so the set-ups' ingest rounds are seen too.
    wire = _WireCounter(recorder) if recorder is not None else None
    setup_s, loaded = repeat_setup(
        scale.setup_reps,
        lambda: Loaded(seed, scale, host, BACKEND, INGEST_CHUNK))
    try:
        oracle = feed_oracle(loaded.feed)
        settle()
        if recorder is not None:
            queryload.patch_engine(recorder)
            ingest_bytes = wire.reset() / scale.setup_reps
        REGISTRY.reset()
        pruned_before = loaded.store.coordinator_stats()["pruned_rounds"]
        log = queryload.run_passes(loaded.ops, oracle, checker, host,
                                   seconds, recorder)
        metrics = queryload.end_to_end(log.rounds)
        metrics["setup_s"] = setup_s
        metrics.update(ingest_metrics(len(loaded.feed),
                                      loaded.ingest_seconds))
        if recorder is not None:
            recorder.restore()    # the single-node base runs untraced
            metrics.update(queryload.per_layer(
                log, "storage.sharded.select_ms",
                "storage.sharded.select_batches_ms"))
            metrics.update(_sharded_layers(loaded, log, wire.total,
                                           ingest_bytes, pruned_before,
                                           seed, scale, checker, host,
                                           oracle))
        metrics["peak_rss_mb"] = peak_rss_mb()    # while the workers live
    finally:
        loaded.close()
    return metrics


def _sharded_layers(loaded: Loaded, log: queryload.PassLog,
                    query_bytes: int, ingest_bytes: float,
                    pruned_before: int, seed: int, scale: Scale,
                    checker: Checker, host: HostSpeed,
                    oracle: dict[str, str]) -> dict[str, float]:
    histograms = _rpc_histograms()
    merged = HistogramSnapshot()
    for histogram in histograms:
        merged = merged.merge(histogram)
    queries = (len(log.passes) + len(log.traced_passes)) * len(loaded.ops)
    pruned = loaded.store.coordinator_stats()["pruned_rounds"] - pruned_before
    busiest = max(h.total for h in histograms)
    per_shard = Counter(event.agentid % SHARDS for event in loaded.feed)

    # The same queries on the same feed in this process: the single-node
    # base of vs_single_ratio.
    single = Loaded(seed, scale, host, "columnar")
    single_log = queryload.run_passes(single.ops, oracle, checker, host,
                                      min(2.0, sum(log.passes)))
    single_pass = median(single_log.passes)
    return {
        "storage.sharded.rpc_ms_p50": merged.percentile(0.50) * 1e3,
        "storage.sharded.rpc_ms_p95": merged.percentile(0.95) * 1e3,
        "storage.sharded.rpc_bytes_per_query": query_bytes / queries,
        "storage.sharded.ingest_rpc_bytes_per_event":
            ingest_bytes / len(loaded.feed),
        "storage.sharded.pruned_round_ratio":
            pruned / (pruned + merged.count) if merged.count else 0.0,
        "storage.sharded.shard_skew":
            max(per_shard.values()) * SHARDS / len(loaded.feed),
        "storage.sharded.slowest_shard_share":
            busiest / merged.total if merged.total else 0.0,
        "storage.sharded.vs_single_ratio":
            median(log.passes) / single_pass if single_pass else 0.0,
    }
