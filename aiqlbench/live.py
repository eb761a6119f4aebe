"""``live`` — the write path beside reads.

The feed is published through ``StreamSession`` with eight standing
queries and an alert log into ``DurableStore(backend="columnar",
sync="close", auto_checkpoint=N)``.  The flush policy is fixed at
``close``: it measures the codec and the checkpoint, not the sandbox's
disk.  Here ``storage.wal``, ``storage.durable``, ``storage.ingest``
(index maintenance) and ``stream.*`` do the work and the query engine does
little — an index or layout change that speeds ``hunt`` but taxes every
insert shows here.

* Phase A, saturation, closed loop: publish the whole feed as fast as the
  pipeline takes it, a few repetitions -> ``ingest_events_per_s``.
* Phase B, open loop on the threaded bus at a fixed rate (about a third of
  phase A's capacity): each batch is due at ``k * batch / rate`` and is
  timed from when it was *due*, so a stall counts against every batch it
  delays.  Every few batches the delivery thread also answers three
  ``hunt`` queries -> query and alert latency under ingest.
* Phase C: ``recover()`` of phase B's directory, a few repetitions.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from aiqlbench import feeds, queryload
from aiqlbench.harness import (OUT_DIR, Checker, HostSpeed, Recorder, Scale,
                               digest, duration, mean, median, now,
                               oracle_digests, quantile, repeat_setup, settle,
                               slope)
from aiqlbench.hunt_queries import (HUNT_QUERIES, LIVE_QUERY_IDS,
                                    STANDING_QUERIES)
from repro.core.session import AiqlSession
from repro.lang.parser import parse
from repro.obs.metrics import REGISTRY
from repro.storage.backend import create_backend
from repro.storage.durable import DurableStore, recover
from repro.stream.alertlog import AlertLog
from repro.stream.session import StreamSession

LIVE_QUERIES = [(qid, text) for qid, text in HUNT_QUERIES
                if qid in LIVE_QUERY_IDS]
#: Phase B fails if, at its end, batches are delivered this late *and* the
#: delay is still growing — the backlog would never drain.
BACKLOG_LIMIT_S = 1.0
BACKLOG_GROWTH_LIMIT = 0.05
#: Phase A batches between two host-speed probes.
PROBE_EVERY = 16


class _Reference:
    """The feed and, in a ``row`` store, what every check compares with."""

    def __init__(self, seed: int, scale: Scale, seconds: float,
                 host: HostSpeed) -> None:
        generate_s, feed = host.timed(lambda: feeds.hunt_feed(seed, scale))
        # Phase B runs at a fixed rate for `seconds`: that bounds the feed.
        self.feed = feed[:max(scale.live_batch,
                              int(scale.live_rate * seconds))]
        self.store = create_backend("row")
        self.ingest_seconds = host.timed_each(
            self.store.ingest, feeds.chunks(self.feed, scale.ingest_chunk))
        self.setup_seconds = generate_s + self.ingest_seconds

    def build_oracles(self) -> None:
        """Once per run, outside the repeated set-up: every check's
        expected rows (``row`` store, every lever off)."""
        self.standing_oracle = oracle_digests(self.store, STANDING_QUERIES)
        self.hunt_oracle = oracle_digests(self.store, HUNT_QUERIES)


class _Pipeline:
    """One durable directory with its stream session and standing queries."""

    def __init__(self, directory: Path, scale: Scale, *, threaded: bool,
                 on_alert=None) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        self.directory = directory
        self.store = DurableStore(directory / "store", backend="columnar",
                                  sync="close",
                                  auto_checkpoint=scale.auto_checkpoint)
        self.stream = StreamSession(
            self.store, batch_size=scale.live_batch, threaded=threaded,
            alert_log=AlertLog(directory / "alerts.wal", sync="close"))
        self.standing = [
            self.stream.register(parse(text), callback=on_alert, name=name)
            for name, text in STANDING_QUERIES]

    def close(self) -> None:
        self.stream.close()
        self.store.close()


def _check_standing(pipeline: _Pipeline, oracle: dict[str, str],
                    checker: Checker, phase: str) -> None:
    """Each standing query's alerts equal its batch run over the feed."""
    for standing in pipeline.standing:
        checker.expect(f"{phase}:{standing.name}",
                       digest(standing.result().rows), oracle[standing.name])


def _saturate(pipeline: _Pipeline, batches: list[list],
              host: HostSpeed) -> float:
    """Phase A: publish everything, closed loop; seconds until durable
    (at reference host speed, probed every ``PROBE_EVERY`` batches)."""
    def publish(window: list[list]) -> None:
        for batch in window:
            pipeline.stream.publish_many(batch)

    seconds = sum(host.timed(lambda: publish(window))[0]
                  for window in feeds.chunks(batches, PROBE_EVERY))
    return seconds + host.timed(pipeline.close)[0]


class _OpenLoop:
    """Phase B's instruments: the generator's schedule, the delivery
    thread's arrival times, the alert callback, the analyst's queries."""

    def __init__(self, scale: Scale, checker: Checker, host: HostSpeed,
                 sample_state: bool) -> None:
        self.scale = scale
        self.checker = checker
        self.host = host
        self.sample_state = sample_state
        self.due: list[float] = []          # per batch, set by the generator
        self.lag: list[float] = []          # how late the generator ran
        self.delivered: list[float] = []    # per batch, by the bus thread
        self.alert_latency: list[float] = []
        self.rounds: list[list[float]] = []   # the analyst's query latencies
        self.state_size_max = 0
        self.pipeline: _Pipeline | None = None
        self.session: AiqlSession | None = None

    def on_alert(self, _standing, _row) -> None:
        # Fired inside the runtime's on_batch for batch len(delivered):
        # that batch carried the event (or watermark) completing the alert.
        # Panes still open when the stream closes report against the last.
        batch = min(len(self.delivered), len(self.due) - 1)
        self.alert_latency.append(now() - self.due[batch])

    def after_batch(self, _events, _watermark) -> None:
        """Second bus subscriber: runs after the runtime saw the batch."""
        self.delivered.append(now())
        if self.sample_state:
            size = sum(q.state_size() for q in self.pipeline.standing)
            self.state_size_max = max(self.state_size_max, size)
        if len(self.delivered) % self.scale.live_query_every == 0:
            latencies = []
            before = self.host.sample()
            for qid, text in LIVE_QUERIES:
                started = now()
                result = self.checker.call(
                    f"live-query:{qid}", lambda: self.session.query(text))
                if result is not None:
                    latencies.append(now() - started)
            factor = self.host.factor(before, self.host.sample())
            self.rounds.append([value * factor for value in latencies])

    def publish(self, batches: list[list]) -> None:
        """The generator: one thread, a fixed schedule, never slowed by
        the system — only blocked when the bus's bounded queue is full."""
        interval = self.scale.live_batch / self.scale.live_rate
        origin = now()
        for index, batch in enumerate(batches):
            due = origin + index * interval
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            self.due.append(due)
            self.lag.append(max(0.0, now() - due))
            self.pipeline.stream.publish_many(batch)
        self.pipeline.close()

    def delays(self) -> list[float]:
        return [done - due for done, due in zip(self.delivered, self.due)]

    def backlog_growth_per_s(self) -> float:
        """Slope of delivery delay over the second half of the phase."""
        half = len(self.delivered) // 2
        return slope([(due - self.due[0], done - due) for done, due
                      in zip(self.delivered[half:], self.due[half:])])


def _patch_write_path(recorder: Recorder) -> None:
    import repro.storage.wal as wal
    from repro.stream.bus import EventBus
    from repro.stream.continuous import ContinuousRuntime
    recorder.patch(EventBus, "publish_many", "stream.bus.publish_many")
    recorder.patch(ContinuousRuntime, "on_batch", "stream.runtime.on_batch")
    recorder.patch(AlertLog, "append", "stream.alertlog.append")
    recorder.patch(DurableStore, "ingest", "storage.durable.ingest")
    recorder.patch(DurableStore, "checkpoint", "storage.durable.checkpoint")
    recorder.patch(wal.WriteAheadLog, "append_events",
                   "storage.wal.append_events")
    recorder.patch(wal, "encode_event_batch", "storage.wal.encode")


def run(seed: int, seconds: float, scale: Scale, checker: Checker,
        host: HostSpeed, recorder: Recorder | None) -> dict[str, float]:
    work = OUT_DIR / f"live-{seed}"
    try:
        setup_s, reference = repeat_setup(
            scale.setup_reps, lambda: _Reference(seed, scale, seconds, host))
        reference.build_oracles()
        settle()
        metrics = {"setup_s": setup_s}
        metrics.update(_phase_a(reference, scale, checker, host, recorder,
                                work / "a"))
        metrics.update(_phase_b(reference, scale, checker, host, recorder,
                                work / "b"))
        metrics.update(_phase_c(reference, scale, checker, work / "b"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics


def _phase_a(reference: _Reference, scale: Scale, checker: Checker,
             host: HostSpeed, recorder: Recorder | None,
             directory: Path) -> dict[str, float]:
    """Saturation.  The traced run does one plain and one wrapped
    repetition: their ratio is the tracing overhead."""
    events = len(reference.feed)
    batches = feeds.chunks(reference.feed, scale.live_batch)
    seconds: list[float] = []
    layers: dict[str, float] = {}
    for rep in range(scale.ingest_reps if recorder is None else 2):
        traced = recorder is not None and rep == 1
        if traced:
            _patch_write_path(recorder)
        REGISTRY.reset()
        mark = len(recorder.spans) if traced else 0
        pipeline = _Pipeline(directory, scale, threaded=False)
        seconds.append(_saturate(pipeline, batches, host))
        _check_standing(pipeline, reference.standing_oracle, checker,
                        "saturate")
        checker.expect("saturate:events", len(pipeline.store), events)
        if traced:
            snapshot = REGISTRY.snapshot()
            wal_bytes = snapshot.counters.get("wal.append.bytes", 0.0)
            layers = _write_layers(recorder.spans[mark:], snapshot, pipeline,
                                   events, len(batches))
            layers.update(_memory_base(batches, scale, host, seconds[0],
                                       events))
            layers.update({
                "storage.wal.bytes": wal_bytes,
                "storage.wal.bytes_per_event": wal_bytes / events,
                "obs.trace_overhead_ratio": seconds[1] / seconds[0]})
    if recorder is not None:
        return layers
    return {"ingest_events_per_s": events / median(seconds)}


def _phase_b(reference: _Reference, scale: Scale, checker: Checker,
             host: HostSpeed, recorder: Recorder | None,
             directory: Path) -> dict[str, float]:
    """Open loop beside reads; leaves the durable directory for phase C."""
    REGISTRY.reset()
    mark = len(recorder.spans) if recorder else 0
    loop = _OpenLoop(scale, checker, host, sample_state=recorder is not None)
    loop.pipeline = _Pipeline(directory, scale, threaded=True,
                              on_alert=loop.on_alert)
    loop.session = AiqlSession(store=loop.pipeline.store)
    loop.pipeline.stream.bus.subscribe(loop.after_batch)
    checker.call("open-loop", lambda: loop.publish(
        feeds.chunks(reference.feed, scale.live_batch)))
    _check_standing(loop.pipeline, reference.standing_oracle, checker,
                    "open-loop")
    delays = loop.delays()
    growth = loop.backlog_growth_per_s()
    tail = median(delays[-max(1, len(delays) // 10):])
    if tail > BACKLOG_LIMIT_S and growth > BACKLOG_GROWTH_LIMIT:
        checker.fail("open-loop:backlog",
                     f"delivery {tail:.2f}s late and growing {growth:.3f}s/s")
    else:
        checker.ok()
    final = oracle_digests(loop.pipeline.store, LIVE_QUERIES)
    for qid, _text in LIVE_QUERIES:
        checker.expect(f"final:{qid}", final[qid], reference.hunt_oracle[qid])
    # The store grows under the analyst, so a round's latency is a ramp
    # (9 -> 50 ms here).  The median of a ramp rests on the two or three
    # samples at its middle (31.4-34.6 ms over six runs of one seed); the
    # mean is the least-squares fit at the half-loaded store (31.3-32.2).
    metrics = queryload.end_to_end(loop.rounds, typical=mean)
    if recorder is None:
        return metrics
    alerts = loop.alert_latency
    metrics.update(_open_loop_layers(recorder.spans[mark:], loop))
    metrics.update({
        "stream.alert_latency_p50_ms": median(alerts) * 1e3,
        "stream.alert_latency_p95_ms": quantile(alerts, 0.95) * 1e3,
        "stream.alerts": float(len(alerts)),
        "stream.generator_lag_p95_ms": quantile(loop.lag, 0.95) * 1e3,
        "stream.backlog_growth_per_s": growth,
        "stream.bus.queue_depth_max":
            float(loop.pipeline.stream.stats.max_pending),
        "stream.matcher.state_size_max": float(loop.state_size_max),
        "stream.matcher.evictions":
            float(sum(q.evicted for q in loop.pipeline.standing))})
    return metrics


def _phase_c(reference: _Reference, scale: Scale, checker: Checker,
             directory: Path) -> dict[str, float]:
    """``recover()`` of phase B's directory; the first one is checked."""
    events = len(reference.feed)
    seconds = []
    for rep in range(scale.ingest_reps):
        started = now()
        recovered = checker.call("recover", lambda: recover(
            directory / "store", backend="columnar", sync="close"))
        if recovered is None:
            continue
        seconds.append(now() - started)
        if rep == 0:
            checker.expect("recover:events", len(recovered), events)
            got = oracle_digests(recovered, HUNT_QUERIES)
            for qid, _text in HUNT_QUERIES:
                checker.expect(f"recover:{qid}", got[qid],
                               reference.hunt_oracle[qid])
        recovered.close()
    recovery_s = median(seconds)
    return {"storage.durable.recovery_s": recovery_s,
            "storage.durable.replay_events_per_s":
                events / recovery_s if recovery_s else 0.0}


def _write_layers(spans: list[dict], snapshot, pipeline: _Pipeline,
                  events: int, batches: int) -> dict[str, float]:
    """WAL, checkpoint, bus and alert-log costs of one traced phase A."""
    by_id = {s["id"]: s for s in spans}

    def under(name: str, parent_name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name
                and by_id.get(s["parent"], {}).get("name") == parent_name]

    appends = under("storage.wal.append_events", "storage.durable.ingest")
    append_ids = {s["id"] for s in appends}
    encode_s = sum(duration(s) for s in spans
                   if s["name"] == "storage.wal.encode"
                   and s["parent"] in append_ids)
    append_s = sum(map(duration, appends))
    checkpoints = [s for s in spans
                   if s["name"] == "storage.durable.checkpoint"]
    alert_appends = [s for s in spans
                     if s["name"] == "stream.alertlog.append"]
    segments = sorted((pipeline.directory / "store").glob("checkpoint-*.wal"))
    fsyncs = snapshot.histograms.get("wal.fsync.seconds")
    return {
        "storage.wal.append_ms_per_1k": (append_s - encode_s) / events * 1e6,
        "storage.wal.encode_ms_per_1k": encode_s / events * 1e6,
        "storage.wal.fsync_count": float(fsyncs.count if fsyncs else 0),
        "storage.durable.checkpoints": float(len(checkpoints)),
        "storage.durable.checkpoint_s": median(map(duration, checkpoints)),
        "storage.durable.checkpoint_bytes":
            float(segments[-1].stat().st_size if segments else 0),
        "stream.bus.publish_ms_per_batch":
            sum(duration(s) for s in spans
                if s["name"] == "stream.bus.publish_many") / batches * 1e3,
        "stream.alertlog.append_ms_per_alert":
            (sum(map(duration, alert_appends)) / len(alert_appends) * 1e3
             if alert_appends else 0.0),
    }


def _open_loop_layers(spans: list[dict],
                      loop: _OpenLoop) -> dict[str, float]:
    """Matcher time per batch and the worst stall a checkpoint caused."""
    on_batch = [duration(s) for s in spans
                if s["name"] == "stream.runtime.on_batch"]
    stall = 0.0
    for checkpoint in (s for s in spans
                       if s["name"] == "storage.durable.checkpoint"):
        for due, done in zip(loop.due, loop.delivered):
            if due < checkpoint["end"] and done > checkpoint["start"]:
                stall = max(stall, done - due)
    return {
        "stream.matcher.on_batch_ms_p50": median(on_batch) * 1e3,
        "stream.matcher.on_batch_ms_p95": quantile(on_batch, 0.95) * 1e3,
        "storage.durable.checkpoint_stall_ms_max": stall * 1e3,
    }


def _memory_base(batches: list[list], scale: Scale, host: HostSpeed,
                 durable_s: float, events: int) -> dict[str, float]:
    """The in-memory bases: the same stream into a plain ``columnar`` store
    (no WAL, no alert log) for ``overhead_ratio``, and bare
    ``store.ingest`` for the insert + index-maintenance cost."""
    stream = StreamSession(create_backend("columnar"),
                           batch_size=scale.live_batch)
    for _name, text in STANDING_QUERIES:
        stream.register(parse(text))

    def publish() -> None:
        for batch in batches:
            stream.publish_many(batch)
        stream.close()

    memory_s = host.timed(publish)[0]
    bare = create_backend("columnar")
    bare_s = host.timed(lambda: [bare.ingest(batch) for batch in batches])[0]
    return {"storage.durable.overhead_ratio": durable_s / memory_s,
            "storage.ingest_ms_per_1k": bare_s / events * 1e6}
