"""``hunt`` — IOC-free threat hunting, the opposite shape to ``investigate``.

Eleven queries with no agent pin (``hunt_queries.py``) over an 8-host day
in the ``columnar`` store, one analyst in a closed loop.  Here the storage
scans, the engine's join and projection and every ``EngineOptions`` lever
do most of the work and the front end does little — so a parser or planner
change must predict "no change", and a scan, join or lever change shows.
"""

from __future__ import annotations

from dataclasses import replace

from aiqlbench import feeds, queryload
from aiqlbench.harness import (LEVERS, LEVERS_OFF, Checker, HostSpeed,
                               Recorder, Scale, ingest_metrics, median,
                               oracle_digests, repeat_setup, settle)
from aiqlbench.hunt_queries import HUNT_QUERIES
from repro.core.session import AiqlSession
from repro.engine.options import DEFAULT_OPTIONS
from repro.storage.backend import create_backend


class Loaded:
    """The feed in one store behind a warmed-up session.

    ``sharded`` reuses this with its own backend name, so both workloads
    load, warm up and tear down identically.
    """

    def __init__(self, seed: int, scale: Scale, host: HostSpeed,
                 backend: str, chunk: int | None = None) -> None:
        """``chunk``: events per ``store.ingest`` call (default: the
        scale's); a sharded store turns each call into one RPC round.
        The host is probed between calls."""
        generate_s, self.feed = host.timed(
            lambda: feeds.hunt_feed(seed, scale))
        self.store = create_backend(backend)
        # A stats round first: shard workers are still importing the
        # program when create_backend returns, and that is not ingest.
        _ = self.store.partition_count
        self.ingest_seconds = host.timed_each(
            self.store.ingest,
            feeds.chunks(self.feed, chunk or scale.ingest_chunk))
        self.session = AiqlSession(store=self.store)
        self.ops = [(self.session, qid, text) for qid, text in HUNT_QUERIES]
        warm_s = host.timed(lambda: self._warm_up(scale.warmup_passes))[0]
        self.setup_seconds = generate_s + self.ingest_seconds + warm_s

    def _warm_up(self, passes: int) -> None:
        for _ in range(passes):
            for _session, _qid, text in self.ops:
                self.session.query(text)

    def close(self) -> None:
        close = getattr(self.store, "close", None)
        if close is not None:
            close()


def feed_oracle(feed: list) -> dict[str, str]:
    """Oracle rows for the hunt set: ``row`` backend, every lever off."""
    reference = create_backend("row")
    reference.ingest(feed)
    return oracle_digests(reference, HUNT_QUERIES)


def lever_audit(loaded: Loaded, oracle: dict[str, str], checker: Checker,
                host: HostSpeed, scale: Scale,
                base_pass_ms: float) -> dict[str, float]:
    """``pass_ms`` with one lever (or all) off ÷ ``pass_ms`` with defaults."""
    ratios = {}
    configs = {lever: replace(DEFAULT_OPTIONS, **{lever: False})
               for lever in LEVERS}
    configs["all"] = LEVERS_OFF
    for lever, options in configs.items():
        passes = []
        for _ in range(scale.lever_passes):
            passes += queryload.run_passes(loaded.ops, oracle, checker, host,
                                           0.0, options=options).passes
        ratios[f"engine.lever_off_ratio.{lever}"] = (
            median(passes) * 1e3 / base_pass_ms)
    return ratios


def run(seed: int, seconds: float, scale: Scale, checker: Checker,
        host: HostSpeed, recorder: Recorder | None) -> dict[str, float]:
    setup_s, loaded = repeat_setup(
        scale.setup_reps, lambda: Loaded(seed, scale, host, "columnar"))
    oracle = feed_oracle(loaded.feed)
    settle()
    if recorder is not None:
        queryload.patch_engine(recorder)
    log = queryload.run_passes(loaded.ops, oracle, checker, host, seconds,
                               recorder)
    metrics = queryload.end_to_end(log.rounds)
    metrics["setup_s"] = setup_s
    metrics.update(ingest_metrics(len(loaded.feed), loaded.ingest_seconds))
    if recorder is not None:
        recorder.restore()    # the lever audit runs untraced
        metrics.update(queryload.per_layer(
            log, "storage.columnar.select_ms",
            "storage.columnar.select_batches_ms"))
        metrics.update(lever_audit(loaded, oracle, checker, host, scale,
                                   metrics["pass_ms"]))
    return metrics
