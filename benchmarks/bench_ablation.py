"""Engine ablation for the §2.3 scheduling claims.

The scheduler's two levers — pruning-power ordering (``prioritize``) and
binding propagation (``propagate``) — are each switched off, alone and
together, over the IOC-free ``hunt`` query set on the 8-host feed the
benchmark's ``hunt`` workload uses: no agent pin, ``%like%`` matches,
joins under ``within`` bounds, so scans and joins do the work and the
configurations separate.  ``python -m aiqlbench compare`` is the
regression gate; this table shows each lever's contribution.

``REPRO_BENCH_EVENTS`` sets the feed's events per host (default 8000).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from aiqlbench import feeds
from aiqlbench.harness import FULL
from aiqlbench.hunt_queries import HUNT_QUERIES
from repro.engine.executor import EngineOptions, execute
from repro.lang.parser import parse
from repro.storage.backend import create_backend

FEED_EVENTS = int(os.environ.get("REPRO_BENCH_EVENTS", "8000"))

CONFIGURATIONS = {
    "full": EngineOptions(),
    "no_prioritize": EngineOptions(prioritize=False),
    "no_propagate": EngineOptions(propagate=False),
    "none": EngineOptions(prioritize=False, propagate=False),
}


@pytest.fixture(scope="module")
def hunt_store(backend_name):
    store = create_backend(backend_name)
    store.ingest(feeds.hunt_feed(
        7, replace(FULL, feed_events_per_host=FEED_EVENTS)))
    yield store
    close = getattr(store, "close", None)
    if close is not None:
        close()


def _run_hunt(store, options: EngineOptions) -> list[list[tuple]]:
    return [execute(store, parse(aiql), options).rows
            for _qid, aiql in HUNT_QUERIES]


@pytest.fixture(scope="module")
def reference_rows(hunt_store):
    return _run_hunt(hunt_store, CONFIGURATIONS["none"])


@pytest.mark.parametrize("name", list(CONFIGURATIONS))
@pytest.mark.benchmark(group="ablation-scheduler")
def test_scheduler_ablation(benchmark, hunt_store, reference_rows, name):
    options = CONFIGURATIONS[name]
    rows = benchmark.pedantic(_run_hunt, args=(hunt_store, options),
                              rounds=2, iterations=1, warmup_rounds=1)
    # The levers must never change results, only speed.
    assert rows == reference_rows


def test_analyzer_overhead_is_negligible():
    """Acceptance check: the semantic analyzer that now fronts every
    ``AiqlSession.query``/``register`` costs under 5 ms per catalog
    query — static analysis must never be the reason to skip linting.
    """
    from repro.analysis import analyze
    from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES

    entries = list(FIGURE4_QUERIES) + list(FIGURE5_QUERIES)
    for entry in entries:        # warm imports/caches outside the clock
        assert analyze(entry.aiql) == [], entry.id

    rounds = 5
    started = time.perf_counter()
    for _ in range(rounds):
        for entry in entries:
            analyze(entry.aiql)
    per_query = (time.perf_counter() - started) / (rounds * len(entries))
    print(f"\nanalyzer overhead: {per_query * 1000:.3f} ms per catalog "
          f"query ({len(entries)} queries, {rounds} rounds)")
    assert per_query < 0.005
