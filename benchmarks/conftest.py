"""Shared benchmark environments and the paper-style report printers.

Scale knobs (environment variables):

* ``REPRO_BENCH_EVENTS``  — benign events per host for Figure 4 (default 1500)
* ``REPRO_BENCH_EVENTS2`` — benign events per host for Figure 5 (default 600;
  smaller because the unoptimized-SQL and graph baselines are deliberately
  slow, which is the point of that figure)

The Figure-4/5 environments build their optimized-engine store on the
backend selected by ``--backend {row,columnar,sqlite}`` (default ``row``),
so the paper figures can be replicated per storage substrate; the SQL and
graph baselines load the same event stream regardless.

Absolute times will not match the paper's 150-host deployment; the harness
reports the same *series* (per-query log10 execution time, totals, speedup
factors) so the shape can be compared directly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import pytest

from repro.baselines.graph import GraphStore
from repro.baselines.sqlite_backend import RelationalBaseline
from repro.engine.executor import execute
from repro.lang.parser import parse
from repro.storage.backend import StorageBackend, create_backend
from repro.telemetry import build_case2_scenario, build_demo_scenario

FIG4_EVENTS = int(os.environ.get("REPRO_BENCH_EVENTS", "8000"))
FIG5_EVENTS = int(os.environ.get("REPRO_BENCH_EVENTS2", "2500"))


def pytest_addoption(parser):
    from repro.storage.backend import BUILTIN_BACKENDS, SHARDED_BACKENDS
    parser.addoption(
        "--backend", choices=BUILTIN_BACKENDS + SHARDED_BACKENDS,
        default="row",
        help="storage backend the storage and figure benchmarks run against")
    parser.addoption(
        "--shards", type=int, default=None, metavar="N",
        help="worker-process fan-out when --backend selects a sharded "
             "store (default: the sharded tier's own default)")


@pytest.fixture(scope="session")
def backend_name(request) -> str:
    name = request.config.getoption("--backend")
    shards = request.config.getoption("--shards")
    if shards is None:
        return name
    if not name.startswith("sharded"):
        raise pytest.UsageError("--shards only applies to the sharded "
                                "backends (--backend sharded(...))")
    from repro.storage.sharded import parse_backend_name
    inner, _ = parse_backend_name(name)
    return f"sharded({inner},{shards})"


@dataclass
class BenchEnv:
    """One scenario loaded into every backend under comparison."""

    store: StorageBackend
    relational: RelationalBaseline
    graph: GraphStore | None
    catalog: list
    timings: dict[str, dict[str, float]] = field(default_factory=dict)

    def record(self, system: str, query_id: str, seconds: float) -> None:
        self.timings.setdefault(system, {})[query_id] = seconds

    def run_aiql(self, entry) -> float:
        result = execute(self.store, parse(entry.aiql))
        self.record("aiql", entry.id, result.elapsed)
        return result.elapsed

    def run_sql(self, entry) -> float:
        run = self.relational.run_query(parse(entry.aiql))
        self.record("sql", entry.id, run.elapsed)
        return run.elapsed

    def run_graph(self, entry) -> float:
        assert self.graph is not None
        run = self.graph.run_query(parse(entry.aiql))
        self.record("graph", entry.id, run.elapsed)
        return run.elapsed


def build_env(scenario, catalog, *, optimized_storage: bool,
              with_graph: bool, backend: str = "row") -> BenchEnv:
    store = create_backend(backend)
    scenario.load(store)
    relational = RelationalBaseline(optimized=optimized_storage)
    relational.load_store(store)
    relational.finalize()
    graph = None
    if with_graph:
        graph = GraphStore()
        graph.load_store(store)
    return BenchEnv(store=store, relational=relational, graph=graph,
                    catalog=list(catalog))


@pytest.fixture(scope="session")
def fig4_env(backend_name) -> BenchEnv:
    from repro.investigate import FIGURE4_QUERIES
    scenario = build_demo_scenario(events_per_host=FIG4_EVENTS)
    return build_env(scenario, FIGURE4_QUERIES, optimized_storage=True,
                     with_graph=False, backend=backend_name)


@pytest.fixture(scope="session")
def fig5_env(backend_name) -> BenchEnv:
    from repro.investigate import FIGURE5_QUERIES
    scenario = build_case2_scenario(events_per_host=FIG5_EVENTS)
    return build_env(scenario, FIGURE5_QUERIES, optimized_storage=False,
                     with_graph=True, backend=backend_name)


def log10_ms(seconds: float) -> float:
    return math.log10(max(seconds * 1000.0, 0.001))


def print_series(title: str, env: BenchEnv, systems: list[str]) -> None:
    """The per-query log10(execution time) series of Figures 4/5."""
    print()
    print(f"=== {title} ===")
    print(f"events: {len(env.store)}  "
          f"(entities: {env.store.entity_count})")
    header = "query    " + "".join(f"{name:>14s}" for name in systems)
    print(header)
    print("-" * len(header))
    for entry in env.catalog:
        cells = []
        for system in systems:
            seconds = env.timings.get(system, {}).get(entry.id)
            cells.append(f"{log10_ms(seconds):>14.2f}"
                         if seconds is not None else f"{'n/a':>14s}")
        print(f"{entry.id:<9s}" + "".join(cells))
    print("-" * len(header))
    totals = {system: sum(env.timings.get(system, {}).values())
              for system in systems}
    print("total(s) " + "".join(f"{totals[s]:>14.3f}" for s in systems))
    base = systems[0]
    for other in systems[1:]:
        if totals[base] > 0 and totals[other] > 0:
            print(f"speedup {base} vs {other}: "
                  f"{totals[other] / totals[base]:.1f}x")
