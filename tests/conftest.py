"""Shared fixtures: hand-crafted stores and scenario-backed sessions."""

from __future__ import annotations

import pytest

from repro import AiqlSession
from repro.engine.dependency import rewrite_dependency
from repro.engine.executor import (DEFAULT_OPTIONS, EngineOptions, execute,
                                   project_bindings)
from repro.engine.planner import plan_multievent
from repro.engine.scheduler import execute_plan
from repro.lang.ast import DependencyQuery, MultieventQuery, Query
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.timeutil import SECONDS_PER_DAY, parse_timestamp
from repro.storage.backend import StorageBackend, create_backend
from repro.storage.durable import DurableStore
from repro.storage.store import EventStore
from repro.telemetry import build_case2_scenario, build_demo_scenario

DAY = "06/10/2026"
BASE_TS = parse_timestamp(DAY)
AGENT = 3


def open_backend(name: str, tmp_path_factory,
                 bucket_seconds: float = SECONDS_PER_DAY) -> StorageBackend:
    """The backend a ``REPRO_CONTRACT_BACKENDS`` name stands for.

    ``durable(<inner>)`` wraps ``inner`` in a :class:`DurableStore` over
    a fresh temporary directory with fsync off: the suites exercise the
    read path, which must answer exactly like the bare inner backend.
    """
    if name.startswith("durable(") and name.endswith(")"):
        return DurableStore(tmp_path_factory.mktemp("durable"),
                            backend=name[len("durable("):-1],
                            bucket_seconds=bucket_seconds, sync="never")
    return create_backend(name, bucket_seconds)


def general_engine_rows(store: StorageBackend, query: Query,
                        options: EngineOptions = DEFAULT_OPTIONS,
                        ) -> list[tuple]:
    """A query's rows with multievent and dependency queries forced
    through the general engine — scheduler, join, ``project_bindings``,
    called directly — whatever their shape, so single-pattern queries
    are checked against a path the vectorized executor does not share.
    Anomaly queries run through :func:`execute`."""
    if isinstance(query, DependencyQuery):
        query = rewrite_dependency(query)
    if not isinstance(query, MultieventQuery):
        return execute(store, query, options).rows
    plan = plan_multievent(query)
    bindings, _report = execute_plan(store, plan, options)
    return project_bindings(plan, query, bindings)[1]


def make_exfil_store(noise: int = 500) -> EventStore:
    """A compact store with the paper's Query 1 attack chain plus noise."""
    store = EventStore()
    cmd = ProcessEntity(AGENT, 100, "cmd.exe", start_time=BASE_TS)
    osql = ProcessEntity(AGENT, 101, "osql.exe", start_time=BASE_TS + 10)
    sqlservr = ProcessEntity(AGENT, 50, "sqlservr.exe",
                             start_time=BASE_TS - 1000)
    sbblv = ProcessEntity(AGENT, 102, "sbblv.exe", start_time=BASE_TS + 20)
    dump = FileEntity(AGENT, r"C:\backup\backup1.dmp")
    conn = NetworkEntity(AGENT, "10.0.0.3", 50000, "203.0.113.129", 443)
    store.record(BASE_TS + 10, AGENT, "start", cmd, osql)
    store.record(BASE_TS + 60, AGENT, "write", sqlservr, dump,
                 amount=500_000)
    store.record(BASE_TS + 120, AGENT, "read", sbblv, dump, amount=500_000)
    store.record(BASE_TS + 150, AGENT, "write", sbblv, conn,
                 amount=500_000)
    svchost = ProcessEntity(AGENT, 200, "svchost.exe", start_time=BASE_TS)
    for index in range(noise):
        log = FileEntity(AGENT, rf"C:\Windows\log{index % 40}.txt")
        store.record(BASE_TS + 300 + index, AGENT, "write", svchost, log,
                     amount=10)
    return store


QUERY1 = f'''
(at "{DAY}")
agentid = {AGENT}
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip = "203.0.113.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1
'''

QUERY1_ROW = ("cmd.exe", "osql.exe", "sqlservr.exe",
              r"C:\backup\backup1.dmp", "sbblv.exe", "203.0.113.129")


@pytest.fixture
def exfil_store() -> EventStore:
    return make_exfil_store()


@pytest.fixture
def exfil_session(exfil_store) -> AiqlSession:
    return AiqlSession(store=exfil_store)


@pytest.fixture(scope="session")
def demo_scenario():
    return build_demo_scenario(events_per_host=400)


@pytest.fixture(scope="session")
def demo_session(demo_scenario) -> AiqlSession:
    session = AiqlSession()
    demo_scenario.load(session.store)
    return session


@pytest.fixture(scope="session")
def case2_scenario():
    return build_case2_scenario(events_per_host=400)


@pytest.fixture(scope="session")
def case2_session(case2_scenario) -> AiqlSession:
    session = AiqlSession()
    case2_scenario.load(session.store)
    return session
