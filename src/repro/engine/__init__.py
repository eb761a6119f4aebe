"""The optimized AIQL query execution engine (§2.3)."""

from repro.engine.options import DEFAULT_OPTIONS, EngineOptions
from repro.engine.executor import execute, explain
from repro.engine.dependency import rewrite_dependency
from repro.engine.planner import DataQuery, QueryPlan, plan_multievent
from repro.engine.scheduler import (ExecutionReport, Scheduler,
                                    execute_plan)

__all__ = [
    "DEFAULT_OPTIONS", "EngineOptions", "execute", "explain",
    "rewrite_dependency", "DataQuery", "QueryPlan", "plan_multievent",
    "ExecutionReport", "Scheduler", "execute_plan",
]
