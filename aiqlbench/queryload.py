"""The closed-loop analyst: timed passes over a query set, checked rows.

Shared by ``investigate``, ``hunt`` and ``sharded``.  One analyst issues the
next query only after the previous one returned (closed loop, one client).
With a :class:`~aiqlbench.harness.Recorder` every second pass is traced:
the query runs through ``session.query(trace=True)`` under a
benchmark-owned ``op`` span and its time is split over the layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from aiqlbench.harness import (Checker, HostSpeed, Recorder, digest,
                               duration, median, now, quantile)

#: Layer keys of :func:`split_layers`; they partition one query's time.
LAYERS = ("lang.parse", "lang.analyze", "engine.plan", "core.session_overhead",
          "engine.schedule_self", "engine.join", "engine.project",
          "engine.anomaly_windows", "engine.dependency", "storage.select",
          "storage.select_batches")

FRONT_END = ("lang.parse", "lang.analyze", "engine.plan",
             "core.session_overhead")
SCAN_JOIN_PROJECT = ("storage.select", "storage.select_batches",
                     "engine.join", "engine.project")


@dataclass
class PassLog:
    """Everything the timed passes observed."""

    #: per untraced pass, each query's latency in ``ops`` order
    rounds: list[list[float]] = field(default_factory=list)
    traced_passes: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    fetched: int = 0
    matched: int = 0
    returned: int = 0
    bytes_hydrated: int = 0
    estimate_errors: list[float] = field(default_factory=list)
    intermediate_rows_max: int = 0

    @property
    def passes(self) -> list[float]:
        """Total seconds of each untraced pass."""
        return [sum(latencies) for latencies in self.rounds]


def patch_engine(recorder: Recorder) -> None:
    """Benchmark-owned spans where the program's tracer has none.

    ``execute_plan`` is the interval the calling thread waits for the
    sub-query pool; ``rewrite_dependency`` is the dependency compiler;
    ``execute_anomaly`` bounds the anomaly engine, whose tracer span
    covers the pane loop but not the event fetch and sort around it.
    """
    import repro.engine.anomaly
    import repro.engine.executor
    recorder.patch(repro.engine.executor, "execute_plan",
                   "engine.execute_plan")
    recorder.patch(repro.engine.anomaly, "execute_plan",
                   "engine.execute_plan")
    recorder.patch(repro.engine.executor, "rewrite_dependency",
                   "engine.rewrite_dependency")
    recorder.patch(repro.engine.executor, "execute_anomaly",
                   "engine.execute_anomaly")


def split_layers(op: dict, program: Sequence[dict],
                 owned: Sequence[dict]) -> dict[str, float]:
    """Partition one traced query's wall time over :data:`LAYERS`.

    ``schedule``/``scan``/``join`` spans run on pool threads that share
    the interpreter lock, so their durations overlap and over-count; they
    are scaled to fill exactly the time the calling thread spent inside
    ``execute_plan``.  What no span covers — session and executor glue —
    is ``core.session_overhead``, so the layers sum to the op's duration.
    """
    def total(spans: Sequence[dict], name: str, vectorized: bool = False) -> float:
        return sum(duration(s) for s in spans if s["name"] == name
                   and bool(s.get("vectorized")) == vectorized)

    plan_wall = total(owned, "engine.execute_plan")
    anomaly_ids = {s["id"] for s in owned
                   if s["name"] == "engine.execute_anomaly"}
    anomaly_fetch = sum(duration(s) for s in owned
                        if s["name"] == "engine.execute_plan"
                        and s["parent"] in anomaly_ids)
    schedule = total(program, "prog.schedule")
    scans = total(program, "prog.scan")
    joins = total(program, "prog.join")
    pooled = schedule + joins
    scale = plan_wall / pooled if pooled > 0 else 0.0
    layers = {
        "lang.parse": total(program, "prog.parse"),
        "lang.analyze": total(program, "prog.analyze"),
        "engine.plan": total(program, "prog.plan"),
        "engine.schedule_self": scale * (schedule - scans),
        "storage.select": scale * scans,
        "engine.join": scale * joins,
        "storage.select_batches": total(program, "prog.scan", True),
        "engine.project": (total(program, "prog.project")
                           + total(program, "prog.project", True)),
        "engine.anomaly_windows": (total(owned, "engine.execute_anomaly")
                                   - anomaly_fetch),
        "engine.dependency": total(owned, "engine.rewrite_dependency"),
    }
    layers["core.session_overhead"] = duration(op) - sum(layers.values())
    return layers


def _count_scans(log: PassLog, program: Sequence[dict]) -> None:
    for span in program:
        if span["name"] != "prog.scan":
            continue
        log.bytes_hydrated += int(span.get("bytes_hydrated", 0))
        if "matched" in span:
            log.fetched += int(span.get("fetched", 0))
            log.matched += int(span["matched"])
            estimate = max(float(span.get("estimate", 0)), 1.0)
            actual = max(float(span["matched"]), 1.0)
            log.estimate_errors.append(max(estimate / actual,
                                           actual / estimate))


def run_passes(ops: Sequence[tuple[object, str, str]],
               oracle: dict[str, str], checker: Checker, host: HostSpeed,
               seconds: float, recorder: Recorder | None = None,
               options=None) -> PassLog:
    """Whole passes over ``ops`` — ``(session, query id, AIQL text)`` —
    until ``seconds`` have elapsed (always at least one pass).

    Each pass is bracketed by host-speed probes and its times are
    rescaled to the reference speed (see :class:`HostSpeed`).
    """
    log = PassLog()
    deadline = now() + seconds
    number = 0
    before = host.sample()
    while number == 0 or now() < deadline:
        traced = recorder is not None and number % 2 == 1
        latencies = []
        layers = dict.fromkeys(LAYERS, 0.0)
        for session, qid, text in ops:
            try:
                if traced:
                    mark = len(recorder.spans)
                    with recorder.span("op", op=f"{qid}#{number}") as op:
                        result = session.query(text, options=options,
                                               trace=True)
                    elapsed = duration(op)
                    owned = recorder.spans[mark:-1]
                    program = recorder.adopt(session.last_trace(), op)
                    split = split_layers(op, program, owned)
                    for name, value in split.items():
                        layers[name] += value
                    _count_scans(log, program)
                    log.returned += len(result.rows)
                    if result.execution is not None:
                        log.intermediate_rows_max = max(
                            log.intermediate_rows_max,
                            result.execution.joined_rows)
                else:
                    started = now()
                    result = session.query(text, options=options)
                    elapsed = now() - started
            except Exception as exc:
                checker.fail(qid, f"{type(exc).__name__}: {exc}")
                continue
            checker.expect(qid, digest(result.rows), oracle[qid])
            latencies.append(elapsed)
        after = host.sample()
        factor = host.factor(before, after)
        before = after
        whole = len(latencies) == len(ops)    # a query that raised voids it
        if whole and traced:
            log.traced_passes.append(sum(latencies) * factor)
            log.layers.append({name: value * factor
                               for name, value in layers.items()})
        elif whole:
            log.rounds.append([value * factor for value in latencies])
        number += 1
    return log


def end_to_end(rounds: Sequence[Sequence[float]],
               typical: Callable[[Iterable[float]], float] = median
               ) -> dict[str, float]:
    """``query_p50_ms``, ``query_p95_ms`` and ``pass_ms`` of untraced passes.

    The p95 is taken over the queries of each pass and then ``typical``
    (the median) over passes: the latency 95 % of the mix stays under in a
    typical pass.  The 95th percentile of the pooled samples is not
    reported because on ``investigate`` it is not a property of the
    program: 2 of the 46 queries take 8-10 ms and the other 44 at most
    1.3 ms, so the pooled p95 is the 99.3rd percentile of the fast
    queries' timer noise (1.33-1.75 ms across ten runs of one commit).
    """
    return {"query_p50_ms": median(v for r in rounds for v in r) * 1e3,
            "query_p95_ms": typical(quantile(r, 0.95) for r in rounds) * 1e3,
            "pass_ms": typical(map(sum, rounds)) * 1e3}


def per_layer(log: PassLog, select_key: str,
              batches_key: str | None = None) -> dict[str, float]:
    """Per-pass medians of the traced passes, under their metric names.

    ``select_key``/``batches_key`` name the storage metrics of the
    backend this workload queries (row has no batch path).
    """
    def layer_ms(name: str) -> float:
        return median(p[name] for p in log.layers) * 1e3

    traced = median(log.traced_passes)
    untraced = median(log.passes)
    passes = max(len(log.traced_passes), 1)
    share = (lambda names: sum(layer_ms(n) for n in names) / (traced * 1e3)
             if traced else 0.0)
    storage = {select_key: layer_ms("storage.select")}
    if batches_key is not None:
        storage[batches_key] = layer_ms("storage.select_batches")
    return {
        **storage,
        "lang.parse_ms": layer_ms("lang.parse"),
        "lang.analyze_ms": layer_ms("lang.analyze"),
        "engine.plan_ms": layer_ms("engine.plan"),
        "core.session_overhead_ms": layer_ms("core.session_overhead"),
        "engine.schedule_self_ms": layer_ms("engine.schedule_self"),
        "engine.join_ms": layer_ms("engine.join"),
        "engine.project_ms": layer_ms("engine.project"),
        "engine.anomaly_windows_ms": layer_ms("engine.anomaly_windows"),
        "engine.dependency_ms": layer_ms("engine.dependency"),
        "engine.front_end_share": share(FRONT_END),
        "engine.scan_join_project_share": share(SCAN_JOIN_PROJECT),
        "engine.rows_examined_per_row_returned":
            log.fetched / log.returned if log.returned else 0.0,
        "engine.estimate_error_ratio_p50": median(log.estimate_errors),
        "engine.intermediate_rows_max": float(log.intermediate_rows_max),
        "storage.fetched_per_matched":
            log.fetched / log.matched if log.matched else 0.0,
        "storage.bytes_hydrated": log.bytes_hydrated / passes,
        "obs.trace_overhead_ratio": traced / untraced if untraced else 0.0,
        "obs.traced_passes": float(len(log.traced_passes)),
    }
