"""The sliding-window anomaly engine (§2.2.3, §2.3).

"For an anomaly query, the engine partitions the events into sliding
windows by the timestamp, computes the aggregate results, and enforces the
filters."  The filters may reference *historical* aggregate results
(``amt[1]``), which is what lets AIQL express frequency-based anomaly
models such as moving averages.

Execution pipeline:

1. fetch the pattern's matching events (reusing the multievent planner and
   ``execute_plan``);
2. enumerate sliding windows over the query's time window;
3. per window, group events (``group by``) and evaluate each return-clause
   aggregate per group;
4. record aggregates into the per-group history ring, then evaluate the
   ``having`` expression — emitting one result row per (window, group) that
   satisfies it.

Groups keep being evaluated after they stop producing events (with
empty-set aggregate values) so that spike-then-silence patterns and decays
remain expressible; a group is only evaluated after it first appears.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

from repro.errors import SemanticError
from repro.lang.ast import (AggCall, AnomalyQuery, BinOp, Expr, HistoryRef,
                            Literal, MultieventQuery, NotOp, ReturnItem,
                            VarRef, expr_history_refs)
from repro.model.entities import DEFAULT_ATTRIBUTE, canonical_attribute
from repro.model.events import Event, canonical_event_attribute
from repro.model.timeutil import Window, format_timestamp, sliding_windows
from repro.obs.clock import monotonic
from repro.obs.trace import NULL_TRACER
from repro.engine.aggregates import GroupHistory, aggregate
from repro.engine.options import DEFAULT_OPTIONS, EngineOptions
from repro.engine.planner import plan_multievent
from repro.engine.scheduler import ExecutionReport, execute_plan
from repro.storage.backend import StorageBackend


@dataclass
class AnomalyOutput:
    columns: list[str]
    rows: list[tuple]
    report: ExecutionReport


class AnomalyWindowEvaluator:
    """Per-window evaluation state of one anomaly query.

    One instance owns everything the §2.2.3 semantics thread *between*
    windows — known groups, per-group aggregate history, empty-streak
    steady-state caches — while :meth:`evaluate` scores a single window
    pane.  The batch executor drives it over ``sliding_windows`` of the
    final span; the continuous-query runtime drives the *same* instance
    incrementally as the watermark closes panes, which is what makes
    stream and batch results identical by construction.
    """

    def __init__(self, query: AnomalyQuery) -> None:
        if len(query.patterns) != 1:
            raise SemanticError(
                "anomaly queries aggregate over exactly one event pattern")
        self.query = query
        self.pattern = query.patterns[0]
        self.columns = ["window"] + [item.name for item in query.return_items]
        self._group_getters = _group_getters(query, self.pattern)
        self._display_getters = _display_getters(query, self.pattern)
        self._agg_specs = _aggregate_specs(query, self.pattern)
        self._history_depth = _history_depth(query)
        self._history = GroupHistory(self._history_depth)
        self._evaluator = _HavingEvaluator(query, self.pattern, self._history)
        self._known_groups: dict[tuple, tuple] = {}  # key -> display values
        # Steady-state fast path: after `history_depth` consecutive empty
        # windows a group's aggregates and history ring are constant, so
        # the having decision is too — cache it and skip re-evaluation.
        self._empty_streak: dict[tuple, int] = {}
        self._steady_state: dict[tuple, tuple] = {}  # key -> (passes, cells)

    def evaluate(self, window: Window, events: list[Event]) -> list[tuple]:
        """Score one window pane; ``events`` are the in-window matches
        in ``(ts, id)`` order.  Returns the emitted result rows."""
        query = self.query
        rows: list[tuple] = []
        by_group: dict[tuple, list[Event]] = {}
        for event in events:
            key = tuple(getter(event) for getter in self._group_getters)
            by_group.setdefault(key, []).append(event)
            if key not in self._known_groups:
                self._known_groups[key] = tuple(
                    getter(event) for getter in self._display_getters)
        for key in self._known_groups:
            group_events = by_group.get(key, [])
            if group_events:
                self._empty_streak[key] = 0
                self._steady_state.pop(key, None)
            else:
                streak = self._empty_streak.get(key, 0) + 1
                self._empty_streak[key] = streak
                cached = self._steady_state.get(key)
                if cached is not None:
                    passes, cells = cached
                    if passes:
                        rows.append((format_timestamp(window.start),)
                                    + cells)
                    continue
            current: dict[str, object] = {}
            for alias, func, arg_getter in self._agg_specs:
                values = [arg_getter(evt) for evt in group_events]
                value = aggregate(func, values)
                self._history.record(key, alias, value)
                current[alias] = value
            passes = (query.having is None
                      or self._evaluator.passes(key, group_events, current))
            if passes:
                row = _render_row(window, query, key,
                                  self._known_groups[key], current,
                                  self._group_getters)
                rows.append(row)
            if not group_events and self._empty_streak[key] >= self._history_depth:
                cells = (_render_row(window, query, key,
                                     self._known_groups[key], current,
                                     self._group_getters)[1:]
                         if passes else ())
                self._steady_state[key] = (passes, cells)
        return rows


def execute_anomaly(store: StorageBackend, query: AnomalyQuery,
                    options: EngineOptions = DEFAULT_OPTIONS,
                    ) -> AnomalyOutput:
    """Run an anomaly query against the store."""
    started = monotonic()
    tracer = options.tracer or NULL_TRACER
    evaluator = AnomalyWindowEvaluator(query)

    events = _fetch_events(store, query, options)
    events.sort(key=lambda evt: (evt.ts, evt.id))
    timestamps = [evt.ts for evt in events]

    span = query.header.window or store.span
    if span is None:
        report = ExecutionReport()
        report.elapsed = monotonic() - started
        return AnomalyOutput(columns=evaluator.columns, rows=[],
                             report=report)

    rows: list[tuple] = []
    with tracer.span("windows", events=len(events)) as window_span:
        panes = 0
        for window in sliding_windows(span, query.window_spec.width,
                                      query.window_spec.step):
            panes += 1
            lo = bisect.bisect_left(timestamps, window.start)
            hi = bisect.bisect_left(timestamps, window.end)
            rows.extend(evaluator.evaluate(window, events[lo:hi]))
        window_span.set(panes=panes, rows=len(rows))
    report = ExecutionReport()
    report.joined_rows = len(rows)
    report.elapsed = monotonic() - started
    return AnomalyOutput(columns=evaluator.columns, rows=rows, report=report)


# ---------------------------------------------------------------------------
# Event fetching (reuses the multievent machinery on a 1-pattern plan)
# ---------------------------------------------------------------------------

def _fetch_events(store: StorageBackend, query: AnomalyQuery,
                  options: EngineOptions) -> list[Event]:
    pattern = query.patterns[0]
    wrapper = MultieventQuery(
        header=query.header, patterns=query.patterns, temporal=(),
        return_items=(ReturnItem(VarRef(pattern.event_var)),))
    plan = plan_multievent(wrapper)
    if options.row_limit is not None:
        # The limit applies to windowed anomaly rows, not the raw fetch.
        from dataclasses import replace
        options = replace(options, row_limit=None)
    bindings, _report = execute_plan(store, plan, options)
    return [binding[pattern.event_var] for binding in bindings]  # type: ignore


# ---------------------------------------------------------------------------
# Getter compilation
# ---------------------------------------------------------------------------

def _entity_role(pattern, variable: str) -> str:
    if pattern.subject.variable == variable:
        return "subject"
    if pattern.object.variable == variable:
        return "object"
    raise SemanticError(f"unknown variable {variable!r} in anomaly pattern")


def _value_getter(pattern, ref: VarRef,
                  default_to_identity: bool) -> Callable[[Event], object]:
    """Compile a VarRef into an event-value getter.

    For a bare entity variable, grouping uses the entity *identity* (so two
    distinct processes with the same name stay distinct groups) while
    display uses the default attribute; ``default_to_identity`` selects
    which behaviour the caller wants.
    """
    if ref.variable == pattern.event_var:
        attr = canonical_event_attribute(ref.attribute or "id")
        return lambda event: getattr(event, attr)
    role = _entity_role(pattern, ref.variable)
    entity_type = (pattern.subject.entity_type if role == "subject"
                   else pattern.object.entity_type)
    if ref.attribute is None:
        if default_to_identity:
            if role == "subject":
                return lambda event: event.subject.identity
            return lambda event: event.object.identity
        attr = DEFAULT_ATTRIBUTE[entity_type]
    else:
        attr = canonical_attribute(entity_type, ref.attribute)
    if role == "subject":
        return lambda event: getattr(event.subject, attr)
    return lambda event: getattr(event.object, attr)


def _group_getters(query: AnomalyQuery, pattern):
    return [_value_getter(pattern, ref, default_to_identity=True)
            for ref in query.group_by]


def _display_getters(query: AnomalyQuery, pattern):
    return [_value_getter(pattern, ref, default_to_identity=False)
            for ref in query.group_by]


def _aggregate_specs(query: AnomalyQuery, pattern):
    """(alias, func, arg getter) for every aggregate in the return clause."""
    specs = []
    for item in query.return_items:
        if not isinstance(item.expr, AggCall):
            continue
        call = item.expr
        if call.arg is None:
            arg_getter: Callable[[Event], object] = lambda event: 1
        elif (call.arg.variable == pattern.event_var
              and call.arg.attribute is None):
            # count(evt): each event contributes itself.
            arg_getter = lambda event: event.id
        else:
            arg_getter = _value_getter(pattern, call.arg,
                                       default_to_identity=False)
        specs.append((item.name, call.func, arg_getter))
    if not specs:
        raise SemanticError("anomaly queries must aggregate at least one "
                            "value (e.g. avg(evt.amount))")
    return specs


def _history_depth(query: AnomalyQuery) -> int:
    depth = 1
    if query.having is not None:
        for ref in expr_history_refs(query.having):
            depth = max(depth, ref.offset + 1)
    return depth


def _render_row(window: Window, query: AnomalyQuery, group_key: tuple,
                display: tuple, aggregates: dict[str, object],
                group_getters) -> tuple:
    # Map each group-by ref to its display value for non-aggregate items.
    display_by_ref = {str(ref): display[i]
                      for i, ref in enumerate(query.group_by)}
    cells: list[object] = [format_timestamp(window.start)]
    for item in query.return_items:
        if isinstance(item.expr, AggCall):
            cells.append(aggregates[item.name])
        elif isinstance(item.expr, VarRef):
            key = str(item.expr)
            if key not in display_by_ref:
                raise SemanticError(
                    f"return item {key!r} must appear in group by "
                    f"(or be aggregated)")
            cells.append(display_by_ref[key])
        else:
            raise SemanticError(
                f"unsupported return expression {item.expr!r}")
    return tuple(cells)


# ---------------------------------------------------------------------------
# Having evaluation
# ---------------------------------------------------------------------------

class _HavingEvaluator:
    """Evaluates a having expression for one (window, group).

    Semantics: arithmetic involving an unresolved value (missing history,
    empty-set min/max) yields None, and any comparison or boolean operation
    on None is false — so anomalies only fire once enough history exists.
    """

    def __init__(self, query: AnomalyQuery, pattern,
                 history: GroupHistory) -> None:
        self._query = query
        self._pattern = pattern
        self._history = history
        self._group_refs = {str(ref): index
                            for index, ref in enumerate(query.group_by)}

    def passes(self, group: tuple, events: list[Event],
               current: dict[str, object]) -> bool:
        value = self._eval(self._query.having, group, events, current)
        return bool(value) if value is not None else False

    def _eval(self, expr: Expr, group: tuple, events: list[Event],
              current: dict[str, object]) -> object:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, HistoryRef):
            return self._history.lookup(group, expr.alias, expr.offset)
        if isinstance(expr, AggCall):
            alias = str(expr)
            if alias in current:
                return current[alias]
            # Aggregate not in the return clause: compute on the fly.
            if expr.arg is None:
                values: list[object] = [1] * len(events)
            else:
                getter = _value_getter(self._pattern, expr.arg,
                                       default_to_identity=False)
                values = [getter(evt) for evt in events]
            return aggregate(expr.func, values)
        if isinstance(expr, VarRef):
            name = str(expr)
            if expr.attribute is None and expr.variable in current:
                return current[expr.variable]
            if name in self._group_refs:
                index = self._group_refs[name]
                return group[index]
            raise SemanticError(f"having references unknown name {name!r}")
        if isinstance(expr, NotOp):
            inner = self._eval(expr.operand, group, events, current)
            if inner is None:
                return False
            return not inner
        if isinstance(expr, BinOp):
            return self._binop(expr, group, events, current)
        raise SemanticError(f"unsupported having expression {expr!r}")

    def _binop(self, expr: BinOp, group: tuple, events: list[Event],
               current: dict[str, object]) -> object:
        left = self._eval(expr.left, group, events, current)
        right = self._eval(expr.right, group, events, current)
        op = expr.op
        if op == "and":
            return bool(left) and bool(right)
        if op == "or":
            return bool(left) or bool(right)
        if left is None or right is None:
            return None
        if op == "+":
            return left + right  # type: ignore[operator]
        if op == "-":
            return left - right  # type: ignore[operator]
        if op == "*":
            return left * right  # type: ignore[operator]
        if op == "/":
            return left / right if right else None  # type: ignore[operator]
        if op == "%":
            return left % right if right else None  # type: ignore[operator]
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        try:
            if op == "<":
                return left < right  # type: ignore[operator]
            if op == "<=":
                return left <= right  # type: ignore[operator]
            if op == ">":
                return left > right  # type: ignore[operator]
            if op == ">=":
                return left >= right  # type: ignore[operator]
        except TypeError:
            return None
        raise SemanticError(f"unknown operator {op!r} in having")
