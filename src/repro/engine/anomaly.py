"""The sliding-window anomaly engine (§2.2.3, §2.3).

"For an anomaly query, the engine partitions the events into sliding
windows by the timestamp, computes the aggregate results, and enforces the
filters."  The filters may reference *historical* aggregate results
(``amt[1]``), which is what lets AIQL express frequency-based anomaly
models such as moving averages.

Execution pipeline — its cost follows the matched events and the scored
(pane, group) pairs, not panes times events:

1. scan the pattern's matches *once* into rows ``(ts, id, group key,
   display values, one value per aggregate)``, zipped from the
   backend's ``select_batches`` columns under a projection of just the
   columns the query reads;
2. order the rows by ``(ts, id)`` and split them into per-group columns:
   ``ts`` plus one value list per aggregate;
3. enumerate sliding windows over the query's time window; per pane, each
   group that has events in it bisects its ``ts`` column and hands value
   *slices* to :meth:`AnomalyWindowEvaluator.score`;
4. ``score`` records the aggregates into the per-group history ring, then
   evaluates the ``having`` expression (compiled to closures once per
   query) — emitting one result row per (window, group) that satisfies it.

Groups keep being evaluated after they stop producing events (with
empty-set aggregate values) so that spike-then-silence patterns and decays
remain expressible; a group is only evaluated after it first appears.
Once a silent group's aggregates and history ring are constant its verdict
is cached, and runs of panes that hold no event while every known group is
cached as "does not pass" are stepped over without scoring.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Collection, Sequence

from repro.errors import SemanticError
from repro.lang.ast import (AggCall, AnomalyQuery, BinOp, Expr, HistoryRef,
                            Literal, MultieventQuery, NotOp, ReturnItem,
                            VarRef, expr_aggregates, expr_history_refs)
from repro.model.entities import DEFAULT_ATTRIBUTE, canonical_attribute
from repro.model.events import Event, canonical_event_attribute
from repro.model.timeutil import Window, format_timestamp, sliding_windows
from repro.obs.clock import monotonic
from repro.obs.trace import NULL_TRACER
from repro.engine.aggregates import GroupHistory, aggregate
from repro.engine.options import DEFAULT_OPTIONS, EngineOptions
from repro.engine.planner import QueryPlan, plan_multievent
from repro.engine.scheduler import ExecutionReport, scan_report
# Unused here; the benchmark's traced pass patches it by this name.
from repro.engine.scheduler import execute_plan  # noqa: F401
from repro.storage.backend import ColumnBatch, ScanSpec, StorageBackend

#: One matched event as the window driver consumes it:
#: ``(ts, id, group key, display values, *one value per value column)``.
MatchRow = tuple

#: Where a referenced value lives: ``("event" | "subject" | "object",
#: attribute)``; ``None`` is the constant 1 ``count(*)`` counts.
ValueSource = tuple[str, str] | None

#: A compiled ``having`` node: ``(group key, the pane's recorded
#: aggregates, the group's value slices for the pane) -> value``.
HavingNode = Callable[[tuple, dict, Sequence[Sequence]], object]


@dataclass
class AnomalyOutput:
    columns: list[str]
    rows: list[tuple]
    report: ExecutionReport


@dataclass(slots=True)
class _Group:
    """What the §2.2.3 semantics remember about one group between panes."""

    display: tuple          # group-by display values of its first event
    rank: int               # first-appearance order (result row order)
    empty_streak: int = 0   # consecutive scored panes without an event
    #: Steady-state cache: after ``history_depth`` consecutive empty panes
    #: a group's aggregates and history ring are constant, so the having
    #: decision is too — ``()`` for "does not pass", else the passing
    #: row's cells (never empty: there is at least one aggregate).
    steady: tuple | None = None


class AnomalyWindowEvaluator:
    """Per-window evaluation state of one anomaly query.

    One instance owns everything the §2.2.3 semantics thread *between*
    windows — known groups, per-group aggregate history, empty-streak
    steady-state caches — while :meth:`score` scores a single window
    pane from per-group value slices.  The batch executor slices
    per-group columns over ``sliding_windows`` of the final span; the
    continuous-query runtime drives the *same* instance incrementally
    through :meth:`evaluate` as the watermark closes panes, which is what
    makes stream and batch results identical by construction.
    """

    def __init__(self, query: AnomalyQuery) -> None:
        if len(query.patterns) != 1:
            raise SemanticError(
                "anomaly queries aggregate over exactly one event pattern")
        self.query = query
        self.pattern = pattern = query.patterns[0]
        self.columns = ["window"] + [item.name for item in query.return_items]
        self.key_sources = [_resolve(pattern, ref, identity=True)
                            for ref in query.group_by]
        self.display_sources = [_resolve(pattern, ref, identity=False)
                                for ref in query.group_by]
        # One value column per return-clause aggregate (recorded in the
        # history ring), then one per aggregate only the having reads.
        self._recorded = _recorded_aggregates(query)
        aliases = {alias for alias, _call in self._recorded}
        extras = _having_only_aggregates(query, aliases)
        self.value_sources = [
            _argument_source(pattern, call)
            for call in [call for _alias, call in self._recorded] + extras]
        self._key_getters = [_event_getter(s) for s in self.key_sources]
        self._display_getters = [_event_getter(s)
                                 for s in self.display_sources]
        self._value_getters = [_event_getter(s) for s in self.value_sources]
        self._no_values: tuple[tuple, ...] = ((),) * len(self.value_sources)
        self._history_depth = _history_depth(query)
        self._history = GroupHistory(self._history_depth)
        self._having = (None if query.having is None else _compile_having(
            query.having, query, self._history, aliases,
            {str(call): len(self._recorded) + index
             for index, call in enumerate(extras)}))
        self._groups: dict[tuple, _Group] = {}   # known, in rank order
        # Known groups a pane must look at even without an event of
        # theirs in it: all but those cached as "does not pass".
        self._live: set[tuple] = set()

    @property
    def quiescent(self) -> bool:
        """True when a pane without events scores to ``[]`` and changes
        nothing a later pane reads."""
        return not self._live

    def register(self, key: tuple, display: tuple) -> None:
        """Make a group known; call in first-appearance order."""
        if key not in self._groups:
            self._groups[key] = _Group(display, len(self._groups))

    def evaluate(self, window: Window, events: list[Event]) -> list[tuple]:
        """Score one window pane; ``events`` are the in-window matches
        in ``(ts, id)`` order.  Returns the emitted result rows."""
        active: dict[tuple, list[list]] = {}
        for event in events:
            key = tuple(getter(event) for getter in self._key_getters)
            slices = active.get(key)
            if slices is None:
                slices = active[key] = [[] for _ in self._value_getters]
                self.register(key, tuple(getter(event) for getter
                                         in self._display_getters))
            for column, getter in zip(slices, self._value_getters):
                column.append(getter(event))
        return self.score(window, active)

    def score(self, window: Window,
              active: dict[tuple, Sequence[Sequence]]) -> list[tuple]:
        """Score one pane from its per-group value slices.

        ``active`` maps each group with events in the pane to one value
        sequence per value column, events in ``(ts, id)`` order; its
        groups must already be registered.  Returns the emitted rows,
        in group first-appearance order.
        """
        live, groups = self._live, self._groups
        keys: Collection[tuple] = (active.keys() | live if live
                                   else active.keys())
        if len(keys) > 1:
            keys = sorted(keys, key=lambda key: groups[key].rank)
        rows: list[tuple] = []
        for key in keys:
            group = groups[key]
            slices = active.get(key)
            if slices is not None:
                group.empty_streak = 0
                group.steady = None
                live.add(key)
            elif group.steady is not None:
                rows.append((format_timestamp(window.start),) + group.steady)
                continue
            else:
                group.empty_streak += 1
                slices = self._no_values
            current: dict[str, object] = {}
            for (alias, call), values in zip(self._recorded, slices):
                value = aggregate(call.func, values)
                self._history.record(key, alias, value)
                current[alias] = value
            passes = self._having is None or _truth(
                self._having(key, current, slices))
            if passes:
                row = _render_row(window, self.query, group.display, current)
                rows.append(row)
            if (slices is self._no_values
                    and group.empty_streak >= self._history_depth):
                if passes:
                    group.steady = row[1:]
                else:
                    group.steady = ()
                    live.discard(key)
        return rows


def execute_anomaly(store: StorageBackend, query: AnomalyQuery,
                    options: EngineOptions = DEFAULT_OPTIONS,
                    ) -> AnomalyOutput:
    """Run an anomaly query against the store.

    The returned report carries the pattern's scan (estimate, fetched,
    matched, path under ``explain``).
    """
    started = monotonic()
    tracer = options.tracer or NULL_TRACER
    evaluator = AnomalyWindowEvaluator(query)
    pattern = query.patterns[0]
    plan = plan_multievent(MultieventQuery(
        header=query.header, patterns=query.patterns, temporal=(),
        return_items=(ReturnItem(VarRef(pattern.event_var)),)))

    matches, report = _scan_columns(store, plan, evaluator, options)
    matches.sort(key=operator.itemgetter(0, 1))

    span = query.header.window or store.span
    rows: list[tuple] = []
    if span is not None:
        with tracer.span("windows", events=len(matches)) as window_span:
            rows, panes = _run_windows(evaluator, matches, span)
            window_span.set(panes=panes, rows=len(rows))
    report.joined_rows = len(rows)
    report.elapsed = monotonic() - started
    return AnomalyOutput(columns=evaluator.columns, rows=rows, report=report)


def _run_windows(evaluator: AnomalyWindowEvaluator, matches: list[MatchRow],
                 span: Window) -> tuple[list[tuple], int]:
    """Drive the evaluator over the span's panes: ``(rows, pane count)``.

    ``matches`` are in ``(ts, id)`` order.  They are split once into
    per-group columns; a pane then costs two bisects per group that has
    events in it, and a pane inside a quiet run costs one comparison.
    """
    spec = evaluator.query.window_spec
    values = len(evaluator.value_sources)
    all_ts, _ids, key_of, display_of, *value_columns = (
        zip(*matches) if matches else [()] * (4 + values))
    numbers: dict[tuple, int] = {}
    group_of = [numbers.setdefault(key, len(numbers)) for key in key_of]
    keys = list(numbers)
    group_ts = _split(group_of, all_ts, len(keys))
    group_values = [_split(group_of, column, len(keys))
                    for column in value_columns]
    registered: set[int] = set()
    quiet_until = float("-inf")
    rows: list[tuple] = []
    panes = 0
    for window in sliding_windows(span, spec.width, spec.step):
        panes += 1
        if window.end <= quiet_until:
            continue
        lo = bisect_left(all_ts, window.start)
        hi = bisect_left(all_ts, window.end, lo)
        if lo == hi and evaluator.quiescent:
            # Nothing to score until the next event falls into a pane.
            quiet_until = all_ts[hi] if hi < len(all_ts) else float("inf")
            continue
        active: dict[tuple, list[list]] = {}
        for number in dict.fromkeys(group_of[lo:hi]):
            key = keys[number]
            if number not in registered:
                registered.add(number)
                evaluator.register(
                    key, display_of[group_of.index(number, lo, hi)])
            ts = group_ts[number]
            first = bisect_left(ts, window.start)
            last = bisect_left(ts, window.end, first)
            active[key] = [column[number][first:last]
                           for column in group_values]
        rows.extend(evaluator.score(window, active))
    return rows, panes


def _split(group_of: list[int], column: Sequence,
           groups: int) -> list[list]:
    """One column's values per group, each in the column's order."""
    parts: list[list] = [[] for _ in range(groups)]
    for number, value in zip(group_of, column):
        parts[number].append(value)
    return parts


# ---------------------------------------------------------------------------
# The match scan
# ---------------------------------------------------------------------------

def _scan_columns(store: StorageBackend, plan: QueryPlan,
                  evaluator: AnomalyWindowEvaluator, options: EngineOptions,
                  ) -> tuple[list[MatchRow], ExecutionReport]:
    """Match rows straight from column batches: only the columns the
    query reads are gathered and no ``Event`` is hydrated."""
    started = monotonic()
    tracer = options.tracer or NULL_TRACER
    dq = plan.data_queries[0]
    sources = (evaluator.key_sources + evaluator.display_sources
               + evaluator.value_sources)
    spec = ScanSpec(window=plan.window, agentids=dq.agentids,
                    projection=frozenset(
                        name for name in map(_projected, sources)
                        if name is not None))
    if options.verify_plans:
        from repro.engine.verify import verify_spec
        verify_spec(plan, dq, spec, closure={}, identity_sets={},
                    ts_bounds={})
    with tracer.span("scan", pattern=dq.event_var,
                     vectorized=True) as scan_span:
        batches, fetched = store.select_batches(dq.profile, dq.compiled,
                                                spec)
    key_columns = [_batch_column(s) for s in evaluator.key_sources]
    display_columns = [_batch_column(s) for s in evaluator.display_sources]
    value_columns = [_batch_column(s) for s in evaluator.value_sources]
    matches: list[MatchRow] = []
    for batch in batches:
        matches.extend(zip(
            batch.ts, batch.ids, _tuples(batch, key_columns),
            _tuples(batch, display_columns),
            *(column(batch) for column in value_columns)))
    report = scan_report(store, dq, spec, fetched, len(matches),
                         monotonic() - started, options.explain)
    trace = report.patterns[0]
    scan_span.set(estimate=trace.estimate, fetched=fetched,
                  matched=len(matches), bytes_hydrated=0, path=trace.path)
    return matches, report


# ---------------------------------------------------------------------------
# Value sources: one resolution, an event getter and a batch column each
# ---------------------------------------------------------------------------

def _entity_role(pattern, variable: str) -> str:
    if pattern.subject.variable == variable:
        return "subject"
    if pattern.object.variable == variable:
        return "object"
    raise SemanticError(f"unknown variable {variable!r} in anomaly pattern")


def _resolve(pattern, ref: VarRef, identity: bool) -> ValueSource:
    """Where a VarRef's value lives.

    For a bare entity variable, grouping uses the entity *identity* (so two
    distinct processes with the same name stay distinct groups) while
    display uses the default attribute; ``identity`` selects which
    behaviour the caller wants.
    """
    if ref.variable == pattern.event_var:
        return "event", canonical_event_attribute(ref.attribute or "id")
    role = _entity_role(pattern, ref.variable)
    entity_type = (pattern.subject.entity_type if role == "subject"
                   else pattern.object.entity_type)
    if ref.attribute is not None:
        return role, canonical_attribute(entity_type, ref.attribute)
    return role, "identity" if identity else DEFAULT_ATTRIBUTE[entity_type]


def _argument_source(pattern, call: AggCall) -> ValueSource:
    """What an aggregate call aggregates (``count(evt)`` counts ids)."""
    if call.arg is None:
        return None
    return _resolve(pattern, call.arg, identity=False)


def _event_getter(source: ValueSource) -> Callable[[Event], object]:
    if source is None:
        return lambda event: 1
    where, attribute = source
    return operator.attrgetter(
        attribute if where == "event" else f"{where}.{attribute}")


_EVENT_COLUMNS = {"id": "ids", "ts": "ts", "amount": "amounts",
                  "failcode": "failcodes"}


def _batch_column(source: ValueSource) -> Callable[[ColumnBatch], Sequence]:
    """The same value as :func:`_event_getter`, for every row of a batch."""
    if source is None:
        return lambda batch: [1] * len(batch)
    where, attribute = source
    if where == "event":
        if attribute == "operation":
            return ColumnBatch.operations
        if attribute == "agentid":
            return lambda batch: [batch.agentid] * len(batch)
        return operator.attrgetter(_EVENT_COLUMNS[attribute])
    return lambda batch: batch.entity_values(where + "s", attribute)


def _tuples(batch: ColumnBatch,
            columns: list[Callable[[ColumnBatch], Sequence]]) -> list[tuple]:
    if not columns:
        return [()] * len(batch)
    return list(zip(*(column(batch) for column in columns)))


def _projected(source: ValueSource) -> str | None:
    """The :attr:`ScanSpec.projection` name that carries a source."""
    if source is None:
        return None
    where, attribute = source
    if where != "event":
        return where
    return None if attribute in ("id", "ts") else attribute


def _recorded_aggregates(query: AnomalyQuery) -> list[tuple[str, AggCall]]:
    """(alias, call) for every aggregate in the return clause."""
    recorded = [(item.name, item.expr) for item in query.return_items
                if isinstance(item.expr, AggCall)]
    if not recorded:
        raise SemanticError("anomaly queries must aggregate at least one "
                            "value (e.g. avg(evt.amount))")
    return recorded


def _having_only_aggregates(query: AnomalyQuery,
                            aliases: set[str]) -> list[AggCall]:
    """Aggregate calls the having reads that no return item names."""
    if query.having is None:
        return []
    return list({str(call): call for call in expr_aggregates(query.having)
                 if str(call) not in aliases}.values())


def _history_depth(query: AnomalyQuery) -> int:
    depth = 1
    if query.having is not None:
        for ref in expr_history_refs(query.having):
            depth = max(depth, ref.offset + 1)
    return depth


def _render_row(window: Window, query: AnomalyQuery, display: tuple,
                aggregates: dict[str, object]) -> tuple:
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
# Having compilation
# ---------------------------------------------------------------------------

#: Operators that only need the unresolved-operand check.
_PLAIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "=": operator.eq, "!=": operator.ne}
_DIVISION = {"/": operator.truediv, "%": operator.mod}
_ORDERING = {"<": operator.lt, "<=": operator.le,
             ">": operator.gt, ">=": operator.ge}


def _truth(value: object) -> bool:
    return bool(value) if value is not None else False


def _failing(message: str) -> HavingNode:
    def fail(key: tuple, current: dict, slices: Sequence[Sequence]) -> object:
        raise SemanticError(message)
    return fail


def _compile_having(expr: Expr, query: AnomalyQuery, history: GroupHistory,
                    aliases: set[str],
                    extra_columns: dict[str, int]) -> HavingNode:
    """Compile a having expression to closures, once per query.

    Semantics: arithmetic involving an unresolved value (missing history,
    empty-set min/max) yields None, and any comparison or boolean operation
    on None is false — so anomalies only fire once enough history exists.
    ``/`` and ``%`` by zero are unresolved too.  Both operands of every
    operator are always evaluated; a reference to an unknown name fails
    when it is evaluated, not when it is compiled.
    """
    group_refs = {str(ref): index for index, ref in enumerate(query.group_by)}

    def build(node: Expr) -> HavingNode:
        if isinstance(node, Literal):
            literal = node.value
            return lambda key, current, slices: literal
        if isinstance(node, HistoryRef):
            lookup, alias, offset = history.lookup, node.alias, node.offset
            return lambda key, current, slices: lookup(key, alias, offset)
        if isinstance(node, AggCall):
            name = str(node)
            if name in aliases:
                return lambda key, current, slices: current[name]
            # Aggregate not in the return clause: computed when read.
            func, column = node.func, extra_columns[name]
            return lambda key, current, slices: aggregate(func,
                                                          slices[column])
        if isinstance(node, VarRef):
            name = str(node)
            if node.attribute is None and node.variable in aliases:
                alias = node.variable
                return lambda key, current, slices: current[alias]
            if name in group_refs:
                index = group_refs[name]
                return lambda key, current, slices: key[index]
            return _failing(f"having references unknown name {name!r}")
        if isinstance(node, NotOp):
            operand = build(node.operand)

            def negate(key, current, slices):
                value = operand(key, current, slices)
                return False if value is None else not value
            return negate
        if isinstance(node, BinOp):
            return binop(node.op, build(node.left), build(node.right))
        return _failing(f"unsupported having expression {node!r}")

    def binop(op: str, left: HavingNode, right: HavingNode) -> HavingNode:
        if op in ("and", "or"):
            conjunction = op == "and"

            def logical(key, current, slices):
                a = bool(left(key, current, slices))
                b = bool(right(key, current, slices))
                return (a and b) if conjunction else (a or b)
            return logical
        if op in _PLAIN_OPS:
            apply = _PLAIN_OPS[op]

            def plain(key, current, slices):
                a = left(key, current, slices)
                b = right(key, current, slices)
                if a is None or b is None:
                    return None
                return apply(a, b)
            return plain
        if op in _DIVISION:
            apply = _DIVISION[op]

            def divide(key, current, slices):
                a = left(key, current, slices)
                b = right(key, current, slices)
                if a is None or b is None:
                    return None
                return apply(a, b) if b else None
            return divide
        if op in _ORDERING:
            apply = _ORDERING[op]

            def compare(key, current, slices):
                a = left(key, current, slices)
                b = right(key, current, slices)
                if a is None or b is None:
                    return None
                try:
                    return apply(a, b)
                except TypeError:
                    return None
            return compare
        return _failing(f"unknown operator {op!r} in having")

    return build(expr)
