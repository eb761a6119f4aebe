"""Vectorized single-pattern execution over column batches.

The hottest AIQL shape — one event pattern, scan-filter-project — spends
most of its time in the row-at-a-time engine materializing a binding
dict per survivor just to read two or three attributes back out.  This
module short-circuits that: every backend's ``select_batches`` hands the
survivors over as struct-of-arrays columns (the columnar store filters
column-at-a-time too, and never builds an ``Event``), and the result
rows are built straight from the projected column slices — ``zip`` over
column slices instead of per-row Python objects.

The path is taken whenever it is provably byte-identical to the general
engine, which depends on the query's shape alone:

* exactly one data query, no ``with`` relations, no temporal relations
  (nothing to join, so binding semantics collapse to "one row per
  survivor");
* every return item and sort key compiles to a column getter (an
  unresolvable reference falls back so semantic errors surface in the
  one place that owns them).

An explicit ``row_limit`` is enforced here with the joiner's error,
counting survivors as the joiner would count its one-pattern rows.

Ordering, ``distinct``, and ``top`` replicate
:func:`repro.engine.executor.project_bindings` exactly: rows order by
the composite (sort keys, ``(ts, id)``) comparator, ``distinct``
deduplicates after ordering, and a non-distinct ``top`` uses a bounded
heap.  The scan gathers only the consumed columns, and a pushed
:class:`~repro.storage.backend.ScanOrder` lets the backend stop
materializing past the first/last N survivors.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Sequence

from repro.lang.ast import MultieventQuery, VarRef
from repro.obs.clock import monotonic
from repro.obs.trace import NULL_TRACER
from repro.model.entities import DEFAULT_ATTRIBUTE, canonical_attribute
from repro.model.events import canonical_event_attribute
# The executor imports this module lazily inside its dispatch, so pulling
# its ordering primitives in at module top never cycles.
from repro.engine.executor import _null_safe_key, _Reversed
from repro.engine.joiner import row_limit_exceeded
from repro.engine.options import EngineOptions
from repro.engine.planner import DataQuery, QueryPlan
from repro.engine.scheduler import ExecutionReport, scan_report
from repro.storage.backend import ColumnBatch, ScanSpec, StorageBackend

__all__ = ["execute_vectorized"]

ColumnGetter = Callable[[ColumnBatch], Sequence]


def execute_vectorized(store: StorageBackend, plan: QueryPlan,
                       query: MultieventQuery, options: EngineOptions,
                       ) -> tuple[list[str], list[tuple],
                                  ExecutionReport] | None:
    """Run a single-pattern query over column batches, or ``None``.

    ``None`` means "not eligible — use the general engine"; a non-None
    result is byte-identical to what the general engine would produce.
    """
    if len(plan.data_queries) != 1 or plan.relations or plan.temporal:
        return None
    dq = plan.data_queries[0]
    return_getters = [_column_getter(item.expr, dq, plan)
                      for item in query.return_items]
    sort_getters = [(_column_getter(key.expr, dq, plan), key.descending)
                    for key in query.sort_by]
    if any(getter is None for getter in return_getters):
        return None
    if any(getter is None for getter, _descending in sort_getters):
        return None

    started = monotonic()
    tracer = options.tracer or NULL_TRACER
    spec = ScanSpec(window=plan.window, agentids=dq.agentids,
                    projection=plan.projections[0], order=plan.scan_order)
    if options.verify_plans:
        # Same soundness gate as the scheduler's, with the propagation
        # state this path never has (single pattern, nothing propagates).
        from repro.engine.verify import verify_spec
        verify_spec(plan, dq, spec, closure={}, identity_sets={},
                    ts_bounds={})
    with tracer.span("scan", pattern=dq.event_var, vectorized=True) as span:
        batches, fetched = store.select_batches(dq.profile, dq.compiled,
                                                spec)
        span.set(fetched=fetched, batches=len(batches))

    top = query.top
    batches = [batch for batch in batches if len(batch)]
    matched = sum(len(batch) for batch in batches)
    if options.row_limit is not None and matched > options.row_limit:
        raise row_limit_exceeded(options.row_limit)
    with tracer.span("project", vectorized=True) as project_span:
        if not sort_getters and top is None and not query.distinct \
                and _time_disjoint(batches):
            # No-key shortcut for the plain scan-filter-project shape:
            # each batch's rows already ascend by (ts, id), and the
            # batches do not interleave in time, so emitting them in
            # batch-start order *is* the canonical result order — no
            # per-row sort keys, no global sort, just one zip per batch.
            rows = []
            for batch in batches:
                columns = [getter(batch) for getter in return_getters]
                rows.extend(zip(*columns))
        else:
            keyed: list[tuple[tuple, tuple]] = []
            for batch in batches:
                size = len(batch)
                columns = [getter(batch) for getter in return_getters]
                time_keys = list(zip(batch.ts, batch.ids))
                if sort_getters:
                    sort_columns = [(getter(batch), descending)
                                    for getter, descending in sort_getters]
                    keys: list[tuple] = []
                    for i in range(size):
                        parts: list[object] = []
                        for column, descending in sort_columns:
                            part = _null_safe_key(column[i])
                            parts.append(_Reversed(part) if descending
                                         else part)
                        parts.append((time_keys[i],))
                        keys.append(tuple(parts))
                else:
                    keys = time_keys
                keyed.extend(zip(keys, zip(*columns)))

            first = itemgetter(0)
            if top is not None and not query.distinct:
                chosen = heapq.nsmallest(top, keyed, key=first)
            else:
                keyed.sort(key=first)
                chosen = keyed
            rows = [row for _key, row in chosen]
            if query.distinct:
                rows = list(dict.fromkeys(rows))
            if top is not None:
                rows = rows[:top]
        project_span.set(rows=len(rows))

    report = scan_report(store, dq, spec, fetched, matched,
                         monotonic() - started, options.explain)
    report.joined_rows = matched
    return [item.name for item in query.return_items], rows, report


def _time_disjoint(batches: list[ColumnBatch]) -> bool:
    """Sort ``batches`` by start key in place; True if they never
    interleave in time.

    Each batch's rows ascend by ``(ts, id)`` (the scan guarantees it),
    so when every batch ends strictly before the next begins the
    concatenation in batch order is already globally sorted.
    """
    batches.sort(key=lambda batch: (batch.ts[0], batch.ids[0]))
    return all(earlier.ts[-1] < later.ts[0]
               for earlier, later in zip(batches, batches[1:]))


def _column_getter(expr: object, dq: DataQuery,
                   plan: QueryPlan) -> ColumnGetter | None:
    """Compile a return/sort reference into a per-batch column producer.

    Mirrors :func:`repro.engine.planner.binding_getter` over batches:
    event attributes come from the batch's arrays (operations decoded
    through the dictionary), entity attributes decode the subject/object
    code columns through the entity vocabulary with a per-batch memo.
    When a variable names both sides of the pattern the object wins —
    the same shadowing the joiner's bind order produces.  ``None`` means
    "not compilable here"; the caller falls back to the general engine,
    which owns the semantic error for genuinely bad references.
    """
    if not isinstance(expr, VarRef):
        return None
    variable, attribute = expr.variable, expr.attribute
    if variable == dq.event_var:
        try:
            attr = canonical_event_attribute(attribute or "id")
        except Exception:
            return None
        if attr == "id":
            return lambda batch: batch.ids
        if attr == "ts":
            return lambda batch: batch.ts
        if attr == "operation":
            return lambda batch: batch.operations()
        if attr == "amount":
            return lambda batch: batch.amounts
        if attr == "failcode":
            return lambda batch: batch.failcodes
        if attr == "agentid":
            return lambda batch: [batch.agentid] * len(batch)
        return None
    if variable == dq.object_var:
        side = "objects"
    elif variable == dq.subject_var:
        side = "subjects"
    else:
        return None
    entity_type = plan.variable_types.get(variable)
    if entity_type is None:
        return None
    if attribute is None:
        attr = DEFAULT_ATTRIBUTE[entity_type]
    else:
        try:
            attr = canonical_attribute(entity_type, attribute)
        except Exception:
            return None

    return lambda batch: batch.entity_values(side, attr)
