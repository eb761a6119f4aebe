"""Multi-way joining of pattern matches into result bindings.

After the scheduler produces per-pattern candidate lists, the joiner
assembles them into complete bindings (one event per event variable) such
that

* shared entity variables bind to the *same interned entity* in every
  pattern where they appear (attribute relationships, §2.2.1), and
* every temporal relationship holds (``before`` is strict ``<`` on
  timestamps, matching the SQL baseline's ``e1.ts < e2.ts``).

Patterns join in the scheduler's execution order with hash joins on the
shared-variable identity tuples.  A pattern whose event is an endpoint of a
temporal relation with an already-bound partner is *probed*, not filtered:
each identity bucket is sorted by ``ts`` once and every accumulated row
bisects it to the interval the relation admits, so the per-identity cross
product is never built.  The bisect only narrows; :meth:`TemporalCheck.holds`
still decides every pair, as soon as both endpoint events are bound.

The intermediate-row guard (``row_limit``) counts the rows that survive the
probe, so a query stays under it whenever its cross product did.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from repro.errors import ExecutionError
from repro.model.events import Event
from repro.engine.planner import DataQuery, QueryPlan

if TYPE_CHECKING:
    # Annotation only: the scheduler imports ``join`` for execute_plan.
    from repro.engine.scheduler import ScheduledMatches

# A binding maps event variables to events and entity variables to entities.
Binding = dict[str, object]

#: Default cap on the intermediate rows of one query's join, counted after
#: the temporal probe has narrowed each bucket.
DEFAULT_ROW_LIMIT = 2_000_000

#: ``(bound partner event variable, partner is the earlier event, within)``
Probe = tuple[str, bool, float | None]

_BY_TS = attrgetter("ts")


@dataclass(frozen=True, slots=True)
class TemporalCheck:
    """A compiled temporal relation: left strictly before right."""

    left: str
    right: str
    within: float | None

    def holds(self, binding: Binding) -> bool:
        left_evt: Event = binding[self.left]   # type: ignore[assignment]
        right_evt: Event = binding[self.right]  # type: ignore[assignment]
        if not left_evt.ts < right_evt.ts:
            return False
        if self.within is not None:
            return right_evt.ts - left_evt.ts <= self.within
        return True


def join(plan: QueryPlan, scheduled: ScheduledMatches,
         row_limit: int = DEFAULT_ROW_LIMIT) -> list[Binding]:
    """Assemble complete bindings from per-pattern matches.

    ``row_limit`` bounds the intermediate rows of any one step, counted
    after the temporal probe and before ``holds`` filters them.
    """
    checks = [TemporalCheck(rel.left, rel.right, rel.within)
              for rel in plan.temporal]
    relation_checks = list(plan.relations)
    rows: list[Binding] = [{}]
    bound_vars: set[str] = set()
    for dq in scheduled.order:
        events = scheduled.events.get(dq.index, [])
        if not events:
            return []
        var = dq.event_var
        probes: list[Probe] = [
            (check.left, True, check.within) for check in checks
            if check.right == var and check.left in bound_vars]
        probes += [
            (check.right, False, check.within) for check in checks
            if check.left == var and check.right in bound_vars]
        rows = _extend(rows, dq, events, row_limit, probes)
        bound_vars.update((dq.event_var, dq.subject_var, dq.object_var))
        ready = [check for check in checks
                 if check.left in bound_vars and check.right in bound_vars]
        if ready:
            rows = [row for row in rows
                    if all(check.holds(row) for check in ready)]
            checks = [check for check in checks if check not in ready]
        ready_relations = [check for check in relation_checks
                           if check.left_var in bound_vars
                           and check.right_var in bound_vars]
        if ready_relations:
            rows = [row for row in rows
                    if all(check.holds(row) for check in ready_relations)]
            relation_checks = [check for check in relation_checks
                               if check not in ready_relations]
        if not rows:
            return []
    return rows


def _extend(rows: list[Binding], dq: DataQuery, events: list[Event],
            row_limit: int, probes: Sequence[Probe] = ()) -> list[Binding]:
    """Hash-join the accumulated rows with one pattern's matches.

    Without shared variables there is one bucket holding every match
    (the cross product, kept small by the scheduler's most-selective-
    first ordering).  With ``probes`` each row binds only the slice of
    its bucket that :func:`_probe` admits.
    """
    if not rows:
        return []
    sample = rows[0]
    join_vars = [var for var in dict.fromkeys(dq.variables)
                 if var in sample]
    buckets: dict[tuple, list[Event]] = defaultdict(list)
    for event in events:
        buckets[_event_key(event, dq, join_vars)].append(event)
    bucket_ts: dict[tuple, list[float]] = {}   # buckets sorted so far
    out: list[Binding] = []
    for row in rows:
        key = tuple(row[var].identity  # type: ignore[attr-defined]
                    for var in join_vars)
        bucket = buckets.get(key)
        if bucket is None:
            continue
        if probes:
            ts = bucket_ts.get(key)
            if ts is None:
                bucket.sort(key=_BY_TS)
                ts = bucket_ts[key] = [event.ts for event in bucket]
            lo, hi = _probe(ts, row, probes)
            bucket = bucket[lo:hi]
        for event in bucket:
            out.append(_bind(row, dq, event))
            if len(out) > row_limit:
                raise row_limit_exceeded(row_limit)
    return out


def row_limit_exceeded(row_limit: int) -> ExecutionError:
    """The error a query that outgrows its intermediate-row cap raises."""
    return ExecutionError(f"join exceeded {row_limit} intermediate rows; "
                          f"add more selective constraints")


def _probe(ts: list[float], row: Binding,
           probes: Sequence[Probe]) -> tuple[int, int]:
    """The slice of a ``ts``-sorted bucket the bound partners admit.

    A superset of what ``holds`` accepts, never less.  The strict
    ``before`` side bisects on the partner's exact ``ts``.  The
    ``within`` side is widened by a few ulps because ``holds`` tests
    ``right.ts - left.ts <= within``, which in floating point is not
    ``right.ts <= left.ts + within``; ``holds`` drops the excess.
    """
    lo, hi = 0, len(ts)
    for partner, partner_first, within in probes:
        at: float = row[partner].ts  # type: ignore[attr-defined]
        reach = (None if within is None
                 else within + 4 * math.ulp(max(abs(at), within)))
        if partner_first:       # at < event.ts <= at + within
            lo = max(lo, bisect_right(ts, at))
            if reach is not None:
                hi = min(hi, bisect_right(ts, at + reach))
        else:                   # at - within <= event.ts < at
            hi = min(hi, bisect_left(ts, at))
            if reach is not None:
                lo = max(lo, bisect_left(ts, at - reach))
    return lo, hi


def _event_key(event: Event, dq: DataQuery, join_vars: list[str]) -> tuple:
    key = []
    for var in join_vars:
        if var == dq.subject_var:
            key.append(event.subject.identity)
        else:
            key.append(event.object.identity)
    return tuple(key)


def _bind(row: Binding, dq: DataQuery, event: Event) -> Binding:
    extended = dict(row)
    extended[dq.event_var] = event
    extended[dq.subject_var] = event.subject
    extended[dq.object_var] = event.object
    return extended
