"""Multi-way joining of pattern matches into result bindings.

After the scheduler produces per-pattern candidate lists, the joiner
assembles them into complete bindings (one event per event variable) such
that

* shared entity variables bind to the *same interned entity* in every
  pattern where they appear (attribute relationships, §2.2.1), and
* every temporal relationship holds (``before`` is strict ``<`` on
  timestamps, matching the SQL baseline's ``e1.ts < e2.ts``).

Patterns join in the scheduler's execution order with hash joins on the
shared-variable identity tuples; temporal predicates are applied as soon as
both endpoint events are bound, keeping intermediates small.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.model.events import Event
from repro.engine.planner import DataQuery, QueryPlan

if TYPE_CHECKING:
    # Annotation only: the scheduler imports ``join`` for execute_plan.
    from repro.engine.scheduler import ScheduledMatches

# A binding maps event variables to events and entity variables to entities.
Binding = dict[str, object]

DEFAULT_ROW_LIMIT = 2_000_000


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
    """Assemble complete bindings from per-pattern matches."""
    checks = [TemporalCheck(rel.left, rel.right, rel.within)
              for rel in plan.temporal]
    relation_checks = list(plan.relations)
    rows: list[Binding] = [{}]
    bound_vars: set[str] = set()
    for dq in scheduled.order:
        events = scheduled.events.get(dq.index, [])
        if not events:
            return []
        rows = _extend(rows, dq, events, row_limit)
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
            row_limit: int) -> list[Binding]:
    """Hash-join the accumulated rows with one pattern's matches."""
    if not rows:
        return []
    sample = rows[0]
    join_vars = [var for var in dict.fromkeys(dq.variables)
                 if var in sample]
    out: list[Binding] = []
    if join_vars:
        buckets: dict[tuple, list[Event]] = defaultdict(list)
        for event in events:
            buckets[_event_key(event, dq, join_vars)].append(event)
        for row in rows:
            key = tuple(row[var].identity  # type: ignore[attr-defined]
                        for var in join_vars)
            for event in buckets.get(key, ()):
                out.append(_bind(row, dq, event))
                if len(out) > row_limit:
                    raise ExecutionError(
                        f"join exceeded {row_limit} intermediate rows; "
                        f"add more selective constraints")
    else:
        # No shared variables yet: cross product (kept small by the
        # scheduler's most-selective-first ordering).
        for row in rows:
            for event in events:
                out.append(_bind(row, dq, event))
                if len(out) > row_limit:
                    raise ExecutionError(
                        f"join exceeded {row_limit} intermediate rows; "
                        f"add more selective constraints")
    return out


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
