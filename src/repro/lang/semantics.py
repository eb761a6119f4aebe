"""The AIQL semantic analyzer: lint queries against the schema.

Static checks over a parsed query, run before execution by the session
facade and on demand by ``repro lint``.  The analyzer re-runs a strict
superset of the parser's legacy span-less semantic checks — so a query
that lints clean also plans and executes — and adds the defect classes
only whole-query analysis can see:

* ``unknown-attribute`` / ``unknown-operation`` — names that do not
  exist in the entity/event schema of :mod:`repro.model`;
* ``unbound-variable`` — return/sort/group/having references to
  variables no pattern declares;
* ``type-mismatch`` — comparisons and aggregates whose operand types can
  never produce a match (the engine's cross-type comparison semantics
  make these *silently empty*, which is exactly why they deserve a
  diagnostic);
* ``unused-pattern`` — a pattern that constrains nothing: not returned,
  not sorted on, not temporally related, and sharing no variable;
* ``always-false`` — merged per-variable constraint sets no event can
  satisfy (conflicting equalities, empty ranges, equality outside an
  ``in`` set);
* ``unsatisfiable-temporal`` — a negative cycle in the before/within
  difference-constraint graph, detected on the same transitive closure
  the scheduler propagates bounds with
  (:func:`repro.engine.planner.temporal_closure`).

Every diagnostic carries the offending token's span when the query was
parsed with :func:`repro.lang.parser.parse_with_spans`.
"""

from __future__ import annotations

import math
from dataclasses import fields as dataclass_fields

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.errors import DataModelError, ReproError
from repro.lang import ast
from repro.lang.errors import AiqlSyntaxError
from repro.lang.parser import parse_with_spans
from repro.lang.spans import SourceMap, Span
from repro.model.entities import (DEFAULT_ATTRIBUTE, FileEntity,
                                  NetworkEntity, ProcessEntity,
                                  canonical_attribute)
from repro.model.events import (EVENT_ATTRIBUTES, Event,
                                OPERATIONS_BY_TYPE,
                                canonical_event_attribute)

__all__ = ["analyze", "analyze_query"]

#: Aggregates whose result only makes sense over numeric inputs.
_NUMERIC_AGGREGATES = frozenset({"avg", "sum", "stddev", "median"})

_PY_TYPES = {"int": int, "str": str, "float": float}


def _attr_types(cls) -> dict[str, type | None]:
    return {f.name: _PY_TYPES.get(str(f.type)) for f in dataclass_fields(cls)}


#: Canonical attribute -> python type, per entity type.
_ENTITY_ATTR_TYPES: dict[str, dict[str, type | None]] = {
    "proc": _attr_types(ProcessEntity),
    "file": _attr_types(FileEntity),
    "ip": _attr_types(NetworkEntity),
}

#: Event attribute -> python type (the AIQL-addressable subset).
_EVENT_ATTR_TYPES: dict[str, type | None] = {
    name: kind for name, kind in _attr_types(Event).items()
    if name in EVENT_ATTRIBUTES
}


def _compatible(left: type | None, right: type | None) -> bool:
    """Can values of these types ever compare equal / order meaningfully?"""
    if left is None or right is None:
        return True
    if left in (int, float) and right in (int, float):
        return True
    return left is right


def analyze(source: str) -> list[Diagnostic]:
    """Lint AIQL text: parse with spans, then analyze the query.

    Total over arbitrary text: syntax errors come back as a single
    ``syntax`` diagnostic instead of raising, so ``repro lint`` renders
    every failure mode the same way.
    """
    try:
        query, spans = parse_with_spans(source, check=False)
    except AiqlSyntaxError as exc:
        return [Diagnostic(ERROR, "syntax", exc.reason,
                           Span(exc.line, exc.col, 1))]
    except ReproError as exc:
        # Legacy checks that stayed in the parser (shape errors the AST
        # cannot even represent, e.g. sort by in an anomaly query).
        return [Diagnostic(ERROR, "semantic", str(exc))]
    return analyze_query(query, spans)


def analyze_query(query: ast.Query,
                  spans: SourceMap | None = None) -> list[Diagnostic]:
    """Analyze a parsed query; spans anchor diagnostics when provided."""
    analyzer = _Analyzer(spans)
    if isinstance(query, ast.MultieventQuery):
        analyzer.multievent(query)
    elif isinstance(query, ast.DependencyQuery):
        analyzer.dependency(query)
    else:
        analyzer.anomaly(query)
    return analyzer.finish()


class _Scope:
    """Name environment of one query: entity var types + event vars."""

    __slots__ = ("entity_types", "event_vars", "aliases")

    def __init__(self, entity_types: dict[str, str],
                 event_vars: set[str],
                 aliases: frozenset[str] = frozenset()) -> None:
        self.entity_types = entity_types
        self.event_vars = event_vars
        self.aliases = aliases


class _Analyzer:
    def __init__(self, spans: SourceMap | None) -> None:
        self._spans = spans
        self._diags: list[Diagnostic] = []

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def _span(self, node: object) -> Span | None:
        if self._spans is None or node is None:
            return None
        return self._spans.span(node)

    def _emit(self, severity: str, code: str, message: str,
              node: object = None, span: Span | None = None) -> None:
        self._diags.append(Diagnostic(
            severity, code, message,
            span if span is not None else self._span(node)))

    def finish(self) -> list[Diagnostic]:
        def order(diag: Diagnostic):
            if diag.span is None:
                return (1, 0, 0)
            return (0, diag.span.line, diag.span.col)
        return sorted(self._diags, key=order)

    # ------------------------------------------------------------------
    # Query classes
    # ------------------------------------------------------------------
    def multievent(self, query: ast.MultieventQuery) -> None:
        scope = self._pattern_scope(query.patterns)
        self._header(query.header)
        for item in query.return_items:
            for node in ast.walk_expr(item.expr):
                if isinstance(node, ast.AggCall):
                    self._emit(ERROR, "aggregate-in-multievent",
                               "aggregates are only allowed in anomaly "
                               "queries (add 'window = ..., step = ...')",
                               node)
                elif isinstance(node, ast.VarRef):
                    self._ref(node, scope, "return clause")
        for key in query.sort_by:
            self._ref(key.expr, scope, "sort by")
        for relation in query.relations:
            self._relation(relation, scope)
        self._temporal(query.temporal)
        self._unused_patterns(query)
        self._always_false(_merged_entities(query.patterns))

    def dependency(self, query: ast.DependencyQuery) -> None:
        self._header(query.header)
        entity_types: dict[str, str] = {}
        for node in query.nodes:
            seen = entity_types.get(node.variable)
            if seen is None:
                entity_types[node.variable] = node.entity_type
            elif seen != node.entity_type:
                self._emit(ERROR, "type-conflict",
                           f"variable {node.variable!r} used as both "
                           f"{seen} and {node.entity_type}", node)
            self._entity_constraints(node)
        for position, edge in enumerate(query.edges):
            left, right = query.nodes[position], query.nodes[position + 1]
            subject = left if edge.subject_side == "left" else right
            obj = right if edge.subject_side == "left" else left
            if subject.entity_type != "proc":
                self._emit(ERROR, "invalid-subject",
                           f"edge {position + 1}: event subjects must be "
                           f"processes, but the arrow makes "
                           f"{subject.variable!r} ({subject.entity_type}) "
                           f"the subject", edge)
            self._operations(edge, obj.entity_type)
        scope = _Scope(entity_types, set())
        for item in query.return_items:
            for node in ast.walk_expr(item.expr):
                if isinstance(node, ast.AggCall):
                    self._emit(ERROR, "aggregate-in-multievent",
                               "aggregates are only allowed in anomaly "
                               "queries (add 'window = ..., step = ...')",
                               node)
                elif isinstance(node, ast.VarRef):
                    self._ref(node, scope, "return clause")
        for key in query.sort_by:
            self._ref(key.expr, scope, "sort by")
        merged = {var: (etype, ()) for var, etype in entity_types.items()}
        for node in query.nodes:
            etype, cons = merged[node.variable]
            merged[node.variable] = (etype, tuple(
                list(cons) + [c for c in node.constraints if c not in cons]))
        self._always_false(merged)

    def anomaly(self, query: ast.AnomalyQuery) -> None:
        aliases = frozenset(item.alias for item in query.return_items
                            if item.alias is not None)
        scope = self._pattern_scope(query.patterns, aliases)
        self._header(query.header)
        has_aggregate = False
        for item in query.return_items:
            for node in ast.walk_expr(item.expr):
                if isinstance(node, ast.AggCall):
                    has_aggregate = True
                    self._aggregate(node, scope)
                elif isinstance(node, ast.VarRef):
                    self._ref(node, scope, "return clause")
        if not has_aggregate:
            span = None
            if query.return_items:
                span = self._span(query.return_items[0].expr)
            self._emit(ERROR, "missing-aggregate",
                       "anomaly queries must aggregate at least one value "
                       "(e.g. avg(evt.amount))", span=span)
        for ref in query.group_by:
            self._ref(ref, scope, "group by")
        if query.having is not None:
            self._having(query.having, scope)
        self._always_false(_merged_entities(query.patterns))

    # ------------------------------------------------------------------
    # Patterns and scopes
    # ------------------------------------------------------------------
    def _pattern_scope(self, patterns: tuple[ast.EventPattern, ...],
                       aliases: frozenset[str] = frozenset()) -> _Scope:
        event_vars: set[str] = set()
        entity_types: dict[str, str] = {}
        for pattern in patterns:
            if pattern.event_var in event_vars:
                self._emit(ERROR, "duplicate-event-var",
                           f"duplicate event variable "
                           f"{pattern.event_var!r}", pattern)
            event_vars.add(pattern.event_var)
            for entity in (pattern.subject, pattern.object):
                seen = entity_types.get(entity.variable)
                if seen is None:
                    entity_types[entity.variable] = entity.entity_type
                elif seen != entity.entity_type:
                    self._emit(ERROR, "type-conflict",
                               f"variable {entity.variable!r} used as "
                               f"both {seen} and {entity.entity_type}",
                               entity)
                self._entity_constraints(entity)
            if pattern.subject.entity_type != "proc":
                self._emit(ERROR, "invalid-subject",
                           f"event subjects must be processes, got "
                           f"{pattern.subject.entity_type!r} for "
                           f"{pattern.subject.variable!r}", pattern.subject)
            self._operations(pattern, pattern.object.entity_type)
        overlap = event_vars & set(entity_types)
        for pattern in patterns:
            if pattern.event_var in overlap:
                self._emit(ERROR, "name-conflict",
                           f"{pattern.event_var!r} is used for both an "
                           f"event and an entity", pattern)
                overlap.discard(pattern.event_var)
        return _Scope(entity_types, event_vars, aliases)

    def _operations(self, node: ast.EventPattern | ast.DependencyEdge,
                    object_type: str) -> None:
        allowed = OPERATIONS_BY_TYPE.get(object_type)
        if allowed is None:
            return
        for position, operation in enumerate(node.operations):
            if operation in allowed:
                continue
            op_spans = (self._spans.operation_spans(node)
                        if self._spans is not None else ())
            span = (op_spans[position] if position < len(op_spans)
                    else self._span(node))
            self._emit(ERROR, "unknown-operation",
                       f"operation {operation!r} is not valid for "
                       f"{object_type} events "
                       f"(valid: {', '.join(sorted(allowed))})", span=span)

    # ------------------------------------------------------------------
    # References and expressions
    # ------------------------------------------------------------------
    def _resolve_type(self, ref: ast.VarRef,
                      scope: _Scope) -> tuple[bool, type | None]:
        """(resolved?, python type) without emitting diagnostics."""
        if ref.variable in scope.event_vars:
            try:
                attribute = canonical_event_attribute(ref.attribute or "id")
            except DataModelError:
                return False, None
            return True, _EVENT_ATTR_TYPES.get(attribute)
        entity_type = scope.entity_types.get(ref.variable)
        if entity_type is None:
            return False, None
        if ref.attribute is None:
            attribute = DEFAULT_ATTRIBUTE[entity_type]
        else:
            try:
                attribute = canonical_attribute(entity_type, ref.attribute)
            except DataModelError:
                return False, None
        return True, _ENTITY_ATTR_TYPES[entity_type].get(attribute)

    def _ref(self, ref: ast.VarRef, scope: _Scope,
             clause: str) -> type | None:
        """Check one variable reference; returns its type when known."""
        if (ref.variable not in scope.event_vars
                and ref.variable not in scope.entity_types):
            self._emit(ERROR, "unbound-variable",
                       f"{clause} references unknown variable "
                       f"{ref.variable!r}", ref)
            return None
        if ref.variable in scope.event_vars:
            try:
                attribute = canonical_event_attribute(ref.attribute or "id")
            except DataModelError as exc:
                self._emit(ERROR, "unknown-attribute", str(exc), ref)
                return None
            return _EVENT_ATTR_TYPES.get(attribute)
        entity_type = scope.entity_types[ref.variable]
        if ref.attribute is None:
            return _ENTITY_ATTR_TYPES[entity_type].get(
                DEFAULT_ATTRIBUTE[entity_type])
        try:
            attribute = canonical_attribute(entity_type, ref.attribute)
        except DataModelError as exc:
            self._emit(ERROR, "unknown-attribute", str(exc), ref)
            return None
        return _ENTITY_ATTR_TYPES[entity_type].get(attribute)

    def _relation(self, relation: ast.AttributeRelation,
                  scope: _Scope) -> None:
        left = self._ref(relation.left, scope, "with clause")
        right = self._ref(relation.right, scope, "with clause")
        if left is None or right is None or _compatible(left, right):
            return
        detail = (f"{relation.left} is {left.__name__}, "
                  f"{relation.right} is {right.__name__}")
        if relation.op in ("=", "!="):
            outcome = "never" if relation.op == "=" else "always"
            self._emit(WARNING, "type-mismatch",
                       f"'{relation}' compares different types and "
                       f"{outcome} holds ({detail})", relation.right)
        else:
            self._emit(ERROR, "type-mismatch",
                       f"'{relation}' orders values of different types "
                       f"({detail})", relation.right)

    def _aggregate(self, call: ast.AggCall, scope: _Scope) -> None:
        if call.arg is None:
            return
        if call.func not in _NUMERIC_AGGREGATES:
            return
        resolved, kind = self._resolve_type(call.arg, scope)
        if resolved and kind is str:
            self._emit(ERROR, "type-mismatch",
                       f"{call.func}() needs a numeric attribute, "
                       f"{call.arg} is a string", call.arg)

    def _having(self, having: ast.Expr, scope: _Scope) -> None:
        for node in ast.walk_expr(having):
            if isinstance(node, ast.HistoryRef):
                if node.alias not in scope.aliases:
                    self._emit(ERROR, "unknown-history-alias",
                               f"having references unknown aggregate "
                               f"alias {node.alias!r}", node)
            elif isinstance(node, ast.AggCall):
                self._aggregate(node, scope)
            elif isinstance(node, ast.VarRef):
                if node.attribute is None and node.variable in scope.aliases:
                    continue
                self._ref(node, scope, "having")

    # ------------------------------------------------------------------
    # Header and constraint types
    # ------------------------------------------------------------------
    def _header(self, header: ast.QueryHeader) -> None:
        by_attr: dict[str, list[ast.Constraint]] = {}
        for constraint in header.constraints:
            try:
                attribute = canonical_event_attribute(
                    constraint.attribute or "")
            except DataModelError as exc:
                self._emit(ERROR, "unknown-attribute", str(exc), constraint)
                continue
            self._constraint_types(constraint, _EVENT_ATTR_TYPES[attribute],
                                   f"events.{attribute}")
            by_attr.setdefault(attribute, []).append(constraint)
        for attribute, constraints in by_attr.items():
            self._contradictions(f"global constraint {attribute!r}",
                                 _EVENT_ATTR_TYPES[attribute], constraints)

    def _entity_constraints(self, entity: ast.EntityPattern) -> None:
        types = _ENTITY_ATTR_TYPES.get(entity.entity_type, {})
        for constraint in entity.constraints:
            attribute = constraint.attribute
            if attribute is None:
                attribute = DEFAULT_ATTRIBUTE.get(entity.entity_type)
            kind = int if attribute == "agentid" else types.get(attribute)
            self._constraint_types(constraint, kind,
                                   f"{entity.variable}.{attribute}")

    def _constraint_types(self, constraint: ast.Constraint,
                          kind: type | None, what: str) -> None:
        if kind is None:
            return
        op, value = constraint.op, constraint.value
        if op == "like":
            if kind is not str:
                self._emit(ERROR, "type-mismatch",
                           f"'like' needs a string attribute, {what} is "
                           f"{kind.__name__}", constraint)
            return
        if op == "in":
            mismatched = [v for v in value
                          if not _compatible(kind, type(v))]
            if mismatched:
                self._emit(WARNING, "type-mismatch",
                           f"'in' list for {what} ({kind.__name__}) "
                           f"contains {type(mismatched[0]).__name__} "
                           f"values that can never match", constraint)
            return
        if _compatible(kind, type(value)):
            return
        if op in ("=", "!="):
            outcome = ("never matches" if op == "="
                       else "matches every value")
            self._emit(WARNING, "type-mismatch",
                       f"comparing {what} ({kind.__name__}) with "
                       f"{type(value).__name__} {value!r} {outcome}",
                       constraint)
        else:
            self._emit(ERROR, "type-mismatch",
                       f"ordering {what} ({kind.__name__}) against "
                       f"{type(value).__name__} {value!r} can never hold",
                       constraint)

    # ------------------------------------------------------------------
    # Always-false merged constraint sets
    # ------------------------------------------------------------------
    def _always_false(
            self,
            merged: dict[str, tuple[str, tuple[ast.Constraint, ...]]],
    ) -> None:
        for variable, (entity_type, constraints) in merged.items():
            types = _ENTITY_ATTR_TYPES.get(entity_type, {})
            by_attr: dict[str, list[ast.Constraint]] = {}
            for constraint in constraints:
                attribute = constraint.attribute
                if attribute is None:
                    attribute = DEFAULT_ATTRIBUTE.get(entity_type)
                by_attr.setdefault(attribute or "", []).append(constraint)
            for attribute, group in by_attr.items():
                kind = int if attribute == "agentid" else types.get(attribute)
                self._contradictions(f"{variable}.{attribute}", kind, group)

    def _contradictions(self, what: str, kind: type | None,
                        constraints: list[ast.Constraint]) -> None:
        """Merged-constraint contradictions on one (variable, attribute)."""
        eqs = [c for c in constraints if c.op == "="]
        if len(eqs) > 1:
            first = eqs[0].value
            for other in eqs[1:]:
                if other.value != first:
                    self._emit(WARNING, "always-false",
                               f"conflicting equality constraints on "
                               f"{what}: {first!r} vs {other.value!r}",
                               other)
                    return
        in_sets = [c for c in constraints if c.op == "in"]
        for eq in eqs:
            for member in in_sets:
                if eq.value not in member.value:
                    self._emit(WARNING, "always-false",
                               f"{what} = {eq.value!r} is outside the "
                               f"'in' set {member.value!r}", member)
                    return
        for eq in eqs:
            for neq in constraints:
                if neq.op == "!=" and neq.value == eq.value:
                    self._emit(WARNING, "always-false",
                               f"{what} is required to both equal and "
                               f"differ from {eq.value!r}", neq)
                    return
        if len(in_sets) > 1:
            common = set(in_sets[0].value)
            for member in in_sets[1:]:
                common &= set(member.value)
                if not common:
                    self._emit(WARNING, "always-false",
                               f"'in' sets for {what} have no value in "
                               f"common", member)
                    return
        self._empty_range(what, kind, constraints)

    def _empty_range(self, what: str, kind: type | None,
                     constraints: list[ast.Constraint]) -> None:
        if kind is None:
            return
        comparable = ((int, float) if kind in (int, float)
                      else (kind,))
        lo: object = -math.inf if kind is not str else None
        hi: object = math.inf if kind is not str else None
        lo_strict = hi_strict = False
        last: ast.Constraint | None = None
        for constraint in constraints:
            op, value = constraint.op, constraint.value
            if op not in ("<", "<=", ">", ">=", "="):
                continue
            if not isinstance(value, comparable):
                continue  # cross-type, already reported as type-mismatch
            if op in (">", ">=", "="):
                strict = op == ">"
                if lo is None or value > lo or (value == lo and strict):
                    lo, lo_strict, last = value, strict, constraint
            if op in ("<", "<=", "="):
                strict = op == "<"
                if hi is None or value < hi or (value == hi and strict):
                    hi, hi_strict, last = value, strict, constraint
            if lo is not None and hi is not None:
                if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                    self._emit(WARNING, "always-false",
                               f"constraints on {what} require an empty "
                               f"range (no value is {'>' if lo_strict else '>='} "
                               f"{lo!r} and {'<' if hi_strict else '<='} "
                               f"{hi!r})", last)
                    return

    # ------------------------------------------------------------------
    # Temporal satisfiability
    # ------------------------------------------------------------------
    def _temporal(self, temporal: tuple[ast.TemporalRelation, ...]) -> None:
        if not temporal:
            return
        # The scheduler's own closure: presence of (u, v) means u must
        # strictly precede v with v.ts - u.ts <= d over the tightest
        # chain.  A key (x, x) — any cycle — or a derived delta of zero
        # makes strict precedence impossible: 0 < delta <= 0.
        from repro.engine.planner import temporal_closure
        normalized = tuple(rel.normalized() for rel in temporal)
        closure = temporal_closure(normalized)
        cyclic = {u for (u, v) in closure if u == v}
        collapsed = {pair for pair, delta in closure.items() if delta <= 0}
        if not cyclic and not collapsed:
            return
        anchor: ast.TemporalRelation | None = None
        for original, rel in zip(temporal, normalized):
            if rel.left == rel.right:
                anchor = original
                break
            if rel.left in cyclic or rel.right in cyclic:
                anchor = original
                break
            if closure.get((rel.left, rel.right), math.inf) <= 0:
                anchor = original
                break
        if cyclic:
            detail = (f"the 'before' constraints form a cycle through "
                      f"{', '.join(sorted(cyclic))}")
        else:
            pair = sorted(collapsed)[0]
            detail = (f"{pair[0]} must precede {pair[1]} by more than 0 "
                      f"seconds and at most 0 seconds")
        self._emit(ERROR, "unsatisfiable-temporal",
                   f"temporal constraints are unsatisfiable: {detail}",
                   anchor if anchor is not None else temporal[0])

    # ------------------------------------------------------------------
    # Unused patterns
    # ------------------------------------------------------------------
    def _unused_patterns(self, query: ast.MultieventQuery) -> None:
        if len(query.patterns) < 2:
            return
        referenced: set[str] = set()
        for item in query.return_items:
            for node in ast.walk_expr(item.expr):
                if isinstance(node, ast.VarRef):
                    referenced.add(node.variable)
        for key in query.sort_by:
            referenced.add(key.expr.variable)
        for relation in query.relations:
            referenced.add(relation.left.variable)
            referenced.add(relation.right.variable)
        temporal_vars = {var for rel in query.temporal
                         for var in (rel.left, rel.right)}
        counts: dict[str, int] = {}
        for pattern in query.patterns:
            for var in {pattern.subject.variable, pattern.object.variable}:
                counts[var] = counts.get(var, 0) + 1
        for pattern in query.patterns:
            if (pattern.event_var in referenced
                    or pattern.event_var in temporal_vars):
                continue
            entity_vars = {pattern.subject.variable,
                           pattern.object.variable}
            if any(var in referenced or counts.get(var, 0) > 1
                   for var in entity_vars):
                continue
            self._emit(WARNING, "unused-pattern",
                       f"pattern {pattern.event_var!r} does not constrain "
                       f"the result: it is never returned, sorted on, "
                       f"temporally related, or joined through a shared "
                       f"variable", pattern)


def _merged_entities(
        patterns: tuple[ast.EventPattern, ...],
) -> dict[str, tuple[str, tuple[ast.Constraint, ...]]]:
    """Union bracket constraints per variable (constraint chaining).

    Mirrors the planner's merge so always-false analysis sees the same
    constraint set each scan will evaluate.
    """
    merged: dict[str, tuple[str, list[ast.Constraint]]] = {}
    for pattern in patterns:
        for entity in (pattern.subject, pattern.object):
            entry = merged.setdefault(entity.variable,
                                      (entity.entity_type, []))
            if entry[0] != entity.entity_type:
                continue  # type conflict, reported elsewhere
            for constraint in entity.constraints:
                if constraint not in entry[1]:
                    entry[1].append(constraint)
    return {var: (etype, tuple(cons))
            for var, (etype, cons) in merged.items()}
