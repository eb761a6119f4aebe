"""Recursive-descent parser for AIQL.

Grammar (informal), covering the three query classes of §2.2:

    query        := header (dependency | anomaly | multievent)
    header       := paren_clause* global_constraint*
    paren_clause := '(' 'at' STRING ')' | '(' 'from' STRING 'to' STRING ')'
    global_constraint := IDENT cmp literal
    multievent   := pattern+ with_clause? return_clause
    pattern      := entity op ('||' op)* entity 'as' IDENT
    entity       := ('proc'|'file'|'ip') IDENT ('[' constraints ']')?
    with_clause  := 'with' trel (',' trel)*
    trel         := IDENT ('before'|'after') IDENT ('within' duration)?
    dependency   := ('forward'|'backward') ':' node (edge node)* return_clause
    edge         := '->' '[' op ('||' op)* ']' | '<-' '[' op ('||' op)* ']'
    anomaly      := 'window' '=' duration ',' 'step' '=' duration
                    pattern+ return_clause group_by? having?
    return_clause:= 'return' 'distinct'? item (',' item)*

Bare string constraints (``["%cmd.exe"]``) target the entity's default
attribute; an ``=`` against a string containing ``%`` or ``_`` desugars to
``like`` (matching the paper's examples, where wildcard strings always mean
pattern matching).
"""

from __future__ import annotations

from repro.errors import SemanticError
from repro.lang import ast
from repro.lang.errors import AiqlSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.spans import SourceMap
from repro.lang.tokens import COMPARISON_TOKENS, Token, TokenType
from repro.model.entities import ENTITY_TYPES, canonical_attribute
from repro.model.timeutil import Window, parse_duration

_AGGREGATE_FUNCS = frozenset(
    {"avg", "sum", "count", "min", "max", "stddev", "median", "first",
     "last"})

_CMP_TEXT = {
    TokenType.EQ: "=",
    TokenType.NEQ: "!=",
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
}


class Parser:
    """One-pass recursive-descent parser over the token list."""

    def __init__(self, source: str, *, spans: SourceMap | None = None,
                 check: bool = True) -> None:
        self.source = source
        self._tokens = tokenize(source)
        # A second EOF lets one-token lookahead index past the end freely.
        self._tokens.append(self._tokens[-1])
        self._pos = 0
        #: Optional side table receiving node spans (parse_with_spans).
        self._spans = spans
        #: When False, the span-less legacy semantic checks are skipped —
        #: the semantic analyzer re-runs a strict superset of them with
        #: precise spans (the ``repro lint`` path).
        self._check = check

    # ------------------------------------------------------------------
    # Span recording (no-ops unless a SourceMap was supplied)
    # ------------------------------------------------------------------
    def _note(self, node: object, start: Token,
              end: Token | None = None) -> None:
        if self._spans is not None:
            self._spans.note(node, start, end)

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> AiqlSyntaxError:
        token = token or self._peek()
        return AiqlSyntaxError(message, self.source, token.line, token.col)

    def _expect(self, ttype: TokenType, what: str) -> Token:
        token = self._peek()
        if token.type is not ttype:
            raise self._error(f"expected {what}, found {token.text!r}" if
                              token.text else f"expected {what}, found end "
                              f"of query")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if token.keyword != word:
            raise self._error(f"expected '{word}', found {token.text!r}")
        return self._advance()

    def _at_keyword(self, *words: str) -> bool:
        return self._peek().keyword in words

    def _match(self, ttype: TokenType) -> Token | None:
        if self._peek().type is ttype:
            return self._advance()
        return None

    def _prev(self) -> Token:
        """The most recently consumed token (for span end positions)."""
        return self._tokens[max(self._pos - 1, 0)]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> ast.Query:
        header = self._parse_header()
        if self._at_keyword("forward", "backward"):
            query: ast.Query = self._parse_dependency(header)
        elif self._at_keyword("window"):
            query = self._parse_anomaly(header)
        else:
            query = self._parse_multievent(header)
        trailing = self._peek()
        if trailing.type is not TokenType.EOF:
            raise self._error(
                f"unexpected trailing input {trailing.text!r}", trailing)
        return query

    # ------------------------------------------------------------------
    # Header: time window + global constraints
    # ------------------------------------------------------------------
    def _parse_header(self) -> ast.QueryHeader:
        window: Window | None = None
        constraints: list[ast.Constraint] = []
        while True:
            token = self._peek()
            if token.type is TokenType.LPAREN:
                clause_window = self._parse_paren_window()
                window = (clause_window if window is None
                          else _intersect_windows(window, clause_window,
                                                  self, token))
            elif (token.type is TokenType.IDENT
                  and self._peek(1).type in COMPARISON_TOKENS):
                constraints.append(self._parse_global_constraint())
            else:
                break
        return ast.QueryHeader(window=window, constraints=tuple(constraints))

    def _parse_paren_window(self) -> Window:
        self._expect(TokenType.LPAREN, "'('")
        token = self._peek()
        if token.keyword == "at":
            self._advance()
            literal = self._expect(TokenType.STRING, "a date string")
            try:
                window = Window.for_day(literal.text)
            except Exception as exc:
                raise self._error(str(exc), literal) from None
        elif token.keyword == "from":
            self._advance()
            start = self._expect(TokenType.STRING, "a date string")
            self._expect_keyword("to")
            end = self._expect(TokenType.STRING, "a date string")
            try:
                window = Window.between(start.text, end.text)
            except Exception as exc:
                raise self._error(str(exc), start) from None
        else:
            raise self._error("expected 'at' or 'from' inside '(...)'", token)
        self._expect(TokenType.RPAREN, "')'")
        return window

    def _parse_global_constraint(self) -> ast.Constraint:
        name = self._expect(TokenType.IDENT, "an attribute name")
        op_token = self._advance()
        op = _CMP_TEXT[op_token.type]
        value = self._parse_literal()
        attribute = name.text.lower()
        if attribute == "agentid" and op == "=" and not isinstance(value, int):
            raise self._error("agentid must be an integer", name)
        constraint = _desugar_constraint(attribute, op, value)
        self._note(constraint, name, self._prev())
        return constraint

    # ------------------------------------------------------------------
    # Multievent
    # ------------------------------------------------------------------
    def _parse_multievent(self, header: ast.QueryHeader) -> ast.MultieventQuery:
        patterns = self._parse_patterns()
        temporal, relations = self._parse_with_clause(patterns)
        distinct, items, sort_by, top = self._parse_return_clause()
        query = ast.MultieventQuery(header=header, patterns=patterns,
                                    temporal=temporal, return_items=items,
                                    distinct=distinct, relations=relations,
                                    sort_by=sort_by, top=top)
        if self._check:
            _check_multievent(query, self)
        return query

    def _parse_patterns(self) -> tuple[ast.EventPattern, ...]:
        patterns: list[ast.EventPattern] = []
        while self._at_keyword(*ENTITY_TYPES):
            patterns.append(self._parse_event_pattern())
        if not patterns:
            raise self._error(
                "expected at least one event pattern (proc/file/ip ...)")
        return tuple(patterns)

    def _parse_event_pattern(self) -> ast.EventPattern:
        subject = self._parse_entity_pattern()
        operations, op_tokens = self._parse_operations()
        obj = self._parse_entity_pattern()
        self._expect_keyword("as")
        event_token = self._expect(TokenType.IDENT, "an event variable")
        pattern = ast.EventPattern(subject=subject, operations=operations,
                                   object=obj, event_var=event_token.text)
        self._note(pattern, event_token)
        if self._spans is not None:
            self._spans.note_operations(pattern, op_tokens)
        return pattern

    def _parse_entity_pattern(self) -> ast.EntityPattern:
        type_token = self._peek()
        if type_token.keyword not in ENTITY_TYPES:
            raise self._error("expected an entity type (proc, file, ip)",
                              type_token)
        self._advance()
        var_token = self._expect(TokenType.IDENT, "an entity variable")
        constraints: tuple[ast.Constraint, ...] = ()
        if self._peek().type is TokenType.LBRACKET:
            constraints = self._parse_bracket_constraints(type_token.keyword)
        entity = ast.EntityPattern(entity_type=type_token.keyword,
                                   variable=var_token.text,
                                   constraints=constraints)
        self._note(entity, var_token)
        return entity

    def _parse_bracket_constraints(
            self, entity_type: str) -> tuple[ast.Constraint, ...]:
        self._expect(TokenType.LBRACKET, "'['")
        constraints: list[ast.Constraint] = []
        while True:
            constraints.append(self._parse_one_constraint(entity_type))
            if self._match(TokenType.COMMA):
                continue
            break
        self._expect(TokenType.RBRACKET, "']'")
        return tuple(constraints)

    def _parse_one_constraint(self, entity_type: str) -> ast.Constraint:
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            constraint = _desugar_constraint(None, "=", token.text)
            self._note(constraint, token)
            return constraint
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            name = self._advance()
            attribute = name.text.lower()
            if attribute != "agentid":
                try:
                    attribute = canonical_attribute(entity_type, attribute)
                except Exception as exc:
                    raise self._error(str(exc), name) from None
            if self._at_keyword("like"):
                self._advance()
                value = self._expect(TokenType.STRING, "a pattern string")
                constraint = ast.Constraint(attribute, "like", value.text)
                self._note(constraint, name, value)
                return constraint
            if self._at_keyword("in"):
                self._advance()
                values = self._parse_literal_list()
                constraint = ast.Constraint(attribute, "in", values)
                self._note(constraint, name, self._prev())
                return constraint
            op_token = self._peek()
            if op_token.type not in COMPARISON_TOKENS:
                raise self._error("expected a comparison operator", op_token)
            self._advance()
            value = self._parse_literal()
            constraint = _desugar_constraint(attribute,
                                             _CMP_TEXT[op_token.type], value)
            self._note(constraint, name, self._prev())
            return constraint
        raise self._error("expected a constraint (string or attr = value)",
                          token)

    def _parse_literal(self) -> object:
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.text
        if token.type is TokenType.NUMBER:
            self._advance()
            return token.value
        if token.type is TokenType.MINUS:
            self._advance()
            number = self._expect(TokenType.NUMBER, "a number")
            return -number.value  # type: ignore[operator]
        if token.type is TokenType.IDENT:
            # Bare-word values (e.g. protocol = tcp) read as strings.
            self._advance()
            return token.text
        raise self._error("expected a literal value", token)

    def _parse_literal_list(self) -> tuple:
        self._expect(TokenType.LPAREN, "'('")
        values = [self._parse_literal()]
        while self._match(TokenType.COMMA):
            values.append(self._parse_literal())
        self._expect(TokenType.RPAREN, "')'")
        return tuple(values)

    def _parse_operations(self) -> tuple[tuple[str, ...], list[Token]]:
        first = self._expect(TokenType.IDENT, "an operation (read, write, "
                             "start, ...)")
        tokens = [first]
        while self._match(TokenType.OROR):
            tokens.append(self._expect(TokenType.IDENT,
                                       "an operation after '||'"))
        return tuple(token.text.lower() for token in tokens), tokens

    def _parse_with_clause(
            self, patterns: tuple[ast.EventPattern, ...],
    ) -> tuple[tuple[ast.TemporalRelation, ...],
               tuple[ast.AttributeRelation, ...]]:
        """``with`` clause: temporal relations and attribute relations.

        ``evt1 before evt2`` is temporal; ``p1.user = p2.user`` (left side
        has a dot, or the operator is a comparison) is an attribute
        relation between two variables.
        """
        if not self._at_keyword("with"):
            return (), ()
        self._advance()
        event_vars = {p.event_var for p in patterns}
        entity_vars = set()
        for pattern in patterns:
            entity_vars.add(pattern.subject.variable)
            entity_vars.add(pattern.object.variable)
        temporal: list[ast.TemporalRelation] = []
        relations: list[ast.AttributeRelation] = []
        while True:
            if (self._peek(1).type is TokenType.DOT
                    or self._peek(1).type in COMPARISON_TOKENS):
                relations.append(self._parse_attribute_relation(
                    event_vars | entity_vars))
            else:
                temporal.append(self._parse_temporal_relation(event_vars))
            if not self._match(TokenType.COMMA):
                break
        return tuple(temporal), tuple(relations)

    def _parse_temporal_relation(
            self, known: set[str]) -> ast.TemporalRelation:
        left = self._expect(TokenType.IDENT, "an event variable")
        rel_token = self._peek()
        if rel_token.keyword not in ("before", "after"):
            raise self._error("expected 'before' or 'after'", rel_token)
        self._advance()
        right = self._expect(TokenType.IDENT, "an event variable")
        for token in (left, right):
            if token.text not in known:
                raise self._error(
                    f"unknown event variable {token.text!r}", token)
        within = None
        if self._at_keyword("within"):
            self._advance()
            within = self._parse_duration()
        relation = ast.TemporalRelation(left.text, rel_token.keyword,
                                        right.text, within)
        self._note(relation, left, self._prev())
        return relation

    def _parse_attribute_relation(
            self, known: set[str]) -> ast.AttributeRelation:
        left_token = self._peek()
        left = self._parse_var_ref()
        op_token = self._peek()
        if op_token.type not in COMPARISON_TOKENS:
            raise self._error("expected a comparison operator", op_token)
        self._advance()
        right_token = self._peek()
        right = self._parse_var_ref()
        for ref, token in ((left, left_token), (right, right_token)):
            if ref.variable not in known:
                raise self._error(
                    f"unknown variable {ref.variable!r}", token)
        return ast.AttributeRelation(left, _CMP_TEXT[op_token.type], right)

    def _parse_duration(self) -> float:
        number = self._expect(TokenType.NUMBER, "a number")
        unit = self._peek()
        if unit.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self._error("expected a time unit (sec, min, hour, day)",
                              unit)
        self._advance()
        try:
            return parse_duration(f"{number.text} {unit.text}")
        except Exception as exc:
            raise self._error(str(exc), unit) from None

    # ------------------------------------------------------------------
    # Return clause (shared)
    # ------------------------------------------------------------------
    def _parse_return_clause(self) -> tuple[
            bool, tuple[ast.ReturnItem, ...], tuple[ast.SortKey, ...],
            int | None]:
        self._expect_keyword("return")
        distinct = False
        if self._at_keyword("distinct"):
            self._advance()
            distinct = True
        items = [self._parse_return_item()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_return_item())
        sort_by: list[ast.SortKey] = []
        if self._at_keyword("sort"):
            self._advance()
            self._expect_keyword("by")
            while True:
                ref = self._parse_var_ref()
                descending = False
                if self._at_keyword("desc"):
                    self._advance()
                    descending = True
                elif self._at_keyword("asc"):
                    self._advance()
                sort_by.append(ast.SortKey(ref, descending))
                if not self._match(TokenType.COMMA):
                    break
        top: int | None = None
        if self._at_keyword("top"):
            self._advance()
            number = self._expect(TokenType.NUMBER, "a row count")
            if not isinstance(number.value, int) or number.value <= 0:
                raise self._error("top expects a positive integer", number)
            top = number.value
        return distinct, tuple(items), tuple(sort_by), top

    def _parse_return_item(self) -> ast.ReturnItem:
        expr = self._parse_projection_expr()
        alias = None
        if self._at_keyword("as"):
            self._advance()
            alias = self._expect(TokenType.IDENT, "an alias").text
        return ast.ReturnItem(expr=expr, alias=alias)

    def _parse_projection_expr(self) -> ast.Expr:
        token = self._peek()
        if (token.type is TokenType.IDENT
                and token.text.lower() in _AGGREGATE_FUNCS
                and self._peek(1).type is TokenType.LPAREN):
            return self._parse_aggregate()
        return self._parse_var_ref()

    def _parse_aggregate(self) -> ast.AggCall:
        func_token = self._advance()
        self._expect(TokenType.LPAREN, "'('")
        if self._peek().type is TokenType.STAR:
            self._advance()
            arg: ast.VarRef | None = None
        else:
            arg = self._parse_var_ref()
        close = self._expect(TokenType.RPAREN, "')'")
        call = ast.AggCall(func=func_token.text.lower(), arg=arg)
        self._note(call, func_token, close)
        return call

    def _parse_var_ref(self) -> ast.VarRef:
        name = self._expect(TokenType.IDENT, "a variable")
        attribute = None
        end = name
        if self._match(TokenType.DOT):
            attr_token = self._peek()
            if attr_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise self._error("expected an attribute name", attr_token)
            self._advance()
            attribute = attr_token.text.lower()
            end = attr_token
        ref = ast.VarRef(variable=name.text, attribute=attribute)
        self._note(ref, name, end)
        return ref

    # ------------------------------------------------------------------
    # Dependency
    # ------------------------------------------------------------------
    def _parse_dependency(self, header: ast.QueryHeader) -> ast.DependencyQuery:
        direction = self._advance().keyword or ""
        self._expect(TokenType.COLON, "':' after the tracking direction")
        nodes = [self._parse_entity_pattern()]
        edges: list[ast.DependencyEdge] = []
        while self._peek().type in (TokenType.ARROW_RIGHT,
                                    TokenType.ARROW_LEFT):
            arrow = self._advance()
            self._expect(TokenType.LBRACKET, "'[' after the arrow")
            operations, op_tokens = self._parse_operations()
            self._expect(TokenType.RBRACKET, "']' after the operation")
            side = ("left" if arrow.type is TokenType.ARROW_RIGHT
                    else "right")
            edge = ast.DependencyEdge(operations=operations,
                                      subject_side=side)
            self._note(edge, arrow)
            if self._spans is not None:
                self._spans.note_operations(edge, op_tokens)
            edges.append(edge)
            nodes.append(self._parse_entity_pattern())
        if not edges:
            raise self._error("a dependency path needs at least one edge")
        distinct, items, sort_by, top = self._parse_return_clause()
        query = ast.DependencyQuery(header=header, direction=direction,
                                    nodes=tuple(nodes), edges=tuple(edges),
                                    return_items=items, distinct=distinct,
                                    sort_by=sort_by, top=top)
        if self._check:
            _check_dependency(query, self)
        return query

    # ------------------------------------------------------------------
    # Anomaly
    # ------------------------------------------------------------------
    def _parse_anomaly(self, header: ast.QueryHeader) -> ast.AnomalyQuery:
        self._expect_keyword("window")
        self._expect(TokenType.EQ, "'='")
        width = self._parse_duration()
        self._expect(TokenType.COMMA, "','")
        self._expect_keyword("step")
        self._expect(TokenType.EQ, "'='")
        step = self._parse_duration()
        patterns = self._parse_patterns()
        distinct, items, sort_by, top = self._parse_return_clause()
        if sort_by or top is not None:
            raise SemanticError(
                "sort by / top are not supported in anomaly queries "
                "(results are already window-ordered)")
        group_by: tuple[ast.VarRef, ...] = ()
        if self._at_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            refs = [self._parse_var_ref()]
            while self._match(TokenType.COMMA):
                refs.append(self._parse_var_ref())
            group_by = tuple(refs)
        having: ast.Expr | None = None
        if self._at_keyword("having"):
            self._advance()
            having = self._parse_having_expr()
        query = ast.AnomalyQuery(
            header=header,
            window_spec=ast.SlidingWindowSpec(width=width, step=step),
            patterns=patterns, return_items=items, group_by=group_by,
            having=having)
        if self._check:
            _check_anomaly(query, self)
        return query

    # Having expressions: or -> and -> not -> comparison -> additive ->
    # multiplicative -> unary -> primary.
    def _parse_having_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at_keyword("or"):
            self._advance()
            left = ast.BinOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._at_keyword("and"):
            self._advance()
            left = ast.BinOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._at_keyword("not"):
            self._advance()
            return ast.NotOp(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.type in COMPARISON_TOKENS:
            self._advance()
            right = self._parse_additive()
            return ast.BinOp(_CMP_TEXT[token.type], left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().type in (TokenType.PLUS, TokenType.MINUS):
            op = "+" if self._advance().type is TokenType.PLUS else "-"
            left = ast.BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().type in (TokenType.STAR, TokenType.SLASH,
                                    TokenType.PERCENT):
            token = self._advance()
            op = {"*": "*", "/": "/", "%": "%"}[token.text]
            left = ast.BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._peek().type is TokenType.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.BinOp("-", ast.Literal(0), operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._parse_having_expr()
            self._expect(TokenType.RPAREN, "')'")
            return inner
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.text)
        if token.type is TokenType.IDENT:
            # alias[k] history access, aggregate call, or variable ref.
            if (token.text.lower() in _AGGREGATE_FUNCS
                    and self._peek(1).type is TokenType.LPAREN):
                return self._parse_aggregate()
            if self._peek(1).type is TokenType.LBRACKET:
                name_token = self._advance()
                self._advance()  # '['
                offset = self._expect(TokenType.NUMBER, "a window offset")
                if not isinstance(offset.value, int) or offset.value < 0:
                    raise self._error("history offsets must be non-negative "
                                      "integers", offset)
                close = self._expect(TokenType.RBRACKET, "']'")
                ref = ast.HistoryRef(alias=name_token.text,
                                     offset=offset.value)
                self._note(ref, name_token, close)
                return ref
            return self._parse_var_ref()
        raise self._error("expected an expression", token)


# ---------------------------------------------------------------------------
# Desugaring and semantic checks
# ---------------------------------------------------------------------------

def _desugar_constraint(attribute: str | None, op: str,
                        value: object) -> ast.Constraint:
    """Turn ``= "pattern-with-wildcards"`` into ``like``."""
    if (op == "=" and isinstance(value, str)
            and ("%" in value or "_" in value)):
        return ast.Constraint(attribute, "like", value)
    return ast.Constraint(attribute, op, value)


def _intersect_windows(a: Window, b: Window, parser: Parser,
                       token: Token) -> Window:
    merged = a.intersect(b)
    if merged is None:
        raise parser._error("time windows do not overlap", token)
    return merged


def _entity_types_by_var(
        patterns: tuple[ast.EventPattern, ...]) -> dict[str, str]:
    types: dict[str, str] = {}
    for pattern in patterns:
        for entity in (pattern.subject, pattern.object):
            seen = types.get(entity.variable)
            if seen is None:
                types[entity.variable] = entity.entity_type
            elif seen != entity.entity_type:
                raise SemanticError(
                    f"variable {entity.variable!r} used as both {seen} "
                    f"and {entity.entity_type}")
    return types


def _check_return_vars(items: tuple[ast.ReturnItem, ...],
                       entity_vars: dict[str, str],
                       event_vars: set[str]) -> None:
    for item in items:
        for node in ast.walk_expr(item.expr):
            if isinstance(node, ast.VarRef):
                if (node.variable not in entity_vars
                        and node.variable not in event_vars):
                    raise SemanticError(
                        f"return clause references unknown variable "
                        f"{node.variable!r}")


def _check_multievent(query: ast.MultieventQuery, parser: Parser) -> None:
    event_vars: set[str] = set()
    for pattern in query.patterns:
        if pattern.event_var in event_vars:
            raise SemanticError(
                f"duplicate event variable {pattern.event_var!r}")
        event_vars.add(pattern.event_var)
    entity_vars = _entity_types_by_var(query.patterns)
    overlap = event_vars & set(entity_vars)
    if overlap:
        raise SemanticError(
            f"names used for both events and entities: {sorted(overlap)}")
    _check_return_vars(query.return_items, entity_vars, event_vars)
    for item in query.return_items:
        if ast.expr_aggregates(item.expr):
            raise SemanticError(
                "aggregates are only allowed in anomaly queries "
                "(add 'window = ..., step = ...')")
    for key in query.sort_by:
        if (key.expr.variable not in entity_vars
                and key.expr.variable not in event_vars):
            raise SemanticError(
                f"sort by references unknown variable "
                f"{key.expr.variable!r}")


def _check_dependency(query: ast.DependencyQuery, parser: Parser) -> None:
    entity_vars: dict[str, str] = {}
    for node in query.nodes:
        seen = entity_vars.get(node.variable)
        if seen is not None and seen != node.entity_type:
            raise SemanticError(
                f"variable {node.variable!r} used as both {seen} and "
                f"{node.entity_type}")
        entity_vars[node.variable] = node.entity_type
    _check_return_vars(query.return_items, entity_vars, set())
    for key in query.sort_by:
        if key.expr.variable not in entity_vars:
            raise SemanticError(
                f"sort by references unknown variable "
                f"{key.expr.variable!r}")
    for edge, position in zip(query.edges, range(len(query.edges))):
        subject = (query.nodes[position] if edge.subject_side == "left"
                   else query.nodes[position + 1])
        if subject.entity_type != "proc":
            raise SemanticError(
                f"edge {position + 1}: event subjects must be processes, "
                f"but the arrow makes {subject.variable!r} "
                f"({subject.entity_type}) the subject")


def _check_anomaly(query: ast.AnomalyQuery, parser: Parser) -> None:
    entity_vars = _entity_types_by_var(query.patterns)
    event_vars = {p.event_var for p in query.patterns}
    _check_return_vars(query.return_items, entity_vars, event_vars)
    aliases = {item.alias for item in query.return_items
               if item.alias is not None}
    for ref in query.group_by:
        if ref.variable not in entity_vars and ref.variable not in event_vars:
            raise SemanticError(
                f"group by references unknown variable {ref.variable!r}")
    if query.having is not None:
        for node in ast.walk_expr(query.having):
            if isinstance(node, ast.HistoryRef) and node.alias not in aliases:
                raise SemanticError(
                    f"having references unknown aggregate alias "
                    f"{node.alias!r}")
            if (isinstance(node, ast.VarRef) and node.attribute is None
                    and node.variable not in aliases
                    and node.variable not in entity_vars
                    and node.variable not in event_vars):
                raise SemanticError(
                    f"having references unknown name {node.variable!r}")
    has_aggregate = any(
        ast.expr_aggregates(item.expr) for item in query.return_items)
    if not has_aggregate:
        raise SemanticError(
            "anomaly queries must aggregate at least one value "
            "(e.g. avg(evt.amount))")


def parse(source: str) -> ast.Query:
    """Parse AIQL source into a typed query AST."""
    return Parser(source).parse()


def parse_with_spans(source: str,
                     check: bool = True) -> tuple[ast.Query, SourceMap]:
    """Parse AIQL source and record each AST node's source span.

    Returns the query plus a :class:`~repro.lang.spans.SourceMap` the
    semantic analyzer uses to anchor diagnostics at the offending token
    range.  ``check=False`` skips the legacy span-less semantic checks so
    the analyzer (which re-runs a superset of them, with spans) owns
    every semantic diagnostic — the ``repro lint`` path.
    """
    spans = SourceMap(source)
    query = Parser(source, spans=spans, check=check).parse()
    return query, spans
