"""Source spans: where an AST node came from in the query text.

The parser's ASTs are frozen value objects with no position information —
two structurally equal ``VarRef("p", None)`` nodes from different queries
compare equal, so positions cannot live on the nodes without changing
their identity semantics (and every golden file built on them).  Instead
the parser records positions in a :class:`SourceMap` side table keyed on
node *identity*, populated only when a caller asks for spans
(:func:`repro.lang.parser.parse_with_spans`); the default :func:`parse`
path pays nothing.  The table keeps each node's first and last token and
builds a :class:`Span` only when one is asked for — that is, only when a
diagnostic is reported.

A :class:`Span` is a 1-based ``(line, col)`` plus the token range's
length on that line — exactly what the caret renderer in
:mod:`repro.lang.highlight` underlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lang.tokens import Token


@dataclass(frozen=True, slots=True)
class Span:
    """A contiguous range of source text on one line (1-based)."""

    line: int
    col: int
    length: int = 1

    def __str__(self) -> str:
        return f"line {self.line}, column {self.col}"


def _token_span(start: Token, end: Token | None = None) -> Span:
    """The span from ``start`` through ``end``.

    A range that ends on a later line is cut back to ``start`` alone:
    a span never crosses a line.
    """
    if end is None or end.line != start.line:
        end = start
    return Span(start.line, start.col,
                end.col - start.col + max(end.width, 1))


class SourceMap:
    """Identity-keyed side table of AST-node source spans.

    Every entry holds a strong reference to its node so ``id()`` keys
    stay unique for the map's lifetime (a recycled id after garbage
    collection would silently alias two nodes).
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self._ranges: dict[int, tuple[object, Token, Token | None]] = {}
        self._operations: dict[int, tuple[object, Sequence[Token]]] = {}

    def note(self, node: object, start: Token,
             end: Token | None = None) -> None:
        """Record ``node`` as spanning ``start`` through ``end``."""
        self._ranges.setdefault(id(node), (node, start, end))

    def span(self, node: object) -> Span | None:
        entry = self._ranges.get(id(node))
        return None if entry is None else _token_span(entry[1], entry[2])

    def note_operations(self, node: object,
                        tokens: Sequence[Token]) -> None:
        """Record the tokens of a pattern/edge's ``op1 || op2`` list."""
        self._operations.setdefault(id(node), (node, tokens))

    def operation_spans(self, node: object) -> tuple[Span, ...]:
        """Per-operation spans of a pattern/edge's ``op1 || op2`` list."""
        entry = self._operations.get(id(node))
        return () if entry is None else tuple(map(_token_span, entry[1]))
