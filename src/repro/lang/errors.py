"""Syntax error reporting with caret diagnostics.

The architecture diagram (Figure 1) shows an *Error Reporting* component in
the language parser; the web UI exposes it as "syntax checking for query
debugging".  :class:`AiqlSyntaxError` carries the 1-based source position
and renders a caret diagnostic pointing at the offending token.
"""

from __future__ import annotations

from repro.errors import ParseError


class AiqlSyntaxError(ParseError):
    """A lexical or syntactic error with source position."""

    def __init__(self, message: str, source: str, line: int, col: int) -> None:
        self.reason = message
        self.source = source
        self.line = line
        self.col = col
        super().__init__(self.render())

    def render(self) -> str:
        """Multi-line diagnostic with a caret under the error column."""
        lines = self.source.split("\n")  # the lexer counts lines at "\n" only
        snippet = lines[self.line - 1] if 0 < self.line <= len(lines) else ""
        caret = " " * (self.col - 1) + "^"
        return (f"syntax error at line {self.line}, column {self.col}: "
                f"{self.reason}\n  {snippet}\n  {caret}")


def check_syntax(source: str) -> AiqlSyntaxError | None:
    """Parse-check a query; returns the error or None when valid.

    This is the web UI's syntax-checking endpoint.  Imported lazily to keep
    the module dependency graph acyclic.
    """
    from repro.lang.parser import parse

    try:
        parse(source)
    except AiqlSyntaxError as exc:
        return exc
    return None
