"""Syntax highlighting for AIQL queries (web UI feature, §3).

Two renderers share one token classification: ANSI escape codes for the CLI
REPL and ``<span class="...">`` markup for the web UI.  Both operate on the
raw source so whitespace and comments survive verbatim.
"""

from __future__ import annotations

import html

from repro.lang.lexer import TRIVIA, tokenize
from repro.lang.tokens import ENTITY_KEYWORDS, Token, TokenType

# Classification names shared by both renderers (and the web UI CSS).
KEYWORD = "kw"
ENTITY = "entity"
STRING = "str"
NUMBER = "num"
OPERATOR = "op"
IDENT = "ident"
COMMENT = "comment"

_ANSI = {
    KEYWORD: "\x1b[1;34m",   # bold blue
    ENTITY: "\x1b[1;35m",    # bold magenta
    STRING: "\x1b[32m",      # green
    NUMBER: "\x1b[36m",      # cyan
    OPERATOR: "\x1b[33m",    # yellow
    IDENT: "",
    COMMENT: "\x1b[90m",     # grey
}
_ANSI_RESET = "\x1b[0m"

_OPERATOR_TYPES = {
    TokenType.EQ, TokenType.NEQ, TokenType.LT, TokenType.LE, TokenType.GT,
    TokenType.GE, TokenType.PLUS, TokenType.MINUS, TokenType.STAR,
    TokenType.SLASH, TokenType.PERCENT, TokenType.OROR,
    TokenType.ARROW_RIGHT, TokenType.ARROW_LEFT,
}


def classify(token: Token) -> str:
    """Map a token to its highlight class."""
    if token.type is TokenType.KEYWORD:
        return ENTITY if token.keyword in ENTITY_KEYWORDS else KEYWORD
    if token.type is TokenType.STRING:
        return STRING
    if token.type is TokenType.NUMBER:
        return NUMBER
    if token.type in _OPERATOR_TYPES:
        return OPERATOR
    return IDENT


def _spans(source: str) -> list[tuple[str, str]]:
    """Split source into (class, text) spans, preserving all characters.

    Each token's raw text is the ``width`` characters after the trivia
    (whitespace and comments) that precede it; that trivia is emitted as
    COMMENT / untagged spans.  Source that does not lex (the highlighter
    also runs on *invalid* queries, e.g. in error payloads) degrades to
    one untagged span.
    """
    from repro.errors import ReproError

    try:
        tokens = tokenize(source)
    except ReproError:
        return [("", source)]
    spans: list[tuple[str, str]] = []
    cursor = 0
    for token in tokens[:-1]:  # all but EOF
        start = TRIVIA.match(source, cursor).end()
        if start > cursor:
            spans.extend(_classify_gap(source[cursor:start]))
        cursor = start + token.width
        spans.append((classify(token), source[start:cursor]))
    if cursor < len(source):
        spans.extend(_classify_gap(source[cursor:]))
    return spans


def _classify_gap(gap: str) -> list[tuple[str, str]]:
    """Split inter-token text into comments and plain whitespace."""
    spans: list[tuple[str, str]] = []
    rest = gap
    while rest:
        comment_at = rest.find("//")
        if comment_at == -1:
            spans.append(("", rest))
            break
        if comment_at > 0:
            spans.append(("", rest[:comment_at]))
        end = rest.find("\n", comment_at)
        if end == -1:
            spans.append((COMMENT, rest[comment_at:]))
            break
        spans.append((COMMENT, rest[comment_at:end]))
        rest = rest[end:]
    return spans


def render_span(source: str, line: int, col: int, length: int = 1) -> str:
    """Snippet + caret underline for a source range (1-based).

    The diagnostic rendering shared by the semantic analyzer and the
    ``repro lint`` command: the offending line, then ``^~~~`` underlining
    exactly the token range a diagnostic points at (the same caret
    convention :meth:`repro.lang.errors.AiqlSyntaxError.render` uses,
    extended to a range).
    """
    lines = source.split("\n")  # the lexer counts lines at "\n" only
    snippet = lines[line - 1] if 0 < line <= len(lines) else ""
    width = max(length, 1)
    if col <= len(snippet):
        width = min(width, len(snippet) - col + 1)
    underline = " " * (col - 1) + "^" + "~" * (width - 1)
    return f"  {snippet}\n  {underline}"


def highlight_ansi(source: str) -> str:
    """Colorize a query for terminal display."""
    out: list[str] = []
    for cls, text in _spans(source):
        color = _ANSI.get(cls, "")
        if color:
            out.append(f"{color}{text}{_ANSI_RESET}")
        else:
            out.append(text)
    return "".join(out)


def highlight_html(source: str) -> str:
    """Render a query as HTML spans (classes: kw, entity, str, num, op)."""
    out: list[str] = []
    for cls, text in _spans(source):
        escaped = html.escape(text)
        if cls:
            out.append(f'<span class="aiql-{cls}">{escaped}</span>')
        else:
            out.append(escaped)
    return "".join(out)
