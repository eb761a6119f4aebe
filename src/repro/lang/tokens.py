"""Token definitions for the AIQL language."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenType(Enum):
    IDENT = auto()
    KEYWORD = auto()
    STRING = auto()
    NUMBER = auto()

    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    COMMA = auto()
    DOT = auto()
    COLON = auto()

    EQ = auto()          # =
    NEQ = auto()         # !=
    LT = auto()          # <
    LE = auto()          # <=
    GT = auto()          # >
    GE = auto()          # >=
    PLUS = auto()        # +
    MINUS = auto()       # -
    STAR = auto()        # *
    SLASH = auto()       # /
    PERCENT = auto()     # % (modulo in having expressions)
    OROR = auto()        # || (operation alternation)
    ARROW_RIGHT = auto() # ->
    ARROW_LEFT = auto()  # <-

    EOF = auto()


# Reserved words, matched case-insensitively.  Entity types and clause
# introducers are keywords; aggregate function names stay plain identifiers
# and are resolved by the parser so new aggregates need no lexer change.
KEYWORDS = frozenset({
    "at", "from", "to", "as", "with", "before", "after", "within",
    "return", "distinct", "group", "by", "having", "window", "step",
    "forward", "backward", "and", "or", "not", "in", "like",
    "proc", "file", "ip",
    "sort", "top", "asc", "desc",
})

ENTITY_KEYWORDS = frozenset({"proc", "file", "ip"})

COMPARISON_TOKENS = frozenset({
    TokenType.EQ, TokenType.NEQ, TokenType.LT, TokenType.LE,
    TokenType.GT, TokenType.GE,
})


class Token(NamedTuple):
    """One lexical token with its source position (1-based line/col).

    ``width`` is the token's raw source length — a string's quotes and
    escapes included — and ``keyword`` the lower-cased text of a KEYWORD
    token (None for every other type).  Both are set by the lexer.
    """

    type: TokenType
    text: str
    line: int
    col: int
    value: object = None
    width: int = 0
    keyword: str | None = None

    def __str__(self) -> str:
        return f"{self.type.name}({self.text!r})@{self.line}:{self.col}"
