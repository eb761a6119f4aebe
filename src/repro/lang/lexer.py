"""Tokenizer for AIQL: one compiled master pattern, one pass.

The paper builds the language with ANTLR 4; this reproduction tokenizes
with a single compiled regular expression.  Each match is one token: its
leading trivia (whitespace and ``//`` line comments), then the first of
these alternatives that matches — a double-quoted string, an ASCII
number, a word (identifier or case-insensitive keyword), an operator
(including the dependency-edge arrows ``->`` / ``<-`` and the operation
alternation ``||``), the end of the source, or any single character,
which is always an error.  :func:`tokenize` walks ``finditer`` once and
builds each token straight from its match; positions are 1-based and
computed from match offsets (lines count ``\\n`` only), and each token
records its raw source ``width`` so spans and highlighting never rescan
the text.

Exactness contract: for every input the tokens (type, text, line, col,
value including its ``int``/``float`` type) and every
:class:`AiqlSyntaxError` (message, line, col) equal those of the
original character-walking lexer, kept as ``tests/lexer_reference.py``
and checked by a property in ``tests/test_lexer.py``.  The cases that
shape the pattern:

* only ``' '``, ``\\t``, ``\\r`` and ``\\n`` are whitespace (``\\f`` is an
  unexpected character);
* a word starts with a letter or ``_`` and continues with any
  ``str.isalnum()`` character, so ``x²`` lexes but a Unicode digit or
  numeric (``²``, ``٠``, ``½``) cannot start one — ``\\w`` is exactly
  ``isalnum()`` plus ``_``, and the first character is checked in code;
* in a string, ``\\"`` and ``\\\\`` are escapes and any other backslash
  is literal; a backslash never matches alone before ``"`` or ``\\``, so
  ``"a\\"`` at end of input is unterminated rather than ``a\\``;
* an unterminated string (end of input or a newline first) is reported
  at its opening quote;
* ``<-`` is an arrow only before ``[`` (``a < -1`` compares);
* a lone ``|`` gets the ``||`` hint, a lone ``!`` is unexpected.
"""

from __future__ import annotations

import re

from repro.lang.errors import AiqlSyntaxError
from repro.lang.tokens import KEYWORDS, Token, TokenType

#: Whitespace and comments before a token; the highlighter uses it to
#: find where the next token starts.
TRIVIA = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*")

#: One match per token: its leading trivia, then exactly one of the
#: token groups (``end`` matches once, at the end of the source).
_TOKEN = re.compile(r"(?P<trivia>" + TRIVIA.pattern + r""")
    (?: (?P<string>"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*")
      | (?P<number>[0-9]+(?:\.[0-9]+)?)
      | (?P<word>\w+)
      | (?P<operator>\|\||->|<-(?=\[)|<=|>=|!=|[()\[\],.:+*/%=<>-])
      | (?P<end>\Z)
      | (?P<error>.) )
""", re.VERBOSE | re.DOTALL)

_ESCAPE = re.compile(r'\\(["\\])')

_OPERATORS = {
    "||": TokenType.OROR,
    "->": TokenType.ARROW_RIGHT,
    "<-": TokenType.ARROW_LEFT,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "!=": TokenType.NEQ,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "-": TokenType.MINUS,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    ":": TokenType.COLON,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "=": TokenType.EQ,
}


def tokenize(source: str) -> list[Token]:
    """Tokenize AIQL source text; the list always ends with an EOF token."""
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        trivia, text = match.group("trivia", kind)
        if "\n" in trivia:
            line += trivia.count("\n")
            line_start = match.start() + trivia.rfind("\n") + 1
        col = match.start(kind) - line_start + 1
        if kind == "word":
            head = text[0]
            if not (head.isalpha() or head == "_"):
                raise AiqlSyntaxError(f"unexpected character {head!r}",
                                      source, line, col)
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, text, line, col,
                                    None, len(text), lowered))
            else:
                tokens.append(Token(TokenType.IDENT, text, line, col,
                                    None, len(text)))
        elif kind == "operator":
            tokens.append(Token(_OPERATORS[text], text, line, col,
                                None, len(text)))
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
            tokens.append(Token(TokenType.STRING, value, line, col,
                                value, len(text)))
        elif kind == "number":
            tokens.append(Token(TokenType.NUMBER, text, line, col,
                                float(text) if "." in text else int(text),
                                len(text)))
        elif kind == "end":
            # finditer would also yield an empty match after trailing trivia
            tokens.append(Token(TokenType.EOF, "", line, col))
            break
        elif text == '"':
            raise AiqlSyntaxError("unterminated string literal",
                                  source, line, col)
        elif text == "|":
            raise AiqlSyntaxError("single '|' — did you mean '||'?",
                                  source, line, col)
        else:
            raise AiqlSyntaxError(f"unexpected character {text!r}",
                                  source, line, col)
    return tokens
