"""Reference tokenizer: the original character-walking AIQL lexer.

Kept verbatim as the specification :func:`repro.lang.lexer.tokenize` is
checked against (``tests/test_lexer.py``); nothing under ``src/`` imports
it.  Its tokens are the original frozen dataclass, without the ``width``
and ``keyword`` fields the production token carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.errors import AiqlSyntaxError
from repro.lang.tokens import KEYWORDS, TokenType


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position (1-based line/col)."""

    type: TokenType
    text: str
    line: int
    col: int
    value: object = None


_ASCII_DIGITS = frozenset("0123456789")


def _is_ascii_digit(ch: str) -> bool:
    """True for '0'..'9' only — not '' (EOF) and not unicode digits."""
    return ch in _ASCII_DIGITS


_SINGLE_CHAR = {
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


class Lexer:
    """Streaming tokenizer with 1-based line/column tracking."""

    def __init__(self, source: str) -> None:
        self.source = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def _error(self, message: str) -> AiqlSyntaxError:
        return AiqlSyntaxError(message, self.source, self._line, self._col)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self.source):
                return
            if self.source[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def tokens(self) -> list[Token]:
        """Tokenize the whole source; always ends with an EOF token."""
        out: list[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.type is TokenType.EOF:
                return out

    def _skip_trivia(self) -> None:
        while self._pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, col = self._line, self._col
        ch = self._peek()
        if not ch:
            return Token(TokenType.EOF, "", line, col)
        if ch == '"':
            return self._string(line, col)
        # ASCII-only digit test: unicode "digits" like '²' satisfy
        # str.isdigit() but are not valid number literals.
        if _is_ascii_digit(ch):
            return self._number(line, col)
        if ch.isalpha() or ch == "_":
            return self._word(line, col)
        return self._operator(line, col)

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise AiqlSyntaxError("unterminated string literal",
                                      self.source, line, col)
            if ch == '"':
                self._advance()
                break
            if ch == "\\" and self._peek(1) in ('"', "\\"):
                chars.append(self._peek(1))
                self._advance(2)
                continue
            chars.append(ch)
            self._advance()
        text = "".join(chars)
        return Token(TokenType.STRING, text, line, col, value=text)

    def _number(self, line: int, col: int) -> Token:
        start = self._pos
        while _is_ascii_digit(self._peek()):
            self._advance()
        is_float = False
        if self._peek() == "." and _is_ascii_digit(self._peek(1)):
            is_float = True
            self._advance()
            while _is_ascii_digit(self._peek()):
                self._advance()
        text = self.source[start:self._pos]
        value: object = float(text) if is_float else int(text)
        return Token(TokenType.NUMBER, text, line, col, value=value)

    def _word(self, line: int, col: int) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start:self._pos]
        kind = (TokenType.KEYWORD if text.lower() in KEYWORDS
                else TokenType.IDENT)
        return Token(kind, text, line, col)

    def _operator(self, line: int, col: int) -> Token:
        ch = self._peek()
        nxt = self._peek(1)
        if ch == "|" and nxt == "|":
            self._advance(2)
            return Token(TokenType.OROR, "||", line, col)
        if ch == "|":
            raise self._error("single '|' — did you mean '||'?")
        if ch == "-" and nxt == ">":
            self._advance(2)
            return Token(TokenType.ARROW_RIGHT, "->", line, col)
        if ch == "-":
            self._advance()
            return Token(TokenType.MINUS, "-", line, col)
        if ch == "<":
            # '<-' is a dependency edge only when a '[' follows; otherwise
            # it is a comparison against a negative number (a < -1).
            if nxt == "-" and self._peek(2) == "[":
                self._advance(2)
                return Token(TokenType.ARROW_LEFT, "<-", line, col)
            if nxt == "=":
                self._advance(2)
                return Token(TokenType.LE, "<=", line, col)
            self._advance()
            return Token(TokenType.LT, "<", line, col)
        if ch == ">":
            if nxt == "=":
                self._advance(2)
                return Token(TokenType.GE, ">=", line, col)
            self._advance()
            return Token(TokenType.GT, ">", line, col)
        if ch == "!" and nxt == "=":
            self._advance(2)
            return Token(TokenType.NEQ, "!=", line, col)
        if ch in _SINGLE_CHAR:
            self._advance()
            return Token(_SINGLE_CHAR[ch], ch, line, col)
        raise self._error(f"unexpected character {ch!r}")


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize with the reference lexer."""
    return Lexer(source).tokens()
