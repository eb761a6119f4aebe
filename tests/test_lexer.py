"""Tests for the AIQL tokenizer."""

import pytest
from hypothesis import given, settings, strategies as st

from lexer_reference import reference_tokenize
from repro.lang.errors import AiqlSyntaxError
from repro.lang.highlight import COMMENT, _spans, classify
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType


def types(source: str) -> list[TokenType]:
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


class TestBasics:
    def test_empty_source_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("proc p1 return RETURN myreturn")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[1].type is TokenType.IDENT
        assert tokens[2].type is TokenType.KEYWORD
        assert tokens[3].type is TokenType.KEYWORD  # case-insensitive
        assert tokens[4].type is TokenType.IDENT

    def test_comments_are_skipped(self):
        assert types("proc // comment to end\n p1") == [
            TokenType.KEYWORD, TokenType.IDENT]

    def test_positions_are_tracked(self):
        tokens = tokenize("proc\n  p1")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"%cmd.exe"')[0]
        assert token.type is TokenType.STRING
        assert token.value == "%cmd.exe"

    def test_escapes(self):
        token = tokenize(r'"a\"b\\c"')[0]
        assert token.value == 'a"b\\c'

    def test_unterminated_string_reports_position(self):
        with pytest.raises(AiqlSyntaxError) as excinfo:
            tokenize('proc p["oops')
        assert excinfo.value.line == 1

    def test_newline_inside_string_rejected(self):
        with pytest.raises(AiqlSyntaxError):
            tokenize('"a\nb"')


class TestNumbers:
    def test_integer_and_float(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == 42
        assert tokens[1].value == 3.14

    def test_dot_without_digits_is_separate(self):
        assert types("1.x") == [TokenType.NUMBER, TokenType.DOT,
                                TokenType.IDENT]


class TestOperators:
    def test_arrows(self):
        assert types("->[write]") == [
            TokenType.ARROW_RIGHT, TokenType.LBRACKET, TokenType.IDENT,
            TokenType.RBRACKET]
        assert types("<-[read]") == [
            TokenType.ARROW_LEFT, TokenType.LBRACKET, TokenType.IDENT,
            TokenType.RBRACKET]

    def test_left_arrow_only_before_bracket(self):
        # 'a < -1' is a comparison with a negative number, not an arrow.
        assert types("a < -1") == [TokenType.IDENT, TokenType.LT,
                                   TokenType.MINUS, TokenType.NUMBER]

    def test_comparisons(self):
        assert types("<= >= != = < >") == [
            TokenType.LE, TokenType.GE, TokenType.NEQ, TokenType.EQ,
            TokenType.LT, TokenType.GT]

    def test_alternation(self):
        assert types("read || write") == [
            TokenType.IDENT, TokenType.OROR, TokenType.IDENT]

    def test_single_pipe_rejected_with_hint(self):
        with pytest.raises(AiqlSyntaxError) as excinfo:
            tokenize("read | write")
        assert "||" in str(excinfo.value)

    def test_arithmetic(self):
        assert types("+ - * / %") == [
            TokenType.PLUS, TokenType.MINUS, TokenType.STAR,
            TokenType.SLASH, TokenType.PERCENT]

    def test_unknown_character(self):
        with pytest.raises(AiqlSyntaxError):
            tokenize("proc p1 @ x")


@given(st.text(alphabet=st.characters(
    whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_ "),
    max_size=30))
def test_words_and_numbers_never_crash(text):
    # Unicode "digits" ('٠', '²', ...) are rejected with a classified
    # syntax error rather than lexed as numbers; anything else lexes.
    try:
        tokens = tokenize(text)
    except AiqlSyntaxError:
        return
    assert tokens[-1].type is TokenType.EOF


@given(st.lists(st.sampled_from(
    ["proc", "p1", '"x%"', "42", "->", "[", "]", "(", ")", "=", "||",
     "with", "before", ",", "."]), max_size=25))
def test_token_stream_reconstructs_source(parts):
    source = " ".join(parts)
    tokens = tokenize(source)
    # Lexing is total over well-formed fragments and preserves order.
    rebuilt = [t.text for t in tokens[:-1]]
    assert "".join(rebuilt).replace(" ", "") == source.replace(" ", "").replace('"x%"', 'x%')


# ---------------------------------------------------------------------------
# The master-pattern tokenizer against the character-walking reference
# ---------------------------------------------------------------------------

def _outcome(lex, source: str):
    """Tokens field by field (value with its type), or the error."""
    try:
        tokens = lex(source)
    except AiqlSyntaxError as exc:
        return ("error", exc.reason, exc.line, exc.col)
    return [(t.type, t.text, t.line, t.col, t.value, type(t.value))
            for t in tokens]


def _assert_matches_reference(source: str) -> None:
    expected = _outcome(reference_tokenize, source)
    assert _outcome(tokenize, source) == expected
    if expected[0] == "error":
        return
    line_starts = [0]
    line_starts += [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for token in tokenize(source)[:-1]:
        start = line_starts[token.line - 1] + token.col - 1
        raw = source[start:start + token.width]
        if token.type is TokenType.STRING:
            assert raw[0] == raw[-1] == '"' and len(raw) >= 2
            assert reference_tokenize(raw)[0].value == token.value
        else:
            assert raw == token.text
        assert token.keyword == (token.text.lower()
                                 if token.type is TokenType.KEYWORD else None)


_PIECES = [
    # words, keywords in any case, numbers
    "proc", "PROC", "Return", "p1", "_x", "x2", "é", "ß", "x²", "²", "٠",
    "½", "42", "3.14", "1.", ".5", "007",
    # strings: escapes, a lone backslash, unterminated forms
    '"s"', '"%a b%"', '"a\\"b"', '"a\\\\"', '"\\q"', '"a\\"', '"\\', '"',
    "\\", '\\"',
    # trivia
    " ", "\t", "\r", "\n", "\r\n", "\f", "//c", "// c\n", "/", "\u2028",
    # operators, arrows with and without '['
    "<-[", "<-", "<", "-", ">", "->", "<=", ">=", "!=", "!", "|", "||",
    "=", "(", ")", "[", "]", ",", ".", ":", "+", "*", "%", "@",
]


@settings(max_examples=400)
@given(st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)),
                max_size=16).map("".join))
def test_tokenize_equals_reference(source):
    _assert_matches_reference(source)


@pytest.mark.parametrize("source", [
    "a | b", "|", "!", "a ! b", "@", "\f", "x\x0by", "²", "٠", "½", "a ½",
    "x²", "x½", "_٠", "a<-b", "a<-[b]", "a <- [b]", "<-", '"a\\"', '"a\\',
    '"a\nb"', 'x\n  "a\nb"', '"\\q\\"\\\\"', '"\\"', "1.x", "1.2.3",
    "// only\r\ncomment", "a // c  @", "\r\n\r\nproc", "", "\n", "a \n",
])
def test_tokenize_pinned_edges(source):
    _assert_matches_reference(source)


class TestExactnessContract:
    def test_unicode_numerics_cannot_start_a_word(self):
        for ch in "²٠½":
            with pytest.raises(AiqlSyntaxError) as excinfo:
                tokenize(f"a {ch}")
            assert (excinfo.value.reason, excinfo.value.col) == (
                f"unexpected character {ch!r}", 3)
        assert tokenize("x²")[0].type is TokenType.IDENT

    def test_backslash_quote_at_eof_is_unterminated(self):
        with pytest.raises(AiqlSyntaxError) as excinfo:
            tokenize('p "a\\"')
        assert (excinfo.value.reason, excinfo.value.line,
                excinfo.value.col) == ("unterminated string literal", 1, 3)

    def test_lone_backslash_is_literal(self):
        token = tokenize('"\\q"')[0]
        assert (token.value, token.width) == ("\\q", 4)

    def test_newline_in_string_reported_at_opening_quote(self):
        with pytest.raises(AiqlSyntaxError) as excinfo:
            tokenize('x\n  "a\nb"')
        assert (excinfo.value.line, excinfo.value.col) == (2, 3)

    def test_form_feed_is_not_whitespace(self):
        with pytest.raises(AiqlSyntaxError, match="unexpected character"):
            tokenize("proc\fp")

    def test_width_and_keyword_fields(self):
        proc, string, eof = tokenize('PROC "a\\"b"')
        assert (proc.keyword, proc.width) == ("proc", 4)
        assert (string.text, string.width, string.keyword) == ('a"b', 6, None)
        assert (eof.line, eof.col) == (1, 12)


#: Pieces that lex in any order: no stray quote or backslash, no lone
#: "|", "!" or "@", no character that is not whitespace or cannot start
#: a word.
_LEXABLE = [piece for piece in _PIECES
            if piece not in {'"a\\"', '"\\', '"', "\\", '\\"', "\f", "\u2028",
                             "²", "٠", "½", "!", "|", "@"}]


@given(st.lists(st.sampled_from(_LEXABLE), max_size=16).map("".join))
def test_highlight_spans_cover_the_source(source):
    tokens = tokenize(source)[:-1]
    spans = _spans(source)
    assert "".join(text for _, text in spans) == source
    assert [cls for cls, _ in spans if cls not in ("", COMMENT)] == [
        classify(token) for token in tokens]
