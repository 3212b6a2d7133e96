"""Lexer unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == TokenKind.EOF


def test_identifiers_and_keywords():
    toks = tokenize("while whilex _x x9")
    assert toks[0].kind == TokenKind.KEYWORD
    assert toks[1].kind == TokenKind.IDENT
    assert toks[1].text == "whilex"
    assert toks[2].text == "_x"
    assert toks[3].text == "x9"


def test_int_literal():
    tok = tokenize("12345")[0]
    assert tok.kind == TokenKind.INT
    assert tok.value == 12345


def test_float_literal():
    tok = tokenize("3.25")[0]
    assert tok.kind == TokenKind.FLOAT
    assert tok.value == 3.25


def test_float_exponent_forms():
    assert tokenize("1e3")[0].value == 1000.0
    assert tokenize("2.5e-2")[0].value == 0.025
    assert tokenize("1E+2")[0].value == 100.0


def test_dot_is_member_access_not_float():
    toks = tokenize("a.b")
    assert [t.kind for t in toks[:-1]] == [TokenKind.IDENT, TokenKind.OP, TokenKind.IDENT]


def test_integer_then_dot_method():
    # "1.foo" lexes as INT, '.', IDENT (no digit after the dot)
    toks = tokenize("1.x")
    assert toks[0].kind == TokenKind.INT
    assert toks[1].text == "."


def test_multi_char_operators():
    assert texts("a <= b >= c == d != e && f || g") == [
        "a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "&&", "f", "||", "g",
    ]


def test_single_char_operators():
    assert texts("+-*/%=!<>()[]{},;.") == list("+-*/%=!<>()[]{},;.")


def test_line_comment_skipped():
    assert texts("a // comment here\nb") == ["a", "b"]


def test_block_comment_skipped():
    assert texts("a /* multi\nline */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_positions_tracked():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_is_op_and_is_keyword_helpers():
    toks = tokenize("while (")
    assert toks[0].is_keyword("while")
    assert not toks[0].is_op("while")
    assert toks[1].is_op("(")


def test_keywords_complete():
    source = "class field method func global int float bool void if else " \
             "while for return print break continue true false new"
    assert all(t.kind == TokenKind.KEYWORD for t in tokenize(source)[:-1])


def test_over_long_integer_literal_is_a_lex_error():
    # int() refuses more than 4,300 digits; that is a diagnostic, not a crash
    with pytest.raises(LexError) as info:
        tokenize("x = \n  " + "9" * 5000 + ";")
    assert info.value.message == "integer literal too long (5000 digits)"
    assert (info.value.line, info.value.col) == (2, 3)


def test_long_float_literal_still_lexes():
    assert tokenize("9" * 5000 + ".5")[0].kind == TokenKind.FLOAT


# -- positions, checked against the source itself ------------------------------

#: pieces that stress the token boundaries: comment openers and closers,
#: numbers that stop half-way (``.5``, ``1e+``), digits and letters outside
#: ASCII, and a carriage return (a column, not a line break)
_PIECES = st.sampled_from([
    "/*", "*/", "//", "/", "*", ".5", ".", "1e+", "1e", "E-", "2.", "0", "42",
    "x", "_y", "while", "int", "(", ")", "{", "}", "[", "]", ";", ",",
    "=", "==", "!", "!=", "<", "<=", "&&", "||", "&", "|", "+", "-",
    " ", "\t", "\n", "\r", "\r\n", "٣", "²", "é", "ß", "#",
])


def _offset(source, line, col):
    """The index of 1-based ``(line, col)``; only ``\n`` ends a line."""
    lines = source.split("\n")
    return sum(len(text) + 1 for text in lines[: line - 1]) + col - 1


@settings(max_examples=1500, deadline=None)
@given(st.lists(_PIECES, max_size=25).map("".join))
def test_positions_point_into_the_source(source):
    try:
        toks = tokenize(source)
    except LexError as exc:
        at = _offset(source, exc.line, exc.col)
        if exc.message == "unterminated block comment":
            assert source.startswith("/*", at)
            assert "*/" not in source[at + 2:]
        else:
            assert exc.message == "unexpected character %r" % source[at]
        return
    for tok in toks[:-1]:
        at = _offset(source, tok.line, tok.col)
        assert source[at:at + len(tok.text)] == tok.text
        # a ``/`` token is a division, never half of a comment opener
        assert not (tok.text == "/" and source.startswith("/*", at))
    assert _offset(source, toks[-1].line, toks[-1].col) == len(source)
