"""Parser/lexer robustness: arbitrary input must either parse or raise a
*frontend* error — never crash with an unrelated exception, and never
exhaust the stack, however deep the nesting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import check_program, pretty
from repro.lang.ast import structurally_equal
from repro.lang.errors import LangError, ParseError
from repro.lang.lexer import tokenize
from repro.lang.parser import (
    MAX_NESTING,
    parse_expression,
    parse_program,
    parse_statements,
)


def _survives(fn, source):
    try:
        fn(source)
    except LangError:
        pass  # rejecting bad input with a diagnostic is correct
    # any other exception type propagates and fails the test


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_lexer_total_on_arbitrary_text(source):
    _survives(tokenize, source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_parser_total_on_arbitrary_text(source):
    _survives(parse_program, source)


# token soup: syntactically plausible junk is more likely to reach deep
# parser states than raw unicode
_tokens = st.sampled_from(
    [
        "func", "int", "float", "bool", "void", "if", "else", "while", "for",
        "return", "print", "break", "continue", "class", "field", "method",
        "global", "new", "true", "false", "x", "y", "f", "A", "3", "2.5",
        "+", "-", "*", "/", "%", "<", "<=", "==", "&&", "||", "!", "=",
        "(", ")", "{", "}", "[", "]", ",", ";", ".",
    ]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_tokens, max_size=30))
def test_parser_total_on_token_soup(tokens):
    _survives(parse_program, " ".join(tokens))


@settings(max_examples=300, deadline=None)
@given(st.lists(_tokens, max_size=20))
def test_expression_parser_total_on_token_soup(tokens):
    _survives(parse_expression, " ".join(tokens))


@settings(max_examples=200, deadline=None)
@given(st.lists(_tokens, max_size=20))
def test_statement_parser_total_on_token_soup(tokens):
    _survives(parse_statements, " ".join(tokens))


# -- nesting depth ------------------------------------------------------------

#: one program per nesting construct, ``n`` levels deep inside ``main``'s
#: body (itself one level), with the tokens that open its levels
_NESTED = {
    "paren": ("(", lambda n: "func int main() { return %s1%s; }" % ("(" * n, ")" * n)),
    "call": ("(", lambda n: "func int g(int x) { return x; } "
             "func int main() { return %s1%s; }" % ("g(" * n, ")" * n)),
    "index": ("[", lambda n: "func int main() { int[] a = new int[1]; "
              "return %s0%s; }" % ("a[" * n, "]" * n)),
    "neg": ("-", lambda n: "func int main() { return %s1; }" % ("- " * n)),
    "not": ("!", lambda n: "func bool main() { return %strue; }" % ("!" * n)),
    "block": ("{", lambda n: "func void main() { %s print(1); %s }" % ("{" * n, "}" * n)),
    "if": ("{", lambda n: "func void main() { %s print(1); %s }"
           % ("if (true) {" * n, "}" * n)),
    "while": ("{", lambda n: "func void main() { int i = 0; %s i = 1; %s }"
              % ("while (i < 1) {" * n, "}" * n)),
    # every ``else if`` link is one level; the last branch's block another
    "else-if": (("if", "{"), lambda n: "func void main() { int i = 0; if (i == 0) { print(0); }%s }"
                % "".join(" else if (i == %d) { print(%d); }" % (k, k) for k in range(1, n))),
}

#: depths at which the recursive-descent parser without a nesting limit
#: died with ``RecursionError`` (the first failing depth is in the comment)
_STACK_EXHAUSTING = {
    "paren": 120,  # 89
    "call": 120,  # 82
    "index": 120,  # 98
    "neg": 1000,  # 973
    "not": 1000,  # 973
    "block": 500,  # 487
    "if": 330,  # 325
    "while": 330,  # 325
    "else-if": 500,  # 492
}


def _text_at(source, line, col):
    return source.split("\n")[line - 1][col - 1:]


@pytest.mark.parametrize("construct", sorted(_NESTED))
def test_nesting_at_the_limit_parses_typechecks_and_pretty_prints(construct):
    _, make = _NESTED[construct]
    program = parse_program(make(MAX_NESTING - 1))
    assert structurally_equal(parse_program(pretty(program)), program)
    check_program(program)


@pytest.mark.parametrize("construct", sorted(_NESTED))
@pytest.mark.parametrize("depth", ["limit", "stack-exhausting"])
def test_nesting_past_the_limit_is_a_parse_error(construct, depth):
    opening, make = _NESTED[construct]
    source = make(MAX_NESTING if depth == "limit" else _STACK_EXHAUSTING[construct])
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert info.value.message == "nesting too deep"
    assert _text_at(source, info.value.line, info.value.col).startswith(opening)


def test_nesting_error_points_at_the_first_level_past_the_limit():
    source = _NESTED["paren"][1](120)
    with pytest.raises(ParseError) as info:
        parse_program(source)
    # main's body is level 1, so the MAX_NESTING-th parenthesis is one too many
    assert (info.value.line, info.value.col) == (1, source.index("(" * 120) + MAX_NESTING)


@pytest.mark.parametrize("parse", [parse_expression, parse_statements])
def test_nesting_limit_holds_for_every_entry_point(parse):
    with pytest.raises(ParseError, match="nesting too deep"):
        parse("(" * 1000 + "1" + ")" * 1000)
