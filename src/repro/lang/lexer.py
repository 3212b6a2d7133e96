"""Lexer for the MiniJava-like language: one compiled token pattern.

Supports ``//`` line comments and ``/* ... */`` block comments.
"""

import re

from repro.lang.errors import LexError

KEYWORDS = {
    "class",
    "field",
    "method",
    "func",
    "global",
    "int",
    "float",
    "bool",
    "void",
    "if",
    "else",
    "while",
    "for",
    "return",
    "print",
    "break",
    "continue",
    "true",
    "false",
    "new",
}

#: whitespace and comments; stops before an unterminated ``/*``
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)

#: one token, by group: 1 a word, 2 a number, 3 an operator.  ASCII only
#: (``[0-9]``, not ``\d``, which accepts digits ``int()`` rejects), and
#: multi-character operators before their prefixes.  ``/`` never matches
#: before ``*``: there the trivia stopped at an unterminated comment.
_TOKEN = re.compile(
    r"""
    ([A-Za-z_][A-Za-z0-9_]*)
    | ((?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (&&|\|\||[=!<>]=|[<>+\-*%!=(){}\[\],;.]|/(?!\*))
    """,
    re.VERBOSE,
)


class TokenKind:
    IDENT = "IDENT"
    INT = "INT"
    FLOAT = "FLOAT"
    KEYWORD = "KEYWORD"
    OP = "OP"
    EOF = "EOF"


class Token:
    """A single lexed token with its source position."""

    __slots__ = ("kind", "text", "value", "line", "col")

    def __init__(self, kind, text, value, line, col):
        self.kind = kind
        self.text = text
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.text, self.line, self.col)

    def is_op(self, text):
        return self.kind == TokenKind.OP and self.text == text

    def is_keyword(self, text):
        return self.kind == TokenKind.KEYWORD and self.text == text


def tokenize(source):
    """Tokenize ``source`` into a list ending with an EOF token.

    Tokens never span a newline, so line and column follow from the
    newlines in the trivia before each token."""
    out = []
    append = out.append
    skip = _TRIVIA.match
    scan = _TOKEN.match
    pos, line, line_start = 0, 1, 0
    while True:
        end = skip(source, pos).end()
        if end != pos:
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            pos = end
        col = pos - line_start + 1
        m = scan(source, pos)
        if m is None:
            if pos == len(source):
                append(Token(TokenKind.EOF, "", None, line, col))
                return out
            if source.startswith("/*", pos):
                raise LexError("unterminated block comment", line, col)
            raise LexError("unexpected character %r" % source[pos], line, col)
        text = m.group()
        group = m.lastindex
        if group == 1:
            if text in KEYWORDS:
                append(Token(TokenKind.KEYWORD, text, None, line, col))
            else:
                append(Token(TokenKind.IDENT, text, text, line, col))
        elif group == 3:
            append(Token(TokenKind.OP, text, None, line, col))
        elif not text.isdigit():
            append(Token(TokenKind.FLOAT, text, float(text), line, col))
        else:
            try:
                value = int(text)
            except ValueError:  # past the interpreter's int-string limit
                raise LexError("integer literal too long (%d digits)" % len(text),
                               line, col) from None
            append(Token(TokenKind.INT, text, value, line, col))
        pos = m.end()
