"""Recursive-descent parser for the MiniJava-like language."""

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import TokenKind, tokenize

#: binary operator -> precedence level; a higher level binds tighter, and
#: every level is left-associative
_BINARY_LEVEL = {
    "||": 0,
    "&&": 1,
    "==": 2, "!=": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}

#: the most blocks, parenthesised or bracketed expressions, argument
#: lists, unary operators and ``else if`` links that may enclose one token;
#: past it the parser raises ``ParseError("nesting too deep")`` instead of
#: exhausting the interpreter's stack here or in the passes after it
MAX_NESTING = 100

_SCALAR_TYPE_KEYWORDS = {"int", "float", "bool"}


class Parser:
    """Parses token streams into :mod:`repro.lang.ast` trees."""

    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    # -- token utilities ----------------------------------------------------

    def _peek(self):
        # the EOF token is last and _advance never moves past it
        return self.tokens[self.pos]

    def _lookahead(self, offset):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect_op(self, text):
        tok = self._peek()
        if not tok.is_op(text):
            raise ParseError("expected %r, found %r" % (text, tok.text), tok.line, tok.col)
        return self._advance()

    def _expect_keyword(self, text):
        tok = self._peek()
        if not tok.is_keyword(text):
            raise ParseError("expected %r, found %r" % (text, tok.text), tok.line, tok.col)
        return self._advance()

    def _expect_ident(self):
        tok = self._peek()
        if tok.kind != TokenKind.IDENT:
            raise ParseError("expected identifier, found %r" % tok.text, tok.line, tok.col)
        return self._advance()

    def _accept_op(self, text):
        if self._peek().is_op(text):
            self._advance()
            return True
        return False

    def _descend(self, opening):
        """Enter one nesting level opened by the token ``opening``; the
        caller leaves it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting too deep", opening.line, opening.col)

    # -- program structure --------------------------------------------------

    def parse_program(self):
        globals_, classes, functions = [], [], []
        while self._peek().kind != TokenKind.EOF:
            tok = self._peek()
            if tok.is_keyword("global"):
                globals_.append(self._parse_global())
            elif tok.is_keyword("class"):
                classes.append(self._parse_class())
            elif tok.is_keyword("func"):
                functions.append(self._parse_function("func", owner=None))
            else:
                raise ParseError(
                    "expected 'global', 'class' or 'func', found %r" % tok.text,
                    tok.line,
                    tok.col,
                )
        return ast.Program(globals_, classes, functions)

    def _parse_global(self):
        tok = self._expect_keyword("global")
        var_type = self._parse_type()
        name = self._expect_ident().text
        init = None
        if self._accept_op("="):
            init = self.parse_expr()
        self._expect_op(";")
        return ast.GlobalDecl(var_type, name, init).at(tok.line, tok.col)

    def _parse_class(self):
        tok = self._expect_keyword("class")
        name = self._expect_ident().text
        self._expect_op("{")
        fields, methods = [], []
        while not self._peek().is_op("}"):
            member = self._peek()
            if member.is_keyword("field"):
                self._advance()
                field_type = self._parse_type()
                field_name = self._expect_ident().text
                self._expect_op(";")
                fields.append(
                    ast.FieldDecl(field_type, field_name).at(member.line, member.col)
                )
            elif member.is_keyword("method"):
                methods.append(self._parse_function("method", owner=name))
            else:
                raise ParseError(
                    "expected 'field' or 'method', found %r" % member.text,
                    member.line,
                    member.col,
                )
        self._expect_op("}")
        return ast.ClassDecl(name, fields, methods).at(tok.line, tok.col)

    def _parse_function(self, keyword, owner):
        tok = self._expect_keyword(keyword)
        ret_type = None
        if self._peek().is_keyword("void"):
            self._advance()
        else:
            ret_type = self._parse_type()
        name = self._expect_ident().text
        self._expect_op("(")
        params = []
        if not self._peek().is_op(")"):
            while True:
                p_type = self._parse_type()
                p_tok = self._expect_ident()
                params.append(ast.Param(p_type, p_tok.text).at(p_tok.line, p_tok.col))
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        body = self._parse_block_body()
        return ast.Function(name, params, ret_type, body, owner=owner).at(tok.line, tok.col)

    def _parse_type(self):
        tok = self._peek()
        if tok.kind == TokenKind.KEYWORD and tok.text in _SCALAR_TYPE_KEYWORDS:
            self._advance()
            base = {
                "int": ast.IntType,
                "float": ast.FloatType,
                "bool": ast.BoolType,
            }[tok.text]()
        elif tok.kind == TokenKind.IDENT:
            self._advance()
            base = ast.ClassType(tok.text)
        else:
            raise ParseError("expected a type, found %r" % tok.text, tok.line, tok.col)
        base.at(tok.line, tok.col)
        if self._peek().is_op("[") and self._lookahead(1).is_op("]"):
            self._advance()
            self._advance()
            return ast.ArrayType(base).at(tok.line, tok.col)
        return base

    # -- statements ---------------------------------------------------------

    def _parse_block_body(self):
        self._descend(self._expect_op("{"))
        body = []
        while not self._peek().is_op("}"):
            body.append(self.parse_stmt())
        self._expect_op("}")
        self.depth -= 1
        return body

    def parse_stmt(self):
        tok = self._peek()
        if tok.kind == TokenKind.KEYWORD:
            if tok.text in _SCALAR_TYPE_KEYWORDS:
                stmt = self._parse_var_decl()
                self._expect_op(";")
                return stmt
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "for":
                return self._parse_for()
            if tok.text == "return":
                self._advance()
                value = None
                if not self._peek().is_op(";"):
                    value = self.parse_expr()
                self._expect_op(";")
                return ast.Return(value).at(tok.line, tok.col)
            if tok.text == "print":
                self._advance()
                self._expect_op("(")
                value = self.parse_expr()
                self._expect_op(")")
                self._expect_op(";")
                return ast.Print(value).at(tok.line, tok.col)
            if tok.text == "break":
                self._advance()
                self._expect_op(";")
                return ast.Break().at(tok.line, tok.col)
            if tok.text == "continue":
                self._advance()
                self._expect_op(";")
                return ast.Continue().at(tok.line, tok.col)
            raise ParseError("unexpected keyword %r" % tok.text, tok.line, tok.col)
        if tok.is_op("{"):
            body = self._parse_block_body()
            return ast.Block(body).at(tok.line, tok.col)
        if tok.kind == TokenKind.IDENT and self._looks_like_decl():
            stmt = self._parse_var_decl()
            self._expect_op(";")
            return stmt
        stmt = self._parse_assign_or_call()
        self._expect_op(";")
        return stmt

    def _looks_like_decl(self):
        """True when the upcoming IDENT starts a class-typed declaration."""
        if self._lookahead(1).kind == TokenKind.IDENT:
            return True  # Foo x
        return (
            self._lookahead(1).is_op("[")
            and self._lookahead(2).is_op("]")
            and self._lookahead(3).kind == TokenKind.IDENT
        )  # Foo[] x

    def _parse_var_decl(self):
        tok = self._peek()
        var_type = self._parse_type()
        name = self._expect_ident().text
        init = None
        if self._accept_op("="):
            init = self.parse_expr()
        return ast.VarDecl(var_type, name, init).at(tok.line, tok.col)

    def _parse_assign_or_call(self):
        tok = self._peek()
        expr = self.parse_expr()
        if self._accept_op("="):
            if not isinstance(expr, (ast.VarRef, ast.Index, ast.FieldAccess)):
                raise ParseError("invalid assignment target", tok.line, tok.col)
            value = self.parse_expr()
            return ast.Assign(expr, value).at(tok.line, tok.col)
        if not isinstance(expr, (ast.Call, ast.MethodCall)):
            raise ParseError("expression statement must be a call", tok.line, tok.col)
        return ast.CallStmt(expr).at(tok.line, tok.col)

    def _parse_if(self):
        tok = self._expect_keyword("if")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        then_body = self._parse_block_body()
        else_body = []
        if self._peek().is_keyword("else"):
            self._advance()
            if self._peek().is_keyword("if"):
                self._descend(self._peek())
                else_body = [self._parse_if()]
                self.depth -= 1
            else:
                else_body = self._parse_block_body()
        return ast.If(cond, then_body, else_body).at(tok.line, tok.col)

    def _parse_while(self):
        tok = self._expect_keyword("while")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        body = self._parse_block_body()
        return ast.While(cond, body).at(tok.line, tok.col)

    def _parse_for(self):
        tok = self._expect_keyword("for")
        self._expect_op("(")
        init = None
        if not self._peek().is_op(";"):
            init = self._parse_for_simple()
        self._expect_op(";")
        cond = None
        if not self._peek().is_op(";"):
            cond = self.parse_expr()
        self._expect_op(";")
        update = None
        if not self._peek().is_op(")"):
            update = self._parse_for_simple()
        self._expect_op(")")
        body = self._parse_block_body()
        return ast.For(init, cond, update, body).at(tok.line, tok.col)

    def _parse_for_simple(self):
        """A declaration or assignment without a trailing semicolon."""
        tok = self._peek()
        if tok.kind == TokenKind.KEYWORD and tok.text in _SCALAR_TYPE_KEYWORDS:
            return self._parse_var_decl()
        expr = self.parse_expr()
        self._expect_op("=")
        if not isinstance(expr, (ast.VarRef, ast.Index, ast.FieldAccess)):
            raise ParseError("invalid assignment target", tok.line, tok.col)
        value = self.parse_expr()
        return ast.Assign(expr, value).at(tok.line, tok.col)

    # -- expressions --------------------------------------------------------

    def parse_expr(self, min_level=0):
        """An expression whose top binary operators bind at ``min_level``
        or tighter: precedence climbing over ``_BINARY_LEVEL``."""
        left = self._parse_unary()
        while True:
            tok = self._peek()
            # only operator tokens have a binary operator's text
            level = _BINARY_LEVEL.get(tok.text)
            if level is None or level < min_level:
                return left
            self._advance()
            right = self.parse_expr(level + 1)
            left = ast.BinaryOp(tok.text, left, right).at(tok.line, tok.col)

    def _parse_nested_expr(self, opening):
        self._descend(opening)
        expr = self.parse_expr()
        self.depth -= 1
        return expr

    def _parse_unary(self):
        tok = self._peek()
        if tok.is_op("-") or tok.is_op("!"):
            self._advance()
            self._descend(tok)
            operand = self._parse_unary()
            self.depth -= 1
            return ast.UnaryOp(tok.text, operand).at(tok.line, tok.col)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_op("["):
                index = self._parse_nested_expr(self._advance())
                self._expect_op("]")
                expr = ast.Index(expr, index).at(tok.line, tok.col)
            elif tok.is_op("."):
                self._advance()
                name = self._expect_ident().text
                if self._peek().is_op("("):
                    args = self._parse_args()
                    expr = ast.MethodCall(expr, name, args).at(tok.line, tok.col)
                else:
                    expr = ast.FieldAccess(expr, name).at(tok.line, tok.col)
            else:
                return expr

    def _parse_args(self):
        self._descend(self._expect_op("("))
        args = []
        if not self._peek().is_op(")"):
            while True:
                args.append(self.parse_expr())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        self.depth -= 1
        return args

    def _parse_primary(self):
        tok = self._peek()
        if tok.kind == TokenKind.INT:
            self._advance()
            return ast.IntLit(tok.value).at(tok.line, tok.col)
        if tok.kind == TokenKind.FLOAT:
            self._advance()
            return ast.FloatLit(tok.value).at(tok.line, tok.col)
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self._advance()
            return ast.BoolLit(tok.text == "true").at(tok.line, tok.col)
        if tok.is_keyword("new"):
            self._advance()
            type_tok = self._peek()
            if type_tok.kind == TokenKind.KEYWORD and type_tok.text in _SCALAR_TYPE_KEYWORDS:
                elem = self._parse_scalar_type()
                size = self._parse_nested_expr(self._expect_op("["))
                self._expect_op("]")
                return ast.NewArray(elem, size).at(tok.line, tok.col)
            name = self._expect_ident().text
            if self._peek().is_op("["):
                size = self._parse_nested_expr(self._advance())
                self._expect_op("]")
                return ast.NewArray(ast.ClassType(name), size).at(tok.line, tok.col)
            self._expect_op("(")
            self._expect_op(")")
            return ast.NewObject(name).at(tok.line, tok.col)
        if tok.is_op("("):
            expr = self._parse_nested_expr(self._advance())
            self._expect_op(")")
            return expr
        if tok.kind == TokenKind.IDENT:
            self._advance()
            if self._peek().is_op("("):
                args = self._parse_args()
                return ast.Call(tok.text, args).at(tok.line, tok.col)
            return ast.VarRef(tok.text).at(tok.line, tok.col)
        raise ParseError("unexpected token %r" % tok.text, tok.line, tok.col)

    def _parse_scalar_type(self):
        tok = self._advance()
        return {
            "int": ast.IntType,
            "float": ast.FloatType,
            "bool": ast.BoolType,
        }[tok.text]().at(tok.line, tok.col)


def parse_program(source):
    """Parse a full program from source text."""
    parser = Parser(source)
    program = parser.parse_program()
    eof = parser._peek()
    if eof.kind != TokenKind.EOF:
        raise ParseError("trailing input %r" % eof.text, eof.line, eof.col)
    return program


def parse_expression(source):
    """Parse a single expression (testing/tooling convenience)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    eof = parser._peek()
    if eof.kind != TokenKind.EOF:
        raise ParseError("trailing input %r" % eof.text, eof.line, eof.col)
    return expr


def parse_statements(source):
    """Parse a bare statement list (used to deserialise hidden fragments)."""
    parser = Parser(source)
    body = []
    while parser._peek().kind != TokenKind.EOF:
        body.append(parser.parse_stmt())
    return body
