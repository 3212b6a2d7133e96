"""Python-source code generation of function bodies and hidden fragments.

The ``codegen`` engine is the third execution tier (docs/ENGINE.md): it
lowers each open function body and each hidden fragment to *actual Python
source* compiled with :func:`compile`/``exec`` — locals become real Python
locals, loops become real ``while`` loops, step accounting is hoisted to a
local counter that is flushed back in a ``finally``, operators are inlined
(raw Python arithmetic where the static types prove it safe, guarded
fast-path helpers otherwise), and the hidden-store / channel-callback
machinery is bound as fast locals in the generated prologue.

Bit-identity contract: identical to the closure tier's — same outputs,
same ``steps``, same per-statement-kind metric counts, same channel
traffic, same error messages as the AST engine, pinned by
tests/test_engine_equivalence.py and the fuzz oracle's codegen cells.
The generated code therefore replicates the AST walkers' evaluation order
exactly, including which sub-expression runs before which check fires.

Anything the generator cannot lower (or that trips CPython's ``compile``
limits, e.g. pathological nesting depth) *deopts*: the function or
fragment silently falls back to the closure tier, counted in
``repro_codegen_deopt_total``.  Compilation is lazy and cached per
function/fragment like the closure tier; wall-clock cost lands in
``repro_engine_compile_seconds{engine="codegen"}``.
"""

import time

from repro import obs
# deopt events (function/fragment fell back to the closure tier), labelled
# ``side`` (open|hidden) and ``reason`` (the classified cause below)
from repro.obs.metrics import M_DEOPT  # noqa: F401 (re-exported)
from repro.lang import ast
from repro.obs import profile as _profile
from repro.lang.typecheck import BUILTIN_SIGNATURES
from repro.core.prefetch import resolve_prefetch
from repro.runtime.compile import (
    M_COMPILE_SECONDS,  # noqa: F401 (re-exported for tooling)
    CompiledFragment,
    OpenCompiler,
    _Break,
    _Continue,
    _FragmentCompiler,
    _MISSING,
    _Return,
    _hidden_truthy,
    _observe_compile,
    _open_truthy,
)
from repro.runtime.values import (
    BINARY_OPS,
    UNARY_OPS,
    ArrayValue,
    ObjectValue,
    RuntimeErr,
    StepLimitExceeded,
    binary_op,
    call_builtin,
    default_value,
    scalar_repr,
)

#: ``reason`` label values on :data:`M_DEOPT` (docs/OBSERVABILITY.md)
DEOPT_REFUSED = "refused"  # the generator deliberately declined a construct
DEOPT_COMPILE_LIMIT = "compile-limit"  # CPython's compile() limits tripped
DEOPT_INTERNAL = "internal-error"  # generator bug: unexpected exception

_INF = float("inf")

_op_add = BINARY_OPS["+"]
_op_sub = BINARY_OPS["-"]
_op_mul = BINARY_OPS["*"]
_op_lt = BINARY_OPS["<"]
_op_le = BINARY_OPS["<="]
_op_gt = BINARY_OPS[">"]
_op_ge = BINARY_OPS[">="]
_div = BINARY_OPS["/"]
_rem = BINARY_OPS["%"]
_op_neg = UNARY_OPS["-"]
_op_not = UNARY_OPS["!"]


class CodegenRefused(Exception):
    """Raised inside the generator to *deliberately* decline lowering a
    construct (vs. tripping a CPython compile limit or hitting a bug).
    Carries the reason code reported on the deopt counter and event."""

    def __init__(self, reason=DEOPT_REFUSED, message=""):
        super().__init__(message or reason)
        self.reason = reason


#: exceptions that mean "the generated source exceeded what compile()
#: accepts" — e.g. "too many statically nested blocks" (SyntaxError) on
#: pathological nesting depth
_COMPILE_LIMIT_ERRORS = (
    SyntaxError, RecursionError, MemoryError, OverflowError, SystemError,
)


def _classify_deopt(exc):
    """The ``reason`` code for one build failure."""
    if isinstance(exc, CodegenRefused):
        return exc.reason
    if isinstance(exc, _COMPILE_LIMIT_ERRORS):
        return DEOPT_COMPILE_LIMIT
    return DEOPT_INTERNAL


def _record_deopt(side, name, exc, line=None):
    """Attribute one fallback: reason-labelled counter bump plus a
    flight-recorder ``deopt`` event carrying the site identity."""
    reason = _classify_deopt(exc)
    sink = obs.get_sink()
    if sink is not None:
        sink.deopt(side, name, reason, "line %d" % line if line else "")
    return reason


# -- guarded operators ---------------------------------------------------------
# Used when the generator cannot prove operand types.  The fast path takes
# exact-``int`` operands (``bool.__class__`` is ``bool``, so booleans fall
# through to the checking implementations, which raise exactly like the
# AST engine's ``binary_op``).

def _gadd(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l + r
    return _op_add(l, r)


def _gsub(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l - r
    return _op_sub(l, r)


def _gmul(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l * r
    return _op_mul(l, r)


def _glt(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l < r
    return _op_lt(l, r)


def _gle(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l <= r
    return _op_le(l, r)


def _ggt(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l > r
    return _op_gt(l, r)


def _gge(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l >= r
    return _op_ge(l, r)


def _gneg(v):
    if v.__class__ is int:
        return -v
    return _op_neg(v)


def _gnot(v):
    if v.__class__ is bool:
        return not v
    return _op_not(v)


def _flt(v):
    if isinstance(v, int):  # includes bool, matching the AST engine
        return float(v)
    return v


# -- error raisers -------------------------------------------------------------
# Python cannot raise in an expression, so the generated checks call these
# cold helpers.  Messages are byte-identical to the AST engine's.

def _err(msg):
    raise RuntimeErr(msg)


def _e_lim(I):
    raise StepLimitExceeded("exceeded %d steps" % I.max_steps)


def _e_hlim(server):
    raise RuntimeErr("hidden server exceeded %d steps" % server.max_steps)


def _e_nia(v):
    raise RuntimeErr("indexing non-array %r" % (v,))


def _e_ania(v):
    raise RuntimeErr("assigning into non-array %r" % (v,))


def _e_bidx(i):
    raise RuntimeErr("array index must be an int, got %r" % (i,))


def _e_oob(i, n):
    raise RuntimeErr("array index %d out of bounds [0, %d)" % (i, n))


def _e_fano(v):
    raise RuntimeErr("field access on non-object %r" % (v,))


def _e_nof(o, name):
    raise RuntimeErr("object %s has no field %r" % (o.class_name, name))


def _e_anof(v):
    raise RuntimeErr("assigning field of non-object %r" % (v,))


def _e_mnno(v):
    raise RuntimeErr("method call on non-object %r" % (v,))


def _e_nomm(o, name):
    raise RuntimeErr("class %s has no method %r" % (o.class_name, name))


def _e_nhr(name):
    raise RuntimeErr(
        "%r called but no hidden runtime is attached (running an open "
        "component standalone?)" % name
    )


#: shared exec namespace for every generated function (copied per function,
#: then extended with that function's constants)
_EXEC_GLOBALS = {
    "__builtins__": {},
    "float": float,
    "len": len,
    "dict": dict,
    "isinstance": isinstance,
    "int": int,
    "bool": bool,
    "_INF": _INF,
    "_MISS": _MISSING,
    "_Arr": ArrayValue,
    "_Obj": ObjectValue,
    "_Brk": _Break,
    "_Cnt": _Continue,
    "_T": _open_truthy,
    "_HT": _hidden_truthy,
    "_cb": call_builtin,
    "_repr": scalar_repr,
    "_gadd": _gadd,
    "_gsub": _gsub,
    "_gmul": _gmul,
    "_glt": _glt,
    "_gle": _gle,
    "_ggt": _ggt,
    "_gge": _gge,
    "_div": _div,
    "_rem": _rem,
    "_gneg": _gneg,
    "_gnot": _gnot,
    "_flt": _flt,
    "_err": _err,
    "_e_lim": _e_lim,
    "_e_hlim": _e_hlim,
    "_e_nia": _e_nia,
    "_e_ania": _e_ania,
    "_e_bidx": _e_bidx,
    "_e_oob": _e_oob,
    "_e_fano": _e_fano,
    "_e_nof": _e_nof,
    "_e_anof": _e_anof,
    "_e_mnno": _e_mnno,
    "_e_nomm": _e_nomm,
    "_e_nhr": _e_nhr,
}


class _Writer:
    """Indentation-aware line buffer for generated source."""

    __slots__ = ("lines", "_depth")

    def __init__(self):
        self.lines = []
        self._depth = 0

    def line(self, text):
        self.lines.append("    " * self._depth + text)

    def indent(self):
        self._depth += 1

    def dedent(self):
        self._depth -= 1

    def text(self):
        return "\n".join(self.lines) + "\n"


def _subtree_has_calls(stmts):
    """True when any statement in ``stmts`` (recursively) contains a call.

    Loops whose bodies can raise a stray ``_Break``/``_Continue`` — thrown
    by a callee executing a ``break`` outside any lexical loop, which the
    AST engine propagates to the *caller's* enclosing loop — must catch
    them; call-free loop bodies skip the handlers entirely."""
    for stmt in ast.walk_stmts(stmts):
        for e in ast.stmt_exprs(stmt):
            if isinstance(e, (ast.Call, ast.MethodCall)):
                return True
    return False


def _has_direct_continue(stmts):
    """True when ``stmts`` contains a ``continue`` not nested in an inner
    loop (i.e. one that targets the loop owning ``stmts``)."""
    for stmt in stmts:
        if isinstance(stmt, ast.Continue):
            return True
        if isinstance(stmt, (ast.While, ast.For)):
            continue  # inner loops own their continues
        for sub in ast.child_stmt_lists(stmt):
            if _has_direct_continue(sub):
                return True
    return False


# -- open-side generator -------------------------------------------------------


class OpenCodegen:
    """Lazily lowers one program's function bodies to Python source.

    One instance per Interpreter running ``engine="codegen"``.  ``body(fn)``
    returns a callable ``(I, env) -> return value`` (native Python
    ``return``); the cache is keyed by the ``Function`` node, exactly like
    :class:`~repro.runtime.compile.OpenCompiler`.
    """

    __slots__ = ("_functions", "_methods", "_classes", "_globals", "_counting",
                 "_cache", "_fallback")

    def __init__(self, functions, methods, classes, globals_names, counting):
        self._functions = functions
        self._methods = methods
        self._classes = classes
        self._globals = frozenset(globals_names)
        self._counting = counting
        self._cache = {}
        self._fallback = None

    def body(self, fn):
        run = self._cache.get(fn)
        if run is None:
            started = time.perf_counter()
            try:
                run = _FnCodegen(self, fn).build()
                _profile.register_code(
                    run.__code__, fn.qualified_name, "codegen", "open"
                )
            except Exception as exc:
                run = self._deopt(fn, exc)
            self._cache[fn] = run
            _observe_compile("open", time.perf_counter() - started,
                             engine="codegen")
        return run

    def _deopt(self, fn, exc):
        """Closure-tier fallback for one function the generator refused."""
        _record_deopt("open", fn.qualified_name, exc, fn.line)
        if self._fallback is None:
            self._fallback = OpenCompiler(
                self._functions, self._methods, self._classes
            )
        thunks = tuple(self._fallback.compile_stmt(s, fn) for s in fn.body)

        def run(I, env):
            try:
                for t in thunks:
                    t(I, env)
            except _Return as r:
                return r.value
            return None

        return run


class _FnCodegen:
    """Emits the Python source for one open function body."""

    def __init__(self, owner, fn):
        self.owner = owner
        self.fn = fn
        self.w = _Writer()
        self.consts = {}
        self._const_ids = {}
        self._ntmp = 0
        self._nconst = 0
        self.uses_hidden = any(
            isinstance(e, ast.Call) and e.name in ("hopen", "hcall", "hclose")
            for stmt in ast.walk_stmts(fn.body)
            for e in ast.stmt_exprs(stmt)
        )
        self.regs, self.types = self._classify()

    # -- name classification ---------------------------------------------------

    def _field_names(self):
        if self.fn.owner is None:
            return frozenset()
        cls = self.owner._classes.get(self.fn.owner)
        if cls is None:
            return frozenset()
        return frozenset(f.name for f in cls.fields)

    def _classify(self):
        """Decide which names become real Python locals (registers).

        A name is a register when it is *definitely bound* (param, or
        top-level VarDecl / fresh-creating top-level assign) before any
        use, so the generated local can never be unbound where the AST
        engine would have found a value (or raised ``undefined
        variable``).  In functions containing hidden builtins the
        activation ``env`` escapes to fragment callbacks, which fetch
        open *aggregates* through ``Interpreter.lookup`` — so there only
        certainly-scalar names may leave ``env.locals``.
        """
        fn = self.fn
        fields = self._field_names()
        globals_names = self.owner._globals
        declared = {}  # name -> declared Type (param or first VarDecl)
        for p in fn.params:
            declared[p.name] = p.param_type
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, ast.VarDecl) and stmt.name not in declared:
                declared[stmt.name] = stmt.var_type

        bound = set(p.name for p in fn.params)
        ineligible = set()

        def check_expr(expr):
            for e in ast.walk_exprs(expr):
                if isinstance(e, ast.VarRef) and e.name not in bound:
                    ineligible.add(e.name)

        def check_subtree(stmt):
            for s in ast.walk_stmts([stmt]):
                for top in ast.child_expr_lists(s):
                    check_expr(top)
                if isinstance(s, ast.VarDecl) and s.name not in bound:
                    ineligible.add(s.name)
                if isinstance(s, ast.Assign) and isinstance(s.target, ast.VarRef):
                    if s.target.name not in bound:
                        ineligible.add(s.target.name)

        for stmt in fn.body:
            if isinstance(stmt, ast.VarDecl):
                if stmt.init is not None:
                    check_expr(stmt.init)
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.target, ast.VarRef
            ):
                check_expr(stmt.value)
                name = stmt.target.name
                if name not in bound:
                    if name not in fields and name not in globals_names:
                        bound.add(name)  # assign_name creates a fresh local
                    else:
                        ineligible.add(name)
            else:
                check_subtree(stmt)

        candidates = bound - ineligible
        if self.uses_hidden:
            candidates = {
                n for n in candidates
                if n.startswith("__t")
                or isinstance(declared.get(n),
                              (ast.IntType, ast.FloatType, ast.BoolType))
            }

        regs = {}
        for name in candidates:
            regs[name] = "u_" + name

        types = self._infer_types(regs, declared)
        return regs, types

    def _infer_types(self, regs, declared):
        """Static scalar types for registers, demoted to ``None`` on any
        write the types cannot prove.  Parameters start untyped: the
        runtime only coerces int→float for float params — bools (and, for
        non-scalar params, anything) flow through unchecked."""
        types = {}
        param_names = {p.name for p in self.fn.params}
        for name in regs:
            t = declared.get(name)
            if name in param_names:
                types[name] = None
            elif isinstance(t, ast.IntType):
                types[name] = "int"
            elif isinstance(t, ast.FloatType):
                types[name] = "float"
            elif isinstance(t, ast.BoolType):
                types[name] = "bool"
            else:
                types[name] = None

        def etype(expr):
            if isinstance(expr, ast.BoolLit):
                return "bool"
            if isinstance(expr, ast.IntLit):
                return "int"
            if isinstance(expr, ast.FloatLit):
                return "float"
            if isinstance(expr, ast.VarRef):
                return types.get(expr.name) if expr.name in regs else None
            if isinstance(expr, ast.BinaryOp):
                lt, rt = etype(expr.left), etype(expr.right)
                op = expr.op
                if op in ("&&", "||", "==", "!=", "<", "<=", ">", ">="):
                    return "bool"
                if op in ("+", "-", "*"):
                    if lt == "int" and rt == "int":
                        return "int"
                    if lt in ("int", "float") and rt in ("int", "float"):
                        return "float"
                    return None
                if op == "/":
                    if lt == "int" and rt == "int":
                        return "int"
                    if lt in ("int", "float") and rt in ("int", "float"):
                        return "float"
                    return None
                if op == "%":
                    if lt == "int" and rt == "int":
                        return "int"
                    return None
                return None
            if isinstance(expr, ast.UnaryOp):
                ot = etype(expr.operand)
                if expr.op == "-":
                    return ot if ot in ("int", "float") else None
                if expr.op == "!":
                    return "bool"
                return None
            if isinstance(expr, ast.Call):
                name = expr.name
                if name in ("sqrt", "exp", "log", "sin", "cos", "pow"):
                    return "float"
                if name in ("floor", "len", "hopen", "hclose"):
                    return "int"
                if name == "abs":
                    at = etype(expr.args[0]) if expr.args else None
                    return at if at in ("int", "float") else None
                return None
            return None

        self._etype = etype

        def write_type(var_type, expr, is_decl):
            t = etype(expr)
            if is_decl and isinstance(var_type, ast.FloatType):
                # VarDecl coerces int (incl. bool) initialisers to float
                return "float" if t in ("int", "float", "bool") else None
            return t

        changed = True
        while changed:
            changed = False
            for stmt in ast.walk_stmts(self.fn.body):
                if isinstance(stmt, ast.VarDecl) and stmt.name in regs:
                    if stmt.init is None:
                        # default-initialised: the value has the declared type
                        wt = {
                            ast.IntType: "int", ast.FloatType: "float",
                            ast.BoolType: "bool",
                        }.get(type(stmt.var_type))
                    else:
                        wt = write_type(stmt.var_type, stmt.init, True)
                    cur = types.get(stmt.name)
                    if cur is not None and wt != cur:
                        types[stmt.name] = None
                        changed = True
                elif (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.target, ast.VarRef)
                    and stmt.target.name in regs
                ):
                    wt = etype(stmt.value)
                    cur = types.get(stmt.target.name)
                    if cur is not None and wt != cur:
                        types[stmt.target.name] = None
                        changed = True
        return types

    # -- emission helpers ------------------------------------------------------

    def temp(self):
        self._ntmp += 1
        return "_t%d" % self._ntmp

    def const(self, obj):
        key = id(obj)
        name = self._const_ids.get(key)
        if name is None:
            name = "_k%d" % self._nconst
            self._nconst += 1
            self._const_ids[key] = name
            self.consts[name] = obj
        return name

    def _emits(self, expr):
        """True when compiling ``expr`` produces prologue statements (so
        siblings evaluated earlier must be hoisted to preserve order)."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit,
                             ast.VarRef)):
            return False
        if isinstance(expr, (ast.Call, ast.MethodCall, ast.Index,
                             ast.FieldAccess, ast.NewObject)):
            return True
        if isinstance(expr, ast.BinaryOp):
            return self._emits(expr.left) or self._emits(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._emits(expr.operand)
        if isinstance(expr, ast.NewArray):
            return self._emits(expr.size)
        return True  # unknown nodes compile to a hoisted raise

    def _seq(self, exprs):
        """Compile ``exprs`` in evaluation order, hoisting earlier results
        to temps whenever a later sibling emits statements."""
        emits_after = []
        flag = False
        for e in reversed(exprs):
            emits_after.append(flag)
            flag = flag or self._emits(e)
        emits_after.reverse()
        out = []
        for e, hoist in zip(exprs, emits_after):
            code, typ, atomic = self.expr(e)
            if hoist and not atomic:
                t = self.temp()
                self.w.line("%s = %s" % (t, code))
                code, atomic = t, True
            out.append((code, typ))
        return out

    # -- statements ------------------------------------------------------------

    def tick(self, kind=None):
        self.w.line("_s += 1")
        self.w.line("if _s > _lim: _e_lim(I)")
        if kind is not None and self.owner._counting:
            self.w.line("_n_%s += 1" % kind)
            self.kinds.add(kind)

    def build(self):
        fn = self.fn
        self.kinds = set()
        body_w = _Writer()
        outer = self.w
        self.w = body_w
        body_w.indent()
        body_w.indent()
        for stmt in fn.body:
            self.stmt(stmt, None)
        body_w.line("return None")
        self.w = outer
        body_text = body_w.text()

        w = self.w
        w.line("def __gen(I, env):")
        w.indent()
        w.line("_s = I.steps")
        w.line("_lim = I.max_steps")
        w.line("if _lim is None: _lim = _INF")
        import re
        def used(name):
            return re.search(r"\b%s\b" % name, body_text) is not None
        if used("_L") or self.regs and any(
            p.name in self.regs for p in fn.params
        ):
            w.line("_L = env.locals")
        if used("_G"):
            w.line("_G = I.globals")
        if used("_h"):
            w.line("_h = I.hidden")
        if used("_call"):
            w.line("_call = I.call_function")
        if used("_lk"):
            w.line("_lk = I.lookup")
        if used("_as"):
            w.line("_as = I.assign_name")
        if used("_oa"):
            w.line("_oa = I.open_access")
        if self.owner._counting:
            w.line("_C = I._stmt_counts")
            for kind in sorted(self.kinds):
                w.line("_n_%s = 0" % kind)
        for p in fn.params:
            if p.name in self.regs:
                w.line('%s = _L["%s"]' % (self.regs[p.name], p.name))
        w.line("try:")
        self.w.lines.extend(body_text.rstrip("\n").split("\n"))
        w.line("finally:")
        w.indent()
        w.line("I.steps = _s")
        if self.owner._counting:
            for kind in sorted(self.kinds):
                w.line('if _n_%s: _C["%s"] = _C.get("%s", 0) + _n_%s'
                       % (kind, kind, kind, kind))
        w.dedent()
        w.dedent()

        src = w.text()
        glb = dict(_EXEC_GLOBALS)
        glb.update(self.consts)
        code = compile(src, "<codegen:%s>" % fn.qualified_name, "exec")
        exec(code, glb)
        return glb["__gen"]

    def stmt(self, stmt, loop):
        kind = type(stmt).__name__
        w = self.w

        if isinstance(stmt, ast.VarDecl):
            self.tick(kind)
            self._emit_vardecl(stmt)
            return
        if isinstance(stmt, ast.Assign):
            self.tick(kind)
            self._emit_assign(stmt)
            return
        if isinstance(stmt, ast.If):
            self.tick(kind)
            cond = self.cond(stmt.cond)
            w.line("if %s:" % cond)
            w.indent()
            if stmt.then_body:
                for s in stmt.then_body:
                    self.stmt(s, loop)
            else:
                w.line("pass")
            w.dedent()
            if stmt.else_body:
                w.line("else:")
                w.indent()
                for s in stmt.else_body:
                    self.stmt(s, loop)
                w.dedent()
            return
        if isinstance(stmt, ast.While):
            self.tick(kind)
            handlers = _subtree_has_calls(stmt.body)
            w.line("while True:")
            w.indent()
            cond = self.cond(stmt.cond)
            w.line("if not %s: break" % cond)
            self.tick()
            self._loop_body(stmt.body, "while", handlers, catch_continue=True)
            w.dedent()
            return
        if isinstance(stmt, ast.For):
            self.tick(kind)
            if stmt.init is not None:
                self.stmt(stmt.init, loop)
            handlers = (
                _subtree_has_calls(stmt.body)
                or _has_direct_continue(stmt.body)
            )
            w.line("while True:")
            w.indent()
            if stmt.cond is not None:
                cond = self.cond(stmt.cond)
                w.line("if not %s: break" % cond)
            self.tick()
            self._loop_body(stmt.body, "for", handlers, catch_continue=False)
            if stmt.update is not None:
                self.stmt(stmt.update, loop)
            w.dedent()
            return
        if isinstance(stmt, ast.Return):
            self.tick(kind)
            if stmt.value is None:
                w.line("return None")
                return
            code, typ, _atomic = self.expr(stmt.value)
            if self.fn.ret_type is not None and isinstance(
                self.fn.ret_type, ast.FloatType
            ):
                if typ in ("int", "bool"):
                    code = "float(%s)" % code
                elif typ != "float":
                    t = self.temp()
                    w.line("%s = %s" % (t, code))
                    w.line(
                        "if %s is not None and isinstance(%s, int): "
                        "%s = float(%s)" % (t, t, t, t)
                    )
                    code = t
            w.line("return %s" % code)
            return
        if isinstance(stmt, ast.CallStmt):
            self.tick(kind)
            code, _typ, atomic = self.expr(stmt.call)
            if not atomic:
                self.w.line(code)
            return
        if isinstance(stmt, ast.Print):
            self.tick(kind)
            code, _typ, _atomic = self.expr(stmt.value)
            w.line("I.output.append(_repr(%s))" % code)
            return
        if isinstance(stmt, ast.Break):
            self.tick(kind)
            if loop is None:
                w.line("raise _Brk()")
            else:
                w.line("break")
            return
        if isinstance(stmt, ast.Continue):
            self.tick(kind)
            if loop is None:
                w.line("raise _Cnt()")
            elif loop == "for":
                w.line("raise _Cnt()")  # caught by the For handler: update runs
            else:
                w.line("continue")
            return
        if isinstance(stmt, ast.Block):
            self.tick(kind)
            for s in stmt.body:
                self.stmt(s, loop)
            return
        # unknown statement kind: tick/count, then the AST engine's message
        self.tick(kind)
        w.line("_err(%s)" % self.const("cannot execute %r" % (stmt,)))

    def _loop_body(self, body, loop, handlers, catch_continue):
        w = self.w
        if handlers:
            w.line("try:")
            w.indent()
        for s in body:
            self.stmt(s, loop)
        if not body:
            w.line("pass")
        if handlers:
            w.dedent()
            w.line("except _Brk:")
            w.indent()
            w.line("break")
            w.dedent()
            w.line("except _Cnt:")
            w.indent()
            w.line("continue" if catch_continue else "pass")
            w.dedent()

    def _emit_vardecl(self, stmt):
        w = self.w
        name = stmt.name
        reg = self.regs.get(name)
        if stmt.init is None:
            value = default_value(stmt.var_type)
            code = repr(value)
        else:
            code, typ, _atomic = self.expr(stmt.init)
            if isinstance(stmt.var_type, ast.FloatType):
                if typ in ("int", "bool"):
                    code = "float(%s)" % code
                elif typ != "float":
                    code = "_flt(%s)" % code
        if reg is not None:
            w.line("%s = %s" % (reg, code))
        else:
            w.line('_L["%s"] = %s' % (name, code))

    def _emit_assign(self, stmt):
        w = self.w
        target = stmt.target
        if isinstance(target, ast.VarRef):
            name = target.name
            reg = self.regs.get(name)
            code, _typ, _atomic = self.expr(stmt.value)
            if reg is not None:
                w.line("%s = %s" % (reg, code))
            elif self._is_pure_global(name):
                w.line('_G["%s"] = %s' % (name, code))
            else:
                w.line('_as(env, "%s", %s)' % (name, code))
            return
        if isinstance(target, ast.Index):
            # AST order: value, base, array check, index, index checks, set
            vcode, _vt, vatomic = self.expr(stmt.value)
            if not vatomic:
                vcode = self._as_temp(vcode)
            bcode, _bt, _batomic = self.expr(target.base)
            tb = self._as_temp(bcode)
            w.line("if %s.__class__ is not _Arr: _e_ania(%s)" % (tb, tb))
            icode, it, _iatomic = self.expr(target.index)
            ti = self._as_temp(icode)
            te = self.temp()
            w.line("%s = %s.elems" % (te, tb))
            if it != "int":
                w.line("if %s.__class__ is not int: _e_bidx(%s)" % (ti, ti))
            w.line("if %s < 0 or %s >= len(%s): _e_oob(%s, len(%s))"
                   % (ti, ti, te, ti, te))
            w.line("%s[%s] = %s" % (te, ti, vcode))
            return
        if isinstance(target, ast.FieldAccess):
            vcode, _vt, vatomic = self.expr(stmt.value)
            if not vatomic:
                vcode = self._as_temp(vcode)
            ocode, _ot, _oatomic = self.expr(target.obj)
            to = self._as_temp(ocode)
            w.line("if %s.__class__ is not _Obj: _e_anof(%s)" % (to, to))
            w.line('%s.fields["%s"] = %s' % (to, target.name, vcode))
            return
        # invalid target: value evaluates first, then the AST engine's error
        vcode, _vt, vatomic = self.expr(stmt.value)
        if not vatomic:
            self._as_temp(vcode)
        w.line("_err(%s)" % self.const("invalid assignment target %r"
                                       % (target,)))

    def _as_temp(self, code):
        """Ensure ``code`` is a name (so it can be referenced repeatedly)."""
        if code.isidentifier():
            return code
        t = self.temp()
        self.w.line("%s = %s" % (t, code))
        return t

    def _is_pure_global(self, name):
        """Reads/writes of ``name`` go straight to ``I.globals``: it can
        never be a local of this function, never a receiver field."""
        return (
            self.fn.owner is None
            and name in self.owner._globals
            and name not in self.regs
        )

    # -- conditions ------------------------------------------------------------

    def cond(self, expr):
        """Compile ``expr`` as a Python boolean condition (AST truthiness)."""
        code, typ, _atomic = self.expr(expr)
        if typ == "bool":
            return code
        if typ == "int":
            return "(%s != 0)" % code
        return "_T(%s)" % code

    # -- expressions -----------------------------------------------------------

    def expr(self, expr):
        """Returns ``(code, type, atomic)``; may emit prologue lines."""
        w = self.w

        if isinstance(expr, ast.BoolLit):
            return ("True" if expr.value else "False"), "bool", True
        if isinstance(expr, ast.IntLit):
            return repr(expr.value), "int", True
        if isinstance(expr, ast.FloatLit):
            return repr(expr.value), "float", True

        if isinstance(expr, ast.VarRef):
            name = expr.name
            reg = self.regs.get(name)
            if reg is not None:
                return reg, self.types.get(name), True
            if self._is_pure_global(name):
                return '_G["%s"]' % name, None, False
            return '_lk(env, "%s")' % name, None, False

        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)

        if isinstance(expr, ast.UnaryOp):
            code, typ, atomic = self.expr(expr.operand)
            if expr.op == "-":
                if typ in ("int", "float"):
                    return "(-%s)" % code, typ, False
                return "_gneg(%s)" % code, None, False
            if expr.op == "!":
                if typ == "bool":
                    return "(not %s)" % code, "bool", False
                return "_gnot(%s)" % code, "bool", False
            t = self.temp()
            w.line("%s = %s" % (t, code))
            w.line("_err(%s)" % self.const(
                "unknown unary operator %r" % expr.op))
            return t, None, True

        if isinstance(expr, ast.Call):
            return self._call(expr)

        if isinstance(expr, ast.MethodCall):
            return self._method_call(expr)

        if isinstance(expr, ast.Index):
            # AST order: base, array check, index, index checks, read
            bcode, _bt, _batomic = self.expr(expr.base)
            tb = self._as_temp(bcode)
            w.line("if %s.__class__ is not _Arr: _e_nia(%s)" % (tb, tb))
            icode, it, _iatomic = self.expr(expr.index)
            ti = self._as_temp(icode)
            te = self.temp()
            w.line("%s = %s.elems" % (te, tb))
            if it != "int":
                w.line("if %s.__class__ is not int: _e_bidx(%s)" % (ti, ti))
            w.line("if %s < 0 or %s >= len(%s): _e_oob(%s, len(%s))"
                   % (ti, ti, te, ti, te))
            t = self.temp()
            w.line("%s = %s[%s]" % (t, te, ti))
            return t, None, True

        if isinstance(expr, ast.FieldAccess):
            ocode, _ot, _atomic = self.expr(expr.obj)
            to = self._as_temp(ocode)
            w.line("if %s.__class__ is not _Obj: _e_fano(%s)" % (to, to))
            tf = self.temp()
            w.line("%s = %s.fields" % (tf, to))
            w.line('if "%s" not in %s: _e_nof(%s, "%s")'
                   % (expr.name, tf, to, expr.name))
            t = self.temp()
            w.line('%s = %s["%s"]' % (t, tf, expr.name))
            return t, None, True

        if isinstance(expr, ast.NewArray):
            scode, _st, _atomic = self.expr(expr.size)
            et = self.const(expr.elem_type)
            return "_Arr.of_size(%s, %s)" % (et, scode), None, False

        if isinstance(expr, ast.NewObject):
            cname = expr.class_name
            cls = self.owner._classes.get(cname)
            if cls is None:
                w.line("_err(%s)" % self.const("no class %r" % cname))
                return "None", None, True
            field_defaults = tuple(
                (f.name, default_value(f.field_type)) for f in cls.fields
            )
            fd = self.const(field_defaults)
            t = self.temp()
            w.line('%s = _Obj("%s", dict(%s))' % (t, cname, fd))
            w.line("if _h is not None: _h.notify_new_instance(%s)" % t)
            return t, None, True

        w.line("_err(%s)" % self.const("cannot evaluate %r" % (expr,)))
        return "None", None, True

    def _binary(self, expr):
        w = self.w
        op = expr.op

        if op in ("&&", "||"):
            keyword = "and" if op == "&&" else "or"
            if not self._emits(expr.right):
                lcode = self.cond(expr.left)
                rcode = self.cond(expr.right)
                return "(%s %s %s)" % (lcode, keyword, rcode), "bool", False
            # impure right-hand side: short-circuit via an if-block
            t = self.temp()
            w.line("%s = %s" % (t, self.cond(expr.left)))
            w.line("if %s%s:" % ("" if op == "&&" else "not ", t))
            w.indent()
            w.line("%s = %s" % (t, self.cond(expr.right)))
            w.dedent()
            return t, "bool", True

        pieces = self._seq([expr.left, expr.right])
        (lcode, lt), (rcode, rt) = pieces
        numeric = ("int", "float")

        if op in ("==", "!="):
            return "(%s %s %s)" % (lcode, op, rcode), "bool", False
        if op in ("<", "<=", ">", ">="):
            if lt in numeric and rt in numeric:
                return "(%s %s %s)" % (lcode, op, rcode), "bool", False
            helper = {"<": "_glt", "<=": "_gle", ">": "_ggt", ">=": "_gge"}[op]
            return "%s(%s, %s)" % (helper, lcode, rcode), "bool", False
        if op in ("+", "-", "*"):
            if lt in numeric and rt in numeric:
                typ = "int" if (lt == "int" and rt == "int") else "float"
                return "(%s %s %s)" % (lcode, op, rcode), typ, False
            helper = {"+": "_gadd", "-": "_gsub", "*": "_gmul"}[op]
            return "%s(%s, %s)" % (helper, lcode, rcode), None, False
        if op == "/":
            typ = None
            if lt in numeric and rt in numeric:
                typ = "int" if (lt == "int" and rt == "int") else "float"
            return "_div(%s, %s)" % (lcode, rcode), typ, False
        if op == "%":
            typ = "int" if (lt == "int" and rt == "int") else None
            return "_rem(%s, %s)" % (lcode, rcode), typ, False

        # unknown operator: defer to binary_op for its operand-first
        # error order
        t = self.temp()
        w.line("%s = %s(%s, %s, %s)"
               % (t, self.const(binary_op), self.const(op), lcode, rcode))
        return t, None, True

    def _sync_call(self, lhs, call_code):
        w = self.w
        w.line("I.steps = _s")
        w.line("try:")
        w.indent()
        w.line("%s = %s" % (lhs, call_code))
        w.dedent()
        w.line("finally:")
        w.indent()
        w.line("_s = I.steps")
        w.dedent()

    def _call(self, expr):
        w = self.w
        name = expr.name

        if name in ("hopen", "hcall", "hclose"):
            return self._hidden_builtin(expr)

        if name in BUILTIN_SIGNATURES:
            pieces = self._seq(list(expr.args))
            args = ", ".join(code for code, _t in pieces)
            if len(pieces) == 1:
                args += ","
            typ = self._etype(expr)
            return '_cb("%s", (%s))' % (name, args), typ, False

        target = self.owner._functions.get(name)
        if target is not None:
            pieces = self._seq(list(expr.args))
            args = ", ".join(code for code, _t in pieces)
            t = self.temp()
            self._sync_call(t, "_call(%s, [%s])" % (self.const(target), args))
            return t, None, True

        if self.fn.owner is not None:
            method = self.owner._methods.get((self.fn.owner, name))
            if method is not None:
                pieces = self._seq(list(expr.args))
                args = ", ".join(code for code, _t in pieces)
                t = self.temp()
                self._sync_call(
                    t,
                    "_call(%s, [%s], env.receiver)"
                    % (self.const(method), args),
                )
                return t, None, True

        # unknown function: arguments evaluate first (AST order), then raise
        for e in expr.args:
            code, _typ, atomic = self.expr(e)
            if not atomic:
                self._as_temp(code)
        w.line("_err(%s)" % self.const("no function %r" % name))
        return "None", None, True

    def _method_call(self, expr):
        w = self.w
        rcode, _rt, _atomic = self.expr(expr.receiver)
        tr = self._as_temp(rcode)
        w.line("if %s.__class__ is not _Obj: _e_mnno(%s)" % (tr, tr))
        tm = self.temp()
        w.line('%s = _M.get((%s.class_name, "%s"))' % (tm, tr, expr.name))
        self.consts["_M"] = self.owner._methods
        w.line('if %s is None: _e_nomm(%s, "%s")' % (tm, tr, expr.name))
        pieces = self._seq(list(expr.args))
        args = ", ".join(code for code, _t in pieces)
        t = self.temp()
        self._sync_call(t, "_call(%s, [%s], %s)" % (tm, args, tr))
        return t, None, True

    def _hidden_builtin(self, expr):
        w = self.w
        name = expr.name
        w.line('if _h is None: _e_nhr("%s")' % name)
        if name == "hopen":
            code, _t, _atomic = self.expr(expr.args[0])
            t = self.temp()
            w.line("%s = _h.open_activation(%s, env.receiver)" % (t, code))
            return t, "int", True
        if name == "hclose":
            code, _t, _atomic = self.expr(expr.args[0])
            w.line("_h.close_activation(%s)" % code)
            return "0", "int", True
        pieces = self._seq(list(expr.args))
        hid_code = pieces[0][0]
        label_code = pieces[1][0]
        values = ", ".join(code for code, _t in pieces[2:])
        t = self.temp()
        w.line("%s = _h.call(%s, %s, [%s], _oa(env))"
               % (t, hid_code, label_code, values))
        return t, None, True


# -- hidden-side generator -----------------------------------------------------


class _FragCodegen:
    """Emits Python source for one hidden fragment (body + result expr).

    Hidden locals stay in the activation ``env`` dict — they persist
    across ``hcall``s and must survive mid-fragment aborts — but
    statement dispatch, step accounting, operator application, storage
    routing, and the batch-cache probes are all lowered to straight-line
    Python.  Open-memory reads/writes still go through the per-call
    ``_FragmentEvaluator`` callbacks (channel accounting lives there).
    """

    def __init__(self, fragment, storage_map, counting):
        self.fragment = fragment
        self.storage = storage_map
        self.counting = counting
        self.w = _Writer()
        self.consts = {}
        self._const_ids = {}
        self._ntmp = 0
        self._nconst = 0
        self.kinds = set()
        # which statements *can* carry a prefetch manifest entry: same
        # resolution the server performs at call time, so the generated
        # probe sites line up with the runtime ``prefetch_map`` keys
        self.stmt_map, self.result_reads = resolve_prefetch(fragment)

    # -- shared emission helpers ----------------------------------------------

    def temp(self):
        self._ntmp += 1
        return "_t%d" % self._ntmp

    def const(self, obj):
        key = id(obj)
        name = self._const_ids.get(key)
        if name is None:
            name = "_k%d" % self._nconst
            self._nconst += 1
            self._const_ids[key] = name
            self.consts[name] = obj
        return name

    def _as_temp(self, code):
        if code.isidentifier():
            return code
        t = self.temp()
        self.w.line("%s = %s" % (t, code))
        return t

    def _emits(self, expr):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit,
                             ast.VarRef)):
            return False
        if isinstance(expr, (ast.Call, ast.Index, ast.FieldAccess)):
            return True
        if isinstance(expr, ast.BinaryOp):
            return self._emits(expr.left) or self._emits(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._emits(expr.operand)
        return True

    def _seq(self, exprs):
        emits_after = []
        flag = False
        for e in reversed(exprs):
            emits_after.append(flag)
            flag = flag or self._emits(e)
        emits_after.reverse()
        out = []
        for e, hoist in zip(exprs, emits_after):
            code, typ, atomic = self.expr(e)
            if hoist and not atomic:
                t = self.temp()
                self.w.line("%s = %s" % (t, code))
                code, atomic = t, True
            out.append((code, typ))
        return out

    # -- build -----------------------------------------------------------------

    def build(self):
        import re

        body_w = _Writer()
        body_w.indent()
        body_w.indent()
        self.w = body_w
        for stmt in self.fragment.body:
            self.stmt(stmt, None)
        if not self.fragment.body:
            body_w.line("pass")
        body_text = body_w.text()

        w = _Writer()
        w.line("def __frag(ev):")
        w.indent()
        w.line("server = ev.server")
        w.line("_s = server.steps")
        w.line("_lim = server.max_steps")
        w.line("if _lim is None: _lim = _INF")

        def used(name):
            return re.search(r"\b%s\b" % name, body_text) is not None

        for binding, source in (
            ("_env", "ev.env"),
            ("_pm", "ev.prefetch_map"),
            ("_bc", "ev._batch_cache"),
            ("_HG", "server.hidden_globals"),
            ("_ifd", "ev._instance_fields"),
            ("_cfi", "ev._cb_fetch_index"),
            ("_csi", "ev._cb_store_index"),
            ("_cff", "ev._cb_fetch_field"),
            ("_csf", "ev._cb_store_field"),
        ):
            if used(binding):
                w.line("%s = %s" % (binding, source))
        if self.counting:
            w.line("_C = ev.stmt_counts")
            for kind in sorted(self.kinds):
                w.line("_n_%s = 0" % kind)
        w.line("try:")
        w.lines.extend(body_text.rstrip("\n").split("\n"))
        w.line("finally:")
        w.indent()
        w.line("server.steps = _s")
        if self.counting:
            for kind in sorted(self.kinds):
                w.line('if _n_%s: _C["%s"] = _C.get("%s", 0) + _n_%s'
                       % (kind, kind, kind, kind))
        w.dedent()
        w.dedent()

        result_fn = None
        if self.fragment.result_expr is not None:
            res_w = _Writer()
            res_w.indent()
            self.w = res_w
            code, _typ, _atomic = self.expr(self.fragment.result_expr)
            res_w.line("return %s" % code)
            res_text = res_w.text()

            def used_res(name):
                return re.search(r"\b%s\b" % name, res_text) is not None

            w.line("def __res(ev):")
            w.indent()
            for binding, source in (
                ("_env", "ev.env"),
                ("_bc", "ev._batch_cache"),
                ("_HG", "ev.server.hidden_globals"),
                ("_ifd", "ev._instance_fields"),
                ("_cfi", "ev._cb_fetch_index"),
                ("_cff", "ev._cb_fetch_field"),
            ):
                if used_res(binding):
                    w.line("%s = %s" % (binding, source))
            w.lines.extend(res_text.rstrip("\n").split("\n"))
            w.dedent()

        src = w.text()
        glb = dict(_EXEC_GLOBALS)
        glb.update(self.consts)
        label = getattr(self.fragment, "label", "?")
        code = compile(src, "<codegen:fragment#%s>" % (label,), "exec")
        exec(code, glb)
        if self.fragment.result_expr is not None:
            result_fn = glb["__res"]
        return CompiledFragment((glb["__frag"],), result_fn)

    # -- statements ------------------------------------------------------------

    def tick(self, kind=None):
        self.w.line("_s += 1")
        self.w.line("if _s > _lim: _e_hlim(server)")
        if kind is not None and self.counting:
            self.w.line("_n_%s += 1" % kind)
            self.kinds.add(kind)

    def stmt(self, stmt, loop):
        kind = type(stmt).__name__
        self.tick(kind)
        if id(stmt) in self.stmt_map:
            # this statement carries a prefetch manifest entry: when the
            # call runs batched (prefetch_map passed), pull its open-memory
            # reads in one callback before executing, then drop the cache
            w = self.w
            r = self.temp()
            w.line("%s = _pm.get(%d) if _pm is not None else None"
                   % (r, id(stmt)))
            w.line("if %s is not None: ev.prefetch_reads(%s)" % (r, r))
            w.line("try:")
            w.indent()
            self._action(stmt, loop)
            w.dedent()
            w.line("finally:")
            w.indent()
            w.line("if %s is not None: ev.clear_batch_cache()" % r)
            w.dedent()
        else:
            self._action(stmt, loop)

    def _action(self, stmt, loop):
        w = self.w

        if isinstance(stmt, ast.VarDecl):
            name = stmt.name
            if stmt.init is None:
                code = repr(default_value(stmt.var_type))
            else:
                code, typ, _atomic = self.expr(stmt.init)
                if isinstance(stmt.var_type, ast.FloatType):
                    if typ in ("int", "bool"):
                        code = "float(%s)" % code
                    elif typ != "float":
                        code = "_flt(%s)" % code
            w.line('_env["%s"] = %s' % (name, code))
            return

        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
            return

        if isinstance(stmt, ast.If):
            cond = self.cond(stmt.cond)
            w.line("if %s:" % cond)
            w.indent()
            if stmt.then_body:
                for s in stmt.then_body:
                    self.stmt(s, loop)
            else:
                w.line("pass")
            w.dedent()
            if stmt.else_body:
                w.line("else:")
                w.indent()
                for s in stmt.else_body:
                    self.stmt(s, loop)
                w.dedent()
            return

        if isinstance(stmt, ast.While):
            w.line("while True:")
            w.indent()
            cond = self.cond(stmt.cond)
            w.line("if not %s: break" % cond)
            self.tick()
            for s in stmt.body:
                self.stmt(s, "while")
            if not stmt.body:
                w.line("pass")
            w.dedent()
            return

        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.stmt(stmt.init, loop)
            handlers = _has_direct_continue(stmt.body)
            w.line("while True:")
            w.indent()
            if stmt.cond is not None:
                cond = self.cond(stmt.cond)
                w.line("if not %s: break" % cond)
            self.tick()
            if handlers:
                w.line("try:")
                w.indent()
            for s in stmt.body:
                self.stmt(s, "for")
            if not stmt.body:
                w.line("pass")
            if handlers:
                w.dedent()
                w.line("except _Cnt:")
                w.indent()
                w.line("pass")
                w.dedent()
            if stmt.update is not None:
                self.stmt(stmt.update, loop)
            w.dedent()
            return

        if isinstance(stmt, ast.Break):
            if loop is None:
                w.line("raise _Brk()")
            else:
                w.line("break")
            return

        if isinstance(stmt, ast.Continue):
            if loop is None:
                w.line("raise _Cnt()")
            elif loop == "for":
                w.line("raise _Cnt()")
            else:
                w.line("continue")
            return

        if isinstance(stmt, ast.Block):
            for s in stmt.body:
                self.stmt(s, loop)
            return

        w.line("_err(%s)"
               % self.const("hidden fragment cannot execute %r" % (stmt,)))

    def _assign(self, stmt):
        w = self.w
        target = stmt.target

        if isinstance(target, ast.VarRef):
            code, _typ, _atomic = self.expr(stmt.value)
            name = target.name
            kind = self.storage.get(name)
            if kind == "global":
                w.line('_HG["%s"] = %s' % (name, code))
            elif kind == "field":
                w.line('_ifd()["%s"] = %s' % (name, code))
            else:
                w.line('_env["%s"] = %s' % (name, code))
            return

        if isinstance(target, ast.Index):
            vcode, _vt, vatomic = self.expr(stmt.value)
            if not vatomic:
                vcode = self._as_temp(vcode)
            if not isinstance(target.base, ast.VarRef):
                w.line("_err(%s)" % self.const(
                    "hidden fragment: complex array target"))
                return
            icode, _it, _iatomic = self.expr(target.index)
            w.line('_csi("%s", %s, %s)' % (target.base.name, icode, vcode))
            return

        if isinstance(target, ast.FieldAccess):
            vcode, _vt, vatomic = self.expr(stmt.value)
            if not vatomic:
                vcode = self._as_temp(vcode)
            if not isinstance(target.obj, ast.VarRef):
                w.line("_err(%s)" % self.const(
                    "hidden fragment: complex field target"))
                return
            w.line('_csf("%s", "%s", %s)'
                   % (target.obj.name, target.name, vcode))
            return

        vcode, _vt, vatomic = self.expr(stmt.value)
        if not vatomic:
            self._as_temp(vcode)
        w.line("_err(%s)" % self.const("hidden fragment: bad assignment target"))

    # -- conditions ------------------------------------------------------------

    def cond(self, expr):
        code, typ, _atomic = self.expr(expr)
        if typ == "bool":
            return code
        if typ == "int":
            return "(%s != 0)" % code
        return "_HT(%s)" % code

    # -- expressions -----------------------------------------------------------

    def expr(self, expr):
        w = self.w

        if isinstance(expr, ast.BoolLit):
            return ("True" if expr.value else "False"), "bool", True
        if isinstance(expr, ast.IntLit):
            return repr(expr.value), "int", True
        if isinstance(expr, ast.FloatLit):
            return repr(expr.value), "float", True

        if isinstance(expr, ast.VarRef):
            name = expr.name
            kind = self.storage.get(name)
            if kind == "global":
                return '_HG.get("%s", 0)' % name, None, False
            if kind == "field":
                return '_ifd().get("%s", 0)' % name, None, False
            return '_env.get("%s", 0)' % name, None, False

        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)

        if isinstance(expr, ast.UnaryOp):
            code, typ, _atomic = self.expr(expr.operand)
            if expr.op == "-":
                if typ in ("int", "float"):
                    return "(-%s)" % code, typ, False
                return "_gneg(%s)" % code, None, False
            if expr.op == "!":
                if typ == "bool":
                    return "(not %s)" % code, "bool", False
                return "_gnot(%s)" % code, "bool", False
            t = self._as_temp(code)
            w.line("_err(%s)" % self.const(
                "unknown unary operator %r" % expr.op))
            return t, None, True

        if isinstance(expr, ast.Call):
            name = expr.name
            if name not in BUILTIN_SIGNATURES:
                # matches the AST engine: rejected before arguments run
                w.line("_err(%s)" % self.const(
                    "hidden fragment may not call function %r" % name))
                return "None", None, True
            pieces = self._seq(list(expr.args))
            args = ", ".join(code for code, _t in pieces)
            if len(pieces) == 1:
                args += ","
            typ = {"sqrt": "float", "exp": "float", "log": "float",
                   "sin": "float", "cos": "float", "pow": "float",
                   "floor": "int", "len": "int"}.get(name)
            return '_cb("%s", (%s))' % (name, args), typ, False

        if isinstance(expr, ast.Index):
            if not isinstance(expr.base, ast.VarRef):
                w.line("_err(%s)" % self.const(
                    "hidden fragment: complex array base"))
                return "None", None, True
            t = self.temp()
            w.line("%s = _bc.get(%d, _MISS) if _bc else _MISS"
                   % (t, id(expr)))
            w.line("if %s is _MISS:" % t)
            w.indent()
            icode, _it, _iatomic = self.expr(expr.index)
            w.line('%s = _cfi("%s", %s)' % (t, expr.base.name, icode))
            w.dedent()
            return t, None, True

        if isinstance(expr, ast.FieldAccess):
            if not isinstance(expr.obj, ast.VarRef):
                w.line("_err(%s)" % self.const(
                    "hidden fragment: complex field object"))
                return "None", None, True
            t = self.temp()
            w.line("%s = _bc.get(%d, _MISS) if _bc else _MISS"
                   % (t, id(expr)))
            w.line("if %s is _MISS:" % t)
            w.indent()
            w.line('%s = _cff("%s", "%s")' % (t, expr.obj.name, expr.name))
            w.dedent()
            return t, None, True

        w.line("_err(%s)" % self.const(
            "hidden fragment cannot evaluate %r" % (expr,)))
        return "None", None, True

    def _binary(self, expr):
        w = self.w
        op = expr.op

        if op in ("&&", "||"):
            keyword = "and" if op == "&&" else "or"
            if not self._emits(expr.right):
                lcode = self.cond(expr.left)
                rcode = self.cond(expr.right)
                return "(%s %s %s)" % (lcode, keyword, rcode), "bool", False
            t = self.temp()
            w.line("%s = %s" % (t, self.cond(expr.left)))
            w.line("if %s%s:" % ("" if op == "&&" else "not ", t))
            w.indent()
            w.line("%s = %s" % (t, self.cond(expr.right)))
            w.dedent()
            return t, "bool", True

        pieces = self._seq([expr.left, expr.right])
        (lcode, lt), (rcode, rt) = pieces
        numeric = ("int", "float")

        if op in ("==", "!="):
            return "(%s %s %s)" % (lcode, op, rcode), "bool", False
        if op in ("<", "<=", ">", ">="):
            if lt in numeric and rt in numeric:
                return "(%s %s %s)" % (lcode, op, rcode), "bool", False
            helper = {"<": "_glt", "<=": "_gle", ">": "_ggt", ">=": "_gge"}[op]
            return "%s(%s, %s)" % (helper, lcode, rcode), "bool", False
        if op in ("+", "-", "*"):
            if lt in numeric and rt in numeric:
                typ = "int" if (lt == "int" and rt == "int") else "float"
                return "(%s %s %s)" % (lcode, op, rcode), typ, False
            helper = {"+": "_gadd", "-": "_gsub", "*": "_gmul"}[op]
            return "%s(%s, %s)" % (helper, lcode, rcode), None, False
        if op == "/":
            typ = None
            if lt in numeric and rt in numeric:
                typ = "int" if (lt == "int" and rt == "int") else "float"
            return "_div(%s, %s)" % (lcode, rcode), typ, False
        if op == "%":
            typ = "int" if (lt == "int" and rt == "int") else None
            return "_rem(%s, %s)" % (lcode, rcode), typ, False

        t = self.temp()
        w.line("%s = %s(%s, %s, %s)"
               % (t, self.const(binary_op), self.const(op), lcode, rcode))
        return t, None, True


def codegen_fragment(fragment, storage_map, counting):
    """Lower one hidden fragment to Python source; closure-tier deopt on
    any generation failure.  Returns a :class:`CompiledFragment`-shaped
    object (``body`` iterable of callables taking the per-call
    ``_FragmentEvaluator``, ``result`` callable or ``None``)."""
    started = time.perf_counter()
    name = "fragment#%s" % (getattr(fragment, "label", "?"),)
    try:
        compiled = _FragCodegen(fragment, storage_map or {}, counting).build()
        for part in tuple(compiled.body) + (compiled.result,):
            if part is not None:
                _profile.register_code(
                    part.__code__, name, "codegen", "hidden"
                )
    except Exception as exc:
        line = None
        if fragment.body:
            line = fragment.body[0].line
        elif fragment.result_expr is not None:
            line = fragment.result_expr.line
        _record_deopt("hidden", name, exc, line)
        compiler = _FragmentCompiler(storage_map or {})
        body = tuple(compiler.compile_stmt(s) for s in fragment.body)
        result = None
        if fragment.result_expr is not None:
            result = compiler.compile_expr(fragment.result_expr)
        compiled = CompiledFragment(body, result)
    _observe_compile("hidden", time.perf_counter() - started, engine="codegen")
    return compiled
