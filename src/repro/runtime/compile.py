"""Closure compilation of function bodies and hidden fragments.

The ``compiled`` engine lowers each open function body and each hidden
fragment body to a tree of nested Python closures *once*, then executes
the closures.  Per execution this removes the ``isinstance`` dispatch
chains of ``Interpreter.exec_stmt``/``eval_expr`` and the hidden server's
``_FragmentEvaluator``: operator functions, literal constants, callee
``Function`` objects, field defaults, storage kinds, and error messages
are all resolved at compile time and captured in closure cells.

Bit-identity contract (pinned by tests/test_engine_equivalence.py): for
any program the compiled engine produces the same outputs, the same
``steps``, the same per-statement-kind metric counts, the same channel
round trips / transcript events, and the same error messages as the AST
engine.  Every closure therefore replicates the AST walkers' evaluation
order exactly — including *which sub-expression is evaluated before which
check fires*.  When editing either engine, change both and let the
differential suite arbitrate.

Compilation is lazy (a body is lowered on its first execution) and cached
per function/fragment.  The wall-clock cost lands in the
``repro_engine_compile_seconds`` histogram; engine selection is counted
by ``repro_engine_total{engine=...,side=...}``.  See docs/ENGINE.md.
"""

import time

from repro import obs
# exported metric names (documented in docs/OBSERVABILITY.md)
from repro.obs.metrics import M_COMPILE_SECONDS, M_ENGINE  # noqa: F401
from repro.lang import ast
from repro.lang.typecheck import BUILTIN_SIGNATURES
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
    unary_op,
)

# The engine registry lives in repro/runtime/__init__.py (defined there
# before any submodule import, so this works during package init); the
# names are re-exported here for backward compatibility.
from repro.runtime import DEFAULT_ENGINE, ENGINES, validate_engine  # noqa: E402,F401

#: batch-cache miss sentinel (prefetched values may legitimately be falsy)
_MISSING = object()


def _observe_compile(side, seconds, engine="compiled"):
    """Record one body/fragment lowering in the compile-cost histogram.

    Labelled by ``side`` *and* ``engine`` so the closure tier's and the
    codegen tier's compilation costs stay distinguishable in
    ``/metrics.json`` and ``repro stats`` (docs/ENGINE.md)."""
    sink = obs.get_sink()
    if sink is not None:
        sink.compiled(side, engine, seconds)


# -- control flow shared by both engines ---------------------------------------
# The interpreter and the server import these, so a break raised by one
# engine's loop body is always caught by the other's enclosing loop.

class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _open_truthy(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0  # hcall-based predicates return plain values
    raise RuntimeErr("condition is not a bool: %r" % (value,))


def _hidden_truthy(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    raise RuntimeErr("hidden fragment: condition is not a bool: %r" % (value,))


# Per-statement accounting, inlined rather than delegated to
# Interpreter._tick / HiddenServer._tick: one call replaces the AST
# engine's dispatch-frame + tick-frame pair.  The messages must stay
# byte-identical to the method versions.

def _tick_open(I, kind):
    steps = I.steps + 1
    I.steps = steps
    limit = I.max_steps
    if limit is not None and steps > limit:
        raise StepLimitExceeded("exceeded %d steps" % limit)
    counts = I._stmt_counts
    if counts is not None:
        counts[kind] = counts.get(kind, 0) + 1


def _iter_tick_open(I):
    # loop iterations charge a bare step with no statement-kind count
    steps = I.steps + 1
    I.steps = steps
    limit = I.max_steps
    if limit is not None and steps > limit:
        raise StepLimitExceeded("exceeded %d steps" % limit)


def _tick_hidden(ev, kind):
    server = ev.server
    steps = server.steps + 1
    server.steps = steps
    limit = server.max_steps
    if limit is not None and steps > limit:
        raise RuntimeErr("hidden server exceeded %d steps" % limit)
    counts = ev.stmt_counts
    if counts is not None:
        counts[kind] = counts.get(kind, 0) + 1


def _iter_tick_hidden(server):
    steps = server.steps + 1
    server.steps = steps
    limit = server.max_steps
    if limit is not None and steps > limit:
        raise RuntimeErr("hidden server exceeded %d steps" % limit)


# -- open-side compiler --------------------------------------------------------


class OpenCompiler:
    """Lazily lowers one program's function bodies to closure trees.

    One instance per :class:`~repro.runtime.interpreter.Interpreter`; the
    cache is keyed by the ``Function`` node itself (programs are immutable
    once loaded, the same invariant the resolution cache relies on), and a
    body is only compiled the first time it actually runs, so the filler
    methods of large generated corpora cost nothing.

    Statement closures take ``(I, env)`` — the owning ``Interpreter`` and
    the current activation record — so one compiled tree serves every
    activation, exactly like the AST walker.
    """

    __slots__ = ("_functions", "_methods", "_classes", "_cache")

    def __init__(self, functions, methods, classes):
        self._functions = functions
        self._methods = methods
        self._classes = classes
        self._cache = {}

    def body(self, fn):
        """The compiled statement thunks for ``fn``'s body."""
        thunks = self._cache.get(fn)
        if thunks is None:
            started = time.perf_counter()
            thunks = tuple(self.compile_stmt(s, fn) for s in fn.body)
            self._cache[fn] = thunks
            _observe_compile("open", time.perf_counter() - started)
        return thunks

    # -- statements -----------------------------------------------------------

    def compile_stmt(self, stmt, fn):
        kind = type(stmt).__name__

        if isinstance(stmt, ast.VarDecl):
            name = stmt.name
            if stmt.init is None:
                value0 = default_value(stmt.var_type)

                def run(I, env):
                    _tick_open(I, kind)
                    env.locals[name] = value0

                return run
            init_t = self.compile_expr(stmt.init, fn)
            if isinstance(stmt.var_type, ast.FloatType):

                def run(I, env):
                    _tick_open(I, kind)
                    value = init_t(I, env)
                    if isinstance(value, int):
                        value = float(value)
                    env.locals[name] = value

                return run

            def run(I, env):
                _tick_open(I, kind)
                env.locals[name] = init_t(I, env)

            return run

        if isinstance(stmt, ast.Assign):
            return self._compile_assign(stmt, fn, kind)

        if isinstance(stmt, ast.If):
            cond_t = self.compile_expr(stmt.cond, fn)
            then_body = tuple(self.compile_stmt(s, fn) for s in stmt.then_body)
            else_body = tuple(self.compile_stmt(s, fn) for s in stmt.else_body)

            def run(I, env):
                _tick_open(I, kind)
                if _open_truthy(cond_t(I, env)):
                    for t in then_body:
                        t(I, env)
                else:
                    for t in else_body:
                        t(I, env)

            return run

        if isinstance(stmt, ast.While):
            cond_t = self.compile_expr(stmt.cond, fn)
            body = tuple(self.compile_stmt(s, fn) for s in stmt.body)

            def run(I, env):
                _tick_open(I, kind)
                while _open_truthy(cond_t(I, env)):
                    _iter_tick_open(I)
                    try:
                        for t in body:
                            t(I, env)
                    except _Break:
                        break
                    except _Continue:
                        continue

            return run

        if isinstance(stmt, ast.For):
            init_t = (
                self.compile_stmt(stmt.init, fn) if stmt.init is not None else None
            )
            cond_t = (
                self.compile_expr(stmt.cond, fn) if stmt.cond is not None else None
            )
            update_t = (
                self.compile_stmt(stmt.update, fn)
                if stmt.update is not None
                else None
            )
            body = tuple(self.compile_stmt(s, fn) for s in stmt.body)

            def run(I, env):
                _tick_open(I, kind)
                if init_t is not None:
                    init_t(I, env)
                while cond_t is None or _open_truthy(cond_t(I, env)):
                    _iter_tick_open(I)
                    try:
                        for t in body:
                            t(I, env)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if update_t is not None:
                        update_t(I, env)

            return run

        if isinstance(stmt, ast.Return):
            if stmt.value is None:

                def run(I, env):
                    _tick_open(I, kind)
                    raise _Return(None)

                return run
            value_t = self.compile_expr(stmt.value, fn)
            if fn.ret_type is not None and isinstance(fn.ret_type, ast.FloatType):

                def run(I, env):
                    _tick_open(I, kind)
                    value = value_t(I, env)
                    if value is not None and isinstance(value, int):
                        value = float(value)
                    raise _Return(value)

                return run

            def run(I, env):
                _tick_open(I, kind)
                raise _Return(value_t(I, env))

            return run

        if isinstance(stmt, ast.CallStmt):
            call_t = self.compile_expr(stmt.call, fn)

            def run(I, env):
                _tick_open(I, kind)
                call_t(I, env)

            return run

        if isinstance(stmt, ast.Print):
            value_t = self.compile_expr(stmt.value, fn)

            def run(I, env):
                _tick_open(I, kind)
                I.output.append(scalar_repr(value_t(I, env)))

            return run

        if isinstance(stmt, ast.Break):

            def run(I, env):
                _tick_open(I, kind)
                raise _Break()

            return run

        if isinstance(stmt, ast.Continue):

            def run(I, env):
                _tick_open(I, kind)
                raise _Continue()

            return run

        if isinstance(stmt, ast.Block):
            body = tuple(self.compile_stmt(s, fn) for s in stmt.body)

            def run(I, env):
                _tick_open(I, kind)
                for t in body:
                    t(I, env)

            return run

        # Unknown statement kinds still tick/count, then fail at *execution*
        # time with the AST engine's message.
        node = stmt

        def run(I, env):
            _tick_open(I, kind)
            raise RuntimeErr("cannot execute %r" % (node,))

        return run

    def _compile_assign(self, stmt, fn, kind):
        value_t = self.compile_expr(stmt.value, fn)
        target = stmt.target

        if isinstance(target, ast.VarRef):
            name = target.name

            def run(I, env):
                _tick_open(I, kind)
                value = value_t(I, env)
                locs = env.locals
                if name in locs:
                    locs[name] = value
                    return
                receiver = env.receiver
                if receiver is not None and name in receiver.fields:
                    receiver.fields[name] = value
                    return
                g = I.globals
                if name in g:
                    g[name] = value
                    return
                # split-function temporaries (``__t1 = ...``) are created
                # as fresh locals, mirroring Interpreter.assign_name
                locs[name] = value

            return run

        if isinstance(target, ast.Index):
            base_t = self.compile_expr(target.base, fn)
            index_t = self.compile_expr(target.index, fn)

            def run(I, env):
                _tick_open(I, kind)
                value = value_t(I, env)
                arr = base_t(I, env)
                if not isinstance(arr, ArrayValue):
                    raise RuntimeErr("assigning into non-array %r" % (arr,))
                arr.set(index_t(I, env), value)

            return run

        if isinstance(target, ast.FieldAccess):
            obj_t = self.compile_expr(target.obj, fn)
            fname = target.name

            def run(I, env):
                _tick_open(I, kind)
                value = value_t(I, env)
                obj = obj_t(I, env)
                if not isinstance(obj, ObjectValue):
                    raise RuntimeErr("assigning field of non-object %r" % (obj,))
                obj.fields[fname] = value

            return run

        node = target

        def run(I, env):
            _tick_open(I, kind)
            value_t(I, env)  # the AST engine evaluates the value first
            raise RuntimeErr("invalid assignment target %r" % (node,))

        return run

    # -- expressions ----------------------------------------------------------

    def compile_expr(self, expr, fn):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            value = expr.value

            def run(I, env):
                return value

            return run

        if isinstance(expr, ast.VarRef):
            name = expr.name

            def run(I, env):
                locs = env.locals
                if name in locs:
                    return locs[name]
                receiver = env.receiver
                if receiver is not None and name in receiver.fields:
                    return receiver.fields[name]
                g = I.globals
                if name in g:
                    return g[name]
                raise RuntimeErr("undefined variable %r" % name)

            return run

        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            left_t = self.compile_expr(expr.left, fn)
            right_t = self.compile_expr(expr.right, fn)
            if op == "&&":

                def run(I, env):
                    return _open_truthy(left_t(I, env)) and _open_truthy(
                        right_t(I, env)
                    )

                return run
            if op == "||":

                def run(I, env):
                    return _open_truthy(left_t(I, env)) or _open_truthy(
                        right_t(I, env)
                    )

                return run
            op_fn = BINARY_OPS.get(op)
            if op_fn is None:
                # unknown operator: defer to binary_op for its operand-first
                # error order
                def run(I, env):
                    return binary_op(op, left_t(I, env), right_t(I, env))

                return run

            def run(I, env):
                return op_fn(left_t(I, env), right_t(I, env))

            return run

        if isinstance(expr, ast.UnaryOp):
            operand_t = self.compile_expr(expr.operand, fn)
            op_fn = UNARY_OPS.get(expr.op)
            if op_fn is None:
                op = expr.op

                def run(I, env):
                    return unary_op(op, operand_t(I, env))

                return run

            def run(I, env):
                return op_fn(operand_t(I, env))

            return run

        if isinstance(expr, ast.Call):
            return self._compile_call(expr, fn)

        if isinstance(expr, ast.MethodCall):
            recv_t = self.compile_expr(expr.receiver, fn)
            name = expr.name
            arg_thunks = tuple(self.compile_expr(a, fn) for a in expr.args)
            methods = self._methods

            def run(I, env):
                receiver = recv_t(I, env)
                if not isinstance(receiver, ObjectValue):
                    raise RuntimeErr("method call on non-object %r" % (receiver,))
                method = methods.get((receiver.class_name, name))
                if method is None:
                    raise RuntimeErr(
                        "class %s has no method %r" % (receiver.class_name, name)
                    )
                args = [t(I, env) for t in arg_thunks]
                return I.call_function(method, args, receiver=receiver)

            return run

        if isinstance(expr, ast.Index):
            base_t = self.compile_expr(expr.base, fn)
            index_t = self.compile_expr(expr.index, fn)

            def run(I, env):
                arr = base_t(I, env)
                if not isinstance(arr, ArrayValue):
                    raise RuntimeErr("indexing non-array %r" % (arr,))
                return arr.get(index_t(I, env))

            return run

        if isinstance(expr, ast.FieldAccess):
            obj_t = self.compile_expr(expr.obj, fn)
            name = expr.name

            def run(I, env):
                obj = obj_t(I, env)
                if not isinstance(obj, ObjectValue):
                    raise RuntimeErr("field access on non-object %r" % (obj,))
                fields = obj.fields
                if name not in fields:
                    raise RuntimeErr(
                        "object %s has no field %r" % (obj.class_name, name)
                    )
                return fields[name]

            return run

        if isinstance(expr, ast.NewArray):
            elem_type = expr.elem_type
            size_t = self.compile_expr(expr.size, fn)

            def run(I, env):
                return ArrayValue.of_size(elem_type, size_t(I, env))

            return run

        if isinstance(expr, ast.NewObject):
            cname = expr.class_name
            cls = self._classes.get(cname)
            if cls is None:

                def run(I, env):
                    raise RuntimeErr("no class %r" % cname)

                return run
            # field defaults are immutable scalars/None, safe to prebuild
            field_defaults = tuple(
                (f.name, default_value(f.field_type)) for f in cls.fields
            )

            def run(I, env):
                obj = ObjectValue(cname, dict(field_defaults))
                hidden = I.hidden
                if hidden is not None:
                    hidden.notify_new_instance(obj)
                return obj

            return run

        node = expr

        def run(I, env):
            raise RuntimeErr("cannot evaluate %r" % (node,))

        return run

    def _compile_call(self, expr, fn):
        name = expr.name

        if name in ("hopen", "hcall", "hclose"):
            return self._compile_hidden_builtin(expr, fn)

        arg_thunks = tuple(self.compile_expr(a, fn) for a in expr.args)

        if name in BUILTIN_SIGNATURES:

            def run(I, env):
                return call_builtin(name, [t(I, env) for t in arg_thunks])

            return run

        target = self._functions.get(name)
        if target is not None:

            def run(I, env):
                return I.call_function(target, [t(I, env) for t in arg_thunks])

            return run

        if fn.owner is not None:
            method = self._methods.get((fn.owner, name))
            if method is not None:

                def run(I, env):
                    return I.call_function(
                        method,
                        [t(I, env) for t in arg_thunks],
                        receiver=env.receiver,
                    )

                return run

        def run(I, env):
            for t in arg_thunks:  # the AST engine evaluates args first
                t(I, env)
            raise RuntimeErr("no function %r" % name)

        return run

    def _compile_hidden_builtin(self, expr, fn):
        name = expr.name
        no_runtime = (
            "%r called but no hidden runtime is attached (running an open "
            "component standalone?)" % name
        )

        if name == "hopen":
            fn_id_t = self.compile_expr(expr.args[0], fn)

            def run(I, env):
                hidden = I.hidden
                if hidden is None:
                    raise RuntimeErr(no_runtime)
                return hidden.open_activation(fn_id_t(I, env), receiver=env.receiver)

            return run

        if name == "hclose":
            hid_t = self.compile_expr(expr.args[0], fn)

            def run(I, env):
                hidden = I.hidden
                if hidden is None:
                    raise RuntimeErr(no_runtime)
                hidden.close_activation(hid_t(I, env))
                return 0

            return run

        hid_t = self.compile_expr(expr.args[0], fn)
        label_t = self.compile_expr(expr.args[1], fn)
        value_thunks = tuple(self.compile_expr(a, fn) for a in expr.args[2:])

        def run(I, env):
            hidden = I.hidden
            if hidden is None:
                raise RuntimeErr(no_runtime)
            hid = hid_t(I, env)
            label = label_t(I, env)
            values = [t(I, env) for t in value_thunks]
            return hidden.call(hid, label, values, I.open_access(env))

        return run


# -- hidden-side compiler ------------------------------------------------------


class CompiledFragment:
    """One hidden fragment lowered to closures.

    ``body`` is a tuple of statement thunks, ``result`` the result-expression
    thunk (or ``None``).  Thunks take the per-call ``_FragmentEvaluator``,
    which still owns the callback/round-trip machinery and the batch cache.
    """

    __slots__ = ("body", "result")

    def __init__(self, body, result):
        self.body = body
        self.result = result


def compile_fragment(fragment, storage_map):
    """Lower one hidden fragment (cached per fragment by ``HiddenServer``)."""
    started = time.perf_counter()
    compiler = _FragmentCompiler(storage_map or {})
    body = tuple(compiler.compile_stmt(s) for s in fragment.body)
    result = None
    if fragment.result_expr is not None:
        result = compiler.compile_expr(fragment.result_expr)
    _observe_compile("hidden", time.perf_counter() - started)
    return CompiledFragment(body, result)


class _FragmentCompiler:
    """Compiles hidden-fragment statements/expressions against one storage map."""

    __slots__ = ("_storage",)

    def __init__(self, storage_map):
        self._storage = storage_map

    # -- statements -----------------------------------------------------------

    def compile_stmt(self, stmt):
        kind = type(stmt).__name__
        sid = id(stmt)
        action = self._compile_action(stmt)

        # The wrapper mirrors _FragmentEvaluator.exec_stmt: tick + count,
        # then serve the statement's prefetch manifest entry (if the call
        # runs with batching) before dispatching.
        def run(ev):
            _tick_hidden(ev, kind)
            pm = ev.prefetch_map
            reads = pm.get(sid) if pm else None
            if reads is None:
                return action(ev)
            ev.prefetch_reads(reads)
            try:
                return action(ev)
            finally:
                ev.clear_batch_cache()

        return run

    def _compile_action(self, stmt):
        if isinstance(stmt, ast.VarDecl):
            name = stmt.name
            if stmt.init is None:
                value0 = default_value(stmt.var_type)

                def run(ev):
                    ev.env[name] = value0

                return run
            init_t = self.compile_expr(stmt.init)
            if isinstance(stmt.var_type, ast.FloatType):

                def run(ev):
                    value = init_t(ev)
                    if isinstance(value, int):
                        value = float(value)
                    ev.env[name] = value

                return run

            def run(ev):
                ev.env[name] = init_t(ev)

            return run

        if isinstance(stmt, ast.Assign):
            return self._compile_assign(stmt)

        if isinstance(stmt, ast.If):
            cond_t = self.compile_expr(stmt.cond)
            then_body = tuple(self.compile_stmt(s) for s in stmt.then_body)
            else_body = tuple(self.compile_stmt(s) for s in stmt.else_body)

            def run(ev):
                if _hidden_truthy(cond_t(ev)):
                    for t in then_body:
                        t(ev)
                else:
                    for t in else_body:
                        t(ev)

            return run

        if isinstance(stmt, ast.While):
            cond_t = self.compile_expr(stmt.cond)
            body = tuple(self.compile_stmt(s) for s in stmt.body)

            def run(ev):
                while _hidden_truthy(cond_t(ev)):
                    _iter_tick_hidden(ev.server)
                    try:
                        for t in body:
                            t(ev)
                    except _Break:
                        break
                    except _Continue:
                        continue

            return run

        if isinstance(stmt, ast.For):
            init_t = self.compile_stmt(stmt.init) if stmt.init is not None else None
            cond_t = self.compile_expr(stmt.cond) if stmt.cond is not None else None
            update_t = (
                self.compile_stmt(stmt.update) if stmt.update is not None else None
            )
            body = tuple(self.compile_stmt(s) for s in stmt.body)

            def run(ev):
                if init_t is not None:
                    init_t(ev)
                while cond_t is None or _hidden_truthy(cond_t(ev)):
                    _iter_tick_hidden(ev.server)
                    try:
                        for t in body:
                            t(ev)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if update_t is not None:
                        update_t(ev)

            return run

        if isinstance(stmt, ast.Break):

            def run(ev):
                raise _Break()

            return run

        if isinstance(stmt, ast.Continue):

            def run(ev):
                raise _Continue()

            return run

        if isinstance(stmt, ast.Block):
            body = tuple(self.compile_stmt(s) for s in stmt.body)

            def run(ev):
                for t in body:
                    t(ev)

            return run

        node = stmt

        def run(ev):
            raise RuntimeErr("hidden fragment cannot execute %r" % (node,))

        return run

    def _compile_assign(self, stmt):
        value_t = self.compile_expr(stmt.value)
        target = stmt.target

        if isinstance(target, ast.VarRef):
            write = self._compile_write(target.name)

            def run(ev):
                write(ev, value_t(ev))

            return run

        if isinstance(target, ast.Index):
            if not isinstance(target.base, ast.VarRef):

                def run(ev):
                    value_t(ev)  # value is evaluated before the target check
                    raise RuntimeErr("hidden fragment: complex array target")

                return run
            base_name = target.base.name
            index_t = self.compile_expr(target.index)

            def run(ev):
                value = value_t(ev)
                index = index_t(ev)
                ev._cb_store_index(base_name, index, value)

            return run

        if isinstance(target, ast.FieldAccess):
            if not isinstance(target.obj, ast.VarRef):

                def run(ev):
                    value_t(ev)
                    raise RuntimeErr("hidden fragment: complex field target")

                return run
            obj_name = target.obj.name
            fname = target.name

            def run(ev):
                ev._cb_store_field(obj_name, fname, value_t(ev))

            return run

        def run(ev):
            value_t(ev)
            raise RuntimeErr("hidden fragment: bad assignment target")

        return run

    def _compile_write(self, name):
        kind = self._storage.get(name)
        if kind == "global":

            def write(ev, value):
                ev.server.hidden_globals[name] = value

            return write
        if kind == "field":

            def write(ev, value):
                ev._instance_fields()[name] = value

            return write

        def write(ev, value):
            ev.env[name] = value

        return write

    # -- expressions ----------------------------------------------------------

    def compile_expr(self, expr):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            value = expr.value

            def run(ev):
                return value

            return run

        if isinstance(expr, ast.VarRef):
            return self._compile_read(expr.name)

        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            left_t = self.compile_expr(expr.left)
            right_t = self.compile_expr(expr.right)
            if op == "&&":

                def run(ev):
                    return _hidden_truthy(left_t(ev)) and _hidden_truthy(
                        right_t(ev)
                    )

                return run
            if op == "||":

                def run(ev):
                    return _hidden_truthy(left_t(ev)) or _hidden_truthy(
                        right_t(ev)
                    )

                return run
            op_fn = BINARY_OPS.get(op)
            if op_fn is None:

                def run(ev):
                    return binary_op(op, left_t(ev), right_t(ev))

                return run

            def run(ev):
                return op_fn(left_t(ev), right_t(ev))

            return run

        if isinstance(expr, ast.UnaryOp):
            operand_t = self.compile_expr(expr.operand)
            op_fn = UNARY_OPS.get(expr.op)
            if op_fn is None:
                op = expr.op

                def run(ev):
                    return unary_op(op, operand_t(ev))

                return run

            def run(ev):
                return op_fn(operand_t(ev))

            return run

        if isinstance(expr, ast.Call):
            name = expr.name
            if name not in BUILTIN_SIGNATURES:
                # matches the AST engine: rejected before arguments run

                def run(ev):
                    raise RuntimeErr(
                        "hidden fragment may not call function %r" % name
                    )

                return run
            arg_thunks = tuple(self.compile_expr(a) for a in expr.args)

            def run(ev):
                return call_builtin(name, [t(ev) for t in arg_thunks])

            return run

        if isinstance(expr, ast.Index):
            if not isinstance(expr.base, ast.VarRef):
                # complex reads are never in a prefetch manifest, so skipping
                # the batch-cache probe cannot change behaviour

                def run(ev):
                    raise RuntimeErr("hidden fragment: complex array base")

                return run
            key = id(expr)
            base_name = expr.base.name
            index_t = self.compile_expr(expr.index)

            def run(ev):
                cache = ev._batch_cache
                if cache:
                    cached = cache.get(key, _MISSING)
                    if cached is not _MISSING:
                        return cached
                return ev._cb_fetch_index(base_name, index_t(ev))

            return run

        if isinstance(expr, ast.FieldAccess):
            if not isinstance(expr.obj, ast.VarRef):

                def run(ev):
                    raise RuntimeErr("hidden fragment: complex field object")

                return run
            key = id(expr)
            obj_name = expr.obj.name
            fname = expr.name

            def run(ev):
                cache = ev._batch_cache
                if cache:
                    cached = cache.get(key, _MISSING)
                    if cached is not _MISSING:
                        return cached
                return ev._cb_fetch_field(obj_name, fname)

            return run

        node = expr

        def run(ev):
            raise RuntimeErr("hidden fragment cannot evaluate %r" % (node,))

        return run

    def _compile_read(self, name):
        kind = self._storage.get(name)
        if kind == "global":

            def read(ev):
                return ev.server.hidden_globals.get(name, 0)

            return read
        if kind == "field":

            def read(ev):
                return ev._instance_fields().get(name, 0)

            return read

        def read(ev):
            env = ev.env
            if name in env:
                return env[name]
            # hidden variable read before any write: a default-initialised
            # local (the open program was type checked)
            return 0

        return read
