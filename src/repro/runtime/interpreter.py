"""Tree-walking interpreter.

Executes both original programs and the open components of split programs.
For split programs the reserved builtins ``hopen``/``hcall``/``hclose`` are
delegated to a *hidden runtime* (see :mod:`repro.runtime.server`); the
interpreter also hands the hidden side an :class:`OpenAccess` window so
hidden fragments can read/write array elements and object fields that live
in the open component's address space (each access is a communication
callback, charged to the channel).

The interpreter counts executed statements (``steps``), the basis of the
simulated runtime-overhead measurements in the Table 5 benchmark.
"""

from repro import obs
from repro.lang import ast
from repro.lang.typecheck import BUILTIN_SIGNATURES
from repro.obs import profile as _profile
# exported metric names (documented in docs/OBSERVABILITY.md)
from repro.obs.metrics import M_STEPS, M_STMTS  # noqa: F401 (re-exported)
# _Return/_Break/_Continue are shared with the compiled engine so control
# flow crosses engine boundaries; StepLimitExceeded is re-exported here for
# backward compatibility (it lives in values.py).
from repro.runtime.compile import (  # noqa: F401 (re-exported)
    DEFAULT_ENGINE,
    OpenCompiler,
    _Break,
    _Continue,
    _Return,
    validate_engine,
)
from repro.runtime.codegen import OpenCodegen
from repro.runtime.values import (  # noqa: F401 (StepLimitExceeded re-exported)
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

HIDDEN_BUILTINS = ("hopen", "hcall", "hclose")



class Env:
    """One activation record of the open interpreter."""

    __slots__ = ("fn", "locals", "receiver")

    def __init__(self, fn, receiver=None):
        self.fn = fn
        self.locals = {}
        self.receiver = receiver


class OpenAccess:
    """Window the hidden side uses to touch open-component state.

    Bound to the activation (``env``) that issued the current ``hcall``.
    Every method corresponds to one callback round trip; the channel
    accounting is done by the server, which owns the channel.
    """

    def __init__(self, interp, env):
        self._interp = interp
        self._env = env

    def fetch_index(self, name, index):
        arr = self._interp.lookup(self._env, name)
        if not isinstance(arr, ArrayValue):
            raise RuntimeErr("hidden access: %r is not an array" % name)
        return arr.get(index)

    def store_index(self, name, index, value):
        arr = self._interp.lookup(self._env, name)
        if not isinstance(arr, ArrayValue):
            raise RuntimeErr("hidden access: %r is not an array" % name)
        arr.set(index, value)

    def fetch_field(self, name, field):
        obj = self._interp.lookup(self._env, name)
        if not isinstance(obj, ObjectValue):
            raise RuntimeErr("hidden access: %r is not an object" % name)
        return obj.fields[field]

    def store_field(self, name, field, value):
        obj = self._interp.lookup(self._env, name)
        if not isinstance(obj, ObjectValue):
            raise RuntimeErr("hidden access: %r is not an object" % name)
        obj.fields[field] = value

    def fetch_batch(self, items):
        """Serve a batched prefetch callback: ``items`` is a sequence of
        ``("index", name, index)`` / ``("field", name, field)`` descriptors;
        returns the values in order.  One round trip regardless of length —
        the server charges it as a single ``cb_batch`` interaction."""
        values = []
        for kind, name, key in items:
            if kind == "index":
                values.append(self.fetch_index(name, key))
            elif kind == "field":
                values.append(self.fetch_field(name, key))
            else:
                raise RuntimeErr("hidden access: bad batch item kind %r" % kind)
        return values


class Interpreter:
    """Executes a program AST."""

    def __init__(self, program, hidden_runtime=None, max_steps=20_000_000,
                 max_call_depth=400, engine=DEFAULT_ENGINE):
        """``engine`` selects the execution strategy (docs/ENGINE.md):
        ``"compiled"`` (default) lowers each function body to closures on
        first call via :class:`~repro.runtime.compile.OpenCompiler`;
        ``"codegen"`` emits real Python source per function via
        :class:`~repro.runtime.codegen.OpenCodegen`; ``"ast"`` walks the
        tree directly.  All three are observably bit-identical."""
        self.program = program
        self.hidden = hidden_runtime
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.call_depth = 0
        self.steps = 0
        self.output = []
        self._sink = obs.get_sink()
        self._stmt_counts = {} if self._sink is not None else None
        self._steps_flushed = 0
        self.globals = {}
        for g in program.globals:
            if g.init is not None:
                self.globals[g.name] = self._literal(g.init)
            else:
                self.globals[g.name] = default_value(g.var_type)
        self._functions = {}
        for fn in program.functions:
            self._functions[fn.name] = fn
        self._classes = {c.name: c for c in program.classes}
        self._methods = {}
        for cls in program.classes:
            for m in cls.methods:
                self._methods[(cls.name, m.name)] = m
        #: entry-name -> Function; programs are immutable after load, so
        #: resolutions (including dotted "Cls.method" splits) never expire
        self._resolve_cache = {}
        self.engine = validate_engine(engine)
        self._compiler = (
            OpenCompiler(self._functions, self._methods, self._classes)
            if self.engine == "compiled"
            else None
        )
        self._codegen = (
            OpenCodegen(
                self._functions, self._methods, self._classes,
                globals_names=frozenset(self.globals),
                counting=self._sink is not None,
            )
            if self.engine == "codegen"
            else None
        )
        if self._sink is not None:
            self._sink.engine("open", self.engine)

    def _literal(self, expr):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.UnaryOp):
            return unary_op(expr.op, self._literal(expr.operand))
        raise RuntimeErr("global initialiser must be a literal")

    # -- public API -----------------------------------------------------------

    def run(self, entry="main", args=()):
        """Execute ``entry`` with ``args``; returns its return value."""
        import sys

        fn = self._resolve_function(entry)
        # Each interpreted call consumes a handful of Python frames; make
        # sure our own max_call_depth guard fires before CPython's.
        needed = self.max_call_depth * 15 + 500
        old_limit = sys.getrecursionlimit()
        if old_limit < needed:
            sys.setrecursionlimit(needed)
        try:
            return self.call_function(fn, list(args))
        finally:
            if old_limit < needed:
                sys.setrecursionlimit(old_limit)
            self.flush_metrics()

    def flush_metrics(self):
        """Publish accumulated step/statement counts to the registry.

        Called automatically at the end of :meth:`run`; flushes deltas, so
        repeated runs on one interpreter never double-count.
        """
        if self._sink is None:
            return
        self._sink.statements("open", self.steps - self._steps_flushed,
                              self._stmt_counts)
        self._stmt_counts.clear()
        self._steps_flushed = self.steps

    def call_function(self, fn, args, receiver=None):
        if len(args) != len(fn.params):
            raise RuntimeErr(
                "%s expects %d args, got %d" % (fn.name, len(fn.params), len(args))
            )
        env = Env(fn, receiver)
        for p, a in zip(fn.params, args):
            value = a
            if isinstance(p.param_type, ast.FloatType) and isinstance(a, int):
                value = float(a)
            elif isinstance(p.param_type, ast.IntType) and isinstance(a, float):
                raise RuntimeErr(
                    "%s: parameter %r is int, got float %r" % (fn.name, p.name, a)
                )
            env.locals[p.name] = value
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            self.call_depth -= 1
            raise RuntimeErr(
                "call depth exceeded %d (unbounded recursion?)" % self.max_call_depth
            )
        try:
            codegen = self._codegen
            if codegen is not None:
                # generated bodies return natively (deopt wrappers catch
                # _Return internally), so no exception round-trip here
                return codegen.body(fn)(self, env)
            compiler = self._compiler
            if compiler is not None:
                for thunk in compiler.body(fn):
                    thunk(self, env)
            else:
                self.exec_body(fn.body, env)
        except _Return as r:
            return r.value
        finally:
            self.call_depth -= 1
        return None

    # -- name resolution -------------------------------------------------------

    def _resolve_function(self, name):
        fn = self._resolve_cache.get(name)
        if fn is not None:
            return fn
        if name in self._functions:
            fn = self._functions[name]
        elif "." in name:
            cls, method = name.split(".", 1)
            fn = self._methods.get((cls, method))
        if fn is None:
            raise RuntimeErr("no function %r" % name)
        self._resolve_cache[name] = fn
        return fn

    def open_access(self, env):
        """The :class:`OpenAccess` window for one activation (``hcall``)."""
        return OpenAccess(self, env)

    def lookup(self, env, name):
        if name in env.locals:
            return env.locals[name]
        if env.receiver is not None and name in env.receiver.fields:
            return env.receiver.fields[name]
        if name in self.globals:
            return self.globals[name]
        raise RuntimeErr("undefined variable %r" % name)

    def assign_name(self, env, name, value):
        if name in env.locals:
            env.locals[name] = value
            return
        if env.receiver is not None and name in env.receiver.fields:
            env.receiver.fields[name] = value
            return
        if name in self.globals:
            self.globals[name] = value
            return
        # Open components of split functions introduce fresh temporaries
        # (``__t1 = ...``) without declarations; create them as locals.
        env.locals[name] = value

    # -- statements -------------------------------------------------------------

    def _tick(self):
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise StepLimitExceeded("exceeded %d steps" % self.max_steps)

    def exec_body(self, body, env):
        for stmt in body:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt, env):
        self._tick()
        counts = self._stmt_counts
        if counts is not None:
            kind = type(stmt).__name__
            counts[kind] = counts.get(kind, 0) + 1
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                value = self.eval_expr(stmt.init, env)
                if isinstance(stmt.var_type, ast.FloatType) and isinstance(value, int):
                    value = float(value)
            else:
                value = default_value(stmt.var_type)
            env.locals[stmt.name] = value
            return
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env)
            return
        if isinstance(stmt, ast.If):
            if self._truthy(self.eval_expr(stmt.cond, env)):
                self.exec_body(stmt.then_body, env)
            else:
                self.exec_body(stmt.else_body, env)
            return
        if isinstance(stmt, ast.While):
            while self._truthy(self.eval_expr(stmt.cond, env)):
                self._tick()
                try:
                    self.exec_body(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.exec_stmt(stmt.init, env)
            while stmt.cond is None or self._truthy(self.eval_expr(stmt.cond, env)):
                self._tick()
                try:
                    self.exec_body(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.update is not None:
                    self.exec_stmt(stmt.update, env)
            return
        if isinstance(stmt, ast.Return):
            value = self.eval_expr(stmt.value, env) if stmt.value is not None else None
            if (
                value is not None
                and env.fn.ret_type is not None
                and isinstance(env.fn.ret_type, ast.FloatType)
                and isinstance(value, int)
            ):
                value = float(value)
            raise _Return(value)
        if isinstance(stmt, ast.CallStmt):
            self.eval_expr(stmt.call, env)
            return
        if isinstance(stmt, ast.Print):
            value = self.eval_expr(stmt.value, env)
            self.output.append(scalar_repr(value))
            return
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        if isinstance(stmt, ast.Block):
            self.exec_body(stmt.body, env)
            return
        raise RuntimeErr("cannot execute %r" % (stmt,))

    def _truthy(self, value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0  # hcall-based predicates return plain values
        raise RuntimeErr("condition is not a bool: %r" % (value,))

    def _exec_assign(self, stmt, env):
        value = self.eval_expr(stmt.value, env)
        target = stmt.target
        if isinstance(target, ast.VarRef):
            self.assign_name(env, target.name, value)
            return
        if isinstance(target, ast.Index):
            arr = self.eval_expr(target.base, env)
            if not isinstance(arr, ArrayValue):
                raise RuntimeErr("assigning into non-array %r" % (arr,))
            arr.set(self.eval_expr(target.index, env), value)
            return
        if isinstance(target, ast.FieldAccess):
            obj = self.eval_expr(target.obj, env)
            if not isinstance(obj, ObjectValue):
                raise RuntimeErr("assigning field of non-object %r" % (obj,))
            obj.fields[target.name] = value
            return
        raise RuntimeErr("invalid assignment target %r" % (target,))

    # -- expressions -------------------------------------------------------------

    def eval_expr(self, expr, env):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self.lookup(env, expr.name)
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "&&":
                return self._truthy(self.eval_expr(expr.left, env)) and self._truthy(
                    self.eval_expr(expr.right, env)
                )
            if expr.op == "||":
                return self._truthy(self.eval_expr(expr.left, env)) or self._truthy(
                    self.eval_expr(expr.right, env)
                )
            left = self.eval_expr(expr.left, env)
            right = self.eval_expr(expr.right, env)
            return binary_op(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            return unary_op(expr.op, self.eval_expr(expr.operand, env))
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.MethodCall):
            receiver = self.eval_expr(expr.receiver, env)
            if not isinstance(receiver, ObjectValue):
                raise RuntimeErr("method call on non-object %r" % (receiver,))
            method = self._methods.get((receiver.class_name, expr.name))
            if method is None:
                raise RuntimeErr(
                    "class %s has no method %r" % (receiver.class_name, expr.name)
                )
            args = [self.eval_expr(a, env) for a in expr.args]
            return self.call_function(method, args, receiver=receiver)
        if isinstance(expr, ast.Index):
            arr = self.eval_expr(expr.base, env)
            if not isinstance(arr, ArrayValue):
                raise RuntimeErr("indexing non-array %r" % (arr,))
            return arr.get(self.eval_expr(expr.index, env))
        if isinstance(expr, ast.FieldAccess):
            obj = self.eval_expr(expr.obj, env)
            if not isinstance(obj, ObjectValue):
                raise RuntimeErr("field access on non-object %r" % (obj,))
            if expr.name not in obj.fields:
                raise RuntimeErr(
                    "object %s has no field %r" % (obj.class_name, expr.name)
                )
            return obj.fields[expr.name]
        if isinstance(expr, ast.NewArray):
            size = self.eval_expr(expr.size, env)
            return ArrayValue.of_size(expr.elem_type, size)
        if isinstance(expr, ast.NewObject):
            cls = self._classes.get(expr.class_name)
            if cls is None:
                raise RuntimeErr("no class %r" % expr.class_name)
            fields = {f.name: default_value(f.field_type) for f in cls.fields}
            obj = ObjectValue(expr.class_name, fields)
            if self.hidden is not None:
                self.hidden.notify_new_instance(obj)
            return obj
        raise RuntimeErr("cannot evaluate %r" % (expr,))

    def _eval_call(self, expr, env):
        name = expr.name
        if name in HIDDEN_BUILTINS:
            return self._eval_hidden_builtin(expr, env)
        args = [self.eval_expr(a, env) for a in expr.args]
        if name in BUILTIN_SIGNATURES:
            return call_builtin(name, args)
        fn = self._functions.get(name)
        if fn is None and env.fn.owner is not None:
            fn = self._methods.get((env.fn.owner, name))
            if fn is not None:
                return self.call_function(fn, args, receiver=env.receiver)
        if fn is None:
            raise RuntimeErr("no function %r" % name)
        return self.call_function(fn, args)

    def _eval_hidden_builtin(self, expr, env):
        if self.hidden is None:
            raise RuntimeErr(
                "%r called but no hidden runtime is attached (running an open "
                "component standalone?)" % expr.name
            )
        if expr.name == "hopen":
            fn_id = self.eval_expr(expr.args[0], env)
            return self.hidden.open_activation(fn_id, receiver=env.receiver)
        if expr.name == "hclose":
            hid = self.eval_expr(expr.args[0], env)
            self.hidden.close_activation(hid)
            return 0
        hid = self.eval_expr(expr.args[0], env)
        label = self.eval_expr(expr.args[1], env)
        values = [self.eval_expr(a, env) for a in expr.args[2:]]
        return self.hidden.call(hid, label, values, OpenAccess(self, env))


# -- profiling frame tags ------------------------------------------------------
# The ast and closure tiers execute every MiniJava function inside the same
# generic ``call_function`` dispatch frame, so a static code-object tag
# cannot identify the callee; the profiler resolves it dynamically from the
# live frame's locals instead (docs/OBSERVABILITY.md, "Profiling").  The
# codegen tier registers its per-function code objects statically in
# :mod:`repro.runtime.codegen`.


def _call_function_tag(frame):
    loc = frame.f_locals
    fn = loc.get("fn")
    interp = loc.get("self")
    if fn is None or interp is None:
        return None
    return (fn.qualified_name, interp.engine, "open")


_profile.register_resolver(
    Interpreter.call_function.__code__, _call_function_tag
)
