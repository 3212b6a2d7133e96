"""The hidden-component server.

Executes the fragments of every split function against per-activation
hidden state.  An activation is created by ``hopen`` (giving the *instance
id* the paper introduces so that simultaneously live instances of a split
recursive function stay separate) and destroyed by ``hclose``.

Fragments run on a dedicated evaluator that resolves names in this order:
fragment parameters / hidden variables (the activation environment), then —
for aggregate accesses only — callbacks into the open component's memory
through the :class:`~repro.runtime.interpreter.OpenAccess` window.  Every
callback is charged to the channel as an extra interaction, reproducing the
paper's observation for javac that hiding whole loops makes the number of
inputs "varying ... in each iteration a different array element was being
sent to the hidden side".
"""

import time

from repro import obs
# exported metric names (documented in docs/OBSERVABILITY.md)
from repro.obs.metrics import (  # noqa: F401 (re-exported)
    M_ACTIVATIONS, M_CALLS, M_FRAGMENT_STEPS, M_STEPS, M_STMTS,
)
from repro.obs import profile as _profile
from repro.lang import ast
from repro.core.hidden import FragmentKind
from repro.runtime.cache import CacheEntry, FragmentCache, tag_value
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.compile import (
    DEFAULT_ENGINE, fragment_entry, validate_engine,
)
# control flow is shared by every engine
from repro.runtime.values import (
    RuntimeErr,
    _Break,
    _Continue,
    binary_op,
    call_builtin,
    default_value,
    unary_op,
)
from repro.lang.typecheck import BUILTIN_SIGNATURES


#: batch-cache miss sentinel (prefetched values may legitimately be falsy)
_MISSING = object()


def deferrable_labels(registry):
    """``{fn_id: [label, ...]}`` of one-way calls — ``set``/``stmts``
    fragments that never touch open aggregates — advertised in the remote
    handshake so a batching client knows what it may coalesce
    (docs/PROTOCOL.md).  The same fact decides which calls an in-process
    batching server defers."""
    out = {}
    for fn_id, (_name, fragments, _storage) in registry.items():
        labels = [
            label
            for label, frag in fragments.items()
            if fragment_entry(frag).deferrable
        ]
        if labels:
            out[fn_id] = sorted(labels)
    return out


class Tenant:
    """One served program: its fragment registry, hidden-state
    initialisers, and the handshake facts derived from them.

    The multi-tenant daemon (:class:`repro.runtime.remote.
    HiddenComponentServer`, docs/OPERATIONS.md) keeps one ``Tenant`` per
    registered program and mints a fresh per-session :class:`HiddenServer`
    from it on demand, so sessions — and therefore tenants — never share
    activation, instance, or hidden-global state.
    """

    __slots__ = ("name", "registry", "hidden_globals", "hidden_field_classes",
                 "deferrable", "functions")

    def __init__(self, name, registry, hidden_globals=None,
                 hidden_field_classes=None):
        self.name = str(name)
        self.registry = registry
        self.hidden_globals = dict(hidden_globals or {})
        self.hidden_field_classes = dict(hidden_field_classes or {})
        self.deferrable = deferrable_labels(registry)
        #: split-function name -> fn_id, advertised in the handshake so
        #: log-replay clients (repro loadgen) can resolve recorded names
        self.functions = {
            fn_name: fn_id
            for fn_id, (fn_name, _fragments, _storage) in registry.items()
        }

    @classmethod
    def from_program(cls, name, program):
        """Build from anything with a ``registry()`` — a ``SplitProgram``
        or an imported ``DeployedSplitProgram``."""
        return cls(
            name,
            program.registry(),
            hidden_globals=getattr(program, "hidden_global_inits", None),
            hidden_field_classes=getattr(program, "hidden_field_classes", None),
        )

    def new_server(self, channel=None, engine=DEFAULT_ENGINE):
        """A fresh :class:`HiddenServer` over this tenant's tables, with
        private copies of the initial hidden state."""
        return HiddenServer(
            self.registry,
            channel or Channel(LatencyModel.instant(), record=False),
            hidden_globals=dict(self.hidden_globals),
            hidden_field_classes=dict(self.hidden_field_classes),
            engine=engine,
        )


class Activation:
    """Hidden state of one live instance of a split function."""

    __slots__ = ("hid", "fn_id", "fn_name", "env", "receiver_oid")

    def __init__(self, hid, fn_id, fn_name, receiver_oid=None):
        self.hid = hid
        self.fn_id = fn_id
        self.fn_name = fn_name
        self.env = {}
        self.receiver_oid = receiver_oid


class HiddenServer:
    """Serves fragment executions for a split program."""

    def __init__(self, registry, channel, max_steps=20_000_000,
                 hidden_globals=None, hidden_field_classes=None,
                 batching=False, engine=DEFAULT_ENGINE, cache=False):
        """``registry``: fn_id -> (name, {label: HiddenFragment}, storage_map).

        ``hidden_globals`` maps hidden global names to their initial values
        (global-hiding mode); ``hidden_field_classes`` maps class names to
        ``{field: initial value}`` for split classes — per-instance hidden
        state is created when the open component reports ``new`` (the
        paper's instance-id protocol).

        ``batching`` enables the communication optimisation layer
        (docs/PROTOCOL.md): one-way messages (``close``, ``new_instance``,
        and calls to ``set``/``stmts`` fragments that never touch open
        aggregates) are deferred on the channel and coalesced into single
        ``batch`` round trips, and fragments with prefetch manifests pull
        open-memory reads through one ``fetch_batch`` callback per
        statement execution.  Off by default: without it, channel traffic
        is bit-identical to the paper's one-message-per-interaction model.

        ``engine`` selects the fragment execution strategy (docs/ENGINE.md):
        ``"compiled"`` (default) runs each fragment as closures,
        ``"codegen"`` as generated Python source, and ``"ast"`` walks the
        tree.  All three are observably bit-identical.  Fragments are
        lowered on first call by :mod:`repro.runtime.compile` and shared
        with every other server — every daemon session — running them.

        ``cache`` enables the Hf-side fragment result cache
        (:mod:`repro.runtime.cache`, docs/CACHING.md): fragments the
        purity pass proves cacheable have their executions memoized,
        bit-identically to uncached execution.  Pass ``True`` for a
        default per-server cache, or a ready :class:`~repro.runtime.
        cache.FragmentCache` (the daemon does this to attach per-tenant
        quotas).
        """
        self.registry = registry
        self.channel = channel
        self.activations = {}
        self.steps = 0
        self.max_steps = max_steps
        self._next_hid = 1
        self.hidden_globals = dict(hidden_globals or {})
        self.hidden_field_classes = dict(hidden_field_classes or {})
        self.instances = {}  # oid -> {hidden field: value}
        self.batching = batching
        self.engine = validate_engine(engine)
        if isinstance(cache, FragmentCache):
            self.cache = cache
        elif cache:
            self.cache = FragmentCache()
        else:
            self.cache = None
        self._sink = obs.get_sink()
        if self._sink is not None:
            self._sink.engine("hidden", self.engine)

    # -- activation management -------------------------------------------------

    def open_activation(self, fn_id, receiver=None):
        if fn_id not in self.registry:
            raise RuntimeErr("hidden server: unknown function id %r" % fn_id)
        hid = self._next_hid
        self._next_hid += 1
        fn_name, _fragments, _storage = self.registry[fn_id]
        receiver_oid = receiver.oid if receiver is not None else None
        self.activations[hid] = Activation(hid, fn_id, fn_name, receiver_oid)
        if self._sink is not None:
            self._sink.activation("open")
        self.channel.round_trip("open", hid, fn_name, None, (fn_id,), hid)
        return hid

    def close_activation(self, hid):
        activation = self.activations.pop(hid, None)
        if activation is not None:
            if self._sink is not None:
                self._sink.activation("close")
            if self.batching:
                # hclose returns nothing: a pure send, safe to coalesce
                self.channel.defer("close", hid, activation.fn_name, None, ())
            else:
                self.channel.round_trip(
                    "close", hid, activation.fn_name, None, (), None
                )

    def notify_new_instance(self, obj):
        """The class-splitting instance-id protocol: when the open component
        instantiates a split class, the server creates the corresponding
        hidden field storage under the same instance id."""
        fields = self.hidden_field_classes.get(obj.class_name)
        if fields is None:
            return
        self.instances[obj.oid] = dict(fields)
        if self.cache is not None:
            # new hidden field storage came into existence: a store write
            self.cache.invalidate(fn=obj.class_name)
        if self.batching:
            # the open side never reads the echoed oid; any call that could
            # touch the new instance flushes the batch first
            self.channel.defer("open", None, obj.class_name, None, (obj.oid,))
        else:
            self.channel.round_trip(
                "open", None, obj.class_name, None, (obj.oid,), obj.oid
            )

    # -- result caching ----------------------------------------------------------

    def _cache_key(self, activation, label, values, verdict):
        """The content key for one cacheable call, or ``None`` when any
        input is a non-scalar (unkeyable: execute for real).

        Components (docs/CACHING.md): fragment identity, type-tagged sent
        values, type-tagged snapshot of the ``env_reads`` names, and — only
        for fragments reading hidden globals/fields — the invalidation
        epoch plus (for field readers) the receiver's instance id."""
        tagged = []
        for value in values:
            t = tag_value(value)
            if t is None:
                return None
            tagged.append(t)
        env = activation.env
        env_key = []
        for name in verdict.env_reads:
            # default 0 mirrors _read_name's read-before-write rule
            t = tag_value(env.get(name, 0))
            if t is None:
                return None
            env_key.append((name, t))
        epoch = (
            self.cache.epoch
            if verdict.reads_globals or verdict.reads_fields
            else None
        )
        oid = activation.receiver_oid if verdict.reads_fields else None
        return (
            activation.fn_id, label, tuple(tagged), tuple(env_key), epoch, oid
        )

    # -- fragment execution ------------------------------------------------------

    def call(self, hid, label, values, access):
        activation = self.activations.get(hid)
        if activation is None:
            raise RuntimeErr("hidden server: no activation %r" % hid)
        fn_name, fragments, storage_map = self.registry[activation.fn_id]
        fragment = fragments.get(label)
        if fragment is None:
            raise RuntimeErr(
                "hidden server: %s has no fragment %r" % (fn_name, label)
            )
        if len(values) != len(fragment.params):
            raise RuntimeErr(
                "fragment %s#%d expects %d values, got %d"
                % (fn_name, label, len(fragment.params), len(values))
            )
        env = activation.env
        for name, value in zip(fragment.params, values):
            env[name] = value
        facts = fragment_entry(fragment)
        sink = self._sink
        stmt_counts = {} if sink is not None else None
        steps_before = self.steps
        wall_t0 = time.perf_counter() if sink is not None else 0.0
        cache = self.cache
        verdict = None
        cache_key = None
        entry = None
        if cache is not None:
            # classified for *every* fragment: uncacheable fragments that
            # write the hidden store must still invalidate (below)
            verdict = facts.purity(fragment, storage_map)
            if verdict.cacheable:
                cache_key = self._cache_key(activation, label, values, verdict)
                if cache_key is not None:
                    entry = cache.lookup(
                        cache_key, fn=fn_name, label=label,
                        max_steps_left=(
                            None
                            if self.max_steps is None
                            else self.max_steps - self.steps
                        ),
                    )
        # a filling execution (a keyable miss) runs against a
        # write-tracking copy: the stored entry must replay exactly the
        # names the execution *wrote*.  A value diff against the pre-call
        # env is unsound — it drops a write whose value happens to equal
        # the name's previous one, and a later hit in an activation where
        # that name differs then fails to re-apply the write.
        filling = None
        if entry is None and cache_key is not None:
            filling = _WriteTrackingEnv(env)
        try:
            if entry is not None:
                # transparent replay: the recorded step count, statement
                # mix, activation-env writes, and result of the filling
                # execution — then exactly the accounting a real
                # execution performs
                self.steps += entry.steps
                if entry.env_writes:
                    env.update(entry.env_writes)
                if stmt_counts is not None and entry.stmt_counts:
                    for kind, count in entry.stmt_counts.items():
                        stmt_counts[kind] = stmt_counts.get(kind, 0) + count
                result = entry.result
            else:
                result = self._execute(
                    activation, fragment, facts, access,
                    env if filling is None else filling, storage_map,
                    fn_name, stmt_counts,
                )
        finally:
            # flush even when the fragment aborts (step limit, runtime
            # error) — partial step/statement counts would otherwise be
            # dropped from the registry
            if sink is not None:
                sink.fragment(fn_name, label, self.steps - steps_before,
                              stmt_counts, wall_t0)
            # an aborted writer may have mutated the store already, so
            # the epoch bump sits with the other must-run accounting
            if (
                entry is None
                and verdict is not None
                and verdict.writes_hidden_store
            ):
                cache.invalidate(fn=fn_name, label=label)
            if filling is not None:
                # fold the tracked writes back into the real activation
                # env — also on an abort, which mutates the env exactly
                # like an uncached aborted execution would
                for name in filling.written:
                    env[name] = filling[name]
        if filling is not None:
            cache.store(
                cache_key,
                CacheEntry(
                    result,
                    self.steps - steps_before,
                    stmt_counts=dict(stmt_counts) if stmt_counts else None,
                    env_writes={
                        name: filling[name] for name in filling.written
                    },
                ),
                fn=fn_name, label=label,
            )
        if self.batching and facts.deferrable:
            self.channel.defer("call", hid, fn_name, label, values)
        else:
            self.channel.round_trip("call", hid, fn_name, label, values, result)
        return result

    def _execute(self, activation, fragment, facts, access, env, storage_map,
                 fn_name, stmt_counts):
        """Really execute ``fragment`` (a cache miss, an unkeyable call, or
        caching disabled) against ``env``."""
        stmt_prefetch, result_reads = None, ()
        if (
            self.batching
            and access is not None
            and hasattr(access, "fetch_batch")
        ):
            stmt_prefetch, result_reads = facts.prefetch(fragment)
        evaluator = _FragmentEvaluator(
            self, env, access, activation.hid, fn_name, storage_map,
            activation.receiver_oid, stmt_counts=stmt_counts,
            prefetch_map=stmt_prefetch,
        )
        body, result_thunk = facts.code(fragment, storage_map, self.engine,
                                        stmt_counts is not None)
        for thunk in body:
            thunk(evaluator)
        if result_thunk is None:
            return 0  # the paper's "any" value
        try:
            # inside the clearing scope: a prefetch aborting after
            # partially populating the batch cache must not leak entries
            # into later statements (see prefetch_reads)
            if result_reads:
                evaluator.prefetch_reads(result_reads)
            result = result_thunk(evaluator)
        finally:
            evaluator.clear_batch_cache()
        if fragment.kind == FragmentKind.PRED:
            result = bool(result)
        return result

    def _tick(self):
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise RuntimeErr("hidden server exceeded %d steps" % self.max_steps)


class _WriteTrackingEnv(dict):
    """Activation-env copy that remembers which names were assigned.

    Used only while *filling* the cache: every engine writes activation
    names with ``env[name] = value``, so the ``written`` set is exactly
    the replayable write set of the execution (see ``_execute``).
    """

    __slots__ = ("written",)

    def __init__(self, base):
        dict.__init__(self, base)
        self.written = set()

    def __setitem__(self, name, value):
        self.written.add(name)
        dict.__setitem__(self, name, value)


class _FragmentEvaluator:
    """Statement/expression evaluation inside a hidden fragment.

    Scalar name resolution: hidden globals and hidden fields (per the
    fragment's storage map) live in server-wide / per-instance stores; all
    other names are activation-local (parameters and hidden locals).
    """

    def __init__(self, server, env, access, hid, fn_name, storage_map=None,
                 receiver_oid=None, stmt_counts=None, prefetch_map=None):
        self.server = server
        self.env = env
        self.access = access
        self.hid = hid
        self.fn_name = fn_name
        self.storage_map = storage_map or {}
        self.receiver_oid = receiver_oid
        self.stmt_counts = stmt_counts
        #: id(stmt) -> [read nodes] from the fragment's prefetch manifest
        self.prefetch_map = prefetch_map
        #: id(read node) -> prefetched value, valid for one statement
        self._batch_cache = {}

    def _read_name(self, name):
        kind = self.storage_map.get(name)
        if kind == "global":
            return self.server.hidden_globals.get(name, 0)
        if kind == "field":
            fields = self._instance_fields()
            return fields.get(name, 0)
        if name in self.env:
            return self.env[name]
        # Hidden variable read before any write: mirrors a default-
        # initialised local (the open program was type checked).
        return 0

    def _write_name(self, name, value):
        kind = self.storage_map.get(name)
        if kind == "global":
            self.server.hidden_globals[name] = value
            return
        if kind == "field":
            self._instance_fields()[name] = value
            return
        self.env[name] = value

    def _instance_fields(self):
        if self.receiver_oid is None:
            raise RuntimeErr(
                "hidden fragment of %s touches hidden fields without an "
                "instance id" % self.fn_name
            )
        fields = self.server.instances.get(self.receiver_oid)
        if fields is None:
            raise RuntimeErr(
                "hidden server has no instance %r (was 'new' reported?)"
                % self.receiver_oid
            )
        return fields

    # -- statements ---------------------------------------------------------------

    def exec_body(self, body):
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt):
        self.server._tick()
        counts = self.stmt_counts
        if counts is not None:
            kind = type(stmt).__name__
            counts[kind] = counts.get(kind, 0) + 1
        reads = (
            self.prefetch_map.get(id(stmt)) if self.prefetch_map else None
        )
        if reads is None:
            return self._dispatch_stmt(stmt)
        # callback batching: pull every open-memory read this statement
        # performs in one fetch_batch round trip (re-issued per execution,
        # so loop bodies batch on every iteration)
        self.prefetch_reads(reads)
        try:
            return self._dispatch_stmt(stmt)
        finally:
            self.clear_batch_cache()

    def _dispatch_stmt(self, stmt):
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                value = self.eval_expr(stmt.init)
                if isinstance(stmt.var_type, ast.FloatType) and isinstance(value, int):
                    value = float(value)
                self.env[stmt.name] = value
            else:
                self.env[stmt.name] = default_value(stmt.var_type)
            return
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value)
            target = stmt.target
            if isinstance(target, ast.VarRef):
                self._write_name(target.name, value)
                return
            if isinstance(target, ast.Index):
                if not isinstance(target.base, ast.VarRef):
                    raise RuntimeErr("hidden fragment: complex array target")
                index = self.eval_expr(target.index)
                self._cb_store_index(target.base.name, index, value)
                return
            if isinstance(target, ast.FieldAccess):
                if not isinstance(target.obj, ast.VarRef):
                    raise RuntimeErr("hidden fragment: complex field target")
                self._cb_store_field(target.obj.name, target.name, value)
                return
            raise RuntimeErr("hidden fragment: bad assignment target")
        if isinstance(stmt, ast.If):
            if self._truthy(self.eval_expr(stmt.cond)):
                self.exec_body(stmt.then_body)
            else:
                self.exec_body(stmt.else_body)
            return
        if isinstance(stmt, ast.While):
            while self._truthy(self.eval_expr(stmt.cond)):
                self.server._tick()
                try:
                    self.exec_body(stmt.body)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while stmt.cond is None or self._truthy(self.eval_expr(stmt.cond)):
                self.server._tick()
                try:
                    self.exec_body(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.update is not None:
                    self.exec_stmt(stmt.update)
            return
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        if isinstance(stmt, ast.Block):
            self.exec_body(stmt.body)
            return
        raise RuntimeErr("hidden fragment cannot execute %r" % (stmt,))

    def _truthy(self, value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        raise RuntimeErr("hidden fragment: condition is not a bool: %r" % (value,))

    # -- expressions -----------------------------------------------------------------

    def eval_expr(self, expr):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self._read_name(expr.name)
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "&&":
                return self._truthy(self.eval_expr(expr.left)) and self._truthy(
                    self.eval_expr(expr.right)
                )
            if expr.op == "||":
                return self._truthy(self.eval_expr(expr.left)) or self._truthy(
                    self.eval_expr(expr.right)
                )
            return binary_op(expr.op, self.eval_expr(expr.left), self.eval_expr(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return unary_op(expr.op, self.eval_expr(expr.operand))
        if isinstance(expr, ast.Call):
            if expr.name not in BUILTIN_SIGNATURES:
                raise RuntimeErr(
                    "hidden fragment may not call function %r" % expr.name
                )
            return call_builtin(expr.name, [self.eval_expr(a) for a in expr.args])
        if isinstance(expr, ast.Index):
            if self._batch_cache:
                cached = self._batch_cache.get(id(expr), _MISSING)
                if cached is not _MISSING:
                    return cached
            if not isinstance(expr.base, ast.VarRef):
                raise RuntimeErr("hidden fragment: complex array base")
            index = self.eval_expr(expr.index)
            return self._cb_fetch_index(expr.base.name, index)
        if isinstance(expr, ast.FieldAccess):
            if self._batch_cache:
                cached = self._batch_cache.get(id(expr), _MISSING)
                if cached is not _MISSING:
                    return cached
            if not isinstance(expr.obj, ast.VarRef):
                raise RuntimeErr("hidden fragment: complex field object")
            return self._cb_fetch_field(expr.obj.name, expr.name)
        raise RuntimeErr("hidden fragment cannot evaluate %r" % (expr,))

    # -- callbacks into open memory -----------------------------------------------------

    def prefetch_reads(self, reads):
        """Fetch a manifest entry's reads through one batched callback.

        Index expressions are evaluated here, at statement entry — by
        manifest eligibility they are pure and aggregate-free, so this
        matches what the inline evaluation would have computed.  Fetched
        values are cached per read *node*; :meth:`eval_expr` consumes the
        cache instead of issuing individual callbacks.
        """
        try:
            items = []
            for node in reads:
                if isinstance(node, ast.Index):
                    items.append(
                        ("index", node.base.name, self.eval_expr(node.index))
                    )
                else:
                    items.append(("field", node.obj.name, node.name))
            values = self.access.fetch_batch(items)
            if len(values) != len(items):
                # a short (or long) reply must not partially populate the
                # cache: later reads would silently fall back to unbatched
                # callbacks, changing the observable traffic
                raise RuntimeErr(
                    "hidden fragment of %s: fetch_batch returned %d values "
                    "for %d reads" % (self.fn_name, len(values), len(items))
                )
            sent = []
            for _kind, name, key in items:
                sent.append(name)
                sent.append(key)
            self.server.channel.round_trip(
                "cb_batch", self.hid, self.fn_name, None, tuple(sent), None
            )
            for node, value in zip(reads, values):
                self._batch_cache[id(node)] = value
        except BaseException:
            # an abort mid-prefetch (bad reply, failed callback, step
            # limit) leaves no stale entries for later statements
            self.clear_batch_cache()
            raise

    def clear_batch_cache(self):
        self._batch_cache.clear()

    def _cb_fetch_index(self, name, index):
        value = self.access.fetch_index(name, index)
        self.server.channel.round_trip(
            "cb_fetch", self.hid, self.fn_name, None, (name, index), value
        )
        return value

    def _cb_store_index(self, name, index, value):
        self.access.store_index(name, index, value)
        self.server.channel.round_trip(
            "cb_store", self.hid, self.fn_name, None, (name, index, value), None
        )

    def _cb_fetch_field(self, name, field):
        value = self.access.fetch_field(name, field)
        self.server.channel.round_trip(
            "cb_fetch", self.hid, self.fn_name, None, (name, field), value
        )
        return value

    def _cb_store_field(self, name, field, value):
        self.access.store_field(name, field, value)
        self.server.channel.round_trip(
            "cb_store", self.hid, self.fn_name, None, (name, field, value), None
        )


# -- profiling frame tags ------------------------------------------------------
# Every hidden fragment executes inside one ``HiddenServer.call`` dispatch
# frame; the profiler resolves the fragment identity and engine from the
# frame's locals (the codegen tier additionally tags its generated
# ``__frag`` code objects statically, giving the same row name).


def _server_call_tag(frame):
    loc = frame.f_locals
    server = loc.get("self")
    label = loc.get("label")
    if server is None or label is None:
        return None
    return ("fragment#%s" % (label,), server.engine, "hidden")


_profile.register_resolver(HiddenServer.call.__code__, _server_call_tag)
# fragment execution itself happens one frame down, in _execute
_profile.register_resolver(HiddenServer._execute.__code__, _server_call_tag)
