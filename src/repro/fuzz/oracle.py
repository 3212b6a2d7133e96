"""The differential oracle: one program, every execution configuration.

The reference configuration is the original (unsplit) program on the AST
engine — the straightforward implementation of the language semantics.
Every other configuration must agree with it on *observable behaviour*
(printed output and entry return value), and configurations that differ
only in execution strategy must also agree on the fine-grained accounting:

* ``original-compiled`` — same step count as the reference;
* ``split-ast`` vs ``split-compiled`` and ``split-codegen`` vs
  ``split-compiled`` (and their ``-batch`` variants) — identical
  open/hidden step counts, round-trip counts, and transcripts (every
  event's kind, fragment, values, result and cost; the engines are
  documented bit-identical, docs/ENGINE.md);
* ``socket-*`` — the real TCP transport must carry exactly the traffic
  the simulated channel accounts for (plus the one ``hello`` handshake
  round trip when batching is on, docs/PROTOCOL.md);
* ``socket-compiled-traced`` — distributed tracing on (``--trace``):
  trace context and phase measurement must not change behaviour *or*
  accounting, so its round-trip count is checked against the untraced
  ``split-compiled`` cell with no handshake allowance at all (the trace
  hello is deliberately uncounted, docs/PROTOCOL.md);
* ``split-cache`` / ``split-cache-codegen`` / ``socket-cache`` — the
  fragment result cache on (``--cache on``, docs/CACHING.md): hits must
  be bit-identical to real executions, so the cache cells are held to
  the engine-equivalence bar (steps *and* transcripts) against
  their uncached counterparts, and the socket cell's cache hello is
  uncounted like the trace hello;
* ``split-compiled-telemetry`` / ``split-codegen-telemetry`` —
  ``split-compiled`` / ``split-codegen`` with metrics and the flight
  recorder on: instrumentation must not perturb what it observes, so
  each is held to the same bar against its plain cell, and the
  registry's round-trip counter, the transcript length and the
  recorder's ``channel`` event count must all agree.  Each side that
  executed statements must also have counted some, and no more than its
  steps: codegen bakes the counters into the generated source, so this
  catches a lowered body shared between a counting and a plain run.

A program whose automatic selection finds nothing to split (or where an
explicit choice raises ``SplitError``) skips the split configurations —
that is a selection outcome, not a divergence.
"""

import threading

from repro import obs
# exported metric names (documented in docs/OBSERVABILITY.md)
from repro.obs.metrics import M_DIVERGENCES, M_PROGRAMS, M_ROUND_TRIPS, M_STMTS
from repro.core.pipeline import split_source
from repro.core.splitter import SplitError
from repro.runtime.channel import LatencyModel
from repro.runtime.splitrun import run_original, run_split, _values_differ

#: the reference configuration every other one is diffed against
BASELINE = "original-ast"

#: generated programs are tiny; a run that needs more steps than this is
#: itself a generator bug worth surfacing
DEFAULT_MAX_STEPS = 2_000_000


class Config:
    """One cell of the execution matrix."""

    __slots__ = ("name", "split", "engine", "batching", "socket", "trace",
                 "cache", "telemetry")

    def __init__(self, name, split, engine, batching=False, socket=False,
                 trace=False, cache=False, telemetry=False):
        self.name = name
        self.split = split
        self.engine = engine
        self.batching = batching
        self.socket = socket
        self.trace = trace
        self.cache = cache
        self.telemetry = telemetry

    def __repr__(self):
        return "<Config %s>" % self.name


#: the full matrix: original/split x ast/compiled/codegen x batching x transport.
#: socket configs pick the *client* engine; the in-process server runs the
#: default engine, so ``socket-ast`` additionally crosses engines between
#: the two sides.
CONFIGS = (
    Config("original-compiled", split=False, engine="compiled"),
    Config("split-ast", split=True, engine="ast"),
    Config("split-compiled", split=True, engine="compiled"),
    Config("split-ast-batch", split=True, engine="ast", batching=True),
    Config("split-compiled-batch", split=True, engine="compiled",
           batching=True),
    Config("split-codegen", split=True, engine="codegen"),
    Config("split-codegen-batch", split=True, engine="codegen",
           batching=True),
    Config("socket-ast", split=True, engine="ast", socket=True),
    Config("socket-compiled", split=True, engine="compiled", socket=True),
    Config("socket-compiled-batch", split=True, engine="compiled",
           batching=True, socket=True),
    Config("socket-compiled-traced", split=True, engine="compiled",
           socket=True, trace=True),
    Config("socket-codegen", split=True, engine="codegen", socket=True),
    Config("split-cache", split=True, engine="compiled", cache=True),
    Config("split-cache-codegen", split=True, engine="codegen", cache=True),
    Config("socket-cache", split=True, engine="compiled", socket=True,
           cache=True),
    Config("split-compiled-telemetry", split=True, engine="compiled",
           telemetry=True),
    Config("split-codegen-telemetry", split=True, engine="codegen",
           telemetry=True),
)

CONFIG_NAMES = tuple(c.name for c in CONFIGS)

#: telemetry cell -> the plain cell it must be bit-identical to
_TELEMETRY_CELLS = {
    "split-compiled-telemetry": "split-compiled",
    "split-codegen-telemetry": "split-codegen",
}

#: Telemetry scopes are process-wide (repro.obs): a run another campaign
#: thread (``--jobs``) started while a telemetry cell is active would
#: report into that cell's registry.  So runs and socket-server start-ups
#: take turns; under the GIL the campaign loses little by it.
_RUN_LOCK = threading.Lock()

#: accounting cross-checks between configurations that must carry the
#: same traffic: (left, right, hello_delta) — left's round-trip count
#: must equal right's plus ``hello_delta``
_TRAFFIC_PAIRS = (
    ("split-ast", "split-compiled", 0),
    ("split-ast-batch", "split-compiled-batch", 0),
    ("socket-ast", "split-ast", 0),
    ("socket-compiled", "split-compiled", 0),
    ("split-codegen", "split-compiled", 0),
    ("split-codegen-batch", "split-compiled-batch", 0),
    ("socket-codegen", "split-codegen", 0),
    ("socket-compiled-batch", "split-compiled-batch", 1),
    # tracing rides in frame fields and an uncounted handshake frame, so a
    # traced run's accounting is identical to the plain socket run's
    ("socket-compiled-traced", "split-compiled", 0),
    # caching must not change traffic at all: hits replay the very round
    # trips a real execution performs, and the socket cell's cache hello
    # is uncounted like the trace hello (docs/CACHING.md)
    ("split-cache", "split-compiled", 0),
    ("split-cache-codegen", "split-codegen", 0),
    ("socket-cache", "split-cache", 0),
    ("split-compiled-telemetry", "split-compiled", 0),
    ("split-codegen-telemetry", "split-codegen", 0),
)


def select_configs(spec):
    """Resolve a ``--configs`` comma-separated spec to Config objects."""
    if not spec:
        return CONFIGS
    wanted = [s.strip() for s in spec.split(",") if s.strip()]
    by_name = {c.name: c for c in CONFIGS}
    unknown = [w for w in wanted if w not in by_name]
    if unknown:
        raise ValueError(
            "unknown config %s (known: %s)"
            % (", ".join(unknown), ", ".join(CONFIG_NAMES))
        )
    return tuple(by_name[w] for w in wanted)


class Observation:
    """What one run under one configuration looked like."""

    __slots__ = ("value", "output", "steps_open", "steps_hidden",
                 "interactions", "transcript", "error", "telemetry")

    def __init__(self, value=None, output=(), steps_open=0, steps_hidden=0,
                 interactions=0, transcript=(), error=None):
        self.value = value
        self.output = list(output)
        self.steps_open = steps_open
        self.steps_hidden = steps_hidden
        self.interactions = interactions
        #: every channel event as ``(kind, hid, fn, label, sent, result,
        #: cost_ms)``
        self.transcript = tuple(transcript)
        self.error = error
        #: ``(registry round trips, recorder channel events, {side:
        #: counted statements})`` for a telemetry cell, else None
        self.telemetry = None


class Divergence:
    """One observed disagreement between two configurations."""

    __slots__ = ("config", "against", "kind", "detail", "args")

    def __init__(self, config, against, kind, detail, args):
        self.config = config
        self.against = against
        self.kind = kind
        self.detail = detail
        self.args = tuple(args)

    def describe(self):
        return "%s vs %s [%s] args=%r: %s" % (
            self.config, self.against, self.kind, self.args, self.detail
        )

    def __repr__(self):
        return "<Divergence %s>" % self.describe()


class MatrixResult:
    """All observations and divergences for one program."""

    def __init__(self, source, arg_sets, configs, split_summary):
        self.source = source
        self.arg_sets = list(arg_sets)
        self.configs = [c.name for c in configs]
        self.split_summary = split_summary  # e.g. "f:a,Box.step:t" or ""
        self.observations = {}  # (config_name, args) -> Observation
        self.divergences = []

    @property
    def diverged(self):
        return bool(self.divergences)


def _observe(thunk):
    try:
        result = thunk()
    except Exception as exc:  # a crash is an observation, not a campaign abort
        return Observation(error="%s: %s" % (type(exc).__name__, exc))
    events = ()
    interactions = 0
    if result.channel is not None:
        interactions = result.channel.interactions
        transcript = getattr(result.channel, "transcript", None)
        if transcript is not None:
            events = [
                (e.kind, e.hid, e.fn_name, e.label, e.sent, e.result,
                 e.cost_ms)
                for e in transcript.events
            ]
    return Observation(result.value, result.output, result.steps_open,
                       result.steps_hidden, interactions, events)


def _observe_with_telemetry(thunk):
    """:func:`_observe` under a fresh metrics + flight-recorder scope."""
    from repro.obs.events import FlightRecorder

    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        observation = _observe(thunk)
    stmts = {"open": 0, "hidden": 0}
    for metric in registry.collect():
        if metric.name == M_STMTS:
            stmts[metric.labels["side"]] += metric.value
    observation.telemetry = (registry.total(M_ROUND_TRIPS),
                             len(recorder.by_type("channel")), stmts)
    return observation


def _run_config(config, program, sp, address, args, max_steps):
    if not config.split:
        return _observe(lambda: run_original(
            program, args=args, max_steps=max_steps, engine=config.engine))
    if config.socket:
        from repro.runtime.remote import run_split_remote

        return _observe(lambda: run_split_remote(
            sp, address, args=args, max_steps=max_steps,
            batching=config.batching, engine=config.engine,
            trace=config.trace, cache=config.cache))
    observe = _observe_with_telemetry if config.telemetry else _observe
    return observe(lambda: run_split(
        sp, args=args, latency=LatencyModel.instant(), max_steps=max_steps,
        batching=config.batching, engine=config.engine, cache=config.cache))


def _diff_behaviour(result, config_name, base, obs_, args):
    """Output / return value / error identity against the reference."""
    found = []
    if (base.error is None) != (obs_.error is None) or (
        base.error is not None and base.error != obs_.error
    ):
        found.append(Divergence(config_name, BASELINE, "error",
                                "%r vs %r" % (base.error, obs_.error), args))
        return found
    if base.error is not None:
        return found  # both failed identically; nothing more to compare
    if obs_.output != base.output:
        found.append(Divergence(
            config_name, BASELINE, "output",
            "expected %r, got %r" % (base.output, obs_.output), args))
    if _values_differ(base.value, obs_.value):
        found.append(Divergence(
            config_name, BASELINE, "value",
            "expected %r, got %r" % (base.value, obs_.value), args))
    return found


def _diff_accounting(result, present, args):
    """Step-count and transcript-shape agreement between configurations
    that must execute identically."""
    found = []
    base = result.observations.get((BASELINE, args))
    oc = present.get("original-compiled")
    if oc is not None and oc.error is None and base.error is None:
        if oc.steps_open != base.steps_open:
            found.append(Divergence(
                "original-compiled", BASELINE, "steps",
                "%d vs %d open steps" % (oc.steps_open, base.steps_open),
                args))
    for eng_pair in (("split-ast", "split-compiled"),
                     ("split-ast-batch", "split-compiled-batch"),
                     ("split-codegen", "split-compiled"),
                     ("split-codegen-batch", "split-compiled-batch"),
                     # cache cells: a hit must replay the exact steps and
                     # transcript of the execution it memoized
                     ("split-cache", "split-compiled"),
                     ("split-cache-codegen", "split-codegen"),
                     *_TELEMETRY_CELLS.items()):
        a, b = (present.get(n) for n in eng_pair)
        if a is None or b is None or a.error or b.error:
            continue
        if (a.steps_open, a.steps_hidden) != (b.steps_open, b.steps_hidden):
            found.append(Divergence(
                eng_pair[0], eng_pair[1], "steps",
                "open+hidden %d+%d vs %d+%d"
                % (a.steps_open, a.steps_hidden, b.steps_open,
                   b.steps_hidden), args))
        if a.transcript != b.transcript:
            i = next((i for i, (x, y) in enumerate(zip(a.transcript,
                                                       b.transcript))
                      if x != y), min(len(a.transcript), len(b.transcript)))
            found.append(Divergence(
                eng_pair[0], eng_pair[1], "transcript",
                "event %d: %r vs %r"
                % (i + 1, a.transcript[i:i + 1], b.transcript[i:i + 1]),
                args))
    for name in _TELEMETRY_CELLS:
        cell = present.get(name)
        if cell is None or cell.error:
            continue
        # the three views of the traffic must agree
        counted, recorded, stmts = cell.telemetry
        if not counted == len(cell.transcript) == recorded:
            found.append(Divergence(
                name, name, "telemetry",
                "%d registry round trips, %d transcript events, %d recorder "
                "channel events" % (counted, len(cell.transcript), recorded),
                args))
        steps = {"open": cell.steps_open, "hidden": cell.steps_hidden}
        for side in ("open", "hidden"):
            if (stmts[side] > 0) != (steps[side] > 0) or \
                    stmts[side] > steps[side]:
                found.append(Divergence(
                    name, name, "telemetry",
                    "%s side: %d statements counted in %d steps"
                    % (side, stmts[side], steps[side]), args))
    for left, right, hello in _TRAFFIC_PAIRS:
        a, b = present.get(left), present.get(right)
        if a is None or b is None or a.error or b.error:
            continue
        if a.interactions != b.interactions + hello:
            found.append(Divergence(
                left, right, "interactions",
                "%d vs %d (+%d handshake)"
                % (a.interactions, b.interactions, hello), args))
    return found


def run_matrix(source, arg_sets, configs=None, choices=None, hide=None,
               max_steps=DEFAULT_MAX_STEPS):
    """Run ``source`` through the configuration matrix and diff everything.

    ``arg_sets`` is a sequence of argument tuples for ``main``.  With
    ``hide`` set to a global variable name the split is produced by
    :func:`repro.core.globals.hide_global` instead of variable choices —
    the only way to get hidden *storage* (and therefore cache
    invalidation traffic) into the matrix.  Returns a
    :class:`MatrixResult`; ``result.divergences`` is empty when every
    configuration agrees.
    """
    configs = tuple(configs) if configs else CONFIGS
    try:
        if hide is not None:
            from repro.core.globals import hide_global
            from repro.lang import check_program, parse_program

            program = parse_program(source)
            checker = check_program(program)
            sp = hide_global(program, checker, hide)
        else:
            program, _checker, sp = split_source(source, choices=choices)
    except SplitError:
        # an explicit choice the splitter (documentedly) rejects: compare
        # only the unsplit configurations
        from repro.lang import check_program, parse_program

        program = parse_program(source)
        check_program(program)
        sp = None
    if sp is not None and not sp.splits:
        sp = None
    split_summary = ""
    if sp is not None:
        split_summary = ",".join(
            "%s:%s" % (name, "+".join(sorted(split.fully_hidden))
                       or "+".join(sorted(split.hidden_vars)))
            for name, split in sorted(sp.splits.items())
        )
    result = MatrixResult(source, arg_sets, configs, split_summary)

    need_socket = sp is not None and any(c.socket for c in configs)
    server_ctx = None
    address = None
    if need_socket:
        from repro.runtime.remote import remote_server

        server_ctx = remote_server(sp)
        with _RUN_LOCK:
            address = server_ctx.__enter__()
    try:
        for args in arg_sets:
            with _RUN_LOCK:
                base = _observe(lambda: run_original(
                    program, args=args, max_steps=max_steps, engine="ast"))
            result.observations[(BASELINE, args)] = base
            present = {}
            for config in configs:
                if config.split and sp is None:
                    continue
                with _RUN_LOCK:
                    obs_ = _run_config(config, program, sp, address, args,
                                       max_steps)
                result.observations[(config.name, args)] = obs_
                present[config.name] = obs_
                result.divergences.extend(
                    _diff_behaviour(result, config.name, base, obs_, args))
            result.divergences.extend(_diff_accounting(result, present, args))
    finally:
        if server_ctx is not None:
            server_ctx.__exit__(None, None, None)

    registry = obs.get_registry()
    registry.metric(M_PROGRAMS).inc()
    if result.diverged:
        registry.metric(M_DIVERGENCES).inc()
    return result
