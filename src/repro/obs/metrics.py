"""Zero-dependency metrics primitives: Counter, Gauge, Histogram, Registry.

The registry is the single collection point for everything the runtime
measures — channel round trips, open/hidden statement counts, splitter
phase durations.  Metrics are identified by ``(name, labels)``; asking the
registry for the same identity twice returns the same object, so the
telemetry sink (:class:`repro.obs.events.TelemetrySink`) binds each
handle once and keeps it.  Every exported family is declared once, in
:data:`METRICS`: type, label names, help text and buckets.

Telemetry is *opt-in*.  The module-level default is :data:`NULL_REGISTRY`,
whose factory methods hand back shared no-op metric singletons: an
instrumented code path costs one attribute call and no allocation when
telemetry is disabled (the Table 5 overhead numbers are simulated-time and
therefore bit-identical either way, but the wall-clock cost matters for
``python -m repro.bench``).
"""

import bisect
import collections

#: default histogram buckets for durations in seconds
DEFAULT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

#: buckets for payload sizes in bytes
BYTE_BUCKETS = (16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

#: buckets for statement/step counts
STEP_BUCKETS = (1, 5, 10, 50, 100, 500, 1000, 10000, 100000)

#: buckets for simulated per-round-trip latency in milliseconds
SIM_MS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 50.0)

#: buckets for messages coalesced per batch flush
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: buckets for measured round-trip phase durations in seconds (--trace);
#: loopback round trips sit in the tens-of-microseconds range, LAN ones
#: in the hundreds, so the grid is much finer than DEFAULT_BUCKETS
RT_PHASE_BUCKETS = (0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005,
                    0.01, 0.05, 0.1, 0.5)


#: one exported metric family: its type, label names (in the order
#: docs/OBSERVABILITY.md lists them), ``# HELP`` text and buckets
MetricSpec = collections.namedtuple("MetricSpec", "kind labels help buckets")


#: the one declaration of every exported metric family, by name;
#: ``tools/check_docs.py`` holds the docs/OBSERVABILITY.md table to it
METRICS = {}


def _declare(name, kind, labels, help, buckets=None):
    METRICS[name] = MetricSpec(kind, tuple(labels.split()), help, buckets)
    return name


# exported metric names; each module that emits one re-exports it under
# the name it has always had there
M_ROUND_TRIPS = _declare("repro_channel_round_trips_total", "counter", "kind",
                         "channel round trips by event kind")
M_VALUES = _declare("repro_channel_values_total", "counter", "fn label",
                    "scalar values carried per fragment (ILP)")
M_PAYLOAD_BYTES = _declare("repro_channel_payload_bytes", "histogram", "kind",
                           "modelled payload size per round trip",
                           BYTE_BUCKETS)
M_RTT_SIM_MS = _declare("repro_channel_rtt_simulated_ms", "histogram", "",
                        "simulated latency per round trip", SIM_MS_BUCKETS)
M_SIM_MS = _declare("repro_channel_simulated_ms_total", "counter", "",
                    "total simulated channel time")
M_COALESCED = _declare("repro_channel_coalesced_total", "counter", "kind",
                       "one-way messages coalesced into batch round trips")
M_BATCH_SIZE = _declare("repro_channel_batch_size", "histogram", "",
                        "messages coalesced per batch flush", BATCH_BUCKETS)
M_ACTIVATIONS = _declare("repro_server_activations_total", "counter", "event",
                         "activation lifecycle events")
M_CALLS = _declare("repro_server_calls_total", "counter", "fn label",
                   "fragment executions per ILP")
M_FRAGMENT_STEPS = _declare("repro_server_fragment_steps", "histogram",
                            "fn label",
                            "hidden statements executed per fragment call",
                            STEP_BUCKETS)
M_STEPS = _declare("repro_steps_total", "counter", "side",
                   "statements executed by side")
M_STMTS = _declare("repro_stmt_executions_total", "counter", "side kind",
                   "statement executions by AST kind")
PHASE_SECONDS = _declare("repro_phase_seconds", "histogram", "phase",
                         "wall-clock duration of profiled phases")
M_RUNS = _declare("repro_runs_total", "counter", "mode", "program executions")
M_ENGINE = _declare("repro_engine_total", "counter", "engine side",
                    "execution engine instantiations by side")
# lowered code belongs to the program (docs/ENGINE.md): compile and deopt
# events fire once per process per program, not once per run or session
M_COMPILE_SECONDS = _declare("repro_engine_compile_seconds", "histogram",
                             "side engine",
                             "compilation wall seconds per function/fragment")
M_CLIENTS = _declare("repro_remote_clients", "gauge", "program",
                     "currently connected client sessions")
M_SESSIONS = _declare("repro_remote_sessions_total", "counter", "program",
                      "client sessions accepted since start")
M_SESSION_ERRORS = _declare(
    "repro_remote_session_errors_total", "counter", "reason",
    "sessions ended by transport errors, timeouts or protocol errors")
M_REJECTED = _declare("repro_remote_rejected_total", "counter", "reason",
                      "connections refused before handshake")
M_OPS = _declare("repro_remote_ops_total", "counter", "program",
                 "protocol ops served, by program")
M_EXEC_SECONDS = _declare("repro_remote_exec_seconds", "histogram", "program",
                          "server-side execution seconds per protocol op",
                          RT_PHASE_BUCKETS)
M_DEOPT = _declare(
    "repro_codegen_deopt_total", "counter", "side reason",
    "codegen deopt fallbacks to the AST tier, once per process per program")
M_LOADGEN_OPS = _declare("repro_loadgen_ops_total", "counter", "kind",
                         "synthetic client ops answered")
M_LOADGEN_ERRORS = _declare("repro_loadgen_errors_total", "counter", "reason",
                            "synthetic client failures")
M_LOADGEN_LATENCY = _declare("repro_loadgen_op_seconds", "histogram", "",
                             "synthetic client round-trip seconds",
                             RT_PHASE_BUCKETS)
M_PROGRAMS = _declare("repro_fuzz_programs_total", "counter", "",
                      "programs fuzzed")
M_DIVERGENCES = _declare("repro_fuzz_divergences_total", "counter", "",
                         "diverging programs")
M_RT_PHASE = _declare("repro_rt_phase_seconds", "histogram", "phase",
                      "measured round-trip phase durations (--trace)",
                      RT_PHASE_BUCKETS)
M_EVICTED = _declare("repro_recorder_evicted_total", "counter", "",
                     "flight-recorder events evicted by the bounded buffer")
M_CACHE_HITS = _declare("repro_cache_hits_total", "counter", "program",
                        "fragment cache hits")
M_CACHE_MISSES = _declare("repro_cache_misses_total", "counter", "program",
                          "fragment cache misses")
M_CACHE_EVICTIONS = _declare("repro_cache_evictions_total", "counter",
                             "program", "fragment cache LRU/quota evictions")
M_CACHE_INVALIDATIONS = _declare("repro_cache_invalidations_total", "counter",
                                 "program",
                                 "fragment cache epoch invalidations")


class Counter:
    """Monotonically increasing value (float increments allowed)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. live activations)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``count`` and ``sum`` track totals for mean computation.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name, labels, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value):
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self):
        """``[(upper_bound, cumulative_count), ...]`` ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        """Estimated ``q``-quantile (0..1) from the cumulative buckets.

        Linear interpolation within the bucket the target rank falls in,
        Prometheus ``histogram_quantile`` style: the first bucket's lower
        edge is 0, and ranks landing in the implicit ``+Inf`` bucket clamp
        to the highest finite bound (the estimate cannot exceed what the
        buckets resolve).  Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        if self.count == 0:
            return 0.0
        target = q * self.count
        lower = 0.0
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            if running + n >= target and n > 0:
                fraction = (target - running) / n
                return lower + (bound - lower) * fraction
            running += n
            lower = float(bound)
        return float(self.buckets[-1]) if self.buckets else 0.0


class _NullMetric:
    """Shared do-nothing stand-in for every metric kind."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def quantile(self, q):
        return 0.0


NULL_METRIC = _NullMetric()

_CLASSES = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


def _label_key(labels):
    return tuple(sorted(labels.items()))


class Registry:
    """Collection point for metric instances, keyed by ``(name, labels)``."""

    enabled = True

    def __init__(self):
        self._metrics = {}
        self._help = {}

    # -- factories ---------------------------------------------------------

    def counter(self, name, help=None, **labels):
        return self._get(Counter, name, help, labels)

    def gauge(self, name, help=None, **labels):
        return self._get(Gauge, name, help, labels)

    def histogram(self, name, help=None, buckets=None, **labels):
        return self._get(Histogram, name, help, labels, buckets)

    def metric(self, name, **labels):
        """The declared metric ``name`` (see :data:`METRICS`) for one label
        set; its type, help text and buckets come from the declaration."""
        return self._get(_CLASSES[METRICS[name].kind], name, None, labels)

    def _get(self, cls, name, help, labels, buckets=None):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            spec = METRICS.get(name)
            if spec is not None:
                # a declared family: the declaration is the only source of
                # its type, label names, help text and buckets
                if spec.kind != cls.kind or set(labels) != set(spec.labels):
                    raise TypeError("metric %r is declared as a %s labelled %r"
                                    % (name, spec.kind, spec.labels))
                help, buckets = spec.help, spec.buckets
            metric = (cls(name, dict(labels), buckets or DEFAULT_BUCKETS)
                      if cls is Histogram else cls(name, dict(labels)))
            # atomic: daemon sessions bind handles concurrently, and every
            # thread must keep the one instance the registry exports
            metric = self._metrics.setdefault(key, metric)
            if help:
                self._help.setdefault(name, help)
        elif not isinstance(metric, cls):
            raise TypeError(
                "metric %r already registered as %s" % (name, metric.kind)
            )
        return metric

    # -- reading -----------------------------------------------------------

    def collect(self):
        """All metrics, sorted by name then label key (stable exposition)."""
        return [m for _, m in sorted(self._metrics.items())]

    def help_text(self, name):
        return self._help.get(name, "")

    def value(self, name, **labels):
        """The value of one counter/gauge sample, 0 when absent."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.value if metric is not None else 0

    def total(self, name):
        """Sum of a counter/gauge family across all label sets."""
        return sum(
            m.value for (n, _), m in self._metrics.items()
            if n == name and not isinstance(m, Histogram)
        )


class NullRegistry:
    """The registry outside a telemetry scope: every factory returns the
    shared no-op metric."""

    enabled = False

    def counter(self, name, help=None, **labels):
        return NULL_METRIC

    def histogram(self, name, help=None, buckets=None, **labels):
        return NULL_METRIC

    def metric(self, name, **labels):
        return NULL_METRIC

    def collect(self):
        return []

    def total(self, name):
        return 0


NULL_REGISTRY = NullRegistry()
