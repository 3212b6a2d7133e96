"""The flight recorder: a bounded, structured stream of boundary events.

Where the metrics registry *aggregates* (counters and histograms keyed by
name and labels), the flight recorder keeps the *per-event* record: every
channel crossing (``call``/``open``/``close``/``cb_fetch``/``cb_store``/
``cb_batch``/``batch``) with its fragment identity, value count, modelled
payload size and simulated cost; every hidden fragment execution with its
step count; and every phase span open/close.  That record is what the
Section 3 security argument is *about* — the adversary's observation
stream — so keeping it auditable against the static ``<Type, Inputs,
Degree>`` estimates is the point (see :mod:`repro.obs.audit`).

The instrumented layers never call the recorder directly: each boundary
event goes through one method of :class:`TelemetrySink` (below), which
writes the event here and derives the event's metrics and tracer entry
alongside it.

The buffer is bounded (a deque of ``max_events``); when it fills, the
oldest events are evicted and counted in :attr:`FlightRecorder.evicted` so
long-running ``serve`` processes stay memory-safe.  Sequence numbers keep
increasing across evictions, so consumers can detect the gap.

Two output formats (``repro ... --log-events PATH --log-events-format``):

* **jsonl** — one JSON object per line, schema below; the golden format
  asserted by ``tests/test_obs_events.py`` (treat the key sets as stable).
* **chrome** — the Chrome trace-event format (a ``traceEvents`` array of
  ``B``/``E`` duration events for spans and ``i`` instant events for
  channel crossings), loadable in ``about://tracing`` / Perfetto.

Event schema (``type`` field):

===============  =====================================================
``channel``      ``kind, fn, label, values, bytes, sim_ms``
``fragment``     ``fn, label, steps, wall_us`` (one hidden fragment
                 execution)
``span_open``    ``name, depth``
``span_close``   ``name, depth, wall_s, sim_ms``
``server_recv``  ``op`` (+ ``sub`` for coalesced batch sub-ops) — a
                 frame arriving at the remote hidden server
``server_send``  ``op, exec_us, ok`` — the matching reply leaving it
``trace_sync``   ``send_us, recv_us, server_us, offset_us,
                 skew_bound_us`` — one clock-alignment handshake
``deopt``        ``side, fn, reason, where`` — one codegen fallback to
                 the AST tier, with its reason code and source
                 location (docs/OBSERVABILITY.md, "Deopt attribution")
``cache``        ``event, fn, label, program`` — one fragment-cache
                 transition (``hit``/``miss``/``evict``/
                 ``invalidate``), docs/CACHING.md
===============  =====================================================

All events also carry ``seq`` (monotonic, 1-based) and ``ts_us``
(microseconds since the recorder was created, ``time.perf_counter``
based).  Traced runs (``--trace``, docs/PROTOCOL.md) add ``trace_id``
and ``cseq`` to every event recorded inside a request context, plus
per-phase timings (``ser_us``/``wire_us``/``exec_us``/``deser_us``/
``rt_us``) on client ``channel`` events — additive only, so untraced
streams keep the golden key sets above.
"""

import collections
import contextlib
import json
import threading
import time

from repro.obs.metrics import (
    METRICS, M_ACTIVATIONS, M_BATCH_SIZE, M_CACHE_EVICTIONS, M_CACHE_HITS,
    M_CACHE_INVALIDATIONS, M_CACHE_MISSES, M_CALLS, M_CLIENTS, M_COALESCED,
    M_COMPILE_SECONDS, M_DEOPT, M_ENGINE, M_EVICTED, M_EXEC_SECONDS,
    M_FRAGMENT_STEPS, M_OPS, M_PAYLOAD_BYTES, M_REJECTED, M_ROUND_TRIPS,
    M_RT_PHASE, M_RTT_SIM_MS, M_SESSION_ERRORS, M_SESSIONS, M_SIM_MS,
    M_STEPS, M_STMTS, M_VALUES,
)

#: accepted values for ``--log-events-format``
EVENT_FORMATS = ("jsonl", "chrome")

#: default bound on retained events (~a few tens of MB of dicts at worst)
DEFAULT_MAX_EVENTS = 100_000


class FlightRecorder:
    """Bounded in-memory event stream; see the module docstring.

    ``process`` names this recorder's process row in merged Chrome traces
    (``repro trace`` labels the client stream "Of" and the server stream
    "Hf"; a standalone recorder defaults to "repro").
    """

    def __init__(self, max_events=DEFAULT_MAX_EVENTS, clock=time.perf_counter,
                 process="repro"):
        self.max_events = max_events
        self.process = process
        self.events = collections.deque(maxlen=max_events)
        self.evicted = 0
        self.seq = 0
        self._clock = clock
        self._t0 = clock()
        self._local = threading.local()
        self._evicted_counter = None

    def now_us(self):
        """Microseconds since this recorder's epoch — the same timebase as
        event ``ts_us``, so remote peers can exchange it for clock
        alignment (docs/PROTOCOL.md, "Trace context")."""
        return round((self._clock() - self._t0) * 1e6, 1)

    @contextlib.contextmanager
    def context(self, **fields):
        """Tag every event recorded inside the ``with`` block (in this
        thread) with ``fields`` — how the remote server stamps fragment
        and span events with the incoming trace context."""
        previous = getattr(self._local, "context", None)
        merged = dict(previous) if previous else {}
        merged.update(fields)
        self._local.context = merged
        try:
            yield
        finally:
            self._local.context = previous

    def record(self, etype, **fields):
        """Append one event; evicts the oldest when the buffer is full."""
        self.seq += 1
        event = {
            "seq": self.seq,
            "ts_us": round((self._clock() - self._t0) * 1e6, 1),
            "type": etype,
        }
        event.update(fields)
        ctx = getattr(self._local, "context", None)
        if ctx:
            event.update(ctx)
        if self.events.maxlen is not None and len(self.events) == self.events.maxlen:
            self.evicted += 1
            self._count_eviction()
        self.events.append(event)
        return event

    def _count_eviction(self):
        counter = self._evicted_counter
        if counter is None:
            # lazy: repro.obs imports this module, so the registry lookup
            # must happen at runtime, not import time
            from repro import obs

            counter = self._evicted_counter = obs.get_registry().metric(
                M_EVICTED)
        counter.inc()

    def stats(self):
        """Buffer health for live exposition (``/metrics.json``): how much
        was observed, retained, and silently dropped."""
        return {
            "max_events": self.max_events,
            "seq": self.seq,
            "evicted": self.evicted,
            "buffered": len(self.events),
        }

    # -- reading ------------------------------------------------------------

    def by_type(self, etype):
        return [e for e in self.events if e["type"] == etype]

    def __len__(self):
        return len(self.events)




# -- serialisation -----------------------------------------------------------


def to_jsonl(recorder):
    """One JSON object per line, in recording order (stable key order)."""
    return "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in recorder.events
    )


def chrome_metadata(pid, process_name, thread_names):
    """``M`` (metadata) events naming a process row and its threads, so
    Perfetto shows labels instead of bare pids (docs/OBSERVABILITY.md)."""
    meta = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    for tid, name in sorted(thread_names.items()):
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name},
        })
    return meta


def to_chrome(recorder, pid=1):
    """The Chrome trace-event document for ``about://tracing``.

    Spans become ``B``/``E`` duration events (evicted opens may leave an
    unbalanced ``E`` at the front; the viewers tolerate that), channel and
    fragment events become thread-scoped instants carrying their fields as
    ``args``.  ``M`` metadata events label the process row with the
    recorder's ``process`` name.
    """
    trace = list(chrome_metadata(pid, recorder.process, {1: "events"}))
    for event in recorder.events:
        etype = event["type"]
        if etype == "span_open":
            trace.append({
                "ph": "B", "name": event["name"], "cat": "phase",
                "ts": event["ts_us"], "pid": pid, "tid": 1,
            })
        elif etype == "span_close":
            trace.append({
                "ph": "E", "name": event["name"], "cat": "phase",
                "ts": event["ts_us"], "pid": pid, "tid": 1,
                "args": {"sim_ms": event["sim_ms"], "wall_s": event["wall_s"]},
            })
        else:
            name = (
                "channel." + event["kind"] if etype == "channel" else etype
            )
            args = {
                k: v for k, v in event.items()
                if k not in ("seq", "ts_us", "type")
            }
            trace.append({
                "ph": "i", "s": "t", "name": name, "cat": etype,
                "ts": event["ts_us"], "pid": pid, "tid": 1, "args": args,
            })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_events(path, recorder, format="jsonl"):
    """Write the recorder's buffer to ``path`` in the chosen format."""
    if format not in EVENT_FORMATS:
        raise ValueError(
            "unknown event format %r (expected one of %s)"
            % (format, ", ".join(EVENT_FORMATS))
        )
    with open(path, "w") as f:
        if format == "jsonl":
            f.write(to_jsonl(recorder))
        else:
            json.dump(to_chrome(recorder), f, sort_keys=True)
            f.write("\n")


# -- the sink ----------------------------------------------------------------

#: the measured phases a traced remote round trip decomposes into, in
#: order, each with the ``channel`` event field carrying it
#: (docs/OBSERVABILITY.md, "Distributed tracing & latency attribution")
PHASE_FIELDS = (("ser_us", "serialize"), ("wire_us", "wire"),
                ("exec_us", "exec"), ("deser_us", "deser"))
RT_PHASES = tuple(phase for _field, phase in PHASE_FIELDS)

#: fragment-cache transition -> the counter it bumps
_CACHE_COUNTERS = {"hit": M_CACHE_HITS, "miss": M_CACHE_MISSES,
                   "evict": M_CACHE_EVICTIONS,
                   "invalidate": M_CACHE_INVALIDATIONS}


class TelemetrySink:
    """The one instrumentation path: one method per boundary event.

    :func:`repro.obs.telemetry` creates one sink per scope over its
    registry, tracer and optional flight recorder; instrumented objects
    resolve it once at construction (:func:`repro.obs.get_sink`, ``None``
    with telemetry off, so a disabled hot path costs one ``is not None``
    check).  Each event method derives every output of its event: the
    registry samples (declared in :data:`repro.obs.metrics.METRICS`), the
    tracer summary entry with its simulated-time charge, and the
    flight-recorder event.  Metric handles are bound on the first event
    of each label tuple and kept in ``_bound``, so repeated events make
    no registry lookup.
    """

    def __init__(self, registry, tracer, recorder=None):
        self.registry = registry
        self.tracer = tracer
        self.recorder = recorder
        self._bound = {}  # event key -> the metric handle(s) it updates

    def _metric(self, name, *values):
        """The handle of declared metric ``name`` for the label
        ``values``, in declaration order."""
        key = (name,) + values
        metric = self._bound.get(key)
        if metric is None:
            labels = dict(zip(METRICS[name].labels, values))
            metric = self._bound[key] = self.registry.metric(name, **labels)
        return metric

    # -- channel -------------------------------------------------------------

    def round_trip(self, kind, fn_name, label, carried, payload, cost_ms,
                   phases=None, trace=None):
        """One channel round trip — the adversary-observable unit —
        carrying ``carried`` scalars in a modelled ``payload``-byte frame."""
        key = ("round_trip", kind, fn_name, label)
        handles = self._bound.get(key)
        if handles is None:
            fn = fn_name or "-"
            label_str = "-" if label is None else str(label)
            handles = self._bound[key] = self._crossing_handles(kind) + (
                self._metric(M_VALUES, fn, label_str), fn, label_str)
        values, fn, label_str = handles[4:]
        values.inc(carried)
        self._crossing(handles, "channel.round_trip", payload, cost_ms,
                       phases)
        if self.recorder is not None:
            self._channel_event(kind, fn, label_str, carried, payload,
                                cost_ms, phases, trace)

    def batch(self, pending, carried, payload, cost_ms, phases=None,
              trace=None):
        """One flush of the coalesced one-way ``(kind, hid, fn_name,
        label, sent)`` messages in ``pending``."""
        handles = self._bound.get("batch")
        if handles is None:
            handles = self._bound["batch"] = self._crossing_handles(
                "batch") + (self._metric(M_BATCH_SIZE),)
        for kind, _hid, fn_name, label, sent in pending:
            self._metric(M_COALESCED, kind).inc()
            if sent:
                self._metric(M_VALUES, fn_name or "-",
                             "-" if label is None else str(label),
                             ).inc(len(sent))
        handles[4].observe(len(pending))
        self._crossing(handles, "channel.batch", payload, cost_ms, phases)
        if self.recorder is not None:
            self._channel_event("batch", "-", "-", carried, payload, cost_ms,
                                phases, trace)

    def _crossing_handles(self, kind):
        return (self._metric(M_ROUND_TRIPS, kind),
                self._metric(M_PAYLOAD_BYTES, kind),
                self._metric(M_RTT_SIM_MS), self._metric(M_SIM_MS))

    def _crossing(self, handles, summary_name, payload, cost_ms, phases):
        round_trips, payloads, rtt, simulated = handles[:4]
        round_trips.inc()
        payloads.observe(payload)
        rtt.observe(cost_ms)
        simulated.inc(cost_ms)
        self.tracer.event(summary_name, cost_ms)
        if phases is not None:
            for phase in RT_PHASES:
                self._metric(M_RT_PHASE, phase).observe(phases[phase])

    def _channel_event(self, kind, fn, label, carried, payload, cost_ms,
                       phases, trace):
        # a traced remote round trip adds its trace context and measured
        # phase timings (microseconds); untraced events keep the golden
        # key set
        extra = {}
        if trace is not None:
            extra["trace_id"], extra["cseq"] = trace
        if phases is not None:
            for field, phase in PHASE_FIELDS:
                extra[field] = round(phases[phase] * 1e6, 1)
            extra["rt_us"] = round(phases["total"] * 1e6, 1)
        self.recorder.record(
            "channel", kind=kind, fn=fn, label=label, values=carried,
            bytes=payload, sim_ms=cost_ms, **extra,
        )

    # -- execution -----------------------------------------------------------

    def fragment(self, fn_name, label, steps, stmt_counts, wall_t0):
        """One hidden fragment execution (or cache replay) of ``steps``
        statements with the ``stmt_counts`` mix, started at
        ``time.perf_counter()`` value ``wall_t0``."""
        key = ("fragment", fn_name, label)
        handles = self._bound.get(key)
        if handles is None:
            label_str = str(label)
            handles = self._bound[key] = (
                self._metric(M_CALLS, fn_name, label_str),
                self._metric(M_FRAGMENT_STEPS, fn_name, label_str),
                label_str,
            )
        calls, fragment_steps, label_str = handles
        calls.inc()
        fragment_steps.observe(steps)
        self.statements("hidden", steps, stmt_counts)
        if self.recorder is not None:
            self.recorder.record(
                "fragment", fn=fn_name, label=label_str, steps=steps,
                wall_us=round((time.perf_counter() - wall_t0) * 1e6, 1),
            )

    def statements(self, side, steps, stmt_counts):
        """``steps`` statements executed on ``side`` (``open``/``hidden``),
        ``stmt_counts`` mapping AST kind to executions."""
        self._metric(M_STEPS, side).inc(steps)
        for kind, count in stmt_counts.items():
            self._metric(M_STMTS, side, kind).inc(count)

    def activation(self, event):
        """An ``hopen`` (``open``) or ``hclose`` (``close``)."""
        self._metric(M_ACTIVATIONS, event).inc()

    def cache(self, event, program, fn, label):
        """One fragment-cache transition (``hit``/``miss``/``evict``/
        ``invalidate``, docs/CACHING.md)."""
        self._metric(_CACHE_COUNTERS[event], program).inc()
        if self.recorder is not None:
            self.recorder.record(
                "cache", event=event, fn=fn,
                label=str(label) if label is not None else "",
                program=program,
            )

    def engine(self, side, engine):
        """One interpreter/server constructed on ``engine``."""
        self._metric(M_ENGINE, engine, side).inc()

    def compiled(self, side, engine, seconds):
        """One function body or fragment lowered by ``engine``."""
        self._metric(M_COMPILE_SECONDS, side, engine).observe(seconds)

    def deopt(self, side, fn, reason, where):
        """One codegen fallback to the AST tier, with its reason code
        and source location (``""`` when unknown)."""
        self._metric(M_DEOPT, side, reason).inc()
        if self.recorder is not None:
            self.recorder.record("deopt", side=side, fn=fn, reason=reason,
                                 where=where)

    # -- the daemon and its clients -----------------------------------------

    def op_received(self, op, sub=None):
        """A frame (or, with ``sub``, one coalesced batch sub-op) arriving
        at a served hidden component."""
        if self.recorder is not None:
            if sub is None:
                self.recorder.record("server_recv", op=op)
            else:
                self.recorder.record("server_recv", op=op, sub=sub)

    def op_answered(self, program, op, ok, exec_us):
        """The reply to one frame leaving the daemon; ``program`` is
        ``None`` while the session is not bound to a tenant."""
        if self.recorder is not None:
            self.recorder.record("server_send", op=op, ok=ok,
                                 exec_us=exec_us)
        if program is not None:
            self._metric(M_OPS, program).inc()
            self._metric(M_EXEC_SECONDS, program).observe(exec_us / 1e6)

    def session(self, event, value):
        """A daemon session ``open``/``close`` (``value`` is the program)
        or ``error``/``rejected`` (``value`` is the reason)."""
        if event == "open":
            self._metric(M_SESSIONS, value).inc()
            self._metric(M_CLIENTS, value).inc()
        elif event == "close":
            self._metric(M_CLIENTS, value).dec()
        elif event == "error":
            self._metric(M_SESSION_ERRORS, value).inc()
        else:
            self._metric(M_REJECTED, value).inc()

    def clock_sync(self, trace_id, sync):
        """One clock-alignment handshake of a traced client run."""
        if self.recorder is not None:
            self.recorder.record("trace_sync", trace_id=trace_id, **sync)
