"""Nested span tracer with dual wall-clock / simulated-time accounting.

The runtime measures two kinds of time that must not be conflated:

* **wall seconds** — how long the tooling itself took (slicing, trial
  splits, interpretation), measured with ``time.perf_counter``;
* **simulated milliseconds** — what the modelled deployment would have
  spent, charged by the channel's
  :class:`~repro.runtime.channel.LatencyModel` (the paper's LAN / smart
  card round-trip costs).

A :class:`Span` carries both.  Open spans form a stack, so channel round
trips counted mid-run (:meth:`Tracer.event`) attach their simulated cost
to whatever phase is currently open.  Finished spans are aggregated by name into a summary
(count / wall / simulated) and, when the tracer owns a registry, phase
durations are also exported as the ``repro_phase_seconds`` histogram.
"""

import time

# the registry histogram fed by every context-manager span
from repro.obs.metrics import PHASE_SECONDS  # noqa: F401 (re-exported)


class Span:
    """One timed region with attributes."""

    __slots__ = ("name", "attrs", "wall_s", "sim_ms", "depth", "_t0", "_tracer")

    def __init__(self, name, attrs, tracer=None, depth=0):
        self.name = name
        self.attrs = attrs
        self.wall_s = 0.0
        self.sim_ms = 0.0
        self.depth = depth
        self._t0 = None
        self._tracer = tracer

    def __enter__(self):
        # the span joins the open-span stack only once it actually starts:
        # a Span created but never entered must not absorb simulated-time
        # charges (that skew made summary()'s sim_ms depend on the entry
        # point; see tests/test_obs.py golden-schema tests)
        self._tracer._stack.append(self)
        self._t0 = time.perf_counter()
        recorder = self._tracer.recorder
        if recorder is not None:
            recorder.record("span_open", name=self.name, depth=self.depth)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.wall_s = time.perf_counter() - self._t0
        self._tracer._finish(self)
        return False

    def __repr__(self):
        return "<Span %s wall=%.6fs sim=%.3fms %r>" % (
            self.name, self.wall_s, self.sim_ms, self.attrs,
        )


class Tracer:
    """Records spans and aggregates them by name.

    When the tracer owns a flight recorder (:mod:`repro.obs.events`),
    every context-manager span also lands in the event stream as a
    ``span_open``/``span_close`` pair.  Instantaneous events (channel
    round trips) are only counted in the summary, see :meth:`event`.
    """

    enabled = True

    def __init__(self, registry=None, recorder=None):
        self.registry = registry
        self.recorder = recorder
        self._stack = []
        self._summary = {}

    def span(self, name, **attrs):
        """Context manager for a timed region; nests via the open-span
        stack.  Simulated time charged while it is open accrues to it.
        The span enters the stack at ``__enter__``, not creation."""
        return Span(name, attrs, tracer=self, depth=len(self._stack))

    def event(self, name, sim_ms):
        """Count one instantaneous event (a channel round trip) in the
        summary under ``name`` and charge its simulated cost to the
        innermost open span.  No span is allocated."""
        self._count(name, 0.0, sim_ms)
        if self._stack:
            self._stack[-1].sim_ms += sim_ms

    def _finish(self, span):
        if span in self._stack:
            # normally the top of stack; removing by identity also heals
            # out-of-order closes instead of corrupting later accounting
            self._stack.remove(span)
            # parent phases subsume their children's simulated time
            if self._stack:
                self._stack[-1].sim_ms += span.sim_ms
        self._count(span.name, span.wall_s, span.sim_ms)
        if self.recorder is not None:
            self.recorder.record("span_close", name=span.name,
                                 depth=span.depth, wall_s=span.wall_s,
                                 sim_ms=span.sim_ms)
        if self.registry is not None:
            self.registry.metric(PHASE_SECONDS, phase=span.name).observe(
                span.wall_s)

    def _count(self, name, wall_s, sim_ms):
        entry = self._summary.get(name)
        if entry is None:
            self._summary[name] = [1, wall_s, sim_ms]
        else:
            entry[0] += 1
            entry[1] += wall_s
            entry[2] += sim_ms

    def summary(self):
        """``{name: {"count", "wall_s", "sim_ms"}}``, sorted by name."""
        return {
            name: {"count": c, "wall_s": w, "sim_ms": s}
            for name, (c, w, s) in sorted(self._summary.items())
        }


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled-telemetry tracer: no allocation, no recording."""

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def summary(self):
        return {}


NULL_TRACER = NullTracer()
