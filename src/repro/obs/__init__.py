"""Observability: runtime metrics, phase tracing, and exposition.

One process-wide *active* telemetry pair — a metrics
:class:`~repro.obs.metrics.Registry` and a
:class:`~repro.obs.tracing.Tracer` — and the
:class:`~repro.obs.events.TelemetrySink` over them are consulted by the
instrumented layers at construction time.  With telemetry off the sink is
``None``, which keeps every instrumented hot path allocation-free;
callers that want telemetry wrap the work in :func:`telemetry`::

    from repro import obs
    from repro.obs import export

    with obs.telemetry() as (registry, tracer):
        result = run_split(sp, args=(2, 3))
    print(export.to_prometheus(registry))

Exported metric names are documented in ``docs/OBSERVABILITY.md``; treat
them as a stable interface (the CLI test suite asserts on them).
"""

import contextlib

from repro.obs.metrics import (  # noqa: F401 (re-exported)
    BATCH_BUCKETS,
    BYTE_BUCKETS,
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    SIM_MS_BUCKETS,
    STEP_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
)
from repro.obs.events import FlightRecorder, TelemetrySink  # noqa: F401
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer  # noqa: F401

_registry = NULL_REGISTRY
_tracer = NULL_TRACER
_recorder = None
_sink = None


def get_registry():
    """The active metrics registry (the null registry when disabled)."""
    return _registry


def get_tracer():
    """The active tracer (the null tracer when disabled)."""
    return _tracer


def get_recorder():
    """The active flight recorder: ``None`` unless the telemetry scope was
    given one (``--log-events`` on the CLI)."""
    return _recorder


def get_sink():
    """The active :class:`~repro.obs.events.TelemetrySink`, or ``None``
    when telemetry is disabled — resolve it once per instrumented object
    and guard each event with ``is not None``."""
    return _sink


def enabled():
    return _registry.enabled


def install(registry=None, tracer=None, recorder=None):
    """Make telemetry active process-wide; returns ``(registry, tracer)``.

    ``recorder`` optionally activates the flight recorder
    (:mod:`repro.obs.events`) for the same scope; when omitted no recorder
    is active, so event recording never leaks across sessions.
    Prefer the :func:`telemetry` context manager, which restores the
    previous state.
    """
    global _registry, _tracer, _recorder, _sink
    _registry = registry if registry is not None else Registry()
    _recorder = recorder
    _tracer = tracer if tracer is not None else Tracer(
        registry=_registry, recorder=recorder,
    )
    _sink = TelemetrySink(_registry, _tracer, _recorder)
    return _registry, _tracer


@contextlib.contextmanager
def telemetry(registry=None, tracer=None, recorder=None):
    """Scoped telemetry: installs a (fresh by default) registry/tracer pair
    (plus an optional flight recorder) and restores whatever was active
    before, even on error."""
    global _registry, _tracer, _recorder, _sink
    previous = (_registry, _tracer, _recorder, _sink)
    pair = install(registry, tracer, recorder)
    try:
        yield pair
    finally:
        _registry, _tracer, _recorder, _sink = previous
