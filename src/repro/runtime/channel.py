"""The simulated communication channel between open and hidden components.

The paper ran the two components on separate Linux machines over a LAN;
here, every request/response round trip is charged to a configurable
:class:`LatencyModel` and appended to a :class:`Transcript`.  The transcript
is exactly what a network adversary observes — the attack module consumes
it to try to recover hidden fragments.

The channel also implements *send coalescing* (docs/PROTOCOL.md, "Batching
and coalescing"): one-way messages whose result the sender does not need
can be deferred with :meth:`Channel.defer` and are flushed as a single
``batch`` round trip at the next synchronisation point — automatically
before any ordinary :meth:`Channel.round_trip`, or explicitly via
:meth:`Channel.flush_deferred` at end of run.

When telemetry is enabled (:mod:`repro.obs`), every round trip and batch
flush is also handed to the telemetry sink, which derives the registry
samples (counters by event kind, per-ILP value counts, payload-size and
simulated-latency histograms), the tracer summary entry and — with a
flight recorder active (``--log-events``, :mod:`repro.obs.events`) — the
per-event record that :mod:`repro.obs.audit` joins against the static
Section 3 estimates.
"""

from repro import obs
# exported metric names (documented in docs/OBSERVABILITY.md)
from repro.obs.metrics import (  # noqa: F401 (re-exported)
    M_BATCH_SIZE, M_COALESCED, M_PAYLOAD_BYTES, M_ROUND_TRIPS, M_RT_PHASE,
    M_RTT_SIM_MS, M_SIM_MS, M_VALUES,
)

#: modelled wire size: fixed header plus 8 bytes per scalar carried
_HEADER_BYTES = 16
_VALUE_BYTES = 8


class LatencyModel:
    """Per-round-trip cost model.

    This class is the single source of truth for the cost-model units:

    * ``per_message_ms`` — **milliseconds** charged once per round trip
      (the fixed RPC cost: syscalls, wire latency, scheduling);
    * ``per_value_us`` — **microseconds** charged per scalar value
      carried in either direction (the marginal serialisation cost).

    ``cost_ms(value_count)`` returns milliseconds.  Defaults approximate a
    2003-era LAN RPC (a few hundred microseconds per round trip); the
    Table 5 calibration against the paper's wall-clock baselines lives in
    :data:`repro.bench.experiments.TABLE5_LATENCY` and is documented in
    docs/BENCHMARKS.md.  Both parameters must be non-negative.
    """

    def __init__(self, per_message_ms=0.35, per_value_us=2.0):
        if per_message_ms < 0:
            raise ValueError(
                "per_message_ms must be non-negative, got %r" % (per_message_ms,)
            )
        if per_value_us < 0:
            raise ValueError(
                "per_value_us must be non-negative, got %r" % (per_value_us,)
            )
        self.per_message_ms = per_message_ms
        self.per_value_us = per_value_us

    def cost_ms(self, value_count):
        return self.per_message_ms + value_count * self.per_value_us / 1000.0

    @classmethod
    def instant(cls):
        """Zero-cost model (for functional tests)."""
        return cls(per_message_ms=0.0, per_value_us=0.0)

    @classmethod
    def smart_card(cls):
        """Slow secure-device model (the 'untrustworthy user' scenario)."""
        return cls(per_message_ms=2.5, per_value_us=40.0)

    @classmethod
    def lan(cls):
        return cls()


class Event:
    """One observable round trip.

    ``kind`` is ``"call"`` (an ``hcall``), ``"open"``/``"close"``
    (activation management), ``"cb_fetch"``/``"cb_store"`` (hidden-side
    callbacks into open memory), ``"cb_batch"`` (a batched ``fetch_batch``
    callback) or ``"batch"`` (a coalesced flush of deferred one-way
    messages; only with batching enabled — see docs/PROTOCOL.md).
    """

    __slots__ = ("seq", "kind", "hid", "fn_name", "label", "sent", "result",
                 "cost_ms")

    def __init__(self, seq, kind, hid, fn_name, label, sent, result,
                 cost_ms=0.0):
        self.seq = seq
        self.kind = kind
        self.hid = hid
        self.fn_name = fn_name
        self.label = label
        self.sent = tuple(sent)
        self.result = result
        self.cost_ms = cost_ms

    def __repr__(self):
        return "<Event %d %s %s#%s sent=%r -> %r>" % (
            self.seq,
            self.kind,
            self.fn_name,
            self.label,
            self.sent,
            self.result,
        )


class Transcript:
    """Ordered log of everything that crossed the channel."""

    def __init__(self):
        self.events = []

    def append(self, event):
        self.events.append(event)

    def calls(self, fn_name=None, label=None):
        out = []
        for e in self.events:
            if e.kind != "call":
                continue
            if fn_name is not None and e.fn_name != fn_name:
                continue
            if label is not None and e.label != label:
                continue
            out.append(e)
        return out

    def summary(self):
        """Round trips, values carried, and simulated channel time.

        The totals the CLI and benchmarks report; derived purely from the
        recorded events so it also works on transcripts that were captured
        remotely or deserialised.
        """
        total_values = 0
        total_ms = 0.0
        for e in self.events:
            total_values += len(e.sent)
            if e.result is not None:
                total_values += 1
            total_ms += e.cost_ms
        return {
            "round_trips": len(self.events),
            "total_values": total_values,
            "simulated_ms": total_ms,
        }

    def __len__(self):
        return len(self.events)


class Channel:
    """Accounting wrapper every open<->hidden round trip goes through."""

    def __init__(self, latency=None, record=True):
        self.latency = latency or LatencyModel.lan()
        self.record = record
        self.transcript = Transcript() if record else None
        self.interactions = 0
        self.values_sent = 0
        self.values_received = 0
        self.simulated_ms = 0.0
        self.coalesced_messages = 0
        self._pending = []
        self._sink = obs.get_sink()

    def defer(self, kind, hid, fn_name, label, sent):
        """Buffer a one-way message instead of charging a round trip.

        Deferred messages are folded into a single ``batch`` round trip by
        :meth:`flush_deferred`, which runs automatically before the next
        ordinary :meth:`round_trip` (the first intervening receive).  Only
        messages whose result the open side does not need may be deferred
        (see docs/PROTOCOL.md for the deferability rule).
        """
        self._pending.append((kind, hid, fn_name, label, tuple(sent)))

    def flush_deferred(self, phases=None, trace=None):
        """Flush buffered one-way messages as one ``batch`` round trip.

        No-op when nothing is pending.  Returns the number of messages
        coalesced into the flush.  ``phases``/``trace`` carry the measured
        wire timings and trace context of a traced remote flush
        (docs/PROTOCOL.md); simulated runs leave them ``None``, keeping
        the recorded event schema bit-identical to the seed.
        """
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        merged = []
        for _kind, _hid, _fn_name, _label, sent in pending:
            merged.extend(sent)
        self.interactions += 1
        self.values_sent += len(merged)
        self.coalesced_messages += len(pending)
        cost_ms = self.latency.cost_ms(len(merged) + 1)
        self.simulated_ms += cost_ms
        if self._sink is not None:
            self._sink.batch(pending, len(merged),
                             _HEADER_BYTES + _VALUE_BYTES * len(merged),
                             cost_ms, phases, trace)
        if self.record:
            self.transcript.append(
                Event(self.interactions, "batch", None, "-", None, merged,
                      None, cost_ms)
            )
        return len(pending)

    def round_trip(self, kind, hid, fn_name, label, sent, result,
                   phases=None, trace=None):
        if self._pending:
            self.flush_deferred()
        self.interactions += 1
        self.values_sent += len(sent)
        if result is not None:
            self.values_received += 1
        cost_ms = self.latency.cost_ms(len(sent) + 1)
        self.simulated_ms += cost_ms
        if self._sink is not None:
            carried = len(sent) + (0 if result is None else 1)
            self._sink.round_trip(kind, fn_name, label, carried,
                                  _HEADER_BYTES + _VALUE_BYTES * carried,
                                  cost_ms, phases, trace)
        if self.record:
            self.transcript.append(
                Event(self.interactions, kind, hid, fn_name, label, sent,
                      result, cost_ms)
            )
        return result
