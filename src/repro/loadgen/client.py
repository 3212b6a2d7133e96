"""One synthetic client: the wire protocol with zeros for values.

Replays a script against a live daemon through
:class:`~repro.runtime.remote.RemoteHiddenRuntime` — the same client
``run-split --remote`` uses (docs/PROTOCOL.md) — answering any server
callbacks with zeros, while measuring the wall time of every answered
round trip.
"""

import contextlib
import threading
import time
import types

from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.remote import (
    ChannelError,
    ConnectionPolicy,
    RemoteHiddenRuntime,
)
from repro.runtime.values import RuntimeErr


class ClientResult:
    """What one synthetic client did and how long each op took."""

    __slots__ = ("ops", "latencies_s", "op_counts", "error_replies",
                 "protocol_errors", "skipped", "first_error")

    def __init__(self):
        self.ops = 0
        self.latencies_s = []
        self.op_counts = {}
        self.error_replies = 0
        self.protocol_errors = 0
        self.skipped = 0
        self.first_error = None

    def _note_error(self, message):
        if self.first_error is None:
            self.first_error = str(message)


class _ZeroAccess:
    """Open-component memory that reads zeros and drops stores."""

    def fetch_index(self, name, index):
        return 0

    def fetch_field(self, name, field):
        return 0

    def store_index(self, name, index, value):
        pass

    def store_field(self, name, field, value):
        pass

    def fetch_batch(self, items):
        return [0] * len(items)


class SyntheticClient:
    """Replays a script against a daemon at ``address``.

    ``iterations`` repeats the whole script (one logical session per
    client, many replayed runs inside it).  ``think_scale`` > 0 sleeps the
    script's recorded inter-op gaps (scaled, with ±20% seeded jitter from
    ``rng``) before each op — the open-loop mode; 0 replays back-to-back —
    the closed-loop mode.  ``barrier`` (if given) is waited on after the
    handshake, so a harness can guarantee all clients are connected —
    i.e. truly concurrent sessions — before any load is offered.
    """

    def __init__(self, address, script, program=None, iterations=1,
                 think_scale=0.0, rng=None, timeout_s=10.0, barrier=None,
                 cache=False):
        self.address = address
        self.script = script
        self.program = program
        self.iterations = iterations
        self.think_scale = think_scale
        self.rng = rng
        self.timeout_s = timeout_s
        self.barrier = barrier
        self.cache = cache

    def run(self):
        result = ClientResult()
        try:
            runtime = RemoteHiddenRuntime(
                self.address,
                # no transcript: a long replay must not grow the client
                channel=Channel(LatencyModel.instant(), record=False),
                program=self.program, cache=self.cache,
                # five attempts ride out the accept backlog of a big fleet
                policy=ConnectionPolicy(self.timeout_s, connect_retries=5),
            )
        except (ChannelError, OSError) as exc:
            result.protocol_errors += 1
            result._note_error(exc)
            if self.barrier is not None:
                # do not deadlock the fleet on one failed connect
                with contextlib.suppress(threading.BrokenBarrierError):
                    self.barrier.wait(timeout=self.timeout_s)
            return result
        try:
            if self.barrier is not None:
                self.barrier.wait(timeout=self.timeout_s)
            for _ in range(self.iterations):
                self._replay_once(runtime, result)
        except (ChannelError, OSError) as exc:
            result.protocol_errors += 1
            result._note_error(exc)
        except threading.BrokenBarrierError:
            result.protocol_errors += 1
            result._note_error("client fleet barrier broke")
        finally:
            runtime.close()
        return result

    def _replay_once(self, runtime, result):
        functions = runtime.functions
        access = _ZeroAccess()
        hid_stack = []
        next_oid = 1
        for op in self.script:
            self._think(op)
            if op.kind == "open":
                if op.fn in functions:
                    fn_id = functions[op.fn]
                elif op.fn in runtime.split_classes:
                    instance = types.SimpleNamespace(class_name=op.fn,
                                                     oid=next_oid)
                    next_oid += 1
                    self._timed(result, "new_instance",
                                runtime.notify_new_instance, instance)
                    continue
                elif len(functions) == 1:
                    # client-side logs record fn "-": unambiguous only
                    # for single-function programs
                    fn_id = next(iter(functions.values()))
                else:
                    result.skipped += 1
                    result._note_error(
                        "cannot resolve recorded open of %r (replay "
                        "server-side logs against multi-function programs)"
                        % op.fn)
                    continue
                ok, hid = self._timed(result, "open",
                                      runtime.open_activation, fn_id)
                if ok:
                    hid_stack.append(hid)
            elif not hid_stack:
                result.skipped += 1
            elif op.kind == "call":
                # the recorded count includes the reply; the rest are the
                # sent scalars, replayed as zeros
                self._timed(result, "call", runtime.call, hid_stack[-1],
                            op.label, [0] * max(op.values - 1, 0), access)
            else:  # close
                self._timed(result, "close", runtime.close_activation,
                            hid_stack.pop())
        # a balanced script leaves no activations behind; an unbalanced
        # one (truncated log) is cleaned up by the session close
        while hid_stack:
            self._timed(result, "close", runtime.close_activation,
                        hid_stack.pop())

    def _think(self, op):
        if self.think_scale <= 0.0 or op.think_us <= 0.0:
            return
        jitter = self.rng.uniform(0.8, 1.2) if self.rng is not None else 1.0
        time.sleep(op.think_us * self.think_scale * jitter / 1e6)

    @staticmethod
    def _timed(result, kind, method, *args):
        """One answered round trip through ``method``; returns ``(ok,
        value)``, ``ok`` false when the server answered with an error.
        Transport failures propagate and end the replay."""
        t0 = time.perf_counter()
        try:
            value, ok = method(*args), True
        except ChannelError:
            raise
        except RuntimeErr as exc:
            value, ok = None, False
            result.error_replies += 1
            result._note_error(exc)
        result.latencies_s.append(time.perf_counter() - t0)
        result.ops += 1
        result.op_counts[kind] = result.op_counts.get(kind, 0) + 1
        return ok, value
