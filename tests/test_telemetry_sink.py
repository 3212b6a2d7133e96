"""The telemetry sink: one instrumentation path per boundary event.

Its guarantees:

* **golden exposition** — a deterministic in-process split run with
  batching, the fragment cache, metrics and the flight recorder all on
  produces exactly the samples, span summary and events recorded in
  ``tests/golden/telemetry_run.json``.  Only wall-clock values are
  masked (``ts_us``, ``wall_us``, ``wall_s`` and the ``*_seconds``
  histograms' sums and buckets).  Regenerate the fixture with
  ``PYTHONPATH=src python tests/test_telemetry_sink.py`` only when an
  exported name, label, help text or event field changes on purpose.
* **bound handles** — once an event has been seen for a label tuple, the
  hot events (round trips, batch flushes, fragment executions) reach
  their metrics without a single registry lookup, and threads binding
  the same tuple at once all hold the instance the registry exports.
* **off means off** — without a telemetry scope there is no sink, and
  every metric constant stays importable from the module that emits it.
"""

import json
import pathlib
import sys
import threading

from repro import obs
from repro.core.globals import hide_global
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.obs import export, metrics
from repro.obs.events import FlightRecorder, to_chrome, to_jsonl
from repro.obs.metrics import Registry
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.interpreter import Interpreter
from repro.runtime.server import HiddenServer
from repro.runtime.splitrun import run_split

GOLDEN = pathlib.Path(__file__).parent / "golden" / "telemetry_run.json"

#: a hidden global with a pure reader called in a loop (cache hits and
#: misses) and a writer (epoch invalidations)
COUNTER_SRC = """
global int secret = 3;

func int peek(int k) {
    return secret + k;
}

func void poke(int k) {
    secret = k;
}

func void main(int k) {
    int i = 0;
    int acc = 0;
    while (i < 6) {
        acc = acc + peek(i % 2);
        if (i == 3) {
            poke(k);
        }
        i = i + 1;
    }
    print(acc);
}
"""

#: a hidden loop reading open array elements (prefetched ``cb_batch``
#: callbacks) and a pure helper called with repeating values
ARRAY_SRC = """
func int f(int x, int[] B) {
    int a = x;
    int i = 0;
    while (i < 4) {
        a = a + B[i] * B[i + 1];
        i = i + 1;
    }
    B[0] = a;
    return a;
}
func int g(int x) {
    int a = x * 3 + 1;
    return a - 2;
}
func void main(int x) {
    int[] B = new int[8];
    int j = 0;
    while (j < 8) {
        B[j] = j * 2 + 1;
        j = j + 1;
    }
    print(f(x, B));
    int s = 0;
    j = 0;
    while (j < 5) {
        s = s + g(j % 2);
        j = j + 1;
    }
    print(s);
    print(B[0]);
}
"""

#: event fields whose value is wall-clock time
_WALL_FIELDS = ("ts_us", "wall_us", "wall_s", "ts")


def _splits():
    program = parse_program(COUNTER_SRC)
    counter = hide_global(program, check_program(program), "secret")
    program = parse_program(ARRAY_SRC)
    arrays = split_program(program, check_program(program),
                           [("f", "a"), ("g", "a")])
    return counter, arrays


def _mask_event(event):
    out = dict(event)
    for key in _WALL_FIELDS:
        if key in out:
            out[key] = "<wall>"
    if isinstance(out.get("args"), dict):
        out["args"] = _mask_event(out["args"])
    return out


def _mask_sample(sample):
    out = dict(sample)
    if out["name"].endswith("_seconds") and out["type"] == "histogram":
        for key in ("sum", "buckets", "quantiles"):
            out[key] = "<wall>"
    return out


def _mask_prometheus(text):
    lines = []
    for line in text.splitlines():
        name = line.split("{")[0].split(" ")[0]
        if not line.startswith("#") and "_seconds_" in name and (
            not name.endswith("_count")
        ):
            line = line.rsplit(" ", 1)[0] + " <wall>"
        lines.append(line)
    return lines


def telemetry_document():
    """Run the golden scenario and return every telemetry output with the
    wall-clock values masked."""
    counter, arrays = _splits()
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, tracer):
        results = [
            run_split(counter, args=(5,), batching=True, cache=True),
            run_split(arrays, args=(2,), batching=True, cache=True),
        ]
    doc = export.to_dict(registry, tracer, recorder)
    spans = doc.pop("spans")
    return {
        "results": [
            {
                "value": r.value,
                "output": list(r.output),
                "steps": [r.steps_open, r.steps_hidden],
                "transcript": [
                    [e.seq, e.kind, e.hid, e.fn_name, e.label, list(e.sent),
                     e.result, e.cost_ms]
                    for e in r.channel.transcript.events
                ],
            }
            for r in results
        ],
        "metrics": [_mask_sample(s) for s in doc["metrics"]],
        "recorder": doc["recorder"],
        "prometheus": _mask_prometheus(export.to_prometheus(registry)),
        "spans": {
            name: {"count": s["count"], "sim_ms": s["sim_ms"]}
            for name, s in spans.items()
        },
        "events": [
            _mask_event(json.loads(line))
            for line in to_jsonl(recorder).splitlines()
        ],
        "chrome": [_mask_event(e) for e in to_chrome(recorder)["traceEvents"]],
    }


def test_golden_exposition_is_unchanged():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(telemetry_document()))
    assert set(got) == set(want)
    for key in sorted(want):
        assert got[key] == want[key], key


def test_golden_run_covers_batching_cache_and_fragments():
    doc = json.loads(GOLDEN.read_text())
    kinds = {e["kind"] for e in doc["events"] if e["type"] == "channel"}
    assert {"batch", "cb_batch", "call", "open"} <= kinds
    cache = {e["event"] for e in doc["events"] if e["type"] == "cache"}
    assert {"hit", "miss", "invalidate"} <= cache
    assert any(e["type"] == "fragment" for e in doc["events"])


# -- bound handles -------------------------------------------------------------


class _CountingRegistry(Registry):
    lookups = 0

    def _get(self, *args, **kwargs):
        type(self).lookups += 1
        return super()._get(*args, **kwargs)


def test_repeat_events_make_no_registry_lookups():
    _counter, sp = _splits()
    _CountingRegistry.lookups = 0
    registry = _CountingRegistry()
    with obs.telemetry(registry=registry):
        channel = Channel(LatencyModel.lan())
        server = HiddenServer(sp.registry(), channel, batching=True,
                              cache=True)
        interp = Interpreter(sp.program, hidden_runtime=server)
        interp.run("main", (2,))
        channel.flush_deferred()
        first = _CountingRegistry.lookups
        assert first > 0
        # the same label tuples again: every handle is already bound
        interp.run("main", (2,))
        channel.flush_deferred()
    assert _CountingRegistry.lookups == first


def test_racing_first_binds_share_the_exported_instance(monkeypatch):
    """Daemon sessions bind handles from many threads at once: two threads
    that both miss must end up holding the one instance the registry
    exports, or one of them would update a metric nobody scrapes."""
    built = threading.Barrier(2, timeout=5.0)
    init = metrics.Counter.__init__

    def init_then_wait(self, name, labels):
        init(self, name, labels)
        built.wait()  # both threads have missed and built their own

    monkeypatch.setattr(metrics.Counter, "__init__", init_then_wait)
    registry = Registry()
    bound = []
    threads = [
        threading.Thread(target=lambda: bound.append(
            registry.metric(metrics.M_ACTIVATIONS, event="open")))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    assert bound[0] is bound[1]
    assert registry.collect() == [bound[0]]


def test_disabled_telemetry_resolves_no_sink():
    assert obs.get_sink() is None
    assert Channel()._sink is None
    with obs.telemetry():
        sink = obs.get_sink()
        assert sink is not None
        assert Channel()._sink is sink
    assert obs.get_sink() is None


def test_metric_constants_stay_importable_and_declared():
    from repro.obs import tracing
    from repro.obs.metrics import METRICS
    from repro.runtime import (
        cache, channel, codegen, compile, interpreter, remote, server,
        splitrun,
    )

    names = [
        channel.M_ROUND_TRIPS, channel.M_RT_PHASE, channel.M_VALUES,
        channel.M_BATCH_SIZE, channel.M_COALESCED, codegen.M_DEOPT,
        compile.M_COMPILE_SECONDS, compile.M_ENGINE, interpreter.M_STEPS,
        interpreter.M_STMTS, server.M_CALLS, server.M_ACTIVATIONS,
        tracing.PHASE_SECONDS, remote.M_OPS, remote.M_SESSION_ERRORS,
        cache.M_CACHE_HITS, splitrun.M_RUNS,
    ]
    assert all(name in METRICS for name in names)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(telemetry_document(), indent=1,
                                 sort_keys=True) + "\n")
    print("wrote %s" % GOLDEN, file=sys.stderr)
