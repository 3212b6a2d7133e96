"""Distributed tracing for the Of↔Hf split (docs/OBSERVABILITY.md,
docs/PROTOCOL.md "Trace context"): trace-context stamping, the phase
decomposition of every round trip, clock alignment, the traceview merge
and attribution, and the off-means-off accounting guarantee."""

import json
import pathlib
import socket
import threading

import pytest

from repro import obs
from repro.core.pipeline import auto_split
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.obs import traceview
from repro.obs.events import FlightRecorder
from repro.runtime.remote import (
    ConnectionPolicy,
    HiddenComponentServer,
    RemoteHiddenRuntime,
    remote_server,
    run_split_remote,
)
from repro.runtime.server import Tenant
from repro.workloads.corpora import build_corpus
from repro.workloads.inputs import TABLE5_RUNS

ROOT = pathlib.Path(__file__).resolve().parent.parent

SOURCE = """
func int f(int x, int y, int z, int[] B) {
    int a = 3 * x + y;
    int i = a;
    int sum = 0;
    while (i < z) { sum = sum + i; i = i + 1; }
    if (sum > 50) { B[0] = sum / 2; } else { B[0] = 0; }
    return sum;
}
func void main(int x, int y) {
    int[] B = new int[2];
    print(f(x, y, 25, B));
    print(B[0]);
}
"""

FAST = ConnectionPolicy(timeout_s=2.0, connect_retries=1, retry_backoff_s=0.01)


def _split(source=SOURCE, choices=(("f", "a"),)):
    program = parse_program(source)
    checker = check_program(program)
    return split_program(program, checker, list(choices))


def _traced_run(sp, args=(3, 3), **kwargs):
    """One traced remote run with a client-only recorder; returns the
    run result and the recorded client events."""
    recorder = FlightRecorder(process="Of")
    with remote_server(sp) as address:
        # the server thread was created outside this telemetry scope, so
        # its events stay out of the client recorder
        with obs.telemetry(recorder=recorder):
            result = run_split_remote(sp, address, args=args, trace=True,
                                      **kwargs)
    return result, list(recorder.events)


# -- the wire: context stamping and phase decomposition -----------------------


def test_traced_channel_events_carry_context_and_phases():
    sp = _split()
    result, events = _traced_run(sp)
    traced = [e for e in events if e["type"] == "channel" and "rt_us" in e]
    assert traced, "a traced remote run must decompose its round trips"
    ids = {e["trace_id"] for e in traced}
    assert len(ids) == 1  # one logical run = one trace
    (trace_id,) = ids
    assert len(trace_id) == 16 and int(trace_id, 16) >= 0
    for event in traced:
        assert event["cseq"] >= 1
        for field in ("ser_us", "wire_us", "exec_us", "deser_us"):
            assert event[field] >= 0.0
    # client-initiated requests count frames monotonically
    cseqs = [e["cseq"] for e in traced]
    assert cseqs == sorted(cseqs)


def test_phases_sum_to_wall_exactly():
    # the 5%-of-wall acceptance bar, tightened to the construction: each
    # phase is rounded to 0.1 us independently, so the sum may drift from
    # rt_us by at most half an ulp per field
    sp = _split()
    _result, events = _traced_run(sp)
    traced = [e for e in events if e["type"] == "channel" and "rt_us" in e]
    for event in traced:
        explained = (event["ser_us"] + event["wire_us"] + event["exec_us"]
                     + event["deser_us"])
        assert explained == pytest.approx(event["rt_us"], abs=0.5)


def test_trace_sync_recorded_with_offset_and_skew():
    sp = _split()
    result, events = _traced_run(sp)
    syncs = [e for e in events if e["type"] == "trace_sync"]
    assert len(syncs) == 1
    sync = syncs[0]
    assert sync["offset_us"] is not None
    assert sync["skew_bound_us"] >= 0.0
    assert sync["recv_us"] >= sync["send_us"]
    assert result.trace_sync["offset_us"] == sync["offset_us"]


def test_untraced_run_keeps_golden_channel_keys():
    sp = _split()
    recorder = FlightRecorder(process="Of")
    with remote_server(sp) as address:
        with obs.telemetry(recorder=recorder):
            run_split_remote(sp, address, args=(3, 3))
    channel = [e for e in recorder.events if e["type"] == "channel"]
    assert channel
    golden = {"seq", "ts_us", "type", "kind", "fn", "label", "values",
              "bytes", "sim_ms"}
    for event in channel:
        assert set(event) == golden  # no trace_id/cseq/phase fields leak in


def _accounting(result):
    """Everything telemetry and tracing must leave unchanged."""
    return (result.value, result.output, result.steps_open,
            result.interactions,
            [e.kind for e in result.channel.transcript.events])


def test_traced_accounting_identical_to_untraced():
    # telemetry off, flight recorder on, recorder on plus tracing
    sp = _split()
    with remote_server(sp) as address:
        plain = run_split_remote(sp, address, args=(4, 4))
        with obs.telemetry(recorder=FlightRecorder(process="Of")):
            recorded = run_split_remote(sp, address, args=(4, 4))
            traced = run_split_remote(sp, address, args=(4, 4), trace=True)
    assert _accounting(plain) == _accounting(recorded) == _accounting(traced)


def test_trace_id_fixed_across_connect_retries():
    """The trace id is chosen before connecting, so the id presented to
    the server is the same however many times the policy retried."""
    state = {"drops": 0, "hello": None}

    def script(conn):
        if state["drops"] < 2:
            state["drops"] += 1
            return  # close without a handshake -> client retries
        wfile = conn.makefile("wb")
        rfile = conn.makefile("rb")
        wfile.write(b'{"proto": 2, "classes": [], "deferrable": {}}\n')
        wfile.flush()
        state["hello"] = json.loads(rfile.readline())
        wfile.write(b'{"result": {"ok": true, "epoch_us": 1.0}}\n')
        wfile.flush()
        while rfile.readline():
            pass

    sock = socket.create_server(("127.0.0.1", 0))
    sock.settimeout(0.1)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                script(conn)
            finally:
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        policy = ConnectionPolicy(timeout_s=1.0, connect_retries=5,
                                  retry_backoff_s=0.01)
        runtime = RemoteHiddenRuntime(sock.getsockname(), policy=policy,
                                      trace=True)
        try:
            assert runtime.connect_attempts == 3
            hello = state["hello"]
            assert hello["trace"]["id"] == runtime.trace_id
            assert hello["tc"][0] == runtime.trace_id
            assert runtime.clock_sync["offset_us"] is not None
        finally:
            runtime.close()
    finally:
        stop.set()
        sock.close()
        thread.join(timeout=1.0)


def test_old_server_without_clock_handshake_degrades_gracefully():
    """A peer that answers the trace hello like a plain options frame
    (no epoch_us) leaves the run traced but unaligned."""

    def script(conn):
        wfile = conn.makefile("wb")
        rfile = conn.makefile("rb")
        wfile.write(b'{"proto": 2, "classes": [], "deferrable": {}}\n')
        wfile.flush()
        rfile.readline()  # the trace hello
        wfile.write(b'{"result": "ok"}\n')  # a pre-tracing server's answer
        wfile.flush()
        while rfile.readline():
            pass

    sock = socket.create_server(("127.0.0.1", 0))
    sock.settimeout(0.1)

    def serve():
        try:
            conn, _addr = sock.accept()
        except OSError:
            return
        try:
            script(conn)
        finally:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        runtime = RemoteHiddenRuntime(sock.getsockname(), policy=FAST,
                                      trace=True)
        try:
            assert runtime.clock_sync["offset_us"] is None
            assert runtime.trace_id is not None
        finally:
            runtime.close()
    finally:
        sock.close()
        thread.join(timeout=1.0)


def test_server_tags_events_including_batch_sub_ops():
    sp = _split()
    server_recorder = FlightRecorder(process="Hf")
    with obs.telemetry(recorder=server_recorder):
        # the server pins its recorder at construction time
        server = HiddenComponentServer(
            tenants=[Tenant.from_program("default", sp)])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        result = run_split_remote(sp, server.address, args=(3, 3),
                                  batching=True, trace=True)
    finally:
        server.shutdown()
        thread.join(timeout=2.0)
    events = list(server_recorder.events)
    recvs = [e for e in events if e["type"] == "server_recv"]
    sends = [e for e in events if e["type"] == "server_send"]
    assert recvs and sends
    # every event recorded while dispatching a stamped frame carries the
    # client's trace context
    trace_ids = {e.get("trace_id") for e in recvs + sends}
    assert trace_ids == {recvs[0]["trace_id"]}
    assert all(e.get("cseq", 0) >= 1 for e in recvs + sends)
    # a batching client coalesces its closes: the batch frame itself is
    # received once, and each folded message gets its own sub-tagged recv
    batch_recvs = [e for e in recvs if e["op"] == "batch"]
    sub_recvs = [e for e in recvs if "sub" in e]
    assert batch_recvs and sub_recvs
    assert all(e["op"] != "batch" for e in sub_recvs)
    assert {e["sub"] for e in sub_recvs} >= {0}
    # fragments executed under a stamped call are tagged too
    fragments = [e for e in events if e["type"] == "fragment"]
    assert fragments and all("trace_id" in e for e in fragments)
    assert result.trace_sync["offset_us"] is not None


# -- traceview: merge and attribution -----------------------------------------


def _client_fixture():
    return [
        {"seq": 1, "ts_us": 50.0, "type": "trace_sync", "trace_id": "ab",
         "send_us": 40.0, "recv_us": 60.0, "server_us": 0.0,
         "offset_us": 100.0, "skew_bound_us": 10.0},
        {"seq": 2, "ts_us": 1000.0, "type": "channel", "kind": "call",
         "fn": 0, "label": 1, "values": 1, "bytes": 20, "sim_ms": 0.0,
         "trace_id": "ab", "cseq": 2, "ser_us": 40.0, "wire_us": 30.0,
         "exec_us": 20.0, "deser_us": 10.0, "rt_us": 100.0},
        {"seq": 3, "ts_us": 1200.0, "type": "channel", "kind": "call",
         "fn": 0, "label": 1, "values": 1, "bytes": 20, "sim_ms": 0.0,
         "trace_id": "ab", "cseq": 3, "ser_us": 10.0, "wire_us": 50.0,
         "exec_us": 30.0, "deser_us": 10.0, "rt_us": 100.0},
        {"seq": 4, "ts_us": 1300.0, "type": "channel", "kind": "close",
         "fn": 0, "label": None, "values": 0, "bytes": 8, "sim_ms": 0.0},
    ]


def _server_fixture():
    return [
        {"seq": 1, "ts_us": 850.0, "type": "server_recv", "op": "call",
         "trace_id": "ab", "cseq": 2},
        {"seq": 2, "ts_us": 855.0, "type": "server_recv", "op": "close",
         "sub": 0, "trace_id": "ab", "cseq": 2},
        {"seq": 3, "ts_us": 870.0, "type": "server_send", "op": "call",
         "ok": True, "exec_us": 20.0, "trace_id": "ab", "cseq": 2},
        {"seq": 4, "ts_us": 880.0, "type": "server_send", "op": "open",
         "ok": True, "exec_us": 5.0},  # recv evicted: no partner
    ]


def test_load_events_rejects_non_event_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "channel", "seq": 1, "ts_us": 0.0}\n[1, 2]\n')
    with pytest.raises(ValueError) as err:
        traceview.load_events(str(path))
    assert ":2:" in str(err.value)
    path.write_text("not json at all\n")
    with pytest.raises(ValueError):
        traceview.load_events(str(path))


def test_load_events_skips_blank_lines(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('\n{"type": "channel", "seq": 1, "ts_us": 0.0}\n\n')
    assert len(traceview.load_events(str(path))) == 1


def test_clock_offset_none_without_sync():
    assert traceview.clock_offset([]) is None
    assert traceview.clock_offset(_client_fixture()[1:]) is None
    assert traceview.clock_offset(_client_fixture()) == 100.0


def test_merge_chrome_aligns_server_onto_client_clock():
    doc = traceview.merge_chrome(_client_fixture(), _server_fixture())
    assert doc["otherData"] == {"aligned": True, "clock_offset_us": 100.0}
    events = doc["traceEvents"]
    # both processes are named via M metadata rows
    meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert {(m["pid"], m["args"]["name"]) for m in meta} == {
        (traceview.CLIENT_PID, "Of (client)"),
        (traceview.SERVER_PID, "Hf (server)"),
    }
    # the round trip runs backwards from its recording timestamp
    rt = next(e for e in events
              if e["ph"] == "X" and e["name"] == "channel.call"
              and e["args"]["cseq"] == 2)
    assert rt["ts"] == 900.0 and rt["dur"] == 100.0
    # its phase slices tile the round trip in order
    phases = [e for e in events
              if e["pid"] == traceview.CLIENT_PID and e["tid"] == 2
              and e["args"].get("cseq") == 2]
    assert [p["name"] for p in phases] == ["serialize", "wire", "exec", "deser"]
    assert phases[0]["ts"] == 900.0
    assert phases[-1]["ts"] + phases[-1]["dur"] == 1000.0
    # recv/send pair -> one request window, shifted by +100 us, sitting
    # inside the client round trip
    window = next(e for e in events if e["name"] == "server.call")
    assert window["ph"] == "X"
    assert window["ts"] == 950.0 and window["dur"] == 20.0
    assert rt["ts"] <= window["ts"] <= window["ts"] + window["dur"] <= 1000.0
    # batch sub-op recv and the orphaned send degrade to instants
    assert any(e["ph"] == "i" and e["name"] == "sub.close" for e in events)
    assert any(e["ph"] == "i" and e["name"] == "server.open" for e in events)
    # the untraced close is an instant on the client row
    assert any(e["ph"] == "i" and e["name"] == "channel.close"
               for e in events if e["pid"] == traceview.CLIENT_PID)


def test_merge_chrome_unaligned_without_sync():
    doc = traceview.merge_chrome(_client_fixture()[1:], _server_fixture())
    assert doc["otherData"]["aligned"] is False
    window = next(e for e in doc["traceEvents"]
                  if e["name"] == "server.call")
    assert window["ts"] == 850.0  # unshifted


def test_quantile_exact_interpolation():
    assert traceview._quantile([], 0.5) == 0.0
    assert traceview._quantile([7.0], 0.95) == 7.0
    assert traceview._quantile([10.0, 20.0, 30.0, 40.0], 0.5) == 25.0
    assert traceview._quantile([10.0, 20.0, 30.0, 40.0], 0.0) == 10.0
    assert traceview._quantile([10.0, 20.0, 30.0, 40.0], 1.0) == 40.0
    assert traceview._quantile([0.0, 100.0], 0.95) == pytest.approx(95.0)


def test_attribution_groups_and_coverage():
    report = traceview.attribution(_client_fixture())
    assert len(report["rows"]) == 1  # both traced events share (kind,fn,label)
    row = report["rows"][0]
    assert (row["kind"], row["fn"], row["label"]) == ("call", "0", "1")
    assert row["count"] == 2
    assert row["total_us"] == 200.0
    assert row["phases_us"] == {"serialize": 50.0, "wire": 80.0,
                                "exec": 50.0, "deser": 20.0}
    assert row["p50_us"] == 100.0 and row["p99_us"] == 100.0
    overall = report["overall"]
    assert overall["round_trips"] == 2
    assert overall["coverage_pct"] == 100.0
    assert report["clock_offset_us"] == 100.0


def test_attribution_empty_stream():
    report = traceview.attribution([])
    assert report["rows"] == []
    assert report["overall"]["round_trips"] == 0
    assert report["overall"]["coverage_pct"] == 0.0


def test_render_attribution_text():
    text = traceview.render_attribution(traceview.attribution(
        _client_fixture()))
    assert "Round-trip latency attribution (us)" in text
    assert "phases explain: 100.00%" in text
    assert "clock offset (server->client): 100.0 us" in text
    unaligned = traceview.render_attribution(traceview.attribution(
        _client_fixture()[1:]))
    assert "unaligned" in unaligned


def test_rt_attribution_over_the_wire():
    """A real TCP run of the jasmin Table 5 row: the four phases explain
    the measured wall time of its round trips."""
    run = next(r for r in TABLE5_RUNS if r.benchmark == "jasmin")
    corpus = build_corpus("jasmin", scale=0.06)
    sp = auto_split(corpus.program, corpus.checker)
    _result, events = _traced_run(sp, args=(run.n, run.m))
    report = traceview.attribution(events)
    overall = report["overall"]
    assert overall["round_trips"] > 0
    assert overall["coverage_pct"] == pytest.approx(100.0, abs=0.5)
    assert "phases explain" in traceview.render_attribution(report)


def test_committed_example_traces_are_consistent():
    """The committed examples/traces artefacts (a real TCP run) must stay
    loadable, aligned, and fully phase-explained."""
    client = traceview.load_events(
        str(ROOT / "examples/traces/dotproduct.client.jsonl"))
    server = traceview.load_events(
        str(ROOT / "examples/traces/dotproduct.server.jsonl"))
    report = traceview.attribution(client)
    assert report["overall"]["round_trips"] > 0
    assert report["overall"]["coverage_pct"] == pytest.approx(100.0, abs=0.1)
    doc = traceview.merge_chrome(client, server)
    assert doc["otherData"]["aligned"] is True
    committed = json.loads(
        (ROOT / "examples/traces/dotproduct.trace.json").read_text())
    assert committed["otherData"]["aligned"] is True
    assert len(committed["traceEvents"]) > 10
