"""Multi-tenant daemon behaviour: tenancy, limits, and graceful drain.

The hidden-component server became a daemon (docs/OPERATIONS.md): one
listener serving many exported programs, with per-session limits and a
SIGTERM drain that finishes in-flight work.  These tests drive it both
in-process (raw protocol frames over a real socket) and as a subprocess
(the satellite drain scenario: SIGTERM mid-call, telemetry flushed).
"""

import contextlib
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro import obs
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.compile import M_COMPILE_SECONDS
from repro.runtime.interpreter import Interpreter
from repro.runtime.remote import (
    M_CLIENTS,
    M_REJECTED,
    M_SESSION_ERRORS,
    M_SESSIONS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ChannelError,
    ChannelProtocolError,
    HiddenComponentServer,
    RemoteHiddenRuntime,
    _ClientSession,
    _recv,
    _send,
    remote_server,
    run_split_remote,
)
from repro.runtime.server import Tenant
from repro.runtime.splitrun import RunResult, run_original, run_split

ALPHA = """
func int f(int x) {
    int a = x + 10;
    int b = a * 2;
    return b;
}
func void main(int x) { print(f(x)); }
"""

BETA = """
func int f(int x) {
    int a = x + 100;
    int b = a * 3;
    return b;
}
func void main(int x) { print(f(x)); }
"""

# the hidden slice drives 20k open-side loop iterations: a long session
# of small wire calls, so a SIGTERM reliably lands mid-stream
SLOW = """
func int f(int x) {
    int a = x;
    int i = 0;
    while (i < 20000) { a = a + 3; i = i + 1; }
    return a;
}
func void main(int x) { print(f(x)); }
"""


def make(source, choices=(("f", "a"),)):
    program = parse_program(source)
    checker = check_program(program)
    return program, split_program(program, checker, list(choices))


def _wire(address, timeout=5.0):
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    return sock, sock.makefile("rb"), sock.makefile("wb")


def _hangup(sock):
    # the makefile objects keep the fd alive past sock.close(); a shutdown
    # actually sends the FIN the server side is waiting for
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# -- tenancy -----------------------------------------------------------------


def test_handshake_carries_protocol_3_and_program_directory():
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, _wfile = _wire(address)[0:3]
        try:
            handshake = _recv(rfile)
        finally:
            _hangup(sock)
    assert handshake["proto"] == PROTOCOL_VERSION == 3
    assert handshake["programs"] == ["default"]
    assert handshake["functions"] == {"f": 0}
    assert "classes" in handshake and "deferrable" in handshake


def test_multi_tenant_sessions_are_isolated():
    prog_a, sp_a = make(ALPHA)
    prog_b, sp_b = make(BETA)
    tenants = [Tenant.from_program("alpha", sp_a),
               Tenant.from_program("beta", sp_b)]
    with remote_server(tenants=tenants) as address:
        for args in [(1,), (7,)]:
            remote_a = run_split_remote(sp_a, address, args=args,
                                        program="alpha")
            remote_b = run_split_remote(sp_b, address, args=args,
                                        program="beta")
            assert remote_a.output == run_original(prog_a, args=args).output
            assert remote_b.output == run_original(prog_b, args=args).output
            assert remote_a.output != remote_b.output


def test_programless_client_binds_the_default_tenant():
    prog_a, sp_a = make(ALPHA)
    _, sp_b = make(BETA)
    tenants = [Tenant.from_program("alpha", sp_a),
               Tenant.from_program("beta", sp_b)]
    with remote_server(tenants=tenants) as address:
        # no program selection: the first registered program serves, so a
        # pre-multi-tenant client keeps working against a new daemon
        remote = run_split_remote(sp_a, address, args=(4,))
        assert remote.output == run_original(prog_a, args=(4,)).output


def test_unknown_program_is_refused_cleanly():
    prog_a, sp_a = make(ALPHA)
    with remote_server(tenants=[Tenant.from_program("alpha", sp_a)]) as address:
        with pytest.raises(ChannelProtocolError, match="unknown program"):
            run_split_remote(sp_a, address, args=(4,), program="nope")
        # the refusal killed one session, not the daemon
        remote = run_split_remote(sp_a, address, args=(4,), program="alpha")
        assert remote.output == run_original(prog_a, args=(4,)).output


def _hidden_compiles(registry):
    return sum(m.count for m in registry.collect()
               if m.name == M_COMPILE_SECONDS and m.labels["side"] == "hidden")


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_second_session_on_a_tenant_compiles_nothing(engine):
    prog, sp = make(ALPHA)
    want = run_original(prog, args=(3,)).output
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp, engine=engine) as address:
            first = run_split_remote(sp, address, args=(3,))
            compiled = _hidden_compiles(registry)
            second = run_split_remote(sp, address, args=(3,))
            assert _hidden_compiles(registry) == compiled
    assert compiled >= 1
    assert first.output == second.output == want


def test_selection_after_hidden_state_is_refused():
    _, sp_a = make(ALPHA)
    _, sp_b = make(BETA)
    tenants = [Tenant.from_program("alpha", sp_a),
               Tenant.from_program("beta", sp_b)]
    with remote_server(tenants=tenants) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)  # handshake
            _send(wfile, {"op": "open", "fn_id": 0})  # binds alpha (default)
            assert "result" in _recv(rfile)
            _send(wfile, {"op": "hello", "program": "beta"})
            reply = _recv(rfile)
        finally:
            _hangup(sock)
    assert "bound to program 'alpha'" in reply["error"]


def test_hello_declares_one_option_at_a_time():
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)  # handshake
            replies = []
            for hello in (
                # two options in one frame: refused in-protocol, not
                # first-match-wins (the cache request used to be dropped)
                {"program": "default", "cache": True},
                {"cache": True},
                {"batching": True},
                {"program": "default"},
                {"trace": {"id": "t", "t": 0.0}},
            ):
                _send(wfile, dict(hello, op="hello"))
                replies.append(_recv(rfile))
        finally:
            _hangup(sock)
    refused, cache, batching, program, trace = replies
    assert refused == {"error": "hello declares one option at a time, "
                                "got program, cache"}
    # the session survived the refusal; single-option hellos keep their
    # replies
    assert cache == {"result": {"cache": True}}
    assert batching == {"result": "ok"}
    assert program["result"]["ok"] is True
    assert program["result"]["functions"] == {"f": 0}
    assert sorted(trace["result"]) == ["epoch_us", "ok"]


def test_duplicate_program_names_are_rejected():
    _, sp = make(ALPHA)
    with pytest.raises(ValueError, match="duplicate program name"):
        HiddenComponentServer(tenants=[
            Tenant.from_program("p", sp), Tenant.from_program("p", sp),
        ])


def test_daemon_requires_at_least_one_program():
    with pytest.raises(ValueError, match="at least one program"):
        HiddenComponentServer()


# -- limits ------------------------------------------------------------------


def test_connection_limit_rejects_retryably():
    _, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp, max_sessions=1) as address:
            first, rfile1, _w1 = _wire(address)
            try:
                _recv(rfile1)  # the held session
                second, rfile2, _w2 = _wire(address)
                try:
                    refusal = _recv(rfile2)
                finally:
                    _hangup(second)
                assert "connection limit" in refusal["error"]
                assert refusal["retry"] is True
                assert registry.counter(M_REJECTED, reason="limit").value == 1
            finally:
                _hangup(first)
            # the slot frees once the held session is reaped
            server_accepts = lambda: _handshake_ok(address)
            assert _poll(server_accepts)


def _handshake_ok(address):
    with contextlib.suppress(ChannelError, OSError):
        sock, rfile, _w = _wire(address, timeout=1.0)
        try:
            return "proto" in _recv(rfile)
        finally:
            _hangup(sock)
    return False


def test_idle_timeout_reaps_silent_sessions():
    _, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp, idle_timeout_s=0.2) as address:
            sock, rfile, _wfile = _wire(address)
            try:
                _recv(rfile)  # handshake; then stay silent
                with pytest.raises(ChannelError):
                    _recv(rfile)  # the daemon hangs up on us
            finally:
                sock.close()
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="idle_timeout").value == 1)


def test_batch_backpressure_limits_coalesced_messages():
    _, sp = make(ALPHA)
    with remote_server(sp, max_batch_msgs=2) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "batch", "msgs": [{"op": "hello"}] * 3})
            refused = _recv(rfile)
            _send(wfile, {"op": "batch", "msgs": [{"op": "hello"}] * 2})
            accepted = _recv(rfile)
        finally:
            _hangup(sock)
    assert "exceeds the per-session limit (2)" in refused["error"]
    assert accepted["result"] == 2


# -- session robustness ------------------------------------------------------


def test_mid_handshake_disconnect_does_not_leak_or_kill_the_daemon():
    """Regression: a client that vanishes before (or mid-) handshake used to
    crash its session thread and leak the live-clients gauge."""
    prog, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp) as address:
            # vanish immediately, without even reading the handshake
            socket.create_connection(address, timeout=5).close()
            # vanish mid-frame: truncated JSON, then gone
            sock = socket.create_connection(address, timeout=5)
            sock.sendall(b'{"op": "ope')
            sock.close()
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="disconnect").value == 2)
            # the daemon is unaffected: a real client still gets served
            remote = run_split_remote(sp, address, args=(4,))
            assert remote.output == run_original(prog, args=(4,)).output
            assert _poll(lambda: registry.gauge(
                M_CLIENTS, program="default").value == 0)
            # only the one bound session ever counted
            assert registry.counter(M_SESSIONS, program="default").value == 1


def test_shutdown_op_closes_without_reply():
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "shutdown"})
            with pytest.raises(ChannelError, match="connection closed"):
                _recv(rfile)
        finally:
            _hangup(sock)


# -- malformed frames --------------------------------------------------------

#: parseable or not, none of these is a protocol frame; each used to kill
#: its session thread with an uncaught exception and no reply
BAD_FRAMES = {
    "non-object": b'"x"\n',
    "missing-key": b'{"op": "open"}\n',
    "deep-nesting": b"[" * 100_000 + b"\n",
}


class _PausingChannel(Channel):
    """Holds the client after its ``at``-th round trip until released, so
    a well-behaved session is provably mid-run, with live hidden state,
    while another session misbehaves."""

    def __init__(self, at):
        super().__init__(LatencyModel.instant(), record=True)
        self.at = at
        self.paused = threading.Event()
        self.release = threading.Event()

    def round_trip(self, *args, **kwargs):
        result = super().round_trip(*args, **kwargs)
        if self.interactions == self.at:
            self.paused.set()
            self.release.wait(10.0)
        return result


def _observed(result):
    """Everything a remote run exposes: value, output, steps, and the
    full channel transcript."""
    events = [(e.seq, e.kind, e.hid, e.fn_name, e.label, e.sent, e.result)
              for e in result.channel.transcript.events]
    return (result.value, result.output, result.steps_open,
            result.interactions, events)


def _beside_a_paused_session(sp, address, misbehave):
    """Run ``misbehave()`` while a well-behaved session is paused mid-run
    with live hidden state; returns its result and the good session's
    :class:`RunResult`."""
    channel = _PausingChannel(at=2)
    runs = []

    def well_behaved():
        runtime = RemoteHiddenRuntime(address, channel=channel)
        try:
            interp = Interpreter(sp.program, hidden_runtime=runtime)
            value = interp.run("main", (4,))
            runs.append(RunResult(value, interp.output, interp.steps, 0,
                                  channel))
        finally:
            runtime.close()

    good = threading.Thread(target=well_behaved)
    good.start()
    try:
        assert channel.paused.wait(5.0)
        outcome = misbehave()
    finally:
        channel.release.set()
        good.join(timeout=10.0)
    assert len(runs) == 1
    return outcome, runs[0]


@pytest.mark.parametrize("frame", sorted(BAD_FRAMES))
def test_malformed_frame_is_refused_counted_and_isolated(frame, monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    prog, sp = make(ALPHA)

    def send_bad_frame():
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)  # handshake
            wfile.write(BAD_FRAMES[frame])
            wfile.flush()
            reply = _recv(rfile)
            with pytest.raises(ChannelError, match="closed"):
                _recv(rfile)  # refused, then hung up on
            return reply
        finally:
            _hangup(sock)

    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp) as address:
            oracle = _observed(run_split_remote(sp, address, args=(4,)))
            reply, run = _beside_a_paused_session(sp, address,
                                                  send_bad_frame)
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="protocol").value == 1)
            assert registry.counter(
                M_SESSION_ERRORS, reason="disconnect").value == 0
    assert reply["error"].startswith("protocol error: ")
    assert uncaught == []
    # the concurrent session never noticed
    assert _observed(run) == oracle
    assert run.output == run_original(prog, args=(4,)).output


def test_over_long_frame_is_refused_counted_and_isolated(monkeypatch):
    """Regression: a peer streaming bytes without a newline used to grow
    the session's read buffer without bound."""
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    prog, sp = make(ALPHA)

    def stream_without_newline():
        sock, rfile, _wfile = _wire(address)

        def flood():
            chunk = b"x" * 65536
            with contextlib.suppress(OSError):
                for _ in range(2 * MAX_FRAME_BYTES // len(chunk)):
                    sock.sendall(chunk)

        try:
            _recv(rfile)  # handshake
            writer = threading.Thread(target=flood, daemon=True)
            writer.start()
            reply = _recv(rfile)
            writer.join(timeout=10.0)
            return reply
        finally:
            _hangup(sock)

    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp) as address:
            oracle = _observed(run_split_remote(sp, address, args=(4,)))
            reply, run = _beside_a_paused_session(sp, address,
                                                  stream_without_newline)
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="protocol").value == 1)
    assert reply["error"] == (
        "protocol error: frame exceeds %d bytes" % MAX_FRAME_BYTES)
    assert uncaught == []
    assert _observed(run) == oracle
    assert run.output == run_original(prog, args=(4,)).output


# -- accept loop -------------------------------------------------------------


def test_shutdown_before_serve_forever_is_clean(monkeypatch):
    """Regression: shutdown() before the accept loop first ran killed the
    accept thread with OSError(EBADF) from configuring the closed
    listener."""
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    _, sp = make(ALPHA)
    server = HiddenComponentServer(tenants=[Tenant.from_program("p", sp)])
    server.shutdown()
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert uncaught == []


def test_finished_sessions_leave_no_threads_behind(monkeypatch):
    """Regression: the accept loop kept every session thread it ever
    started in a list that was never pruned."""
    session_threads = []
    run = _ClientSession.run

    def tracked_run(session):
        session_threads.append(weakref.ref(threading.current_thread()))
        run(session)

    monkeypatch.setattr(_ClientSession, "run", tracked_run)
    prog, sp = make(ALPHA)
    server = HiddenComponentServer(tenants=[Tenant.from_program("p", sp)])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for _ in range(5):
            result = run_split_remote(sp, server.address, args=(4,))
            assert result.output == run_original(prog, args=(4,)).output
        assert _poll(lambda: server.live_sessions() == 0)
        assert len(session_threads) == 5
        assert _poll(lambda: gc.collect() is not None and all(
            ref() is None for ref in session_threads))
    finally:
        server.shutdown()
        thread.join(timeout=5.0)


# -- drain -------------------------------------------------------------------


def test_drain_releases_idle_sessions_and_refuses_new_connections():
    _, sp = make(ALPHA)
    server = HiddenComponentServer(
        tenants=[Tenant.from_program("p", sp)], drain_grace_s=5.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sock, rfile, wfile = _wire(server.address)
    try:
        _recv(rfile)
        _send(wfile, {"op": "open", "fn_id": 0})
        assert "result" in _recv(rfile)  # bound, now idle
        server.drain()
        # the idle session is released immediately, not after a timeout
        with pytest.raises(ChannelError, match="connection closed"):
            _recv(rfile)
    finally:
        _hangup(sock)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection(server.address, timeout=1.0)


def test_serve_sigterm_drains_in_flight_work(tmp_path):
    """The satellite scenario end to end: SIGTERM lands mid-session while
    calls are streaming; the in-flight call completes with the correct
    result, new work is refused, and --metrics/--log-events still flush."""
    prog = tmp_path / "slow.mj"
    prog.write_text(SLOW)
    manifest = str(tmp_path / "slow.json")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(obs.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(src), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    export = subprocess.run(
        [sys.executable, "-m", "repro", "export", str(prog), "--function",
         "f", "--var", "a", "-o", manifest],
        env=env, capture_output=True, text=True,
    )
    assert export.returncode == 0, export.stdout + export.stderr

    # the oracle script: the simulated run's exact wire ops and replies
    _, sp = make(SLOW)
    events = [e for e in run_split(sp, args=(5,)).channel.transcript.events
              if e.kind in ("open", "call", "close")]

    metrics_path = str(tmp_path / "metrics.json")
    events_path = str(tmp_path / "events.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", manifest,
         "--metrics", metrics_path, "--log-events", events_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        serving = proc.stdout.readline()
        assert "hidden component serving on" in serving
        host, port = serving.strip().rsplit(" ", 1)[1].split(":")
        assert "programs: slow" in proc.stdout.readline()

        sock, rfile, wfile = _wire((host, int(port)), timeout=10.0)
        answered = 0
        interrupted = False
        timer = threading.Timer(0.3, proc.send_signal, args=(signal.SIGTERM,))
        timer.start()
        try:
            _recv(rfile)  # handshake
            hid = None
            for event in events:
                if event.kind == "open":
                    payload = {"op": "open", "fn_id": event.sent[0]}
                elif event.kind == "call":
                    payload = {"op": "call", "hid": hid,
                               "label": event.label,
                               "values": list(event.sent)}
                else:
                    payload = {"op": "close", "hid": hid}
                try:
                    _send(wfile, payload)
                    reply = _recv(rfile)
                except ChannelError:
                    interrupted = True  # the drain released our read
                    break
                if "error" in reply:
                    # a frame that raced the drain: refused, retryable
                    assert reply["retry"] is True
                    interrupted = True
                    break
                # every answered call completed with the simulated run's
                # exact result — the drain never truncates one mid-way
                assert reply["result"] == event.result
                if event.kind == "open":
                    hid = reply["result"]
                answered += 1
        finally:
            timer.cancel()
            _hangup(sock)
        assert interrupted, "SIGTERM should land mid-session"
        assert answered > 0
        # the drained daemon refuses new connections...
        with pytest.raises(OSError):
            socket.create_connection((host, int(port)), timeout=1.0)
        # ...and exits cleanly within the drain grace
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # telemetry flushed on the way out, with the per-program session count
    doc = json.loads(open(metrics_path).read())
    sessions = [m for m in doc["metrics"]
                if m["name"] == "repro_remote_sessions_total"]
    assert sessions and sessions[0]["labels"] == {"program": "slow"}
    assert os.path.getsize(events_path) > 0
