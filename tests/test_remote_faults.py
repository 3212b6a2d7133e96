"""Fault paths of the TCP runtime (docs/PROTOCOL.md, "Errors" and
"Timeouts and reconnection"): dropped connections, malformed frames,
callback error frames, and the connect/handshake retry policy."""

import json
import socket
import threading

import pytest

from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.runtime.remote import (
    ChannelError,
    ChannelProtocolError,
    ChannelTimeout,
    ConnectionPolicy,
    RemoteHiddenRuntime,
    remote_server,
)
from repro.runtime.values import RuntimeErr

SOURCE = """
func int f(int x, int[] B) {
    int a = x + B[0];
    int b = a * 2;
    return b;
}
func void main(int x) {
    int[] B = new int[2];
    B[0] = 5;
    print(f(x, B));
}
"""

FAST = ConnectionPolicy(timeout_s=2.0, connect_retries=1, retry_backoff_s=0.01)


def _split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return split_program(program, checker, [("f", "a")])


class _ScriptedServer:
    """A fake hidden-component server that plays a fixed scenario.

    ``script(conn)`` runs once per accepted connection; accepted
    connections are counted so tests can assert how often the client
    retried."""

    def __init__(self, script):
        self._script = script
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()
        self.accepted = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        self._sock.settimeout(0.1)
        while True:
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.accepted += 1
            threading.Thread(
                target=self._run_script, args=(conn,), daemon=True
            ).start()

    def _run_script(self, conn):
        try:
            self._script(conn)
        finally:
            conn.close()

    def close(self):
        self._sock.close()
        self._thread.join(timeout=1.0)


def _handshake(conn, **extra):
    payload = {"proto": 2, "classes": []}
    payload.update(extra)
    conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))


@pytest.fixture
def scripted():
    servers = []

    def factory(script):
        server = _ScriptedServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def test_mid_call_connection_drop(scripted):
    def script(conn):
        _handshake(conn)
        conn.makefile("rb").readline()  # swallow the first request...
        # ...and hang up instead of answering

    server = scripted(script)
    runtime = RemoteHiddenRuntime(server.address, policy=FAST)
    with pytest.raises(ChannelError) as err:
        runtime.open_activation(0)
    assert "closed" in str(err.value)


def test_malformed_frame_raises_protocol_error(scripted):
    def script(conn):
        _handshake(conn)
        conn.makefile("rb").readline()
        conn.sendall(b"{this is not json\n")

    server = scripted(script)
    runtime = RemoteHiddenRuntime(server.address, policy=FAST)
    with pytest.raises(ChannelProtocolError):
        runtime.open_activation(0)


def test_callback_error_frame_surfaces_and_connection_survives():
    sp = _split()
    with remote_server(sp) as address:
        runtime = RemoteHiddenRuntime(address, policy=FAST)
        try:
            hid = runtime.open_activation(0)
            label = min(
                label
                for _fn, frags, _st in sp.registry().values()
                for label, frag in frags.items()
                if frag.params
            )
            # no access window: the client answers the server's fetch
            # callback with an error frame; the server reports the failed
            # call, and the session stays usable
            with pytest.raises(RuntimeErr) as err:
                runtime.call(hid, label, [1], access=None)
            assert "access" in str(err.value)
            hid2 = runtime.open_activation(0)
            assert hid2 != hid
        finally:
            runtime.close()


def test_handshake_timeout_exhausts_retries(scripted):
    def script(conn):
        # accept and say nothing: every attempt times out in handshake
        threading.Event().wait(1.0)

    server = scripted(script)
    policy = ConnectionPolicy(timeout_s=0.2, connect_retries=3,
                              retry_backoff_s=0.01)
    with pytest.raises(ChannelTimeout):
        RemoteHiddenRuntime(server.address, policy=policy)
    assert server.accepted == 3


def test_connect_retry_until_handshake_succeeds(scripted):
    state = {"drops": 0}

    def script(conn):
        if state["drops"] < 2:
            state["drops"] += 1
            return  # close without a handshake -> client retries
        _handshake(conn)
        rfile = conn.makefile("rb")
        while rfile.readline():
            pass

    server = scripted(script)
    policy = ConnectionPolicy(timeout_s=1.0, connect_retries=5,
                              retry_backoff_s=0.01)
    runtime = RemoteHiddenRuntime(server.address, policy=policy)
    assert runtime.connect_attempts == 3
    runtime.close()


def test_unknown_protocol_revision_rejected(scripted):
    def script(conn):
        _handshake(conn, proto=99)

    server = scripted(script)
    with pytest.raises(ChannelProtocolError) as err:
        RemoteHiddenRuntime(server.address, policy=FAST)
    assert "99" in str(err.value)


def test_protocol_errors_at_connect_are_not_retried(scripted):
    # a revision the client cannot speak will not change on a second try:
    # only transient failures (socket errors, timeouts, retryable
    # refusals) spend the policy's connect attempts
    server = scripted(lambda conn: _handshake(conn, proto=99))
    policy = ConnectionPolicy(timeout_s=2.0, connect_retries=3,
                              retry_backoff_s=0.01)
    with pytest.raises(ChannelProtocolError):
        RemoteHiddenRuntime(server.address, policy=policy)
    assert server.accepted == 1


def test_connection_refused_raises_channel_error():
    # grab a port and close it again: nothing is listening there
    probe = socket.create_server(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    with pytest.raises(ChannelError):
        RemoteHiddenRuntime(
            address,
            policy=ConnectionPolicy(timeout_s=0.2, connect_retries=2,
                                    retry_backoff_s=0.01),
        )


def test_connection_policy_validation():
    with pytest.raises(ValueError):
        ConnectionPolicy(timeout_s=0)
    with pytest.raises(ValueError):
        ConnectionPolicy(connect_retries=0)
