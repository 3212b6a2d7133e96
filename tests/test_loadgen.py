"""Load generation: script extraction, SLO parsing, and concurrent replay
against a live multi-tenant daemon (docs/OPERATIONS.md)."""

import io
import json
import threading

import pytest

from repro import obs
from repro.bench.experiments import split_corpus
from repro.cli import main as cli_main
from repro.core.classes import split_class
from repro.core.hidden import FragmentKind, HiddenFragment
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.lang.parser import parse_statements
from repro.loadgen import parse_slo, run_loadgen
from repro.loadgen.harness import check_slo, slo_ok
from repro.loadgen.replay import (
    ReplayOp,
    load_script,
    script_from_events,
    script_from_transcript,
    summarize,
)
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.remote import M_SESSIONS, remote_server
from repro.runtime.server import HiddenServer, Tenant
from repro.runtime.splitrun import run_split
from repro.workloads.inputs import TABLE5_RUNS

SOURCE = """
func int f(int x) {
    int a = x + 10;
    int b = a * 2;
    return b;
}
func void main(int x) { print(f(x)); }
"""

TRACE_LOG = "examples/traces/dotproduct.server.jsonl"

# a split class the program constructs: its session is two new_instance ops
METER = """
class Meter {
    field int reading;
    method void tick(int d) { reading = reading + d; }
}
func void main(int n) {
    Meter m = new Meter();
    Meter k = new Meter();
    print(n);
}
"""


def make(source=SOURCE, choices=(("f", "a"),)):
    program = parse_program(source)
    checker = check_program(program)
    return split_program(program, checker, list(choices))


def make_dotproduct():
    # the program the committed trace was recorded against: replaying its
    # log elsewhere would hit unknown fragment labels
    return make(open("examples/programs/dotproduct.mj").read())


# -- script extraction -------------------------------------------------------


def test_load_script_from_committed_server_log():
    script = load_script(TRACE_LOG)
    counts = summarize(script)
    # the dotproduct session shape: one activation, its calls, one close;
    # cb_* events are server-driven and must not be replayed
    assert counts == {"open": 1, "call": 10, "close": 1}
    assert all(op.fn == "f" for op in script)
    assert script[0].kind == "open" and script[-1].kind == "close"
    # think times come from the recorded inter-op gaps
    assert script[0].think_us == 0.0
    assert any(op.think_us > 0 for op in script[1:])


def test_script_from_events_requires_channel_events():
    with pytest.raises(ValueError, match="no replayable channel events"):
        script_from_events([{"type": "fragment", "fn": 0}], source="x")


def test_script_from_transcript_matches_simulated_session():
    sp = make()
    result = run_split(sp, args=(3,))
    script = script_from_transcript(result.channel.transcript)
    wire = [e for e in result.channel.transcript.events
            if e.kind in ("open", "call", "close")]
    assert [op.kind for op in script] == [e.kind for e in wire]
    # recorded value counts include the reply, like the flight recorder's
    for op, event in zip(script, wire):
        assert op.values == len(event.sent) + (
            1 if event.result is not None else 0)


# -- SLO parsing and gating --------------------------------------------------


def test_parse_slo_units_and_percentiles():
    assert parse_slo("p95=250ms") == {"p95": 250.0}
    assert parse_slo("p95=250ms,p99=1s") == {"p95": 250.0, "p99": 1000.0}
    assert parse_slo("p50=0.5s") == {"p50": 500.0}
    assert parse_slo("P99.9=10ms") == {"p99.9": 10.0}


@pytest.mark.parametrize("bad", ["", "p95", "p95=", "p95=10", "p95=10us",
                                 "q95=10ms", "p0=10ms", "p100=10ms"])
def test_parse_slo_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_slo(bad)


def test_check_slo_verdicts():
    verdicts = check_slo({"p95": 12.0, "p99": 80.0},
                         {"p95": 250.0, "p99": 50.0})
    assert verdicts["p95"]["ok"] is True
    assert verdicts["p99"] == {"limit_ms": 50.0, "actual_ms": 80.0,
                               "ok": False}
    assert not slo_ok({"slo": verdicts})
    assert slo_ok({"slo": check_slo({"p95": 12.0}, {"p95": 250.0})})


# -- concurrent replay against a live daemon ---------------------------------


def test_run_loadgen_against_two_tenant_daemon():
    sp = make()
    script = script_from_transcript(run_split(sp, args=(3,)).channel.transcript)
    tenants = [Tenant.from_program("alpha", sp),
               Tenant.from_program("beta", sp)]
    with obs.telemetry() as (registry, _tracer):
        with remote_server(tenants=tenants) as address:
            report_a = run_loadgen(address, script, clients=4, iterations=2,
                                   program="alpha", slo={"p95": 10_000.0})
            report_b = run_loadgen(address, script, clients=3,
                                   program="beta")
        # every scripted op answered, none skipped, no wire failures
        assert report_a["errors"] == {"protocol": 0, "reply": 0,
                                      "skipped_ops": 0}
        assert report_a["ops"] == 4 * 2 * len(script)
        assert report_b["ops"] == 3 * len(script)
        assert report_a["latency_ms"]["p95"] >= report_a["latency_ms"]["p50"]
        assert slo_ok(report_a)
        # per-tenant accounting stays disjoint
        assert registry.counter(M_SESSIONS, program="alpha").value == 4
        assert registry.counter(M_SESSIONS, program="beta").value == 3


def test_four_tenant_fleet_has_no_protocol_errors():
    """Every Table 5 corpus as a tenant of one daemon, with an 8-client
    fleet offered to all four at once: every scripted op is answered."""
    picked = {}
    for run in TABLE5_RUNS:  # the first Table 5 row of each corpus
        picked.setdefault(run.benchmark, run)
    tenants, scripts = [], {}
    for name, run in picked.items():
        sp = split_corpus(name, 0.06)
        tenants.append(Tenant.from_program(name, sp))
        scripts[name] = script_from_transcript(
            run_split(sp, args=(run.n, run.m)).channel.transcript)
    reports = {}
    with remote_server(tenants=tenants) as address:
        def fleet(name):
            reports[name] = run_loadgen(address, scripts[name], clients=2,
                                        program=name)
        threads = [threading.Thread(target=fleet, args=(name,))
                   for name in picked]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert sorted(reports) == sorted(picked) and len(reports) == 4
    assert sum(r["clients"] for r in reports.values()) == 8
    for name, report in reports.items():
        assert report["errors"] == {"protocol": 0, "reply": 0,
                                    "skipped_ops": 0}, name
        assert report["ops"] == 2 * len(scripts[name])
        assert report["latency_ms"]["p95"] > 0


class _OpenMemory:
    def __init__(self):
        self.stores = []

    def store_index(self, name, index, value):
        self.stores.append((name, index, value))


def test_replay_covers_new_instances_and_store_callbacks():
    """The two replay paths the Table 5 corpora never reach: new_instance
    ops of a class-splitting program, and store callbacks of a fragment
    that writes an open array — both answered, none skipped."""
    program = parse_program(METER)
    meter = split_class(program, check_program(program), "Meter")
    meter_script = script_from_transcript(
        run_split(meter, args=(1,)).channel.transcript)
    assert [(op.kind, op.fn) for op in meter_script] == [("open", "Meter")] * 2

    fill = HiddenFragment(0, FragmentKind.STMTS, params=["p"],
                          body=parse_statements("B[0] = p; B[1] = p + 1;"))
    registry = {0: ("fill", {0: fill}, {})}
    # in process, the fragment's stores reach open memory as callbacks
    channel = Channel(LatencyModel.instant())
    server = HiddenServer(registry, channel)
    memory = _OpenMemory()
    server.call(server.open_activation(0), 0, (4,), memory)
    assert memory.stores == [("B", 0, 4), ("B", 1, 5)]
    assert [e.kind for e in channel.transcript.events].count("cb_store") == 2
    # recorded value counts include the reply: the call sends one zero
    store_script = [ReplayOp("open", "fill", None, 2),
                    ReplayOp("call", "fill", 0, 2),
                    ReplayOp("close", "fill", None, 0)]

    tenants = [Tenant.from_program("meter", meter), Tenant("fill", registry)]
    with remote_server(tenants=tenants) as address:
        meter_report = run_loadgen(address, meter_script, clients=2,
                                   iterations=2, program="meter")
        store_report = run_loadgen(address, store_script, clients=2,
                                   iterations=2, program="fill")
    for report in (meter_report, store_report):
        assert report["errors"] == {"protocol": 0, "reply": 0,
                                    "skipped_ops": 0}
        assert "first_error" not in report
    assert meter_report["op_counts"] == {"new_instance": 2 * 2 * 2}
    assert store_report["op_counts"] == {"open": 4, "call": 4, "close": 4}


def test_run_loadgen_codegen_engine_smoke():
    # a daemon serving with the codegen tier answers a 2-tenant replay
    # with zero protocol errors (ISSUE 8 loadgen sanity)
    sp = make()
    script = script_from_transcript(run_split(sp, args=(3,)).channel.transcript)
    tenants = [Tenant.from_program("alpha", sp),
               Tenant.from_program("beta", sp)]
    with remote_server(tenants=tenants, engine="codegen") as address:
        report_a = run_loadgen(address, script, clients=2, program="alpha")
        report_b = run_loadgen(address, script, clients=2, program="beta")
    for report in (report_a, report_b):
        assert report["errors"] == {"protocol": 0, "reply": 0,
                                    "skipped_ops": 0}
        assert report["ops"] == 2 * len(script)


def test_run_loadgen_open_loop_is_seeded():
    sp = make()
    script = script_from_transcript(run_split(sp, args=(3,)).channel.transcript)
    for op in script:
        op.think_us = 100.0
    with remote_server(sp) as address:
        report = run_loadgen(address, script, clients=2, mode="open",
                             think_scale=1.0, seed=7)
    assert report["mode"] == "open"
    assert report["errors"]["protocol"] == 0
    assert report["ops"] == 2 * len(script)


def test_run_loadgen_counts_connect_failures_as_protocol_errors():
    sp = make()
    script = script_from_transcript(run_split(sp, args=(3,)).channel.transcript)
    with remote_server(sp) as address:
        report = run_loadgen(address, script, clients=2, program="nope")
    assert report["errors"]["protocol"] == 2
    assert report["ops"] == 0
    assert "unknown program" in report["first_error"]


def test_run_loadgen_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        run_loadgen(("127.0.0.1", 1), [], mode="warp")


# -- CLI ---------------------------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def test_cli_loadgen_end_to_end(tmp_path):
    sp = make_dotproduct()
    output = str(tmp_path / "report.json")
    with remote_server(sp) as (host, port):
        code, out = _run_cli([
            "loadgen", TRACE_LOG, "--address", "%s:%d" % (host, port),
            "--clients", "3", "--iterations", "2", "--seed", "1",
            "--slo", "p95=10s", "--fail-over-slo", "--output", output,
        ])
    assert code == 0, out
    assert "3 client(s), closed-loop x2" in out
    assert "SLO p95 <= 10000.0 ms: ok" in out
    report = json.loads(open(output).read())
    assert report["ops"] == 3 * 2 * 12
    assert report["errors"] == {"protocol": 0, "reply": 0, "skipped_ops": 0}
    assert report["slo"]["p95"]["ok"] is True


def test_cli_loadgen_gate_fails_on_violated_slo(tmp_path):
    sp = make_dotproduct()
    with remote_server(sp) as (host, port):
        # p50=0ms cannot hold; with --fail-over-slo that's exit code 1
        code, out = _run_cli([
            "loadgen", TRACE_LOG, "--address", "%s:%d" % (host, port),
            "--clients", "1", "--slo", "p50=0ms", "--fail-over-slo",
        ])
        assert code == 1
        assert "VIOLATED" in out
        # without the gate flag the violation is reported, not fatal
        code, out = _run_cli([
            "loadgen", TRACE_LOG, "--address", "%s:%d" % (host, port),
            "--clients", "1", "--slo", "p50=0ms",
        ])
        assert code == 0
        assert "VIOLATED" in out


def test_cli_loadgen_gate_fails_on_protocol_errors():
    sp = make_dotproduct()
    with remote_server(sp) as (host, port):
        code, out = _run_cli([
            "loadgen", TRACE_LOG, "--address", "%s:%d" % (host, port),
            "--clients", "1", "--program", "nope", "--fail-over-slo",
        ])
    assert code == 1
    assert "unknown program" in out


def test_cli_loadgen_json_format():
    sp = make_dotproduct()
    with remote_server(sp) as (host, port):
        code, out = _run_cli([
            "loadgen", TRACE_LOG, "--address", "%s:%d" % (host, port),
            "--clients", "2", "--format", "json",
        ])
    assert code == 0
    report = json.loads(out)
    assert report["clients"] == 2
    assert report["errors"]["protocol"] == 0
