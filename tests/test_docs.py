"""The documentation hygiene checks CI runs (tools/check_docs.py), as a
tier-1 test so dead links and stale metric names fail locally too."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402


def test_docs_are_clean(capsys):
    assert check_docs.main() == 0, capsys.readouterr().err


def test_checker_sees_this_repos_metrics():
    known = check_docs.defined_metrics()
    assert "repro_channel_round_trips_total" in known
    assert "repro_channel_coalesced_total" in known
    assert "repro_channel_batch_size" in known
    assert "repro_phase_seconds" in known


def test_checker_flags_dead_link(tmp_path):
    doc = tmp_path / "X.md"
    doc.write_text("see [gone](nope/missing.md)")
    errors = []
    check_docs.check_links(doc, doc.read_text(), errors)
    assert len(errors) == 1 and "missing.md" in errors[0]


def test_checker_flags_stale_metric(tmp_path):
    doc = tmp_path / "X.md"
    doc.write_text("`repro_totally_made_up_total` is great")
    errors = []
    check_docs.check_metrics(
        doc, doc.read_text(), {"repro_channel_round_trips_total"}, errors
    )
    assert len(errors) == 1 and "repro_totally_made_up_total" in errors[0]


def test_checker_flags_missing_files_and_experiments(tmp_path):
    doc = tmp_path / "X.md"
    doc.write_text(
        "gated by `tools/check_docs.py` and `tools/check_gone.py`; see\n"
        "[old](../BENCH_gone.json) and benchmarks/bench_gone.py\n"
        "    python -m repro.bench table5 nosuch --scale 0.1\n"
        "    python perfbench/smoke.py\n"
    )
    errors = []
    check_docs.check_paths(doc, doc.read_text(), {"table5"}, errors)
    assert len(errors) == 4, errors
    for name in ("tools/check_gone.py", "BENCH_gone.json",
                 "benchmarks/bench_gone.py", "repro.bench nosuch"):
        assert any(name in e for e in errors), (name, errors)


def test_checker_sees_this_repos_experiments():
    experiments = check_docs.defined_bench_experiments()
    assert {"table1", "table5", "fig2", "attack"} <= experiments
    assert "rtattr" not in experiments



def test_checker_sees_the_declaration_table():
    declared = check_docs.defined_metrics()
    spec = declared["repro_engine_compile_seconds"]
    assert spec.kind == "histogram"
    assert tuple(spec.labels) == ("side", "engine")


def test_checker_flags_metric_table_drift(tmp_path):
    declared = check_docs.defined_metrics()
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(
        "| Metric | Type | Labels | Meaning |\n"
        "| --- | --- | --- | --- |\n"
        "| `repro_channel_round_trips_total` | histogram | `kind` | x |\n"
        "| `repro_engine_compile_seconds` | histogram | `side` | x |\n"
        "| `repro_engine_total` | counter | `side`, `engine` | x |\n"
        "| `repro_channel_simulated_ms_total` | counter | — | x |\n"
    )
    errors = []
    check_docs.check_metric_table(doc, doc.read_text(), declared, errors)
    assert len(errors) == 3, errors
    assert any("round_trips_total is documented as a histogram" in e
               for e in errors)
    assert any("compile_seconds is documented with labels ['side']" in e
               for e in errors)
    assert any("repro_engine_total is documented with labels "
               "['side', 'engine']" in e for e in errors)


def test_checker_sees_the_servers_hello_options():
    assert check_docs.defined_hello_options() == {
        "program", "batching", "cache", "trace"}


def _op_table(*hello_keys):
    rows = "".join('| `{"op": "hello", "%s": X}` | `"ok"` | x |\n' % key
                   for key in hello_keys)
    return ("| request | reply `result` | meaning |\n| --- | --- | --- |\n"
            '| `{"op": "open", "fn_id": N}` | `hid` | x |\n' + rows)


def test_checker_accepts_a_hello_table_naming_every_option(tmp_path):
    doc = tmp_path / "PROTOCOL.md"
    doc.write_text(_op_table("batching", "program", "cache", "trace"))
    errors = []
    check_docs.check_hello_table(
        doc, doc.read_text(), check_docs.defined_hello_options(), errors)
    assert errors == []


def test_checker_flags_hello_table_drift(tmp_path):
    doc = tmp_path / "PROTOCOL.md"
    doc.write_text(_op_table("batching", "program", "cache", "compress"))
    errors = []
    check_docs.check_hello_table(
        doc, doc.read_text(), check_docs.defined_hello_options(), errors)
    assert len(errors) == 2, errors
    assert any("hello option 'compress' the server does not handle" in e
               for e in errors)
    assert any("hello option 'trace' has no row" in e for e in errors)
