"""The observability subsystem: metrics, tracing, exposition, and the
instrumented runtime layers."""

import json

import pytest

from repro import obs
from repro.obs import export
from repro.obs.metrics import (
    NULL_METRIC,
    NULL_REGISTRY,
    Histogram,
    Registry,
)
from repro.obs.tracing import NULL_TRACER, Tracer

from repro.lang import check_program, parse_program
from repro.core.pipeline import auto_split
from repro.core.program import split_program
from repro.runtime.splitrun import run_split


SOURCE = """
func int f(int x, int[] B) {
    int a = x * 3 + 1;
    B[0] = a;
    int b = a - 2;
    B[1] = b;
    return b;
}
func void main(int x) {
    int[] B = new int[4];
    print(f(x, B));
    print(B[0]);
    print(B[1]);
}
"""


def _split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return program, split_program(program, checker, [("f", "a")])


# -- metrics primitives ------------------------------------------------------


def test_counter_and_gauge():
    reg = Registry()
    c = reg.counter("c_total", help="a counter", kind="x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("g")
    g.set(5)
    g.dec(2)
    assert g.value == 3


def test_metric_identity_by_name_and_labels():
    reg = Registry()
    a = reg.counter("c", kind="x")
    b = reg.counter("c", kind="x")
    other = reg.counter("c", kind="y")
    assert a is b
    assert a is not other
    assert reg.value("c", kind="x") == 0
    a.inc(4)
    assert reg.value("c", kind="x") == 4
    assert reg.total("c") == 4


def test_metric_kind_conflict_rejected():
    reg = Registry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")


def test_histogram_buckets_and_mean():
    reg = Registry()
    h = reg.histogram("h", buckets=(1, 10, 100))
    for v in (0.5, 5, 50, 500):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 555.5
    assert h.cumulative() == [(1, 1), (10, 2), (100, 3), (float("inf"), 4)]
    assert h.mean == pytest.approx(138.875)


def test_histogram_quantile_interpolation():
    reg = Registry()
    h = reg.histogram("h", buckets=(10, 20, 40))
    assert h.quantile(0.5) == 0.0  # empty histogram
    for v in (5, 15, 15, 35):
        h.observe(v)
    # target rank 2.0 lands at the top of the (10, 20] bucket's first half
    assert h.quantile(0.5) == pytest.approx(15.0)
    assert h.quantile(0.25) == pytest.approx(10.0)
    # anything past the last finite bucket clamps to that bound
    h.observe(1000)
    assert h.quantile(1.0) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert NULL_METRIC.quantile(0.5) == 0.0


def test_json_exposition_includes_quantiles():
    reg = Registry()
    h = reg.histogram("h", buckets=(1, 2, 4))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    doc = json.loads(export.to_json(reg, None))
    sample = doc["metrics"][0]
    assert set(sample["quantiles"]) == {"p50", "p95", "p99"}
    assert sample["quantiles"]["p50"] == pytest.approx(h.quantile(0.5))
    assert (
        sample["quantiles"]["p50"]
        <= sample["quantiles"]["p95"]
        <= sample["quantiles"]["p99"]
    )
    # quantiles are a JSON-only enrichment: the Prometheus text exposition
    # stays byte-stable (scrapers compute their own from the buckets)
    assert "quantile" not in export.to_prometheus(reg)


def test_null_registry_is_allocation_free():
    assert not NULL_REGISTRY.enabled
    assert NULL_REGISTRY.counter("x", kind="y") is NULL_METRIC
    assert NULL_REGISTRY.histogram("h") is NULL_METRIC
    NULL_METRIC.inc()
    NULL_METRIC.observe(3)
    assert NULL_REGISTRY.collect() == []
    assert NULL_REGISTRY.total("x") == 0


# -- tracing -----------------------------------------------------------------


def test_tracer_nested_spans_and_sim_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.event("channel.round_trip", 2.0)
        tracer.event("channel.round_trip", 1.0)
    summary = tracer.summary()
    assert summary["inner"]["sim_ms"] == pytest.approx(2.0)
    # the parent subsumes the child's simulated time plus its own
    assert summary["outer"]["sim_ms"] == pytest.approx(3.0)
    assert summary["outer"]["wall_s"] >= summary["inner"]["wall_s"]


def test_tracer_event_counts_without_a_span():
    tracer = Tracer()
    with tracer.span("phase"):
        for i in range(5):
            tracer.event("evt", 1.0)
    # events are counted in the summary and charged to the open phase
    summary = tracer.summary()
    assert summary["evt"]["count"] == 5
    assert summary["evt"]["sim_ms"] == pytest.approx(5.0)
    assert summary["evt"]["wall_s"] == 0.0
    assert summary["phase"]["count"] == 1
    assert summary["phase"]["sim_ms"] == pytest.approx(5.0)


def test_tracer_records_phase_histogram():
    reg = Registry()
    tracer = Tracer(registry=reg)
    with tracer.span("slice"):
        pass
    tracer.event("channel.round_trip", 0.0)  # events are not phases
    phases = [
        m for m in reg.collect() if m.name == "repro_phase_seconds"
    ]
    assert [m.labels["phase"] for m in phases] == ["slice"]
    assert phases[0].count == 1


def test_null_tracer_noops():
    with NULL_TRACER.span("x") as s:
        assert s is None
    assert NULL_TRACER.summary() == {}


# -- global switch -----------------------------------------------------------


def test_telemetry_scoping_restores_previous():
    assert not obs.enabled()
    with obs.telemetry() as (reg, tracer):
        assert obs.enabled()
        assert obs.get_registry() is reg
        assert obs.get_tracer() is tracer
        with obs.telemetry() as (inner, _):
            assert obs.get_registry() is inner
        assert obs.get_registry() is reg
    assert not obs.enabled()
    assert obs.get_registry() is NULL_REGISTRY


# -- instrumented runtime ----------------------------------------------------


def test_run_split_populates_registry():
    _, sp = _split()
    with obs.telemetry() as (reg, tracer):
        result = run_split(sp, args=(4,))
    assert reg.total("repro_channel_round_trips_total") == result.interactions
    assert reg.value("repro_steps_total", side="open") == result.steps_open
    assert reg.value("repro_steps_total", side="hidden") == result.steps_hidden
    assert reg.value("repro_channel_simulated_ms_total") == pytest.approx(
        result.channel.simulated_ms
    )
    assert reg.value("repro_runs_total", mode="split") == 1
    # per-ILP value counts carry fragment labels
    labelled = [
        m for m in reg.collect()
        if m.name == "repro_channel_values_total" and m.labels["label"] != "-"
    ]
    assert labelled
    assert reg.value("repro_server_activations_total", event="open") == 1
    assert reg.value("repro_server_activations_total", event="close") == 1
    # statement-kind counters exist on both sides
    sides = {
        m.labels["side"] for m in reg.collect()
        if m.name == "repro_stmt_executions_total"
    }
    assert sides == {"open", "hidden"}
    assert tracer.summary()["run.split"]["sim_ms"] == pytest.approx(
        result.channel.simulated_ms
    )


def test_disabled_telemetry_records_nothing():
    _, sp = _split()
    before = len(obs.get_registry().collect())
    result = run_split(sp, args=(4,))
    assert result.interactions > 0
    assert len(obs.get_registry().collect()) == before == 0


def test_auto_split_phase_spans():
    program = parse_program(SOURCE)
    checker = check_program(program)
    with obs.telemetry() as (reg, tracer):
        sp = auto_split(program, checker)
    assert sp.splits
    phases = {
        m.labels["phase"] for m in reg.collect()
        if m.name == "repro_phase_seconds"
    }
    assert {"select", "slice", "classify", "rewrite"} <= phases


# -- exposition --------------------------------------------------------------


def test_prometheus_exposition_format():
    reg = Registry()
    reg.counter("repro_x_total", help="things", kind="a").inc(3)
    reg.histogram("repro_h", buckets=(1, 2)).observe(1.5)
    text = export.to_prometheus(reg)
    assert "# HELP repro_x_total things" in text
    assert "# TYPE repro_x_total counter" in text
    assert 'repro_x_total{kind="a"} 3' in text
    assert "# TYPE repro_h histogram" in text
    assert 'repro_h_bucket{le="1.0"} 0' in text
    assert 'repro_h_bucket{le="2.0"} 1' in text
    assert 'repro_h_bucket{le="+Inf"} 1' in text
    assert "repro_h_sum 1.5" in text
    assert "repro_h_count 1" in text


def test_prometheus_label_escaping():
    reg = Registry()
    reg.counter("c", name_label='say "hi"\n').inc()
    text = export.to_prometheus(reg)
    assert '\\"hi\\"' in text
    assert "\\n" in text


def test_json_round_trip(tmp_path):
    reg = Registry()
    reg.counter("c_total", kind="a").inc(2)
    reg.histogram("h", buckets=(10,)).observe(5)
    tracer = Tracer(registry=reg)
    with tracer.span("phase"):
        pass
    path = tmp_path / "metrics.json"
    export.write_json(str(path), reg, tracer)
    doc = json.loads(path.read_text())
    by_name = {m["name"]: m for m in doc["metrics"]}
    assert by_name["c_total"]["value"] == 2
    assert by_name["c_total"]["labels"] == {"kind": "a"}
    assert by_name["h"]["count"] == 1
    assert doc["spans"]["phase"]["count"] == 1
    # deterministic output: same registry, same text
    assert export.to_json(reg, tracer) == export.to_json(reg, tracer)
