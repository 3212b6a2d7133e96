"""Exposition of a metrics registry (and optional tracer summary).

Two formats:

* **JSON** — one document with every sample plus the tracer's per-phase
  summary; this is what ``--metrics out.json`` writes at exit and what the
  benchmarks diff against.
* **Prometheus text exposition** — the ``# HELP`` / ``# TYPE`` / sample
  format scrapable by any Prometheus-compatible collector, for the "heavy
  traffic" deployment story (``repro stats --format prometheus``).

Both orderings are deterministic (sorted by name, then label set) so tests
can assert on stable output.
"""

import json

from repro.obs.metrics import Histogram


def _fmt_value(value):
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        return repr(value)
    return str(value)


def _escape(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels, extra=None):
    items = sorted(labels.items())
    if extra:
        items += sorted(extra.items())
    if not items:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, _escape(v)) for k, v in items)


def to_prometheus(registry):
    """Render ``registry`` in the Prometheus text exposition format."""
    lines = []
    seen_names = set()
    for metric in registry.collect():
        if metric.name not in seen_names:
            seen_names.add(metric.name)
            help_text = registry.help_text(metric.name)
            if help_text:
                lines.append("# HELP %s %s" % (metric.name, help_text))
            lines.append("# TYPE %s %s" % (metric.name, metric.kind))
        if isinstance(metric, Histogram):
            for bound, cumulative in metric.cumulative():
                lines.append(
                    "%s_bucket%s %d"
                    % (
                        metric.name,
                        _label_str(metric.labels, {"le": _fmt_value(float(bound))}),
                        cumulative,
                    )
                )
            lines.append(
                "%s_sum%s %s"
                % (metric.name, _label_str(metric.labels), _fmt_value(metric.sum))
            )
            lines.append(
                "%s_count%s %d"
                % (metric.name, _label_str(metric.labels), metric.count)
            )
        else:
            lines.append(
                "%s%s %s"
                % (metric.name, _label_str(metric.labels), _fmt_value(metric.value))
            )
    return "\n".join(lines) + "\n"


def to_dict(registry, tracer=None, recorder=None):
    """Structured snapshot: ``{"metrics": [...], "spans": {...}}``, plus a
    ``"recorder"`` block (buffer stats, :meth:`FlightRecorder.stats`) when
    a flight recorder is passed."""
    samples = []
    for metric in registry.collect():
        sample = {
            "name": metric.name,
            "type": metric.kind,
            "labels": dict(metric.labels),
        }
        if isinstance(metric, Histogram):
            sample["count"] = metric.count
            sample["sum"] = metric.sum
            sample["buckets"] = [
                {"le": "+Inf" if bound == float("inf") else bound, "count": n}
                for bound, n in metric.cumulative()
            ]
            # estimated quantiles (bucket interpolation) — JSON only; the
            # Prometheus text exposition stays byte-identical, collectors
            # compute their own histogram_quantile() there
            sample["quantiles"] = {
                "p50": metric.quantile(0.50),
                "p95": metric.quantile(0.95),
                "p99": metric.quantile(0.99),
            }
        else:
            sample["value"] = metric.value
        samples.append(sample)
    doc = {"metrics": samples}
    if tracer is not None:
        doc["spans"] = tracer.summary()
    if recorder is not None:
        doc["recorder"] = recorder.stats()
    return doc


def to_json(registry, tracer=None, recorder=None):
    """JSON text of :func:`to_dict` (stable key order)."""
    return json.dumps(
        to_dict(registry, tracer, recorder), indent=2, sort_keys=True
    )


def write_json(path, registry, tracer=None, recorder=None):
    with open(path, "w") as f:
        f.write(to_json(registry, tracer, recorder) + "\n")
