"""In-memory spans the benchmark records around the public calls into each
layer, plus readers for the counters the program already exports.

A span is a named interval.  Spans nest through an open-span stack, so a
layer's *self* time is its spans' duration minus the part their child
spans cover.  Spans are aggregated by name as they close (count, total,
self, bytes): a traced Table 5 pass makes tens of thousands of channel
round trips, and keeping each one would cost more than the work it times.

Nothing here touches ``src/``.  :meth:`Spans.patched` swaps a method or
module function for a timing wrapper for the duration of a ``with`` block
and restores the original afterwards, so untraced runs execute the
program exactly as shipped.
"""

import contextlib
import functools
import time


class Spans:
    """Aggregated span recorder for one thread."""

    def __init__(self):
        self._stack = []  # [name, child seconds] of each open span
        #: name -> [count, total_s, self_s, bytes]
        self.totals = {}

    def _close(self, name, elapsed, size):
        child = self._stack.pop()[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        entry[3] += size

    @contextlib.contextmanager
    def span(self, name, size=0):
        """Time the ``with`` body as one span called ``name``; ``size`` is
        the number of input bytes it handles (for throughput metrics)."""
        self._stack.append([name, 0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - t0, size)

    def timed(self, fn, name, sized=False):
        """``fn`` wrapped so that every call records a span ``name``;
        with ``sized`` the first argument's length counts as its bytes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, time.perf_counter() - t0,
                            len(args[0]) if sized and args else 0)

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Install timing wrappers for ``targets`` — ``(owner, attribute,
        span name[, sized])`` tuples naming a class method or a module
        function — and restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, *sized in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self.timed(original, name, sized=bool(sized)))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total_s(self, name):
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def self_s(self, name):
        entry = self.totals.get(name)
        return entry[2] if entry else 0.0

    def size(self, name):
        entry = self.totals.get(name)
        return entry[3] if entry else 0


class _NoSpans:
    """Stands in for :class:`Spans` where nothing is traced."""

    def span(self, name, size=0):
        return contextlib.nullcontext()


NO_SPANS = _NoSpans()


def registry_sum(registry, name, **labels):
    """Sum of a metric family in a live :class:`repro.obs.metrics.Registry`
    over every label set matching ``labels``: counter and gauge values,
    histogram sums."""
    total = 0.0
    for metric in registry.collect():
        if metric.name != name:
            continue
        if any(metric.labels.get(k) != v for k, v in labels.items()):
            continue
        total += metric.sum if metric.kind == "histogram" else metric.value
    return total


def scraped_sum(doc, name, **labels):
    """:func:`registry_sum` over a ``/metrics.json`` document."""
    total = 0.0
    for sample in doc.get("metrics", []):
        if sample.get("name") != name:
            continue
        sample_labels = sample.get("labels") or {}
        if any(sample_labels.get(k) != v for k, v in labels.items()):
            continue
        total += sample.get("sum", sample.get("value", 0.0))
    return total


def ledger(wall_s, layers):
    """The layer ledger of one traced phase: ``layers`` maps a layer name
    to its self seconds; ``other`` is what no layer explains, so the
    lines sum to ``wall_s``.  Returns ``(lines, other_s, explained_pct)``."""
    explained = sum(layers.values())
    other = wall_s - explained
    lines = sorted(layers.items(), key=lambda kv: -kv[1])
    lines.append(("other", other))
    pct = 100.0 * explained / wall_s if wall_s > 0 else 0.0
    return lines, other, pct
