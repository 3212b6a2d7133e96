"""Continuous profiling: a thread-based stack sampler with frame tags.

Wall-clock profilers see Python frames; this runtime executes MiniJava
through three engine tiers whose Python frames all look alike (the ast
walker's ``exec_stmt``, the closure tier's anonymous thunks, the codegen
tier's ``exec``-compiled ``__gen``/``__frag`` bodies).  The *frame-tag
registry* closes that gap: every tier registers the code objects it
compiles (or a resolver over its dispatch frames) at compile time, so a
sampled stack attributes to ``(qualified function/fragment, engine,
open|hidden side)`` instead of to interpreter plumbing.

Two registration forms:

* :func:`register_code` — a code object with a *static* tag.  The codegen
  tier uses this: each generated body is compiled separately
  (``<codegen:fn>`` filenames), so the code object alone identifies the
  function.
* :func:`register_resolver` — a code object whose tag is *dynamic*,
  resolved from the live frame's locals.  The ast and closure tiers share
  one dispatch frame per call (``Interpreter.call_function`` /
  ``HiddenServer.call``), so their resolvers read the callee and engine
  out of the frame.

The :class:`StackSampler` runs in a daemon thread, snapshots the target
threads' stacks via ``sys._current_frames()`` every ``interval_s``, and
attributes each sample to the innermost tagged frame (self time) and to
every distinct tag on the stack (total time).  Frames above the innermost
tag — operator helpers, channel accounting — accrue to that tag's self
time, like any inclusive sampling profiler.

Output formats (``repro profile``): a ranked text report, a JSON
document, and the collapsed-stack format loadable by speedscope or
flamegraph.pl (one ``frame;frame;frame count`` line per distinct stack).
"""

import sys
import threading
import time
import weakref

#: collapsed-stack frame used for samples with no tagged frame at all
UNTAGGED = "(untagged)"

#: accepted ``repro profile --format`` values
PROFILE_FORMATS = ("text", "json", "collapsed")

#: sampling interval default: 1 kHz is cheap for the sampled thread (the
#: sampler pays the stack walk, not the sampled code) and resolves the
#: few-hundred-millisecond corpus runs into hundreds of samples
DEFAULT_INTERVAL_S = 0.001

#: stack-walk depth bound — recursion guards elsewhere keep real stacks
#: far below this; the bound only protects the sampler from pathology
_MAX_DEPTH = 600


class FrameTagRegistry:
    """Code-object -> tag mapping shared by every engine tier.

    Keys are held weakly: a tag dies with its code object, so long-lived
    processes that compile many programs (the fuzzer, the daemon) do not
    leak registry entries.
    """

    def __init__(self):
        self._codes = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def register_code(self, code, name, engine, side):
        """Tag ``code`` statically as ``(name, engine, side)``."""
        with self._lock:
            self._codes[code] = (name, engine, side)

    def register_resolver(self, code, resolver):
        """Tag frames running ``code`` dynamically: ``resolver(frame)``
        returns ``(name, engine, side)`` or ``None`` (e.g. the frame has
        not bound its locals yet)."""
        with self._lock:
            self._codes[code] = resolver

    def resolve(self, frame):
        """The tag of one frame, or ``None`` when it is untagged."""
        entry = self._codes.get(frame.f_code)
        if entry is None:
            return None
        if callable(entry):
            try:
                return entry(frame)
            except Exception:
                return None  # a half-initialised frame is simply untagged
        return entry

    def __len__(self):
        return len(self._codes)


#: the process-wide registry the engine tiers register into
TAGS = FrameTagRegistry()


def register_code(code, name, engine, side):
    TAGS.register_code(code, name, engine, side)


def register_resolver(code, resolver):
    TAGS.register_resolver(code, resolver)


class Profile:
    """Aggregated result of one sampling session.

    ``rows`` maps ``(name, engine, side)`` to ``[self_samples,
    total_samples]``; ``stacks`` maps collapsed tag stacks (outer ->
    inner tuples) to sample counts.  ``self`` <= ``total`` per row and
    the self counts over all rows sum to ``attributed`` by construction
    (each sample has exactly one innermost tag).
    """

    def __init__(self, interval_s, duration_s, samples, attributed,
                 rows, stacks):
        self.interval_s = interval_s
        self.duration_s = duration_s
        self.samples = samples
        self.attributed = attributed
        self.rows = rows
        self.stacks = stacks

    @property
    def attributed_pct(self):
        if self.samples == 0:
            return 0.0
        return 100.0 * self.attributed / self.samples

    def _dt(self):
        """Seconds represented by one sample."""
        return self.duration_s / self.samples if self.samples else 0.0

    def sorted_rows(self, sort="self"):
        index = 0 if sort == "self" else 1
        return sorted(
            self.rows.items(),
            key=lambda item: (-item[1][index], item[0]),
        )

    def to_dict(self):
        dt = self._dt()
        rows = []
        for (name, engine, side), (self_n, total_n) in self.sorted_rows():
            rows.append({
                "fn": name,
                "engine": engine,
                "side": side,
                "self_samples": self_n,
                "total_samples": total_n,
                "self_s": round(self_n * dt, 6),
                "total_s": round(total_n * dt, 6),
                "self_pct": round(100.0 * self_n / self.samples, 2)
                if self.samples else 0.0,
            })
        return {
            "interval_s": self.interval_s,
            "duration_s": round(self.duration_s, 6),
            "samples": self.samples,
            "attributed": self.attributed,
            "attributed_pct": round(self.attributed_pct, 2),
            "rows": rows,
        }

    def to_collapsed(self):
        """flamegraph.pl / speedscope collapsed-stack text: one
        ``frame;frame count`` line per distinct sampled stack."""
        lines = []
        for stack, count in sorted(self.stacks.items()):
            lines.append("%s %d" % (";".join(stack), count))
        return "\n".join(lines) + "\n" if lines else ""

    def report(self, top=25, sort="self"):
        """The ranked text report ``repro profile`` prints."""
        dt = self._dt()
        lines = [
            "profile: %d samples over %.3fs (interval %.1fms, "
            "%.1f%% attributed to tagged frames)"
            % (self.samples, self.duration_s, self.interval_s * 1e3,
               self.attributed_pct),
        ]
        if not self.rows:
            lines.append("  (no tagged frames sampled)")
            return "\n".join(lines)
        width = max(len(name) for (name, _e, _s) in self.rows)
        width = max(width, len("function/fragment"))
        lines.append(
            "  %6s  %8s  %6s  %8s  %-*s  %-8s  %s"
            % ("self%", "self(s)", "tot%", "total(s)", width,
               "function/fragment", "engine", "side")
        )
        for (name, engine, side), (self_n, total_n) in \
                self.sorted_rows(sort)[:top]:
            lines.append(
                "  %6.1f  %8.4f  %6.1f  %8.4f  %-*s  %-8s  %s"
                % (
                    100.0 * self_n / self.samples if self.samples else 0.0,
                    self_n * dt,
                    100.0 * total_n / self.samples if self.samples else 0.0,
                    total_n * dt,
                    width, name, engine, side,
                )
            )
        hidden_rows = len(self.rows) - min(top, len(self.rows))
        if hidden_rows > 0:
            lines.append("  ... %d more row(s); --top raises the cut"
                         % hidden_rows)
        return "\n".join(lines)


class StackSampler:
    """Samples the stacks of ``thread_ids`` (default: the constructing
    thread) every ``interval_s`` from a daemon thread.

    Usage::

        sampler = StackSampler(interval_s=0.001)
        with sampler:
            run_split(sp, args=(2, 3))
        profile = sampler.result
    """

    def __init__(self, interval_s=DEFAULT_INTERVAL_S, thread_ids=None,
                 tags=None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self._thread_ids = (
            tuple(thread_ids) if thread_ids is not None
            else (threading.get_ident(),)
        )
        self._tags = tags if tags is not None else TAGS
        self._stop = threading.Event()
        self._thread = None
        self._t0 = None
        self.result = None
        # mutated only by the sampling thread; read after join
        self._samples = 0
        self._attributed = 0
        self._rows = {}
        self._stacks = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        """Stop sampling; returns (and stores) the :class:`Profile`."""
        if self.result is not None:
            return self.result
        duration = time.perf_counter() - self._t0 if self._t0 else 0.0
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.result = Profile(
            self.interval_s, duration, self._samples, self._attributed,
            self._rows, self._stacks,
        )
        return self.result

    def elapsed_s(self):
        return time.perf_counter() - self._t0 if self._t0 else 0.0

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- sampling loop (runs on the sampler thread) -------------------------

    def _run(self):
        while not self._stop.wait(self.interval_s):
            frames = sys._current_frames()
            for ident in self._thread_ids:
                frame = frames.get(ident)
                if frame is not None:
                    self._record(frame)

    def _record(self, frame):
        resolve = self._tags.resolve
        tags = []  # innermost -> outer
        depth = 0
        while frame is not None and depth < _MAX_DEPTH:
            tag = resolve(frame)
            if tag is not None:
                tags.append(tag)
            frame = frame.f_back
            depth += 1
        self._samples += 1
        if not tags:
            key = (UNTAGGED,)
            self._stacks[key] = self._stacks.get(key, 0) + 1
            return
        self._attributed += 1
        leaf = tags[0]
        row = self._rows.get(leaf)
        if row is None:
            row = self._rows[leaf] = [0, 0]
        row[0] += 1
        for tag in set(tags):
            row = self._rows.get(tag)
            if row is None:
                row = self._rows[tag] = [0, 0]
            row[1] += 1
        # collapsed stack: outer -> inner, recursion folded to first
        # appearance so flamegraphs stay readable
        stack, seen = [], set()
        for name, engine, side in reversed(tags):
            label = "%s:%s:%s" % (side, engine, name)
            if label not in seen:
                seen.add(label)
                stack.append(label)
        key = tuple(stack)
        self._stacks[key] = self._stacks.get(key, 0) + 1


# -- deopt attribution ("why codegen bailed") --------------------------------


def deopt_report(registry, recorder):
    """Join the reason-labelled deopt counter with the flight recorder's
    per-site ``deopt`` events into one ranked attribution document.

    The counter gives authoritative totals per ``(side, reason)``; the
    events add the per-site detail (function/fragment and source
    location).  Returns a JSON-ready dict.
    """
    from repro.runtime.codegen import M_DEOPT

    by_reason = {}
    total = 0
    for metric in registry.collect():
        if metric.name != M_DEOPT:
            continue
        reason = metric.labels.get("reason", "unknown")
        by_reason[reason] = by_reason.get(reason, 0) + metric.value
        total += metric.value
    sites = {}
    for event in recorder.by_type("deopt"):
        key = (
            event.get("side", "?"), event.get("fn", "?"),
            event.get("reason", "?"), event.get("where", ""),
        )
        sites[key] = sites.get(key, 0) + 1
    ranked = [
        {"count": count, "side": side, "fn": fn, "reason": reason,
         "where": where}
        for (side, fn, reason, where), count in sorted(
            sites.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    return {"total": int(total), "by_reason": by_reason, "sites": ranked}


def render_deopt_report(report):
    """The ranked "why codegen bailed" text table."""
    total = report["total"]
    if not total and not report["sites"]:
        return "codegen deopt attribution: no deopts recorded"
    lines = ["codegen deopt attribution: %d fallback(s) to the AST tier"
             % total]
    for reason, count in sorted(report["by_reason"].items(),
                                key=lambda item: (-item[1], item[0])):
        lines.append("  %-18s %d" % (reason, count))
    if report["sites"]:
        lines.append("  %-6s %-7s %-18s %-24s %s"
                     % ("count", "side", "reason", "function/fragment",
                        "where"))
        for site in report["sites"]:
            lines.append(
                "  %-6d %-7s %-18s %-24s %s"
                % (site["count"], site["side"], site["reason"], site["fn"],
                   site["where"])
            )
    return "\n".join(lines)
