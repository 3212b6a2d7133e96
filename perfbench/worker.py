"""One benchmark worker: a freshly started process that sets one workload
up and then measures it.

``run.py`` starts workers one after another and merges what they print:
the last line of a worker's standard output is one JSON document of raw
samples.  Modes:

``setup``    set up, report set-up time and peak RSS, exit;
``measure``  set up, then run passes until ``--seconds`` have elapsed
             (at least two, three on split, so cold and warm passes
             exist);
``trace``    set up, then one untraced and one traced phase, reporting
             the per-layer metrics and the layer ledger.

Every pass walks the workload's items in an order drawn from the seed;
the programs and their inputs never depend on it.
"""

import time

from speed import CALIBRATION_MIN_S, SpeedMeter

#: the host's speed around set-up: sampled here, before the imports, and
#: again once set-up is done
SETUP_METER = SpeedMeter()
SETUP_METER.sample(0.1)
PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import urllib.request  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from spans import NO_SPANS, Spans, ledger, registry_sum, scraped_sum  # noqa: E402

from repro import obs  # noqa: E402
from repro import runtime  # noqa: E402
from repro.bench.experiments import TABLE2_ORDER, run_table5, split_corpus  # noqa: E402
from repro.core import auto_split  # noqa: E402
from repro.core import deploy  # noqa: E402
from repro.core.deploy import export_split_json, import_split  # noqa: E402
from repro.lang import check_program, parse_program, pretty  # noqa: E402
from repro.obs.profile import StackSampler  # noqa: E402
from repro.obs.tracing import PHASE_SECONDS  # noqa: E402
from repro.runtime import LatencyModel, run_original, run_split  # noqa: E402
from repro.runtime import remote  # noqa: E402
from repro.runtime.channel import M_ROUND_TRIPS, M_RT_PHASE, M_VALUES, Channel  # noqa: E402
from repro.runtime.codegen import M_DEOPT  # noqa: E402
from repro.runtime.compile import M_COMPILE_SECONDS  # noqa: E402
from repro.runtime.interpreter import M_STEPS  # noqa: E402
from repro.runtime.server import M_CALLS, HiddenServer  # noqa: E402
from repro.security.report import analyze_split_security  # noqa: E402
from repro.workloads.corpora import build_corpus  # noqa: E402
from repro.workloads.inputs import TABLE5_RUNS  # noqa: E402

#: serve inputs: each corpus's first Table 5 ``n`` with this much ballast
#: (1-3k open steps and 90-1175 round trips per run)
SERVE_M = 20

#: the daemon's production configuration (docs/OPERATIONS.md) minus the
#: files it would write; the cache stays at its daemon default (on)
DAEMON_FLAGS = ["--port", "0", "--max-sessions", "64", "--idle-timeout", "300"]

DAEMON_READY_TIMEOUT_S = 90.0
DAEMON_STOP_TIMEOUT_S = 30.0

#: StackSampler interval in traced phases
SAMPLE_INTERVAL_S = 0.001

#: warm untraced passes behind the measured Table 5 of a traced run
TABLE5_PASSES = 3



class Mismatch(Exception):
    """An output or count differs from the set-up reference."""


def _expect(what, got, want):
    if got != want:
        raise Mismatch("%s: got %r, expected %r" % (what, got, want))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0




# -- split: the developer's build step ----------------------------------------


def _security_summary(report):
    return (
        sorted(report.type_histogram().items()),
        report.max_inputs(),
        report.max_degree(),
        report.paths_variable_count(),
        report.predicates_hidden_count(),
        report.flow_hidden_count(),
    )


def _registry_shape(registry):
    return sorted(
        (fn_id, name, sorted(fragments))
        for fn_id, (name, fragments, _storage) in registry.items()
    )


class SplitWorkload:
    """parse -> typecheck -> auto_split -> security estimate -> export ->
    import, per corpus, from source text rendered in set-up."""

    name = "split"
    #: a cold pass and two warm ones, so a warm item median exists
    min_passes = 3

    def __init__(self, plant=False):
        self.plant = plant

    def setup(self):
        self.items = list(TABLE2_ORDER)
        self.sources = {}
        self.expected = {}
        for name in self.items:
            corpus = build_corpus(name)
            self.sources[name] = pretty(corpus.program)
            # the reference is split from the generated AST, in process,
            # the way run_table2 splits it
            ref = auto_split(corpus.program, corpus.checker)
            self.expected[name] = {
                "table2": (ref.methods_sliced(), ref.statements_in_slices(),
                           ref.ilp_count()),
                "security": _security_summary(
                    analyze_split_security(ref, corpus.checker, name)),
                "manifest": export_split_json(ref),
                "registry": _registry_shape(ref.registry()),
            }
        if self.plant:
            first = self.expected[self.items[0]]
            sliced, stmts, ilps = first["table2"]
            first["table2"] = (sliced + 1, stmts, ilps)

    def op(self, i, spans):
        """One corpus through the pipeline; returns ``(op_s, baseline_s)``
        where the baseline is the frontend share (parse + typecheck) the
        unsplit build pays too."""
        name = self.items[i]
        source = self.sources[name]
        t0 = time.perf_counter()
        with spans.span("lang.parse", size=len(source)):
            program = parse_program(source)
        with spans.span("lang.typecheck"):
            checker = check_program(program)
        t1 = time.perf_counter()
        with spans.span("core.split"):
            split = auto_split(program, checker)
        with spans.span("security.analyze"):
            report = analyze_split_security(split, checker, name)
        with spans.span("deploy.export"):
            manifest = export_split_json(split)
        with spans.span("deploy.import", size=len(manifest)):
            deployed = import_split(manifest)
        t2 = time.perf_counter()
        want = self.expected[name]
        _expect("%s Table 2 counts" % name,
                (split.methods_sliced(), split.statements_in_slices(),
                 split.ilp_count()), want["table2"])
        _expect("%s security estimate" % name,
                _security_summary(report), want["security"])
        if manifest != want["manifest"]:
            raise Mismatch("%s manifest differs from the reference" % name)
        _expect("%s imported registry" % name,
                _registry_shape(deployed.registry()), want["registry"])
        return t2 - t0, t1 - t0

    def trace_targets(self):
        # import_split re-parses the open program and every fragment; those
        # parses belong to the frontend layer, not to the deploy layer
        return [
            (deploy, "parse_program", "lang.parse", True),
            (deploy, "parse_statements", "lang.parse", True),
            (deploy, "parse_expression", "lang.parse", True),
        ]

    def close(self):
        pass


# -- run: Table 5 in process ----------------------------------------------------


class RunWorkload:
    """Every Table 5 row with the paper's inputs: the original program,
    then the split one over an instant in-process channel."""

    name = "run"
    min_passes = 2

    def __init__(self, plant=False, engine=None):
        self.plant = plant
        self.engine = engine or runtime.DEFAULT_ENGINE

    def setup(self):
        self.rows = list(TABLE5_RUNS)
        self.items = list(range(len(self.rows)))
        self.expected = []
        for row in self.rows:
            split = split_corpus(row.benchmark)
            args = (row.n, row.m)
            before = run_original(split.original, args=args, engine="ast")
            after = run_split(split, args=args, latency=LatencyModel.instant(),
                              engine="ast")
            self.expected.append({
                "result": (before.value, before.output),
                "steps": before.steps_open,
                "split": (after.steps_open, after.steps_hidden,
                          after.interactions),
            })
        if self.plant:
            value, output = self.expected[0]["result"]
            self.expected[0]["result"] = (value, output + ["planted"])

    def label(self, i):
        row = self.rows[i]
        return "%s %s" % (row.benchmark, row.input_name)

    def op(self, i, spans):
        """One row; returns ``(split_s, original_s)``."""
        row = self.rows[i]
        split = split_corpus(row.benchmark)
        args = (row.n, row.m)
        t0 = time.perf_counter()
        with spans.span("run.original"):
            before = run_original(split.original, args=args, engine=self.engine)
        t1 = time.perf_counter()
        with spans.span("run.split"):
            after = run_split(split, args=args, latency=LatencyModel.instant(),
                              engine=self.engine)
        t2 = time.perf_counter()
        want = self.expected[i]
        label = self.label(i)
        _expect("%s original result" % label,
                (before.value, before.output), want["result"])
        _expect("%s original steps" % label, before.steps_open, want["steps"])
        _expect("%s split result" % label,
                (after.value, after.output), want["result"])
        _expect("%s split steps and round trips" % label,
                (after.steps_open, after.steps_hidden, after.interactions),
                want["split"])
        return t2 - t1, t1 - t0

    def trace_targets(self):
        return [
            (HiddenServer, "open_activation", "runtime.server"),
            (HiddenServer, "close_activation", "runtime.server"),
            (HiddenServer, "notify_new_instance", "runtime.server"),
            (HiddenServer, "call", "runtime.server"),
            (Channel, "round_trip", "runtime.channel"),
            (Channel, "defer", "runtime.channel"),
            (Channel, "flush_deferred", "runtime.channel"),
        ]

    def close(self):
        pass


# -- serve: the hidden side as deployed ---------------------------------------


class Daemon:
    """A ``repro serve`` subprocess hosting the exported manifests."""

    def __init__(self, manifests, expo=True):
        cmd = [sys.executable, "-m", "repro", "serve"]
        cmd += ["%s=%s" % (name, path) for name, path in manifests]
        cmd += DAEMON_FLAGS
        if expo:
            cmd += ["--expo-port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"  # the banner is the readiness signal
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.address = None
        self.metrics_url = None
        try:
            self._wait_ready(expo)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, expo):
        """Read the banner up to the ``programs:`` line, which the daemon
        prints once it is listening."""
        deadline = time.monotonic() + DAEMON_READY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        pending = b""
        seen = []
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError("daemon not ready: %r" % seen)
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("daemon exited: %r" % seen)
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for raw in lines:
                line = raw.decode(errors="replace").rstrip()
                seen.append(line)
                if line.startswith("metrics exposition on "):
                    self.metrics_url = line.split()[-1] + ".json"
                elif line.startswith("hidden component serving on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    self.address = (host, int(port))
                elif line.startswith("programs:"):
                    if self.address is None or (
                            expo and self.metrics_url is None):
                        raise RuntimeError("daemon banner incomplete: %r"
                                           % seen)
                    return

    def cpu_s(self):
        """User + system CPU seconds the daemon has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def scrape(self):
        with urllib.request.urlopen(self.metrics_url, timeout=10) as resp:
            return json.loads(resp.read().decode())

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc.stdout is not None:
            self.proc.stdout.close()


class ServeWorkload:
    """One closed-loop client running real remote split runs against a
    multi-tenant ``repro serve`` daemon, one fresh session per run."""

    name = "serve"
    min_passes = 2

    def __init__(self, plant=False):
        self.plant = plant
        self.trace = False
        self.daemon = None
        self.workdir = None

    def setup(self):
        first = {}
        for row in TABLE5_RUNS:
            first.setdefault(row.benchmark, row.n)
        # one item per Table 5 row, so a pass has the paper's program mix
        self.items = [(row.benchmark, (first[row.benchmark], SERVE_M))
                      for row in TABLE5_RUNS]
        self.splits = {name: split_corpus(name) for name in first}
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.manifests = []
        for name, split in self.splits.items():
            path = os.path.join(self.workdir, name + ".json")
            with open(path, "w") as f:
                f.write(export_split_json(split))
            self.manifests.append((name, path))
        self.expected = {}
        for name, split in self.splits.items():
            args = (first[name], SERVE_M)
            before = run_original(split.original, args=args, engine="ast")
            after = run_split(split, args=args, latency=LatencyModel.instant(),
                              engine="ast")
            self.expected[name] = {
                "result": (before.value, before.output),
                "counts": (after.steps_open, after.interactions),
            }
        if self.plant:
            value, output = self.expected[self.items[0][0]]["result"]
            self.expected[self.items[0][0]]["result"] = (
                value, output + ["planted"])
        self.daemon = Daemon(self.manifests, expo=True)

    def op(self, item, spans, address=None):
        """One remote run on a fresh session; returns ``(run_s, 0)``."""
        name, args = self.items[item]
        t0 = time.perf_counter()
        with spans.span("runtime.open"):
            result = remote.run_split_remote(
                self.splits[name], address or self.daemon.address, args=args,
                program=name, cache=True, trace=self.trace)
        t1 = time.perf_counter()
        want = self.expected[name]
        _expect("%s remote result" % name,
                (result.value, result.output), want["result"])
        _expect("%s remote steps and round trips" % name,
                (result.steps_open, result.interactions), want["counts"])
        return t1 - t0, 0.0

    def baseline_op(self, item, spans):
        """The same input through the original program, in process;
        returns ``(0, original_s)``."""
        name, args = self.items[item]
        t0 = time.perf_counter()
        before = run_original(self.splits[name].original, args=args,
                              engine=runtime.DEFAULT_ENGINE)
        t1 = time.perf_counter()
        _expect("%s original result" % name,
                (before.value, before.output), self.expected[name]["result"])
        return 0.0, t1 - t0

    def trace_targets(self):
        return [
            (remote.RemoteHiddenRuntime, "__init__", "remote.session_open"),
            (remote.RemoteHiddenRuntime, "open_activation", "remote.call"),
            (remote.RemoteHiddenRuntime, "close_activation", "remote.call"),
            (remote.RemoteHiddenRuntime, "notify_new_instance", "remote.call"),
            (remote.RemoteHiddenRuntime, "call", "remote.call"),
            (remote.RemoteHiddenRuntime, "close", "remote.close"),
        ]

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"split": SplitWorkload, "run": RunWorkload, "serve": ServeWorkload}


# -- measuring ------------------------------------------------------------------


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none is fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: %s" % (type(exc).__name__, exc))
            return None


def run_pass(workload, order, tally, spans=NO_SPANS, meter=None, op=None,
             **kwargs):
    """One pass of ``op`` (default: the workload's) in ``order``; returns
    per-op records ``(item, op_s, baseline_s)`` of the ops that passed
    their checks.  With a ``meter`` the host's speed is sampled before the
    pass and after every op, and garbage is collected before every op."""
    records = []
    op = op or workload.op
    if meter is not None:
        meter.sample(CALIBRATION_MIN_S)
    for item in order:
        if meter is not None:
            # every op starts from the same collector state, whatever ran
            # before it in this seed's order
            gc.collect()
        got = tally.run(op, item, spans, **kwargs)
        if got is not None:
            records.append((item, got[0], got[1]))
        if meter is not None:
            meter.after(got[0] + got[1] if got is not None else 0.0)
    return records


def shuffled(rng, items):
    order = list(range(len(items)))
    rng.shuffle(order)
    return order


def _scaled_passes(workload, rng, tally, seconds=None, count=None,
                   op=None):
    """Speed-scaled passes: until ``seconds`` have elapsed (at least
    ``workload.min_passes``), or ``count`` of them.  Returns records
    ``[item, op_s, baseline_s, pass number]``."""
    records = []
    t0 = time.perf_counter()
    n = 0
    while (n < count if count is not None else
           n < workload.min_passes or time.perf_counter() - t0 < seconds):
        meter = SpeedMeter()
        done = run_pass(workload, shuffled(rng, workload.items), tally,
                        meter=meter, op=op)
        f = meter.factor()
        records += [[item, f * op_s, f * base_s, n]
                    for item, op_s, base_s in done]
        n += 1
    return records


def measure(workload, rng, seconds, tally):
    """Passes until ``seconds`` have elapsed, at least the workload's
    minimum; every time is scaled by its pass's speed factor.  Pass 0 is
    the cold one.  On serve, as many baseline passes follow as there were
    warm passes, at least three."""
    out = {"ops": _scaled_passes(workload, rng, tally, seconds=seconds)}
    if isinstance(workload, ServeWorkload):
        out["baseline_ops"] = _scaled_passes(
            workload, rng, tally, count=max(3, out["ops"][-1][3]),
            op=workload.baseline_op)
    return out


# -- traced phase ----------------------------------------------------------------

#: every per-layer metric the traced run reports (BENCHMARK.json
#: ``per_layer``); a layer the workload does not exercise reads 0
def _layer_template():
    names = [
        "lang.parse_s", "lang.parse_kb_per_s", "lang.typecheck_s",
        "core.split_s", "core.select_s", "analysis.slice_s",
        "security.classify_s", "core.rewrite_s", "security.analyze_s",
        "core.methods_sliced", "core.statements_sliced", "core.ilps",
        "deploy.export_s", "deploy.import_s", "deploy.manifest_kb",
    ]
    for engine in runtime.ENGINES:
        for side in ("open", "hidden"):
            names += ["runtime.%s.%s.compile_s" % (engine, side),
                      "runtime.%s.%s.exec_s" % (engine, side)]
    names += [
        "runtime.open.steps", "runtime.hidden.steps",
        "runtime.open.steps_per_s", "runtime.codegen.deopts",
        "channel.round_trips", "channel.values", "server.calls",
        "server.exec_s",
        "remote.session_open_s", "remote.serialize_s", "remote.wire_s",
        "remote.exec_s", "remote.deser_s", "remote.round_trips",
        "remote.session_errors",
        "cache.hits", "cache.misses", "cache.invalidations", "cache.hit_rate",
        "obs.daemon_telemetry_pct", "obs.trace_overhead_pct",
        "profile.attributed_pct", "profile.hidden_pct",
        "client.busy_pct", "daemon.busy_pct",
        "ledger.other_s", "ledger.explained_pct",
    ]
    return dict.fromkeys(names, 0.0)


def _traced_pass(workload, order, tally, sample=False, **kwargs):
    """One pass under program telemetry, benchmark spans, and (optionally)
    the stack sampler; returns ``(records, wall_s, spans, registry,
    profile, client_cpu_s)``."""
    spans = Spans()
    with obs.telemetry() as (registry, _tracer), \
            spans.patched(workload.trace_targets()):
        sampler = StackSampler(interval_s=SAMPLE_INTERVAL_S) if sample else None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if sampler is not None:
            sampler.start()
        try:
            records = run_pass(workload, order, tally, spans, **kwargs)
        finally:
            profile = sampler.stop() if sampler is not None else None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return records, wall, spans, registry, profile, cpu


def _profile_metrics(layers, profile):
    if profile is None or not profile.samples:
        return
    layers["profile.attributed_pct"] = profile.attributed_pct
    hidden = sum(self_n for (_n, _e, side), (self_n, _t) in profile.rows.items()
                 if side == "hidden")
    if profile.attributed:
        layers["profile.hidden_pct"] = 100.0 * hidden / profile.attributed


def _untraced_wall(workload, order, tally, passes=1):
    """Median wall time and all records of ``passes`` untraced passes in
    ``order``, after a pass that absorbs the first-pass costs, so they
    compare with a warm traced pass."""
    run_pass(workload, order, tally)
    walls, records = [], []
    for _ in range(passes):
        t0 = time.perf_counter()
        records += run_pass(workload, order, tally)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), records


def trace_split(workload, rng, seconds, tally):
    layers = _layer_template()
    order = shuffled(rng, workload.items)
    untraced, _ = _untraced_wall(workload, order, tally)
    _records, wall, spans, registry, _profile, cpu = _traced_pass(
        workload, order, tally)
    parse_s = spans.total_s("lang.parse")
    layers.update({
        "lang.parse_s": parse_s,
        "lang.parse_kb_per_s": spans.size("lang.parse") / 1024.0 / parse_s,
        "lang.typecheck_s": spans.total_s("lang.typecheck"),
        "core.split_s": spans.total_s("core.split"),
        "core.select_s": registry_sum(registry, PHASE_SECONDS,
                                      phase="select"),
        "analysis.slice_s": registry_sum(registry, PHASE_SECONDS,
                                         phase="slice"),
        "security.classify_s": registry_sum(registry, PHASE_SECONDS,
                                            phase="classify"),
        "core.rewrite_s": registry_sum(registry, PHASE_SECONDS,
                                       phase="rewrite"),
        "security.analyze_s": spans.total_s("security.analyze"),
        "deploy.export_s": spans.total_s("deploy.export"),
        "deploy.import_s": spans.total_s("deploy.import"),
        "deploy.manifest_kb": spans.size("deploy.import") / 1024.0,
    })
    for name in workload.items:
        want = workload.expected[name]["table2"]
        layers["core.methods_sliced"] += want[0]
        layers["core.statements_sliced"] += want[1]
        layers["core.ilps"] += want[2]
    layer_self = {
        name: spans.self_s(name)
        for name in ("lang.parse", "lang.typecheck", "core.split",
                     "security.analyze", "deploy.export", "deploy.import")
    }
    return _finish_trace(layers, wall, untraced, layer_self, cpu)


def _engine_split(spans, registry):
    """Self seconds of the in-process run layers under one engine."""
    open_compile = registry_sum(registry, M_COMPILE_SECONDS, side="open")
    hidden_compile = registry_sum(registry, M_COMPILE_SECONDS, side="hidden")
    open_self = spans.self_s("run.original") + spans.self_s("run.split")
    return {
        "runtime.open.compile": open_compile,
        "runtime.open.exec": open_self - open_compile,
        "runtime.hidden.compile": hidden_compile,
        "runtime.hidden.exec": spans.self_s("runtime.server") - hidden_compile,
        "runtime.channel": spans.self_s("runtime.channel"),
    }


def trace_run(workload, rng, seconds, tally):
    layers = _layer_template()
    order = shuffled(rng, workload.items)
    default = workload.engine
    untraced, records = _untraced_wall(workload, order, tally,
                                       passes=TABLE5_PASSES)
    # measured Table 5: per row, the median over warm untraced passes of
    # the split/original wall ratio, next to run_table5's simulated
    # increase and the paper's
    ratios = {}
    for item, split_s, original_s in records:
        ratios.setdefault(item, []).append(split_s / original_s)
    table5 = [
        [workload.label(i), 100.0 * (statistics.median(ratios[i]) - 1.0),
         row["increase_pct"], row["paper_pct"]]
        for i, row in enumerate(run_table5().data) if i in ratios
    ]
    result = None
    for engine in runtime.ENGINES:
        workload.engine = engine
        _records, wall, spans, registry, profile, cpu = _traced_pass(
            workload, order, tally, sample=True)
        parts = _engine_split(spans, registry)
        for side in ("open", "hidden"):
            layers["runtime.%s.%s.compile_s" % (engine, side)] = \
                parts["runtime.%s.compile" % side]
            layers["runtime.%s.%s.exec_s" % (engine, side)] = \
                parts["runtime.%s.exec" % side]
        if engine == "codegen":
            layers["runtime.codegen.deopts"] = registry_sum(registry, M_DEOPT)
        if engine == default:
            open_steps = registry_sum(registry, M_STEPS, side="open")
            layers.update({
                "runtime.open.steps": open_steps,
                "runtime.hidden.steps": registry_sum(registry, M_STEPS,
                                                     side="hidden"),
                "runtime.open.steps_per_s":
                    open_steps / parts["runtime.open.exec"],
                "channel.round_trips": registry_sum(registry, M_ROUND_TRIPS),
                "channel.values": registry_sum(registry, M_VALUES),
                "server.calls": registry_sum(registry, M_CALLS),
                "server.exec_s": spans.total_s("runtime.server"),
            })
            _profile_metrics(layers, profile)
            result = (wall, parts, cpu)
    workload.engine = default
    wall, parts, cpu = result
    out = _finish_trace(layers, wall, untraced, parts, cpu)
    out["table5"] = table5
    return out


def _closed_loop(workload, rng, seconds, tally, address=None):
    """Untraced closed loop for ``seconds``; returns ``(runs, wall_s,
    client_cpu_s)``."""
    runs = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        runs += len(run_pass(workload, shuffled(rng, workload.items), tally,
                             address=address))
    return runs, time.perf_counter() - t0, time.process_time() - cpu0


def trace_serve(workload, rng, seconds, tally):
    layers = _layer_template()
    daemon = workload.daemon
    phase_s = max(seconds / 3.0, 1.0)

    # production daemon, untraced: throughput and who is busy
    daemon_cpu0 = daemon.cpu_s()
    runs_on, wall_on, cpu_on = _closed_loop(workload, rng, phase_s, tally)
    layers["daemon.busy_pct"] = 100.0 * (daemon.cpu_s() - daemon_cpu0) / wall_on
    layers["client.busy_pct"] = 100.0 * cpu_on / wall_on

    # the same daemon with its live metrics off
    quiet = Daemon(workload.manifests, expo=False)
    try:
        runs_off, wall_off, _ = _closed_loop(workload, rng, phase_s, tally,
                                             address=quiet.address)
    finally:
        quiet.stop()
    rate_on, rate_off = runs_on / wall_on, runs_off / wall_off
    layers["obs.daemon_telemetry_pct"] = 100.0 * (rate_off - rate_on) / rate_off

    # traced: distributed tracing, client telemetry, spans, stack sampler
    untraced_per_run = wall_on / runs_on
    passes = max(1, round(phase_s / untraced_per_run / len(workload.items)))
    order = [i for _ in range(passes) for i in shuffled(rng, workload.items)]
    before = daemon.scrape()
    workload.trace = True
    try:
        records, wall, spans, registry, profile, _cpu = _traced_pass(
            workload, order, tally, sample=True)
    finally:
        workload.trace = False
    after = daemon.scrape()

    def delta(name, **labels):
        return scraped_sum(after, name, **labels) - scraped_sum(
            before, name, **labels)

    phases = {p: registry_sum(registry, M_RT_PHASE, phase=p)
              for p in ("serialize", "wire", "exec", "deser")}
    open_compile = registry_sum(registry, M_COMPILE_SECONDS, side="open")
    open_steps = registry_sum(registry, M_STEPS, side="open")
    engine = runtime.DEFAULT_ENGINE
    open_exec = spans.self_s("runtime.open") - open_compile
    hits, misses = delta("repro_cache_hits_total"), delta(
        "repro_cache_misses_total")
    layers.update({
        "runtime.%s.open.compile_s" % engine: open_compile,
        "runtime.%s.open.exec_s" % engine: open_exec,
        "runtime.%s.hidden.compile_s" % engine:
            delta(M_COMPILE_SECONDS, side="hidden"),
        "runtime.%s.hidden.exec_s" % engine:
            delta("repro_remote_exec_seconds")
            - delta(M_COMPILE_SECONDS, side="hidden"),
        "runtime.open.steps": open_steps,
        "runtime.hidden.steps": delta(M_STEPS, side="hidden"),
        "runtime.open.steps_per_s": open_steps / open_exec,
        "channel.round_trips": registry_sum(registry, M_ROUND_TRIPS),
        "channel.values": registry_sum(registry, M_VALUES),
        "server.calls": delta(M_CALLS),
        "server.exec_s": delta("repro_remote_exec_seconds"),
        "remote.session_open_s": spans.total_s("remote.session_open"),
        "remote.serialize_s": phases["serialize"],
        "remote.wire_s": phases["wire"],
        "remote.exec_s": phases["exec"],
        "remote.deser_s": phases["deser"],
        "remote.round_trips": registry_sum(registry, M_ROUND_TRIPS),
        "remote.session_errors": scraped_sum(
            after, "repro_remote_session_errors_total"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.invalidations": delta("repro_cache_invalidations_total"),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    })
    _profile_metrics(layers, profile)
    parts = {
        "runtime.open.compile": open_compile,
        "runtime.open.exec": open_exec,
        "remote.session_open": spans.self_s("remote.session_open"),
        "remote.close": spans.self_s("remote.close"),
        "remote.client": spans.self_s("remote.call") - sum(phases.values()),
    }
    parts.update(("remote." + p, s) for p, s in phases.items())
    return _finish_trace(layers, wall, untraced_per_run * len(order), parts,
                         None)


def _finish_trace(layers, wall, untraced_s, layer_self, cpu):
    """Fill in the overhead, busy and ledger metrics: ``wall`` is the
    traced phase, ``untraced_s`` the same work's wall time untraced, and
    ``layer_self`` the self seconds the ledger lists."""
    layers["obs.trace_overhead_pct"] = 100.0 * (wall - untraced_s) / untraced_s
    if cpu is not None:
        layers["client.busy_pct"] = 100.0 * cpu / wall
    lines, other, pct = ledger(wall, layer_self)
    layers["ledger.other_s"] = other
    layers["ledger.explained_pct"] = pct
    return {"layers": layers, "ledger": lines, "traced_wall_s": wall}


TRACERS = {"split": trace_split, "run": trace_run, "serve": trace_serve}


# -- entry point ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](plant=args.plant)
    rng = random.Random("%d/%d" % (args.seed, args.index))
    tally = Tally()
    out = {}
    try:
        workload.setup()
        setup_s = time.perf_counter() - PROCESS_T0
        SETUP_METER.after(setup_s)
        out["setup_s"] = SETUP_METER.factor() * setup_s
        # Move everything set-up made out of the collector's view.  A full
        # collection otherwise traverses the whole set-up heap (corpora,
        # references: ~0.2 s on run) and lands on whichever pass crosses
        # the threshold; frozen, collections see what the timed work
        # allocates, as in a process that holds only its own program.
        gc.collect()
        gc.freeze()
        if args.mode == "measure":
            out.update(measure(workload, rng, args.seconds, tally))
        elif args.mode == "trace":
            out.update(TRACERS[args.workload](workload, rng, args.seconds,
                                              tally))
        if isinstance(workload, ServeWorkload):
            doc = workload.daemon.scrape()
            errors = scraped_sum(doc, "repro_remote_session_errors_total")
            if errors:
                tally.failed += int(errors)
                tally.errors.append("daemon counted %d session errors"
                                    % errors)
            out["peak_rss_mb"] = workload.daemon.peak_rss_mb()
        else:
            out["peak_rss_mb"] = _peak_rss_mb()
    finally:
        workload.close()
    out.update(attempted=tally.attempted, failed=tally.failed,
               errors=tally.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
