"""The repository's end-to-end benchmark: ``split``, ``run`` and ``serve``.

    python3 perfbench/run.py --workload run --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The benchmark imports the program from
``src/`` (nothing is installed), starts fresh worker processes
(``worker.py``) that set the workload up and measure it, checks every
output against references computed in set-up, and prints a report
followed, as the last line of standard output, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a single worker records spans around the calls into each layer and the
metrics are the per-layer ones, with a ledger of layer self times that
sums to the traced wall time.  Any failed op makes the command exit 1;
a broken checkout exits 2 without a result.  ``README.md`` describes the
workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: end-to-end metrics: name -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "warm_s": "s",
    "baseline_s": "s",
    "runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p95_ms": "ms",
}

#: per-layer metric units follow their names' suffixes
_SUFFIX_UNITS = (("_kb_per_s", "KB/s"), ("_per_s", "1/s"), ("_pct", "%"),
                 ("_kb", "KB"), ("_rate", "share"), ("_s", "s"))


def layer_unit(name):
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


#: how many fresh worker processes one run starts: ``setups`` only set
#: up, ``measurers`` set up and then share ``--seconds`` between them.
#: Set-up time is the median over all of them.  A split pass takes 7-13 s
#: and split needs three passes (cold, two warm), so split measures in one
#: worker and gets its second set-up from a set-up-only worker.
PLAN = {
    "split": {"setups": 1, "measurers": 1},
    "run": {"setups": 0, "measurers": 2},
    "serve": {"setups": 0, "measurers": 2},
}

#: every run must end within this, workers included
DEADLINE_S = 170.0


class WorkerError(Exception):
    """A worker died or printed no result."""


def _worker(workload, mode, seed, index, seconds, deadline, extra=()):
    cmd = [sys.executable, WORKER, "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--index", str(index),
           "--seconds", repr(seconds)] + list(extra)
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("out of time before worker %d" % index)
    # its own process group, so a timed-out worker is killed together
    # with the daemon it may have started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker %d timed out" % index)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("worker %d exited %d" % (index, proc.returncode))
    return json.loads(lines[-1])


def percentile(values, q):
    """The ``q``-th percentile (0-100) by nearest rank."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def item_sum(samples):
    """Sum over the items of a pass of each item's median: ``samples`` are
    ``(item, seconds)`` pairs from one or more passes."""
    by_item = {}
    for item, seconds in samples:
        by_item.setdefault(item, []).append(seconds)
    return sum(statistics.median(v) for v in by_item.values())


def merge(results):
    """End-to-end metrics from the workers' raw samples."""
    measured = [r for r in results if "ops" in r]
    ops = [op for r in measured for op in r["ops"]]
    op_s = [op[1] for op in ops]
    warm = [op for op in ops if op[3] > 0]
    baseline = [(op[0], op[2]) for op in warm]
    if "baseline_ops" in measured[0]:
        baseline = [(op[0], op[2]) for r in measured
                    for op in r["baseline_ops"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "cold_s": item_sum((op[0], op[1]) for op in ops if op[3] == 0),
        "warm_s": item_sum((op[0], op[1]) for op in warm),
        "baseline_s": item_sum(baseline),
        "runs_per_s": len(op_s) / sum(op_s),
        "run_p50_ms": 1e3 * statistics.median(op_s),
        "run_p95_ms": 1e3 * percentile(op_s, 95),
    }, len(op_s)


def table5_lines(rows):
    lines = ["measured Table 5 (warm untraced passes; reported, not gated):",
             "  %-28s %9s %9s %9s" % ("row", "measured", "simulated", "paper")]
    for label, measured, simulated, paper in rows:
        lines.append("  %-28s %8.0f%% %8.0f%% %8.0f%%"
                     % (label, measured, simulated, paper))
    return lines


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    extra = ["--plant"] if args.plant else []
    if args.trace:
        results = [_worker(args.workload, "trace", args.seed, 0, args.seconds,
                           deadline, extra)]
    else:
        plan = PLAN[args.workload]
        results = []
        for i in range(plan["setups"]):
            results.append(_worker(args.workload, "setup", args.seed, i, 0.0,
                                   deadline, extra))
        share = args.seconds / plan["measurers"]
        for j in range(plan["measurers"]):
            results.append(_worker(args.workload, "measure", args.seed,
                                   plan["setups"] + j, share, deadline,
                                   extra))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for error in r["errors"]:
            print("FAILED: %s" % error)

    print("workload %s, seed %d, %s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    if args.trace:
        layers = results[0]["layers"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        for name, value in layers.items():
            print("  %-34s %14.6g %s" % (name, value, layer_unit(name)))
        print("layer ledger (self seconds of the traced phase, %.3f s):"
              % results[0]["traced_wall_s"])
        for name, seconds in results[0]["ledger"]:
            print("  %-34s %10.4f s %6.1f%%" % (
                name, seconds, 100.0 * seconds / results[0]["traced_wall_s"]))
        if "table5" in results[0]:
            print("\n".join(table5_lines(results[0]["table5"])))
    else:
        values, samples = merge(results)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            print("  %-14s %14.6g %s" % (name, values[name], unit))
        print("  %-14s %14.6g %s" % ("error_rate", failed / max(attempted, 1),
                                     "share"))
        print("  (%d timed ops, %d workers)" % (samples, len(results)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: split, run, serve.")
    parser.add_argument("--workload", choices=sorted(PLAN), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one expected output, so the run must "
                             "fail (the smoke test's self-check)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro under %s; run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2
    try:
        return run(args)
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
