"""Smoke test of the benchmark itself (a few minutes).

    python3 perfbench/smoke.py

For each workload it makes a short untraced and a short traced run and
checks that the JSON result and the printed report carry every metric
``BENCHMARK.json`` names, with its unit, and that every output was
correct.  It then plants a wrong expected output in each workload
(``--plant``) and checks that the command fails, and checks that a
directory holding only the benchmark, without the program, fails
without printing a result.  Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check(condition, message):
    if not condition:
        print("FAIL: %s" % message)
        sys.exit(1)


def check_run(workload, trace, expected):
    code, lines = bench("--workload", workload, "--seed", "7",
                        "--seconds", SECONDS, "--trace", str(trace))
    what = "%s --trace %d" % (workload, trace)
    check(code == 0, "%s exited %d" % (what, code))
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys %s" % (what, sorted(result)))
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, "%s: %r" % (what, result))
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(expected),
          "%s: metrics %s differ from BENCHMARK.json"
          % (what, sorted(set(metrics) ^ set(expected))))
    report = "\n".join(lines[:-1])
    for name, unit in expected.items():
        check(metrics[name]["unit"] == unit,
              "%s: %s unit %r, expected %r"
              % (what, name, metrics[name]["unit"], unit))
        check(isinstance(metrics[name]["value"], (int, float)),
              "%s: %s is not a number" % (what, name))
        check(re.search(r"^\s+%s\s+\S+ %s$" % (re.escape(name),
                                               re.escape(unit)),
                        report, re.M),
              "%s: report does not print %s in %s" % (what, name, unit))
    print("ok  %s (%d ops)" % (what, result["attempted"]))


def check_planted(workload):
    code, lines = bench("--workload", workload, "--seed", "7",
                        "--seconds", SECONDS, "--plant")
    check(code != 0, "%s with a planted wrong output exited 0" % workload)
    result = json.loads(lines[-1])
    check(result["correct"] is False and result["failed"] >= 1,
          "%s planted: %r" % (workload, result))
    print("ok  %s fails on a planted wrong output" % workload)


def check_without_program():
    scratch = tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "run", "--seed", "1",
                            "--seconds", SECONDS, cwd=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check(code != 0, "benchmark without the program exited 0")
    check(not any(line.startswith("{") for line in lines),
          "benchmark without the program printed a result")
    print("ok  fails without the program")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check_without_program()
    for workload in [w["name"] for w in spec["workloads"]]:
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
        check_planted(workload)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
