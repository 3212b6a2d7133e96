"""Interpreter throughput smoke: AST walker vs closure tier vs codegen tier.

Measures warm steady-state statements/second for every registered engine
(``repro.runtime.ENGINES``) on a tight arithmetic loop, the best case for
compilation: almost no per-statement work besides dispatch.  All engines
are bit-identical — tests/test_engine_equivalence.py proves it — and
``_measure`` re-checks value and step count before it reports a speedup.

The two pytest entry points are the CI floors: the compiled tier must
not be slower than the AST walker, and codegen must hold 2x over it.
End-to-end engine cost (compile included, cold and warm) is measured by
the repo's benchmark, ``perfbench/run.py`` (``warm_s`` and
``runtime.*.exec_s``; see docs/BENCHMARKS.md)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_interpreter_speed.py
"""

import time

from repro.lang import check_program, parse_program
from repro.runtime import ENGINES
from repro.runtime.interpreter import Interpreter

TIGHT_LOOP_SRC = """
func int main(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"""

SMOKE_N = 50_000
REPEATS = 2


def _throughput(program, args, engine, repeats):
    """Warm best-of-N statements/second for one program under one engine.

    The first (untimed) run pays compilation and cache population, so the
    steady-state rate is comparable across engines."""
    interp = Interpreter(program, engine=engine)
    value = interp.run("main", args)
    steps = interp.steps
    best = 0.0
    for _ in range(repeats):
        before = interp.steps
        started = time.perf_counter()
        interp.run("main", args)
        elapsed = time.perf_counter() - started
        best = max(best, (interp.steps - before) / elapsed)
    return value, steps, best


def _measure(program, args, repeats=REPEATS):
    """Speedup of each compiled tier over ``ast``, after checking that
    every engine computed the same value in the same number of steps."""
    runs = {engine: _throughput(program, args, engine, repeats)
            for engine in ENGINES}
    # throughput may differ; the computation must not
    for engine in ENGINES:
        assert runs[engine][:2] == runs["ast"][:2], engine
    ast_rate = runs["ast"][2]
    return {
        "speedup": round(runs["compiled"][2] / ast_rate, 2),
        "codegen_speedup": round(runs["codegen"][2] / ast_rate, 2),
    }


def _tight_loop_program():
    program = parse_program(TIGHT_LOOP_SRC)
    check_program(program)
    return program


def test_compiled_engine_not_slower_smoke():
    report = _measure(_tight_loop_program(), (SMOKE_N,))
    assert report["speedup"] >= 1.0, report


def test_codegen_engine_faster_smoke():
    report = _measure(_tight_loop_program(), (SMOKE_N,))
    assert report["codegen_speedup"] >= 2.0, report
