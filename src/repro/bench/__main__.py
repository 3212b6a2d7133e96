"""``python -m repro.bench`` — regenerate every table and figure in one go.

Options::

    python -m repro.bench                 # all experiments, full scale
    python -m repro.bench --scale 0.1     # smaller corpora (quick look)
    python -m repro.bench table3 fig2     # a subset
"""

import argparse
import sys
import time

from repro.bench import experiments
from repro.runtime import DEFAULT_ENGINE, ENGINES


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.bench")
    parser.add_argument(
        "names",
        nargs="*",
        help="which experiments (table1..table5, fig2, fig3, attack); "
        "default all",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--engine", choices=list(ENGINES), default=DEFAULT_ENGINE,
        help="execution engine for the runtime experiments "
        "(table5, fig2, fig3); see docs/ENGINE.md",
    )
    args = parser.parse_args(argv)

    runners = {
        "table1": lambda: experiments.run_table1(scale=args.scale),
        "table2": lambda: experiments.run_table2(scale=args.scale),
        "table3": lambda: experiments.run_table3(scale=args.scale),
        "table4": lambda: experiments.run_table4(scale=args.scale),
        "table5": lambda: experiments.run_table5(scale=args.scale,
                                                 engine=args.engine),
        "fig2": lambda: experiments.run_fig2_experiment(engine=args.engine),
        "fig3": lambda: experiments.run_fig3_experiment(engine=args.engine),
        "attack": experiments.run_attack_experiment,
    }
    names = args.names or list(runners)
    unknown = [n for n in names if n not in runners]
    if unknown:
        parser.error("unknown experiments: %s" % ", ".join(unknown))

    for name in names:
        started = time.perf_counter()
        result = runners[name]()
        print(result.render())
        print("[%s regenerated in %.1fs]" % (name, time.perf_counter() - started))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
