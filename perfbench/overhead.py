"""Cost of the traced run.  Run from the root of a checkout:

    python3 perfbench/overhead.py --workload construct

In one process it alternates four untraced and four traced cycles, each a
set-up and one round on seed 1, so that both kinds see the same host.  It
prints, for each kind, ``wall_s`` (the wall time of a round's program
calls) and ``cpu_norm``, each summed over operations from their medians
over the cycles, and the traced minus the untraced ``wall_s``.  Nothing is
written to disk.
"""

from __future__ import annotations

import argparse
import gc
import sys

import run
import tracing
import workloads

SEED = 1
CYCLES = 4


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = p.parse_args(argv)

    rounds = {False: [], True: []}
    for _ in range(CYCLES):
        for traced in (False, True):
            tracer = tracing.Tracer() if traced else None
            gc.collect()
            ops, _ = run.do_setup(args.workload, SEED, tracer)
            gc.collect()
            rounds[traced].append(run.run_round(ops, tracer))
            ops = None

    wall = {k: run.median_sum([r["walls"] for r in v]) for k, v in rounds.items()}
    norm = {k: run.median_sum([r["norms"] for r in v]) for k, v in rounds.items()}
    failed = sum(len(r["failures"]) for v in rounds.values() for r in v)
    print(f"{args.workload}: seed {SEED}, {CYCLES} cycles of each kind, "
          f"{failed} failed operations")
    print(f"  wall_s    untraced {wall[False]:.4g} s, traced {wall[True]:.4g} s, "
          f"traced - untraced {wall[True] - wall[False]:+.3g} s")
    print(f"  cpu_norm  untraced {norm[False]:.4g}, traced {norm[True]:.4g} "
          f"({norm[True] / norm[False] - 1:+.1%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
