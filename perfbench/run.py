"""Benchmark of the symtriple package: three workloads through its public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One single-threaded process runs one workload.  Until ``--seconds`` have
passed (and at least ``MIN_ROUNDS`` times) it sets the workload up, importing
``symtriple`` afresh from ``src/``, and runs one whole round of the same
operations, one at a time.  Every operation's output is checked; a wrong or
raising operation counts as failed.  A fixed slice of a reference kernel runs
before and after each set-up and each operation.  It uses only
``fractions``, int and dict work, so ``cpu_norm`` and ``setup_s`` (the
program's CPU time over the kernel's) stay steady when the host's speed
drifts.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a run with every layer wrapped in spans (see ``tracing.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3  # for a median; the traced run also compares their counters
KERNEL_UNITS_PER_OP = 4
REF_UNITS = 1000  # cpu_norm is a round's CPU time over that of this many kernel units
# setup_s is a set-up's CPU time in kernel units times this: seconds on a
# host where one unit takes 2.5 ms of CPU, its typical time on the host
# the README's figures come from.
REF_UNIT_S = 0.0025
MODULES = (
    "scalars", "linalg", "composition", "jordan", "triples",
    "enveloping", "connections", "holonomy", "families",
)

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_norm", "x"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics.  ``<span>.s`` is inclusive seconds, ``<span>.self_s``
# seconds minus those of child spans, ``<span>.calls`` the number of calls;
# each is for one set-up plus one round (medians over set-ups and rounds).
PER_LAYER = (
    ("bench.ref_s", "s"),
    ("composition.build_composition.s", "s"),
    ("jordan.build_jordan.s", "s"),
    ("jordan.linearized_cross.calls", "count"),
    ("triples.build_type.s", "s"),
    ("triples.verify_axioms.s", "s"),
    ("triples.verify_axioms.tuples", "count"),
    ("triples.inder_basis.s", "s"),
    ("enveloping.build_enveloping.s", "s"),
    ("enveloping.killing_form.s", "s"),
    ("enveloping.metric_g.s", "s"),
    ("enveloping.verify_jacobi.s", "s"),
    ("enveloping.verify_jacobi.pairs", "count"),
    ("connections.connection_by_name.s", "s"),
    ("connections.alpha_family.s", "s"),
    ("connections.is_skew_torsion.s", "s"),
    ("connections.curvature.calls", "count"),
    ("connections.curvature.s", "s"),
    ("holonomy.holonomy_algebra.self_s", "s"),
    ("holonomy.holonomy_identity_check.s", "s"),
    ("holonomy.ricci.self_s", "s"),
    ("linalg.bracket_closure.self_s", "s"),
    ("linalg.center_of.s", "s"),
    ("linalg.insert.calls", "count"),
    ("linalg.insert.grew", "count"),
    ("linalg.insert.useful", "ratio"),
    ("linalg.insert.s", "s"),
    ("linalg.comm.calls", "count"),
    ("linalg.comm.s", "s"),
)

# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------

REF_CHECKSUM = 25_259_732


def ref_unit() -> int:
    """Reduced row echelon form of a fixed 9 x 12 rational matrix held as
    dict rows; returns a checksum of the result.  About 3 ms of CPU here."""
    rows = []
    for i in range(9):
        row = {}
        for j in range(12):
            v = ((i + 2) * (j + 5) + i * i) % 13 - 6
            if v:
                row[j] = Fraction(v, 1 + (i + 2 * j) % 7)
        rows.append(row)
    echelon: dict[int, dict] = {}
    for row in rows:
        for p, prow in echelon.items():
            c = row.get(p)
            if c:
                for k, x in prow.items():
                    y = row.get(k, 0) - c * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {k: x * inv for k, x in row.items()}
        for qrow in echelon.values():
            c = qrow.get(p)
            if c:
                for k, x in row.items():
                    y = qrow.get(k, 0) - c * x
                    if y:
                        qrow[k] = y
                    else:
                        del qrow[k]
        echelon[p] = row
    return sum(
        x.numerator % 1_000_003 + x.denominator % 1_000_003
        for r in echelon.values()
        for x in r.values()
    )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def import_symtriple() -> SimpleNamespace:
    """Import ``symtriple`` afresh from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "symtriple" or m.startswith("symtriple.")]:
        del sys.modules[name]
    pkg = importlib.import_module("symtriple")
    if Path(pkg.__file__).resolve().parent != SRC / "symtriple":
        raise ImportError(f"symtriple imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"symtriple.{m}") for m in MODULES}
    return SimpleNamespace(package=pkg, MODULES=MODULES, **mods)


def _phase_stats(tracer) -> dict | None:
    if tracer is None:
        return None
    return {
        "calls": tracer.calls,
        "counts": tracer.counts,
        "total_s": tracer.total_s,
        "self_s": tracer.self_s,
    }


def ref_slice(tracer) -> tuple[float, bool]:
    """One slice of the kernel: CPU seconds per unit, and whether every
    unit gave the checksum."""
    if tracer is not None:
        tracer.enter("bench.ref")
    ok = True
    k0 = process_time()
    for _ in range(KERNEL_UNITS_PER_OP):
        ok &= ref_unit() == REF_CHECKSUM
    unit = (process_time() - k0) / KERNEL_UNITS_PER_OP
    if tracer is not None:
        tracer.exit()
    return unit, ok


def do_setup(workload: str, seed: int, tracer):
    """One set-up: import, install the tracer if any, build the operations."""
    if tracer is not None:
        tracer.reset()
    S = import_symtriple()
    if tracer is not None:
        tracing.install(tracer, S)
    return workloads.setup(workload, S, seed), _phase_stats(tracer)


def timed_setup(workload: str, seed: int, tracer):
    """``do_setup`` between two kernel slices.  Returns the operations, the
    set-up's CPU time in kernel units, the tracer's figures and whether the
    kernel gave its checksum."""
    u0, ok0 = ref_slice(None)
    c0 = process_time()
    ops, stats = do_setup(workload, seed, tracer)
    c1 = process_time()
    u1, ok1 = ref_slice(None)
    return ops, (c1 - c0) / ((u0 + u1) / 2), stats, ok0 and ok1


def run_round(ops, tracer) -> dict:
    """Every operation once, with a slice of the kernel before the first
    and after each one.  An operation's CPU time is divided by the mean
    CPU time per kernel unit of the two slices around it, so a change of
    the host's speed during the round cancels out of ``norm``."""
    if tracer is not None:
        tracer.reset()
    failures = []
    records = []
    ref_ok = True

    def ref() -> float:
        nonlocal ref_ok
        unit, ok = ref_slice(tracer)
        ref_ok &= ok
        return unit

    units = [ref()]
    walls, norms = [], []
    for op in ops:
        if tracer is not None:
            tracer.enter("op:" + op.label)
        w0 = perf_counter()
        c0 = process_time()
        try:
            record, err = op.run(), None
        except Exception as exc:  # a raising operation is a counted failure
            record, err = None, f"{type(exc).__name__}: {exc}"
        c1 = process_time()
        w1 = perf_counter()
        if tracer is not None:
            tracer.exit()
        if err is None:
            try:
                err = op.check(record)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((op.label, err))
        records.append(None if record is None else repr(sorted(record.items())))
        units.append(ref())
        walls.append(w1 - w0)
        norms.append((c1 - c0) / ((units[-2] + units[-1]) / 2) / REF_UNITS)
    return {
        "walls": walls,
        "norms": norms,
        "ref_s": statistics.fmean(units) * REF_UNITS,
        "failures": failures,
        "records": records,
        "ref_ok": ref_ok,
        "stats": _phase_stats(tracer),
    }


def median_sum(per_rep: list) -> float:
    """Sum over steps of each step's median over repetitions: one typical
    pass, robust to the host slowing down for part of a repetition."""
    return sum(statistics.median(step) for step in zip(*per_rep))


def _exact(stats: list) -> dict:
    """Call and counter values of phases that must repeat exactly; None if
    two phases differ."""
    first = {**{f"{k}.calls": v for k, v in stats[0]["calls"].items()}, **stats[0]["counts"]}
    for s in stats[1:]:
        other = {**{f"{k}.calls": v for k, v in s["calls"].items()}, **s["counts"]}
        if other != first:
            return None
    return first


def layer_metrics(s_stats: list, rounds: list) -> tuple[dict, bool]:
    """Per-layer values for one set-up plus one round, and whether every
    exact counter repeated across the set-ups and across the rounds."""
    r_stats = [r["stats"] for r in rounds]
    s_exact, r_exact = _exact(s_stats), _exact(r_stats)
    repeated = s_exact is not None and r_exact is not None
    s_exact, r_exact = s_exact or {}, r_exact or {}

    def count(name):
        return s_exact.get(name, 0) + r_exact.get(name, 0)

    def seconds(kind, span):
        return statistics.median(s[kind].get(span, 0.0) for s in s_stats) + statistics.median(
            r[kind].get(span, 0.0) for r in r_stats
        )

    values = {"bench.ref_s": statistics.median(r["ref_s"] for r in rounds)}
    for name, unit in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = seconds("self_s", name[: -len(".self_s")])
        elif name.endswith(".s"):
            values[name] = seconds("total_s", name[: -len(".s")])
        elif name != "linalg.insert.useful":
            values[name] = count(name)
    calls = values["linalg.insert.calls"]
    values["linalg.insert.useful"] = values["linalg.insert.grew"] / calls if calls else 0.0
    return values, repeated


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    # Set-ups alternate with rounds, so both sample the host over the whole
    # run; each round runs on the operations its set-up built.
    setup_units, setup_stats, rounds = [], [], []
    setup_ok = True
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        ops = None  # free the previous set-up's models before building anew
        gc.collect()
        ops, units, stats, ok = timed_setup(workload, seed, tracer)
        setup_units.append(units)
        setup_stats.append(stats)
        setup_ok &= ok
        gc.collect()
        rounds.append(run_round(ops, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(len(r["failures"]) for r in rounds)
    attempted = len(ops) * len(rounds)
    # No operation may fail, and each must give the same output every round.
    first = rounds[0]["records"]
    same_outputs = all(r["records"] == first for r in rounds)
    correct = failed == 0 and same_outputs and setup_ok and all(r["ref_ok"] for r in rounds)
    for label, err in rounds[0]["failures"]:
        print(f"FAILED {workload} {label}: {err}", file=sys.stderr)

    if trace:
        values, repeated = layer_metrics(setup_stats, rounds)
        correct = correct and repeated
        if not repeated:
            print("exact counters differ between rounds or set-ups", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload}.trace.json.gz")
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup_units) * REF_UNIT_S,
            "cpu_norm": median_sum([r["norms"] for r in rounds]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "rounds": len(rounds),
        "wall_s": median_sum([r["walls"] for r in rounds]),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "symtriple" / "__init__.py").is_file():
        print(f"no symtriple sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        combined = {}
        for w in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            combined[w] = json.loads(lines[-1])
        print(json.dumps(combined))
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: seed {args.seed}, {result['rounds']} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"outputs correct: {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # Shown but not a gated metric: the host's speed drifts too much for
        # any bound of at most 25 % to hold on raw wall time.
        print(f"  {'wall_s (not gated)':40s} {result['wall_s']:.6g} s")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
