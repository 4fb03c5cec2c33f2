"""Self-checks of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

* Every output check rejects a wrong answer: each operation's real output
  is perturbed one field at a time (a closed-form dimension off by one, a
  verifier that did not pass, a member's scalar curvature swapped with
  another member's) and fed through the normal round, where it must come
  out as a counted failed operation, not a crash.  An operation that raises
  must be counted too.
* A traced round gives the same outputs as an untraced one.
* Two traced runs with the same seed report the same exact counters.
* A run in which one operation fails reports ``correct: false``.
* The metric names match ``BENCHMARK.json``.
* In a directory with nothing but ``BENCHMARK.json`` and ``perfbench/``,
  the benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
import workloads
from workloads import Op

SEED = 7
RESULTS = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}", flush=True)


def real_outputs(workload: str):
    ops, _ = run.do_setup(workload, SEED, None)
    return ops, [op.run() for op in ops]


def failures_with(ops, records, perturb) -> tuple[int, int]:
    """Feed perturbed records through a round; return (failed, perturbed)."""
    fed, changed = [], 0
    for op, rec in zip(ops, records):
        new = perturb(dict(rec), op)
        changed += new != rec
        fed.append(Op(op.label, lambda new=new: new, op.check))
    return len(run.run_round(fed, None)["failures"]), changed


def bump(key, by=1):
    return lambda r, op: {**r, key: r[key] + by} if key in r else r


def flip(key):
    return lambda r, op: {**r, key: not r[key]} if key in r else r


def check_rejections(workload: str, perturbations: dict) -> None:
    ops, records = real_outputs(workload)
    failed, _ = failures_with(ops, records, lambda r, op: r)
    report(f"{workload}: real outputs pass", failed == 0, f"{failed} failed")
    for name, perturb in perturbations.items():
        failed, changed = failures_with(ops, records, perturb)
        report(f"{workload}: {name} rejected", changed > 0 and failed == changed,
               f"{failed} of {changed} perturbed operations counted failed")

    def boom():
        raise RuntimeError("injected")

    raising = [Op(op.label, boom, op.check) for op in ops]
    failed = len(run.run_round(raising, None)["failures"])
    report(f"{workload}: raising operations counted", failed == len(ops),
           f"{failed} of {len(ops)}")


def other_member_scalar():
    """Give each member the scalar curvature of another member of the same
    model with other parameters, i.e. compare it with that member's formula."""
    seen: dict = {}

    def perturb(r, op):
        model = op.label.split(":")[0]
        mine = seen.setdefault(model, {})
        mine.setdefault(op.label, r["scal"])
        others = [v for k, v in mine.items() if k != op.label and v != r["scal"]]
        return {**r, "scal": others[0]} if others else r
    return perturb


def check_traced_outputs(workload: str) -> None:
    ops, _ = run.do_setup(workload, SEED, None)
    plain = run.run_round(ops, None)["records"]
    tracer = tracing.Tracer()
    ops, _ = run.do_setup(workload, SEED, tracer)
    traced = run.run_round(ops, tracer)["records"]
    report(f"{workload}: traced outputs equal untraced", plain == traced)


def check_counters_repeat(workload: str) -> None:
    counts = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    report(f"{workload}: exact counters repeat across traced runs",
           counts[0] == counts[1] and result["correct"], json.dumps(counts[0]))


def check_failed_run_not_correct() -> None:
    """A whole run, with set-up replaced by two cheap operations of which
    one always fails its check."""
    def fake_setup(workload, S, seed, fail=True):
        return [Op("good", lambda: {"x": 1}, lambda r: None),
                Op("bad", lambda: {"x": 1}, lambda r: "injected" if fail else None)]

    real_setup = workloads.setup
    try:
        workloads.setup = fake_setup
        bad = run.run("construct", SEED, 0.01, False)
        workloads.setup = lambda *a: fake_setup(*a, fail=False)
        good = run.run("construct", SEED, 0.01, False)
    finally:
        workloads.setup = real_setup
    report("a run with one failing operation is not correct",
           not bad["correct"] and bad["failed"] == bad["rounds"] and good["correct"]
           and good["failed"] == 0,
           f"correct {bad['correct']}, {bad['failed']} of {bad['attempted']} failed")


def check_names() -> None:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    report("metric names and units match BENCHMARK.json",
           e2e == list(run.END_TO_END) and layers == list(run.PER_LAYER))
    report("workloads match BENCHMARK.json",
           [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


def check_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    report("exits non-zero without sources", out.returncode != 0 and not out.stdout.strip(),
           f"exit {out.returncode}")


def main() -> int:
    check_names()
    check_failed_run_not_correct()
    check_rejections("construct", {
        "dim T off by one": bump("dim_t"),
        "failed axiom report": flip("passed"),
        "axiom tuple count off by one": lambda r, op: (
            {**r, "checked": r["checked"][:-1] + ((4, r["checked"][-1][1] + 1),)}
            if "checked" in r else r),
        "not simple": flip("simple"),
        "dim g off by one": bump("dim_g"),
        "dim inder off by one": bump("dim_inder"),
        "dim m off by one": bump("dim_m"),
        "Jacobi pair count off by one": bump("pairs"),
    })
    check_rejections("holonomy", {
        "holonomy dim off by one": bump("dim"),
        "center off by one": bump("center"),
        "closed form not matched": flip("matches"),
        "closed-form dim off by one": bump("expected_dim"),
    })
    check_rejections("family-sweep", {
        "not skew torsion": flip("skew"),
        "holonomy above so(m)": lambda r, op: {**r, "dim": 10**6},
        "Levi-Civita holonomy one short": lambda r, op: (
            {**r, "dim": r["dim"] - 1} if ":a=0:B=0,0,0;0,0,0;0,0,0" in op.label else r),
        "another member's scalar curvature": other_member_scalar(),
    })
    for w in workloads.WORKLOADS:
        check_traced_outputs(w)
        check_counters_repeat(w)
    check_without_sources()
    print(f"{sum(RESULTS)} of {len(RESULTS)} self-checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
