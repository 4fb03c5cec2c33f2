"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a list of operations built once per set-up from the seed.
An operation is one case through one stage (``construct``), one holonomy
closure (``holonomy``) or one member of the skew-torsion family
(``family-sweep``).  Each returns a record of plain values and is checked
against closed forms kept here, never against ``families.expected_*`` or a
stored copy of earlier output.

The closed forms are the classical dimensions of the enveloping algebras
g(T) and of inder(T), and the paper's scalar-curvature formula for the
metric skew-torsion family.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The light table cases plus e6, in the catalog's order.
CASES = (
    ("symplectic", 1),
    ("symplectic", 2),
    ("symplectic", 3),
    ("special", 1),
    ("special", 2),
    ("special", 3),
    ("orthogonal", 3),
    ("orthogonal", 4),
    ("orthogonal", 5),
    ("exceptional", "scalar"),
    ("exceptional", "unarion"),
    ("exceptional", "binarion"),
)

# Models of the family sweep: every family, with f4 the largest, where each
# of the 465 inserts of a Levi-Civita closure grows the algebra.
SWEEP_MODELS = (
    ("symplectic", 1),
    ("symplectic", 2),
    ("special", 2),
    ("orthogonal", 3),
    ("exceptional", "scalar"),
    ("exceptional", "unarion"),
)
SWEEP_RANDOM_MEMBERS = 6  # per model, besides the Levi-Civita point (0, 0)

# exceptional J-kind -> (dim g, dim inder, dim T) for g2, f4, e6
_EXCEPTIONAL = {
    "scalar": (14, 3, 4),
    "unarion": (52, 21, 14),
    "binarion": (78, 35, 20),
}


def closed_forms(family: str, param) -> dict:
    """dim T, dim g(T) and dim inder(T) for one case."""
    if family == "symplectic":  # sp(2n+2)
        n = param
        return {"t": 2 * n, "g": (n + 1) * (2 * n + 3), "inder": n * (2 * n + 1)}
    if family == "orthogonal":  # so(w+4)
        w = param
        return {"t": 2 * w, "g": (w + 4) * (w + 3) // 2, "inder": 3 + w * (w - 1) // 2}
    if family == "special":  # sl(w+2)
        w = param
        return {"t": 2 * w, "g": (w + 2) ** 2 - 1, "inder": w * w}
    g, inder, t = _EXCEPTIONAL[param]
    return {"t": t, "g": g, "inder": inder}


def case_label(family: str, param) -> str:
    return f"{family}({param})"


def paper_scalar(n: int, a: Fraction, b) -> Fraction:
    """(4n+2)(4n+3) - 3/2 (a - tr B)^2 - 3n ||B||^2."""
    tr = sum(b[i][i] for i in range(3))
    norm2 = sum(x * x for row in b for x in row)
    return Fraction((4 * n + 2) * (4 * n + 3)) - Fraction(3, 2) * (a - tr) ** 2 - 3 * n * norm2


def scalar_matches(value, n: int, a: Fraction, b) -> bool:
    """The library's scalar curvature is the paper's formula at (2a, 2B);
    the value at (a, B) is accepted too, for a library normalised like the
    paper."""
    if value.im != 0:
        return False
    doubled = [[2 * x for x in row] for row in b]
    return value.re in (paper_scalar(n, 2 * a, doubled), paper_scalar(n, a, b))


class Op:
    """One operation: ``run()`` returns a record, ``check(record)`` returns
    None when the record is right and a reason otherwise."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _shuffled(seq, seed: int) -> list:
    out = list(seq)
    random.Random(seed).shuffle(out)
    return out


def _expect(record: dict, want: dict):
    bad = [f"{k}={record.get(k)!r} (want {v!r})" for k, v in want.items() if record.get(k) != v]
    return "; ".join(bad) or None


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def construct_ops(S, seed: int) -> list:
    """Five stages per case: build_triple, verify_axioms, is_simple,
    build_model, verify_jacobi.  Later stages read the objects the earlier
    stages of the same case built in the same round."""
    ops = []
    for family, param in _shuffled(CASES, seed):
        label = case_label(family, param)
        cf = closed_forms(family, param)
        built = {}

        def build(family=family, param=param, built=built):
            built.clear()
            built["T"] = S.families.build_triple(family, param)
            return {"dim_t": built["T"].dim}

        def axioms(built=built):
            rep = S.triples.verify_axioms(built["T"])
            return {"passed": rep.passed, "checked": tuple(sorted(rep.checked.items()))}

        def simple(built=built):
            return {"simple": S.triples.is_simple(built["T"])}

        def model(built=built):
            m = S.enveloping.build_model(built["T"])
            built["model"] = m
            return {"dim_g": m.algebra.dim, "dim_inder": m.h_dim, "dim_m": m.m_dim}

        def jacobi(built=built):
            rep = S.enveloping.verify_jacobi(built["model"].algebra)
            return {"passed": rep.passed, "pairs": rep.checked_pairs}

        d = cf["t"]
        pairs3 = d * (d + 1) // 2
        # verify_axioms checks every basis tuple of identities (1)-(4).
        tuples = ((1, d * d * (d - 1) // 2), (2, d**3), (3, pairs3 * pairs3), (4, pairs3))
        ops += [
            Op(f"{label}:build_triple", build, lambda r, d=d: _expect(r, {"dim_t": d})),
            Op(f"{label}:verify_axioms", axioms,
               lambda r, t=tuples: _expect(r, {"passed": True, "checked": t})),
            Op(f"{label}:is_simple", simple, lambda r: _expect(r, {"simple": True})),
            Op(f"{label}:build_model", model,
               lambda r, cf=cf: _expect(r, {"dim_g": cf["g"], "dim_inder": cf["inder"],
                                            "dim_m": 2 * cf["t"] + 3})),
            Op(f"{label}:verify_jacobi", jacobi,
               lambda r, g=cf["g"]: _expect(r, {"passed": True, "pairs": g * (g - 1) // 2})),
        ]
    return ops


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------


def build_models(S, cases) -> dict:
    """Build each model and fill its lazy bracket and operator tables, so
    every measured round does the same work."""
    models = {}
    for family, param in cases:
        m = S.enveloping.build_model(S.families.build_triple(family, param))
        for p in range(m.m_dim):
            for q in range(p + 1, m.m_dim):
                m.m_bracket_m(p, q)
        for r in range(m.h_dim):
            m.ad_m_inder(r)
        for i in (1, 2, 3):
            m.ad_m_xi(i)
        models[(family, param)] = m
    return models


def holonomy_ops(S, seed: int, models: dict) -> list:
    """connection_by_name, holonomy_algebra with its center, and
    holonomy_identity_check, for each case and skew-torsion connection."""
    ops = []
    work = [(c, name) for c in CASES for name in ("distinguished", "canonical")]
    for (family, param), name in _shuffled(work, seed):
        model = models[(family, param)]

        def run(model=model, name=name):
            conn = S.connections.connection_by_name(model, name)
            res = S.holonomy.holonomy_algebra(conn)
            ident = S.holonomy.holonomy_identity_check(conn, res)
            return {
                "dim": res.dim,
                "center": res.center_dim,
                "matches": ident.matches,
                "expected_dim": ident.expected_dim,
                "pivots": hash(res.algebra.pivots),
            }

        want = {
            "dim": 3 + closed_forms(family, param)["inder"],
            "center": 1 if family == "special" else 0,
            "matches": True,
        }

        def check(r, want=want):
            return _expect(r, dict(want, expected_dim=r["dim"]))

        ops.append(Op(f"{case_label(family, param)}:{name}", run, check))
    return ops


# ---------------------------------------------------------------------------
# family-sweep
# ---------------------------------------------------------------------------


def sweep_members(seed: int) -> list:
    """(model case, a, B): the Levi-Civita point, then generic members whose
    ten parameters are seeded nonzero rationals p/q with 1 <= |p| <= 6 and
    1 <= q <= 4.  Members still differ in cost, so each model gets enough
    of them for the round's total to vary little between seeds."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))

    members = []
    for case in SWEEP_MODELS:
        zero = [[Fraction(0)] * 3 for _ in range(3)]
        members.append((case, Fraction(0), zero))
        for _ in range(SWEEP_RANDOM_MEMBERS):
            a = rational()
            b = [[rational() for _ in range(3)] for _ in range(3)]
            members.append((case, a, b))
    return members


def sweep_ops(S, seed: int, models: dict) -> list:
    """alpha_family, is_skew_torsion, ricci and holonomy_algebra per member."""
    ops = []
    for case, a, b in _shuffled(sweep_members(seed), seed):
        model = models[case]
        m = model.m_dim
        n = (m - 3) // 4

        def run(model=model, a=a, b=b):
            alpha = S.connections.alpha_family(model, a, b)
            skew = S.connections.is_skew_torsion(model, alpha)
            conn = S.connections.Connection(model, alpha)
            ric = S.holonomy.ricci(conn)
            hol = S.holonomy.holonomy_algebra(conn, compute_center=False)
            return {"skew": skew, "dim": hol.dim, "scal": ric.scalar_curvature}

        levi_civita = not a and not any(any(row) for row in b)

        def check(r, m=m, n=n, a=a, b=b, levi_civita=levi_civita):
            so = m * (m - 1) // 2
            if not r["skew"]:
                return "not metric with skew torsion"
            if r["dim"] > so:
                return f"holonomy dim {r['dim']} exceeds dim so({m}) = {so}"
            if levi_civita and not r["dim"] == so == 8 * n * n + 10 * n + 3:
                return f"Levi-Civita holonomy dim {r['dim']}, want {so}"
            if not scalar_matches(r["scal"], n, a, b):
                return f"scalar curvature {r['scal']} off the formula"
            return None

        label = f"{case_label(*case)}:a={a}:B={';'.join(','.join(map(str, row)) for row in b)}"
        ops.append(Op(label, run, check))
    return ops


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def setup(workload: str, S, seed: int) -> list:
    """The operations of one workload; for holonomy and family-sweep this
    builds their models, which counts as set-up."""
    if workload == "construct":
        return construct_ops(S, seed)
    if workload == "holonomy":
        return holonomy_ops(S, seed, build_models(S, CASES))
    if workload == "family-sweep":
        return sweep_ops(S, seed, build_models(S, SWEEP_MODELS))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("construct", "holonomy", "family-sweep")
