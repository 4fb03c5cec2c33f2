"""Acceptance gate: every criterion is exact (rational arithmetic, zero
tolerance) and prints one pass/fail line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they pass."""

import itertools

from symtriple.connections import connection_by_name
from symtriple.enveloping import build_model, verify_jacobi
from symtriple.families import expected_hol_levi_civita, expected_hol_skew
from symtriple.holonomy import (
    holonomy_algebra,
    holonomy_identity_check,
    ricci,
)
from symtriple.linalg import Matrix
from symtriple.scalars import ONE, ZERO, qi
from symtriple.triples import is_simple, load_sts, save_sts, verify_axioms

from conftest import AXIOM_CASES, HEAVY_ENABLED, LIGHT_CASES, curvature, curvature_pairs
from test_connections import (
    _gamma_part,
    _lts_product,
    lc_closed_form,
    skew_closed_form,
)

ENVELOPING_EXPECTED = {
    ("symplectic", 1): 10,
    ("symplectic", 2): 21,
    ("symplectic", 3): 36,
    ("exceptional", "scalar"): 14,
    ("exceptional", "unarion"): 52,
}

HEAVY_EXPECTED = {
    ("exceptional", "binarion"): 78,
    ("exceptional", "quaternion"): 133,
    ("exceptional", "octonion"): 248,
}


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")


def test_criterion_01_axiom_suite(triple_cache):
    failures = []
    for family, param in AXIOM_CASES:
        report = verify_axioms(triple_cache(family, param))
        if not report.passed:
            failures.append((family, param))
    ok = not failures
    _report(1, "axiom suite", ok, f"{len(AXIOM_CASES)} systems")
    assert ok, failures


def test_criterion_02_enveloping_dimensions(model_cache):
    cases = dict(ENVELOPING_EXPECTED)
    if HEAVY_ENABLED:
        cases.update(HEAVY_EXPECTED)
    bad = []
    for (family, param), expected in cases.items():
        model = model_cache(family, param)
        if model.algebra.dim != expected:
            bad.append((family, param, model.algebra.dim, expected))
        report = verify_jacobi(model.algebra)
        # every pair certified: 3,003 / 8,778 / 30,628 on e6 / e7 / e8
        if not report.passed or report.checked_pairs != expected * (expected - 1) // 2:
            bad.append((family, param, "jacobi", report.checked_pairs))
    ok = not bad
    _report(2, "enveloping dimensions + Jacobi", ok, f"{len(cases)} algebras")
    assert ok, bad


def test_criterion_03_killing_scale(model_cache):
    bad = []
    eps = {(0, 1): ONE, (1, 0): -ONE}
    for family, param in LIGHT_CASES:
        model = model_cache(family, param)
        L, kap, t = model.algebra, model.kappa, model.triple
        s = qi(-4 * (L.n + 2))
        for a, b in itertools.product(range(2), repeat=2):
            for k, l in itertools.product(range(L.t_dim), repeat=2):
                want = s * eps.get((a, b), ZERO) * t.omega[k, l]
                if kap[L.odd_index(a, k), L.odd_index(b, l)] != want:
                    bad.append((family, param, a, k, b, l))
    ok = not bad
    _report(3, "Killing scale -4(n+2)", ok, f"{len(LIGHT_CASES)} families")
    assert ok, bad[:3]


def test_criterion_04_curvature_closed_forms(connection_cache):
    bad = []
    for family, param in LIGHT_CASES:
        lc = connection_cache(family, param, "levi-civita")
        model = lc.model
        md = model.m_dim
        g = model.metric.gram
        for (i, j), r in curvature_pairs(lc):
            if r != lc_closed_form(model, i, j):
                bad.append((family, param, "levi-civita", i, j))
        for name, canonical in (("distinguished", False), ("canonical", True)):
            conn = connection_cache(family, param, name)
            for (i, j), r in curvature_pairs(conn):
                if r != skew_closed_form(model, i, j, canonical):
                    bad.append((family, param, name, i, j))
        # the two metric-pair identities for the Levi-Civita curvature, with
        # phi = g(e_a, .) e_b - g(e_b, .) e_a
        for i in range(3):
            for j in range(i + 1, 3):
                phi = Matrix(md, md, {j: g.row(i)}) - Matrix(md, md, {i: g.row(j)})
                if curvature(lc, i, j) != -phi:
                    bad.append((family, param, "phi-pair", i, j))
        for p in range(3, md):
            for i in range(3):
                phi = Matrix(md, md, {i: g.row(p)}) - Matrix(md, md, {p: g.row(i)})
                if curvature(lc, p, i) != -phi:
                    bad.append((family, param, "phi-pair", p, i))
    ok = not bad
    _report(4, "curvature closed forms (9 identities + phi pairs)", ok,
            f"{len(LIGHT_CASES)} families, all basis pairs")
    assert ok, bad[:3]


def test_criterion_05_dimension_table(connection_cache):
    bad = []
    for family, param in LIGHT_CASES:
        model = connection_cache(family, param, "levi-civita").model
        got = {}
        got["levi-civita"] = holonomy_algebra(
            connection_cache(family, param, "levi-civita"), compute_center=False
        ).dim
        for name in ("distinguished", "canonical"):
            got[name] = holonomy_algebra(
                connection_cache(family, param, name), compute_center=False
            ).dim
        want_lc = expected_hol_levi_civita(model.n)
        want_skew = expected_hol_skew(family, param)
        if got["levi-civita"] != want_lc:
            bad.append((family, param, "levi-civita", got["levi-civita"], want_lc))
        for name in ("distinguished", "canonical"):
            if got[name] != want_skew:
                bad.append((family, param, name, got[name], want_skew))
    ok = not bad
    _report(5, "holonomy dimension table", ok,
            "8n^2+10n+3 / family closed forms, 7 cases")
    assert ok, bad


def test_criterion_06_holonomy_structure(connection_cache):
    bad = []
    for family, param in LIGHT_CASES:
        model = connection_cache(family, param, "levi-civita").model
        spaces = {}
        for name in ("distinguished", "canonical"):
            conn = connection_cache(family, param, name)
            res = holonomy_algebra(conn, compute_center=False)
            check = holonomy_identity_check(conn, res)
            if not check.matches:
                bad.append((family, param, name, "structure"))
            spaces[name] = res.algebra
        if spaces["distinguished"] == spaces["canonical"]:
            bad.append((family, param, "subspaces coincide"))
        if spaces["distinguished"].sum(spaces["canonical"]).dim != model.h_dim + 6:
            bad.append((family, param, "sum dimension"))
    ok = not bad
    _report(6, "holonomy structure identities", ok,
            "closed-form spans match; hol(dist) != hol(can), dim(sum) = h+6")
    assert ok, bad


def test_criterion_07_centers(connection_cache):
    bad = []
    for family, param in LIGHT_CASES:
        want = 1 if family == "special" else 0
        for name in ("distinguished", "canonical"):
            res = holonomy_algebra(connection_cache(family, param, name))
            if res.center_dim != want:
                bad.append((family, param, name, res.center_dim, want))
    ok = not bad
    _report(7, "holonomy centers", ok, "1 for special type, 0 otherwise")
    assert ok, bad


def test_criterion_08_ricci_and_scalars(connection_cache):
    bad = []
    table = {
        "levi-civita": (lambda n: 4 * n + 2, lambda n: 4 * n + 2,
                        lambda n: (4 * n + 2) * (4 * n + 3)),
        "distinguished": (lambda n: 0, lambda n: 4 * n - 4,
                          lambda n: 16 * n * (n - 1)),
        "canonical": (lambda n: -16, lambda n: 4 * n - 4,
                      lambda n: 16 * (n * n - n - 3)),
    }
    for family, param in LIGHT_CASES:
        n = connection_cache(family, param, "levi-civita").model.n
        for name, (fv, fh, fs) in table.items():
            data = ricci(connection_cache(family, param, name))
            if not data.mixed_zero:
                bad.append((family, param, name, "mixed"))
            if data.vertical_constant != qi(fv(n)):
                bad.append((family, param, name, "vertical"))
            if data.horizontal_constant != qi(fh(n)):
                bad.append((family, param, name, "horizontal"))
            if data.scalar_curvature != qi(fs(n)):
                bad.append((family, param, name, "scalar"))
    ok = not bad
    _report(8, "Ricci blocks and scalar curvatures", ok,
            "(4n+2,4n+2)/(0,4n-4)/(-16,4n-4); 42/0/-48 at n=1")
    assert ok, bad[:4]


def test_criterion_09_bianchi_and_lie_triple(connection_cache, model_cache):
    bad = []
    for family, param in (("symplectic", 1), ("exceptional", "scalar")):
        model = model_cache(family, param)
        conn = connection_cache(family, param, "distinguished")
        md = model.m_dim
        for i, j, k in itertools.product(range(3, md), repeat=3):
            lts_total = [ZERO] * md
            bianchi_total = [ZERO] * md
            gamma_total = [ZERO] * md
            for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                for t, v in enumerate(_lts_product(model, p, q, r)):
                    lts_total[t] = lts_total[t] + v
                cur = curvature(conn, p, q)
                for t in range(md):
                    v = cur[t, r]
                    if v:
                        bianchi_total[t] = bianchi_total[t] + v
                for t, v in enumerate(_gamma_part(model, p, q, r)):
                    gamma_total[t] = gamma_total[t] + v + v
            if any(lts_total):
                bad.append((family, param, "lie-triple", i, j, k))
                break
            if bianchi_total != gamma_total:
                bad.append((family, param, "bianchi", i, j, k))
                break
    ok = not bad
    _report(9, "Bianchi failure value + Lie-triple identity", ok,
            "symplectic n=1 and the dim-14 exceptional case")
    assert ok, bad


def test_criterion_10_file_round_trip(tmp_path, triple_cache):
    bad = []
    for family, param in (("symplectic", 1), ("exceptional", "scalar")):
        t = triple_cache(family, param)
        path = tmp_path / f"{family}-{param}.sts.json"
        save_sts(t, path)
        back = load_sts(path)
        if back != t:
            bad.append((family, param, "tensors"))
            continue
        if not verify_axioms(back).passed or not is_simple(back):
            bad.append((family, param, "verification"))
            continue
        model_a = build_model(t)
        model_b = build_model(back)
        for name in ("distinguished", "levi-civita"):
            da = holonomy_algebra(connection_by_name(model_a, name), compute_center=False).dim
            db = holonomy_algebra(connection_by_name(model_b, name), compute_center=False).dim
            if da != db:
                bad.append((family, param, name, da, db))
    ok = not bad
    _report(10, "structure-constant file round-trip", ok,
            "identical tensors and holonomy dimensions")
    assert ok, bad
