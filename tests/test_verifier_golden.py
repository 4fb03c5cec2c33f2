"""Golden digests of the verifiers' reports on broken inputs.

The axiom, Jacobi and admissibility checks must report the same tuples,
in the same order, with the same counts and details, however they are
implemented.  Each report is serialized to JSON and pinned by its sha256.
"""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from symtriple import enveloping, linalg, triples
from symtriple.connections import NomizuMap, admissibility_failures, named_alpha
from symtriple.enveloping import GradedLieAlgebra, build_model, verify_jacobi
from symtriple.linalg import Matrix, comm_minus, numerators
from symtriple.scalars import ONE, qi
from symtriple.triples import SymplecticTripleSystem, check_witnesses, verify_axioms

from conftest import LIGHT_CASES, ad, dmat, scalar_cols, scalar_table
from test_connections import fractional_members
from test_triples import _mutated


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _axiom_record(report):
    return {
        "checked": sorted(report.checked.items()),
        "failures": [[f.axiom, list(f.witness), f.detail] for f in report.failures],
    }


AXIOM_DIGESTS = {
    (("symplectic", 2), "fast"):
        "0bb8cacb35708d349f08dc9ddbbbdc89e60038c7a115f63df61f9b15afe689dd",
    (("symplectic", 2), "audit"):
        "3172bebd6a154759ad880456c81a9a63bf3374aa03fb2ebb3eb889a26a35d0d1",
    (("special", 1), "fast"):
        "5bec307df82a094978d0986105164a9198c9ce564abf50ab1402c46f3d3f7029",
    (("special", 1), "audit"):
        "c80161b13b67e2ca73ae14fba4555be4c71360d778b14f46bf8a446ee27ef63f",
    (("exceptional", "unarion"), "fast"):
        "a7f5df057196237ac0bcb5ea8007ee7d68b730b2726ab3217aa935c1937604cf",
    (("exceptional", "unarion"), "audit"):
        "ff9b99b5146cfb59ca45a52fefa68e595504bc99780964389cef70cb494653d8",
}


@pytest.mark.parametrize("case,mode", sorted(AXIOM_DIGESTS))
def test_axiom_report_digest(case, mode, triple_cache):
    report = verify_axioms(_mutated(triple_cache(*case)), mode=mode)
    assert _digest(_axiom_record(report)) == AXIOM_DIGESTS[(case, mode)]


JACOBI_DIGESTS = {
    "fast": "ecfa679eda97d6046c42ef06eef1043cb233e57a6f829a9f85d191285603c211",
    "audit": "34fd3eed4ce945d14550ebfe970a525702f725313819a5af4527b421bfd6e9ef",
}


def _sign_flipped_sp4(model_cache):
    # the sign-flipped sp(4) table of test_jacobi_detects_mutation
    L0 = model_cache("symplectic", 1).algebra
    table = scalar_table(L0)
    table[(0, 1)] = {2: qi(-2)}
    return GradedLieAlgebra(L0.dim, L0.n, L0.h_dim, L0.t_dim, *numerators(table))


@pytest.mark.parametrize("mode", sorted(JACOBI_DIGESTS))
def test_jacobi_report_digest(mode, model_cache):
    report = verify_jacobi(_sign_flipped_sp4(model_cache), mode=mode)
    record = {
        "checked_pairs": report.checked_pairs,
        "failures": [[list(f.witness), f.detail] for f in report.failures],
    }
    assert _digest(record) == JACOBI_DIGESTS[mode]


THIRD = qi(Fraction(1, 3))


def identity3_reference(T, mode: str) -> tuple:
    """(tuples checked, failing witnesses) of identity (3) from the plain
    all-pairs loop: [d_ij, d_lm] - d_{d_ij(e_l), m} - d_{l, d_ij(e_m)} by
    ``comm_minus`` on the canonical d_ij, over i <= j and l <= m when (1)
    holds and over every pair otherwise."""
    d, bt = T.dim, T.basis_triple
    symmetric = all(bt(i, j, k) == bt(j, i, k)
                    for i in range(d) for j in range(d) for k in range(d))
    pairs = [(i, j) for i in range(d) for j in range(i if symmetric else 0, d)]
    return check_witnesses((
        ((i, j, l, m), comm_minus(dmat(T, i, j), dmat(T, l, m), [
            *((z, dmat(T, p, m)) for p, z in bt(i, j, l).items()),
            *((z, dmat(T, l, p)) for p, z in bt(i, j, m).items()),
        ], T.den).is_zero())
        for (i, j) in pairs for (l, m) in pairs
    ), mode, triples.AXIOM_FAILURE_CAP)


def jacobi_reference(L, mode: str) -> tuple:
    """(pairs checked, failing witnesses) of Jacobi from the plain all-pairs
    loop: [ad_i, ad_j] - ad_[e_i, e_j] by ``comm_minus`` on the canonical ad_i."""
    return check_witnesses((
        ((i, j), comm_minus(ad(L, i), ad(L, j), [
            (z, ad(L, l)) for l, z in L.bracket_basis(i, j).items()
        ], L.den).is_zero())
        for i in range(L.dim) for j in range(i + 1, L.dim)
    ), mode, enveloping.JACOBI_FAILURE_CAP)


def _bumped_triple(T, key, symmetric: bool = True):
    """T with 1/3 added at the least entry of [e_i,e_j,e_k], key = (i, j, k),
    and, if ``symmetric``, of [e_j,e_i,e_k] too, so that (1) still holds."""
    cols = {k: dict(col) for k, col in scalar_cols(T).items()}
    i, j, k = key
    l = min(cols[key])
    for other in {key, (j, i, k)} if symmetric else (key,):
        cols[other][l] = cols[other][l] + THIRD
    return SymplecticTripleSystem(T.dim, T.omega, cols, f"{T.label} + 1/3 at {key}")


def _bumped_algebra(L, key):
    """L with 1/3 added at the least entry of [e_i, e_j], key = (i, j)."""
    table = {k: dict(e) for k, e in scalar_table(L).items()}
    l = min(table[key])
    table[key][l] = table[key][l] + THIRD
    return GradedLieAlgebra(L.dim, L.n, L.h_dim, L.t_dim, *numerators(table))


def test_identity3_and_jacobi_with_mixed_denominators(triple_cache, model_cache):
    # the canonical d_ij and ad_i of these tables do not share a denominator,
    # but D_ij = T.den d_ij and B_i = L.den ad_i all carry the one factor of
    # their table; with entries moved by 1/3, the flat residues give the
    # witnesses and counts of the comm_minus loop in both modes
    T = triple_cache("orthogonal", 3)
    d = T.dim
    assert T.den == 2 and {dmat(T, i, j).den for i in range(d) for j in range(d)} == {1, 2}
    keys = sorted(key for key in T.num if key[0] <= key[1])
    systems = [T, _bumped_triple(T, keys[0], symmetric=False)]
    systems += [_bumped_triple(T, key) for key in keys[::6]]
    failing = 0
    for t in systems:
        for mode in ("fast", "audit"):
            report = verify_axioms(t, mode)
            witnesses = [f.witness for f in report.failures if f.axiom == 3]
            assert (report.checked[3], witnesses) == identity3_reference(t, mode), t.label
            failing += bool(witnesses)
    assert failing > 6

    L = model_cache("exceptional", "scalar").algebra
    assert L.den == 3 and {ad(L, i).den for i in range(L.dim)} == {1, 3}
    algebras = [L] + [_bumped_algebra(L, key) for key in sorted(L.table)[::5]]
    failing = 0
    for alg in algebras:
        for mode in ("fast", "audit"):
            report = verify_jacobi(alg, mode)
            witnesses = [f.witness for f in report.failures]
            assert (report.checked_pairs, witnesses) == jacobi_reference(alg, mode)
            failing += bool(witnesses)
    assert failing > 6


def test_verifiers_build_no_ad_or_commutator_matrix(triple_cache, model_cache, monkeypatch):
    # identity (3), (4) and Jacobi residues are summed on flat integer
    # vectors; with Matrix.from_flat and comm_minus refused wherever triples
    # and enveloping could reach them, the same reports and g(T) tables come
    # out, also from the all-pairs loops of failing tables in audit mode
    systems = [triple_cache(*case) for case in LIGHT_CASES]
    bad_triple = _bumped_triple(triple_cache("orthogonal", 3), (0, 3, 0))
    bad_algebra = _sign_flipped_sp4(model_cache)

    def results():
        out = []
        for T in systems:
            L = build_model(T).algebra
            out.append((verify_axioms(T), L.den, L.table, verify_jacobi(L)))
        return out, verify_axioms(bad_triple, "audit"), verify_jacobi(bad_algebra, "audit")

    want = results()

    def refuse(*args):
        raise AssertionError("an ad or commutator Matrix was built")

    # every module that holds a Matrix holds the one class patched here
    assert all(getattr(mod, "Matrix", Matrix) is Matrix
               for name, mod in sys.modules.items() if name.startswith("symtriple"))
    monkeypatch.setattr(Matrix, "from_flat", refuse)
    patched = [name for name, mod in sys.modules.items()
               if name.startswith("symtriple")
               and getattr(mod, "comm_minus", None) is linalg.comm_minus]
    assert "symtriple.linalg" in patched
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "comm_minus", refuse)
    got = results()
    monkeypatch.undo()
    assert got == want
    assert all(axioms.passed and jacobi.passed for axioms, _, _, jacobi in want[0])
    assert len([f for f in want[1].failures if f.axiom == 3]) > 1
    assert len(want[2].failures) > 1


def test_admissibility_detects_bumped_entry(model_cache):
    model = model_cache("symplectic", 2)
    alpha = named_alpha(model, "levi-civita")
    ops = list(alpha.ops)
    i, j, _ = min(ops[3].entries())
    ops[3] = ops[3] + Matrix(model.m_dim, model.m_dim, {i: {j: ONE}})
    failures = admissibility_failures(model, NomizuMap(ops, "bumped"))
    assert failures == [(1, 4)]
    assert not admissibility_failures(model, alpha)


def admissibility_reference(model, alpha) -> list:
    """The first (t, i) at which [ad_m(d_t), A_i] - sum_l d_t(e_i)_l A_l,
    A_i = alpha(e_i, .), is not zero, by Matrix arithmetic over all pairs."""
    for t in range(model.h_dim):
        d = model.ad_m_inder(t)
        cols = d.transpose().num  # cols[i] = d(e_i), over d.den
        for i, a in enumerate(alpha.ops):
            terms = [(z, alpha.ops[l]) for l, z in cols.get(i, {}).items()]
            if not comm_minus(d, a, terms, d.den).is_zero():
                return [(t, i)]
    return []


def rescaled(T, scales):
    """T in the basis f_i = s_i e_i: [f_i, f_j, f_k] = (s_i s_j s_k / s_l)
    c^l f_l for [e_i, e_j, e_k] = c^l e_l, and (f_i, f_j) = s_i s_j (e_i, e_j)."""
    cols: dict = {}
    for i, j, k, l, v in T.entries():
        cols.setdefault((i, j, k), {})[l] = v * qi(Fraction(scales[i] * scales[j] * scales[k],
                                                            scales[l]))
    omega: dict = {}
    for i, j, v in T.omega.entries():
        omega.setdefault(i, {})[j] = v * scales[i] * scales[j]
    return SymplecticTripleSystem(T.dim, Matrix(T.dim, T.dim, omega), cols,
                                  f"{T.label} rescaled by {scales}")


def test_admissibility_with_mixed_denominators(model_cache, triple_cache):
    # members whose operators carry different denominators, each operator
    # in turn bumped by 1/3 at its first entry: the flat residues report
    # the first witness of the Matrix loop
    model = model_cache("orthogonal", 3)
    md = model.m_dim
    found = set()
    for conn in fractional_members(model):
        ops = conn.alpha.ops
        assert admissibility_failures(model, conn.alpha) == []
        for k in range(md):
            i, j, _ = min(ops[k].entries())
            bumped = [*ops[:k], ops[k] + Matrix(md, md, {i: {j: qi(Fraction(1, 3))}}),
                      *ops[k + 1:]]
            alpha = NomizuMap(bumped, f"{conn.label} bumped at {k}")
            failures = admissibility_failures(model, alpha)
            assert failures == admissibility_reference(model, alpha), alpha.label
            found.update(failures)
    assert len(found) > 3
    # Levi-Civita of rescaled bases, whose odd operators carry different
    # denominators (2 and 4 on orthogonal(3)): every operator must be brought
    # to the one lcm of alpha's denominators, or a residue fails that holds
    for case, scales in ((("orthogonal", 3), (2, 3, 5, 7, 11, 13)),
                         (("special", 2), (2, 3, 5, 7))):
        T = rescaled(triple_cache(*case), scales)
        assert verify_axioms(T).passed, T.label
        model = build_model(T)
        alpha = named_alpha(model, "levi-civita")
        assert len({op.den for op in alpha.ops[3:]}) > 1, T.label
        assert admissibility_failures(model, alpha) == admissibility_reference(model, alpha) == []


def test_admissibility_of_zero_operators_reaching_a_nonzero_one(model_cache):
    # distinguished and canonical are zero on the odd block; with one odd
    # operator alpha(e_k, .) set to Levi-Civita's, a residue at (t, i) fails
    # where d_t(e_i) reaches e_k, though alpha(e_i, .) = 0, and the flat
    # residues report the first witness of the Matrix loop
    reached = set()
    cases = (("symplectic", 2), ("special", 2), ("orthogonal", 3), ("exceptional", "scalar"))
    for case in cases:
        model = model_cache(*case)
        lc = named_alpha(model, "levi-civita").ops
        for alpha in (named_alpha(model, "distinguished"), named_alpha(model, "canonical")):
            assert admissibility_failures(model, alpha) == []
            for k in range(3, model.m_dim):
                ops = [*alpha.ops[:k], lc[k], *alpha.ops[k + 1:]]
                mixed = NomizuMap(ops, f"{alpha.label}, Levi-Civita at {k}")
                failures = admissibility_failures(model, mixed)
                assert failures == admissibility_reference(model, mixed), (case, mixed.label)
                reached.update(case for _, i in failures if i != k)
    assert reached == set(cases)


def test_check_witnesses_stops():
    checks = [("a", True), ("b", False), ("c", True), ("d", False), ("e", False)]
    assert check_witnesses(iter(checks), "fast", 10) == (2, ["b"])
    assert check_witnesses(iter(checks), "audit", 2) == (4, ["b", "d"])
    assert check_witnesses(iter(checks), "audit", 10) == (5, ["b", "d", "e"])
    with pytest.raises(ValueError):
        check_witnesses(iter(checks), "thorough", 10)


class _Unread:
    """An iterator of checks that fails the test if it is read."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("a check was read")


def test_check_witnesses_certificate():
    # a passing certificate returns the count it proves and reads no check
    for mode in ("fast", "audit"):
        assert check_witnesses(_Unread(), mode, 10, lambda: True, 7) == (7, [])
    # a failing one gives the result of no certificate
    checks = [("a", True), ("b", False), ("c", True), ("d", False), ("e", False)]
    for mode, cap in (("fast", 10), ("audit", 2), ("audit", 10)):
        assert (check_witnesses(iter(checks), mode, cap, lambda: False, 7)
                == check_witnesses(iter(checks), mode, cap))


def test_bad_mode_raises_before_certificate(monkeypatch, model_cache):
    ran = []
    with pytest.raises(ValueError):
        check_witnesses(_Unread(), "thorough", 10, lambda: ran.append(1) or True, 7)
    assert not ran
    # verify_jacobi raises on a table that passes, before finding generators

    def no_generators(*args):
        raise AssertionError("generators found for a bad mode")

    monkeypatch.setattr(enveloping, "lie_generators", no_generators)
    with pytest.raises(ValueError):
        verify_jacobi(model_cache("symplectic", 1).algebra, mode="thorough")


def test_audit_caps(monkeypatch, triple_cache, model_cache):
    monkeypatch.setattr(triples, "AXIOM_FAILURE_CAP", 2)
    report = verify_axioms(_mutated(triple_cache("exceptional", "unarion")), mode="audit")
    # uncapped, the identities fail 1, 2, 200 and 1 times
    assert [f.axiom for f in report.failures] == [1, 2, 2, 3, 3, 4]
    assert report.checked == {1: 1274, 2: 15, 3: 205, 4: 196}
    monkeypatch.setattr(enveloping, "JACOBI_FAILURE_CAP", 3)
    report = verify_jacobi(_sign_flipped_sp4(model_cache), mode="audit")
    assert len(report.failures) == 3 and report.checked_pairs < 45
