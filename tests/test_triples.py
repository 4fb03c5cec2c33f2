import copy
import hashlib
import json
from functools import partial

import pytest

from symtriple import triples
from symtriple.enveloping import build_enveloping
from symtriple.errors import ParseError, ValidationError
from symtriple.families import ALL_LIGHT_TABLE_CASES, build_triple, case_m_dim
from symtriple.linalg import Matrix, combination, vec
from symtriple.scalars import ONE, qi
from symtriple.triples import (
    SymplecticTripleSystem,
    build_orthogonal_type,
    build_special_type,
    build_symplectic_type,
    inder_basis,
    is_simple,
    load_sts,
    save_sts,
    scalar_to_json,
    verify_axioms,
)

from conftest import AXIOM_CASES, bilinear, dmat, scalar_cols, scalars, triple_product

INDER_DIMS = {
    ("symplectic", 1): 3,  # sp(2)
    ("symplectic", 2): 10,  # sp(4)
    ("symplectic", 3): 21,  # sp(6)
    ("orthogonal", 3): 6,  # sp(V) + so(3)
    ("orthogonal", 4): 9,
    ("orthogonal", 5): 13,
    ("special", 1): 1,  # gl(1)
    ("special", 2): 4,  # gl(2)
    ("special", 3): 9,
    ("exceptional", "scalar"): 3,  # sl(2)
    ("exceptional", "unarion"): 21,  # sp(6)
}


@pytest.mark.parametrize("family,param", AXIOM_CASES)
def test_axioms_and_inder(family, param, triple_cache):
    t = triple_cache(family, param)
    report = verify_axioms(t)
    assert report.passed, report.summary()
    assert is_simple(t)
    ind = inder_basis(t)
    assert ind.dim == INDER_DIMS[(family, param)]
    # closed under commutator: g(T) raises if any h-h bracket escapes the span
    build_enveloping(t, ind)


def test_dimensions():
    assert build_symplectic_type(1).dim == 2
    assert build_orthogonal_type(3).dim == 6
    assert build_special_type(1).dim == 2


def test_parameter_validation():
    with pytest.raises(ValidationError):
        build_symplectic_type(0)
    with pytest.raises(ValidationError):
        build_orthogonal_type(2)
    with pytest.raises(ValidationError):
        build_special_type(0)


@pytest.mark.parametrize("family", ["symplectic", "orthogonal", "special"])
def test_boolean_parameter_refused(family):
    # True is an int to isinstance, but not a family parameter
    with pytest.raises(ValidationError):
        build_triple(family, True)
    with pytest.raises(ValidationError):
        case_m_dim(family, True)


def test_symplectic_triple_values():
    t = build_symplectic_type(1)
    e1, e2 = vec([1, 0]), vec([0, 1])
    assert t.omega[0, 1] == ONE
    # [x,y,z] = (x,z)y + (y,z)x
    assert triple_product(t, e1, e1, e2) == vec([2, 0])
    assert triple_product(t, e1, e2, e2) == vec([0, 1])


def test_orthogonal_triple_values():
    t = build_orthogonal_type(3)
    u = vec([1, 0, 0, 0, 0, 0])  # e1 (x) b0
    v = vec([0, 0, 0, 1, 0, 0])  # e2 (x) b0
    assert t.omega[0, 3] == qi("1/2")
    assert triple_product(t, u, u, v) == u


def test_special_triple_values():
    t = build_special_type(1)
    x, f = vec([1, 0]), vec([0, 1])
    assert t.omega[1, 0] == ONE and t.omega[0, 1] == -ONE
    assert triple_product(t, x, f, x) == vec([3, 0])
    t2 = build_special_type(2)
    x1, x2 = vec([1, 0, 0, 0]), vec([0, 1, 0, 0])
    f1, g1 = vec([0, 0, 1, 0]), vec([0, 0, 0, 1])
    assert triple_product(t2, x1, x2, f1) == vec([0, 0, 0, 0])
    # [x,f,g] = -f(x)g - 2g(x)f
    assert triple_product(t2, x1, f1, g1) == vec([0, 0, 0, -1])
    assert triple_product(t2, x1, g1, f1) == vec([0, 0, 0, -2])


from hypothesis import given, settings, strategies as st

small_scalar = st.integers(min_value=-4, max_value=4).map(qi)


@settings(max_examples=40)
@given(
    st.lists(small_scalar, min_size=4, max_size=4),
    st.lists(small_scalar, min_size=4, max_size=4),
    st.lists(small_scalar, min_size=4, max_size=4),
)
def test_axiom_identities_on_vectors(x, y, z):
    # the trilinear evaluator satisfies identities (1) and (2) on arbitrary
    # vectors, not only on basis tuples
    t = build_special_type(2)
    x, y, z = tuple(x), tuple(y), tuple(z)
    assert triple_product(t, x, y, z) == triple_product(t, y, x, z)
    lhs = tuple(
        a - b
        for a, b in zip(triple_product(t, x, y, z), triple_product(t, x, z, y))
    )
    form = partial(bilinear, t.omega)
    xz, xy, yz = form(x, z), form(x, y), form(y, z)
    two = qi(2)
    rhs = tuple(
        xz * yc - xy * zc + two * yz * xc for xc, yc, zc in zip(x, y, z)
    )
    assert lhs == rhs


def test_exceptional_scalar_shape(triple_cache):
    t = triple_cache("exceptional", "scalar")
    assert t.dim == 4
    # dim g(T) = 3 + inder + 2 dim T = 14
    assert 3 + inder_basis(t).dim + 2 * t.dim == 14


def test_exceptional_unarion_shape(triple_cache):
    t = triple_cache("exceptional", "unarion")
    assert t.dim == 14
    assert 3 + inder_basis(t).dim + 2 * t.dim == 52


@pytest.mark.heavy
@pytest.mark.parametrize("kind", ["binarion", "quaternion", "octonion"])
def test_heavy_exceptional_axioms(kind, triple_cache):
    # e6/e7/e8: every identity holds, and each count is its closed form
    t = triple_cache("exceptional", kind)
    d = t.dim
    report = verify_axioms(t)
    assert report.passed, report.summary()
    pairs = d * (d + 1) // 2
    assert report.checked == {1: d * d * (d - 1) // 2, 2: d**3, 3: pairs**2, 4: pairs}


def _mutated(t: SymplecticTripleSystem) -> SymplecticTripleSystem:
    cols = scalar_cols(t)
    (i, j, k), col = next(iter(sorted(cols.items())))
    l = next(iter(sorted(col)))
    col[l] = col[l] + ONE
    return SymplecticTripleSystem(t.dim, t.omega, cols, t.label + "+perturbed")


def test_perturbed_tensor_fails_with_witness(triple_cache):
    bad = _mutated(triple_cache("symplectic", 2))
    report = verify_axioms(bad)
    assert not report.passed
    assert report.failures[0].witness


def test_perturbed_exceptional_tensor_fails_with_witness(triple_cache):
    # the verifier is not vacuous on the table-driven exceptional build
    bad = _mutated(triple_cache("exceptional", "unarion"))
    report = verify_axioms(bad)
    assert not report.passed
    assert report.failures[0].witness


def _reference_identity3(t: SymplecticTripleSystem, mode: str):
    """Identity (3) residue by residue over every (i <= j, l <= m), with
    plain matrix arithmetic: (tuples checked, failing witnesses)."""
    d = t.dim
    cap = 1 if mode == "fast" else triples.AXIOM_FAILURE_CAP
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    checked, failed = 0, []
    for i, j in pairs:
        for l, m in pairs:
            a, b = dmat(t, i, j), dmat(t, l, m)
            rhs = combination([
                *((v, dmat(t, p, m)) for p, v in scalars(t.basis_triple(i, j, l), t.den).items()),
                *((v, dmat(t, l, p)) for p, v in scalars(t.basis_triple(i, j, m), t.den).items()),
            ], d)
            checked += 1
            if a @ b - b @ a != rhs:
                failed.append((i, j, l, m))
                if len(failed) == cap:
                    return checked, failed
    return checked, failed


def _symmetric_bump(t: SymplecticTripleSystem) -> SymplecticTripleSystem:
    """t with 1 added at the same entry of [e_i,e_j,e_k] and [e_j,e_i,e_k],
    for the least such key with i < j, so that (1) still holds."""
    cols = scalar_cols(t)
    i, j, k = min(key for key in cols if key[0] < key[1])
    l = min(cols[(i, j, k)])
    for key in ((i, j, k), (j, i, k)):
        cols[key][l] = cols[key][l] + ONE
    return SymplecticTripleSystem(t.dim, t.omega, cols, t.label + "+symmetric")


@pytest.mark.parametrize("mode", ["fast", "audit"])
def test_derivation_witnesses_match_reference(mode, triple_cache):
    # the same epsilon in [e_i,e_j,e_k] and [e_j,e_i,e_k]: (1) still holds,
    # so identity (3) runs over i <= j, and it fails
    t = triple_cache("special", 2)
    bad = _symmetric_bump(t)
    # fewer d_ij span inder(T) than there are pairs, so a check over the
    # spanning pairs alone would report different counts and witnesses
    assert inder_basis(bad).dim < t.dim * (t.dim + 1) // 2
    report = verify_axioms(bad, mode=mode)
    assert 1 not in {f.axiom for f in report.failures}
    checked, failed = _reference_identity3(bad, mode)
    assert failed
    assert report.checked[3] == checked
    assert [f.witness for f in report.failures if f.axiom == 3] == failed


def _reference_identity2(t: SymplecticTripleSystem, mode: str):
    """Identity (2) residue by residue over all d^3 basis tuples, in order,
    with dense vectors: (tuples checked, failing witnesses)."""
    d = t.dim
    cap = 1 if mode == "fast" else triples.AXIOM_FAILURE_CAP
    unit = [tuple(qi(int(a == b)) for b in range(d)) for a in range(d)]
    checked, failed = 0, []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x, y, z = unit[i], unit[j], unit[k]
                lhs = [a - b for a, b in zip(triple_product(t, x, y, z), triple_product(t, x, z, y))]
                xz, xy, yz = t.omega[i, k], t.omega[i, j], t.omega[j, k]
                rhs = [xz * yc - xy * zc + 2 * yz * xc for xc, yc, zc in zip(x, y, z)]
                checked += 1
                if lhs != rhs:
                    failed.append((i, j, k))
                    if len(failed) == cap:
                        return checked, failed
    return checked, failed


def _with_omega(t: SymplecticTripleSystem, bumps) -> SymplecticTripleSystem:
    """t with 1 added to omega at each (i, j) of ``bumps``; built directly,
    since ``load_sts`` refuses a form that is not skew."""
    rows = [[t.omega[i, j] for j in range(t.dim)] for i in range(t.dim)]
    for i, j in bumps:
        rows[i][j] = rows[i][j] + ONE
    return SymplecticTripleSystem(t.dim, Matrix.from_rows(rows), scalar_cols(t), t.label + "+omega")


def _with_triple(t: SymplecticTripleSystem, key, l) -> SymplecticTripleSystem:
    """t with 1 added to the e_l coefficient of [e_i, e_j, e_k], key = (i, j, k)."""
    cols = scalar_cols(t)
    col = cols.setdefault(key, {})
    col[l] = col.get(l, qi(0)) + ONE
    return SymplecticTripleSystem(t.dim, t.omega, cols, t.label + "+triple")


@pytest.mark.parametrize("mode", ["fast", "audit"])
def test_identity2_witnesses_match_reference(mode, triple_cache):
    t = triple_cache("special", 2)
    # with omega skew R(x, z, y) = -R(x, y, z), so a bump of [e_0, e_3, e_1]
    # fails at (0, 1, 3) first and then at (0, 3, 1), a tuple with k < j
    # that a pass over k > j alone never evaluates
    for bad in (
        _with_omega(t, [(0, 1), (1, 0)]),  # symmetric off-diagonal part
        _with_omega(t, [(1, 1)]),  # nonzero diagonal
        _with_triple(t, (0, 3, 1), 2),
    ):
        report = verify_axioms(bad, mode=mode)
        checked, failed = _reference_identity2(bad, mode)
        assert failed
        assert report.checked[2] == checked
        assert [f.witness for f in report.failures if f.axiom == 2] == failed
        if mode == "audit":
            assert any(k < j for _, j, k in failed)


def _reference_identity4(t: SymplecticTripleSystem, mode: str):
    """Identity (4) pair by pair, with dense vectors: ([e_i,e_j,e_u], e_v)
    + (e_u, [e_i,e_j,e_v]) over every (u, v), for the pairs i <= j when
    (1) holds and for every (i, j) otherwise: (pairs checked, failing
    witnesses)."""
    d = t.dim
    cap = 1 if mode == "fast" else triples.AXIOM_FAILURE_CAP
    unit = [tuple(qi(int(a == b)) for b in range(d)) for a in range(d)]
    prod = {(i, j, k): triple_product(t, unit[i], unit[j], unit[k])
            for i in range(d) for j in range(d) for k in range(d)}
    symmetric = all(prod[(i, j, k)] == prod[(j, i, k)] for (i, j, k) in prod)
    om = [[t.omega[a, b] for b in range(d)] for a in range(d)]

    def residue(x, y, u: int, v: int):  # (x, e_v) + (e_u, y)
        return sum((c * om[l][v] + om[u][l] * e for l, (c, e) in enumerate(zip(x, y))), qi(0))

    checked, failed = 0, []
    for i in range(d):
        for j in range(i if symmetric else 0, d):
            checked += 1
            if any(residue(prod[(i, j, u)], prod[(i, j, v)], u, v)
                   for u in range(d) for v in range(d)):
                failed.append((i, j))
                if len(failed) == cap:
                    return checked, failed
    return checked, failed


@pytest.mark.parametrize("mode", ["fast", "audit"])
def test_identity4_witnesses_match_reference(mode, triple_cache):
    # (4) is certified from the Lie generators that identity (3) finds; a
    # system that fails it reruns every pair, over i <= j when (1) holds
    t = triple_cache("special", 2)
    cases = [_mutated(triple_cache(*case)) for case in
             (("symplectic", 2), ("special", 1), ("exceptional", "scalar"))]
    cases += [_with_omega(t, [(0, 1), (1, 0)]), _with_omega(t, [(1, 1)]), _symmetric_bump(t)]
    outcomes = []
    for bad in cases:
        report = verify_axioms(bad, mode=mode)
        checked, failed = _reference_identity4(bad, mode)
        assert report.checked[4] == checked, bad.label
        assert [f.witness for f in report.failures if f.axiom == 4] == failed, bad.label
        outcomes.append((1 in {f.axiom for f in report.failures}, bool(failed)))
    # a certified pass, and failures with and without (1)
    assert outcomes == [(False, False), (True, True), (True, True),
                        (False, True), (False, True), (False, True)]


def _direct_sum(a: SymplecticTripleSystem, b: SymplecticTripleSystem):
    """a (+) b: block-diagonal form, b's basis after a's, and no product
    between the summands."""
    d = a.dim
    omega = Matrix(a.dim + b.dim, a.dim + b.dim, {
        **{i: a.omega.row(i) for i in range(d)},
        **{d + i: {d + j: x for j, x in b.omega.row(i).items()} for i in range(b.dim)},
    })
    cols = scalar_cols(a)
    for (i, j, k), col in scalar_cols(b).items():
        cols[(d + i, d + j, d + k)] = {d + l: x for l, x in col.items()}
    return SymplecticTripleSystem(a.dim + b.dim, omega, cols, f"{a.label}+{b.label}")


@pytest.mark.parametrize("mode", ["fast", "audit"])
def test_derivation_generators_cover_summands(mode):
    # inder(T) of symplectic(1) (+) special(1) is sp(2) (+) gl(1), which no
    # single d_ij generates: identity (3) certified from too few generators
    # would miss each bump of the special summand below
    # (the sum fails (2), whose form terms mix the summands, but not (3))
    good = _direct_sum(build_symplectic_type(1), build_special_type(1))
    report = verify_axioms(good, mode=mode)
    assert 3 not in {f.axiom for f in report.failures}
    assert report.checked[3] == 100
    d = good.dim
    bumps = 0
    for i, j in ((2, 3),):
        for k in (2, 3):
            for l in range(d):
                cols = scalar_cols(good)
                for key in ((i, j, k), (j, i, k)):
                    col = cols.setdefault(key, {})
                    col[l] = col.get(l, qi(0)) + ONE
                bad = SymplecticTripleSystem(d, good.omega, cols, "bumped")
                report = verify_axioms(bad, mode=mode)
                checked, failed = _reference_identity3(bad, mode)
                assert failed, (k, l)
                assert report.checked[3] == checked
                assert [f.witness for f in report.failures if f.axiom == 3] == failed
                bumps += 1
    assert bumps == 8


def test_zero_product_fails_axiom_two():
    good = build_symplectic_type(1)
    zero = SymplecticTripleSystem(good.dim, good.omega, {}, "zero-product")
    report = verify_axioms(zero)
    axioms_hit = {f.axiom for f in report.failures}
    assert 2 in axioms_hit
    assert not is_simple(zero)


def test_simplicity_criterion():
    good = build_symplectic_type(2)
    assert is_simple(good)
    degenerate = SymplecticTripleSystem(
        good.dim, Matrix(good.dim, good.dim), scalar_cols(good), "degenerate"
    )
    assert not is_simple(degenerate)
    one_dim = SymplecticTripleSystem(1, Matrix(1, 1), {}, "dim1")
    with pytest.raises(ValidationError):
        is_simple(one_dim)


def test_audit_mode_collects_witnesses(triple_cache):
    bad = _mutated(triple_cache("symplectic", 1))
    fast = verify_axioms(bad, mode="fast")
    audit = verify_axioms(bad, mode="audit")
    assert len(audit.failures) >= len(fast.failures)


def test_save_load_round_trip(tmp_path, triple_cache):
    for family, param in [("symplectic", 2), ("exceptional", "scalar")]:
        t = triple_cache(family, param)
        path = tmp_path / f"{family}.sts.json"
        save_sts(t, path)
        back = load_sts(path)
        assert back == t
        assert back.label == t.label


def _handmade():
    """A 2-dimensional system with complex and fractional entries."""
    omega = Matrix.from_rows([["0", "i"], ["-i", "0"]])
    return SymplecticTripleSystem(2, omega, {(0, 0, 1): {0: qi("1/2-3i")}}, "handmade")


def test_round_trip_with_complex_entries(tmp_path):
    t = _handmade()
    path = tmp_path / "complex.sts.json"
    save_sts(t, path)
    back = load_sts(path)
    assert back == t
    raw = path.read_text()
    assert '"re"' in raw and '"im"' in raw  # complex entries use the object form


# sha256 of the bytes ``save_sts`` writes: a change to the file format shows
# here even when ``load_sts`` is changed to match it
SAVED_DIGESTS = {
    ("symplectic", 1): "f5c090ec0c4756c43b337f1d81e2524513b72fe2da0dff5a5a83e6be323a438e",
    ("symplectic", 2): "5807c67ee0179c0b8dbeac094d5ca9d412faf8e12058dc0d020ed9e15e415b0a",
    ("special", 1): "6363516956d517493e40c2aab4cf7faaa0cc465e1408d92d898d3a032c55aeab",
    ("special", 2): "7b26bc0d576f6867f99ee6ba9ddcbb95c9eb6b502c7745ad3f8753ebfe95a1a8",
    ("orthogonal", 3): "708aaf17521955f937868387a5045d2e89964a1ba6b510527eb9c9991c4fc4f0",
    ("orthogonal", 4): "d81f97c7a5eccfa199a7910091dbc3d0abc77365d4de8a55dfb74f99b9030946",
    ("exceptional", "scalar"): "e28541631c2704d14e4e7e73352b99101c31b35b5e481d0e90d37a46f808d277",
    ("symplectic", 3): "419564aa9fb4dcc03653ceb19bcb04281941d8751b3d67ce46856ef3a7dcef1d",
    ("special", 3): "b05a44d3ff00130e6fd4bbe9866b6755bfdf6b0b94099118d9111757177d36ce",
    ("orthogonal", 5): "09ebece9ff6bec80b2cc8d4508cce66c89600ebeaebd9f75eb09d07f44d0c279",
    ("exceptional", "unarion"): "d30e681154d784ed8565e0fcdb313b96f45d62b90b7b772f72b0af107771ae1d",
    "handmade": "c8122555e0cdeb736fff8471eb295d36d4db6c1ec4a7b3c8fbeef08ca37776b5",
}


@pytest.mark.parametrize("case", [*ALL_LIGHT_TABLE_CASES, "handmade"])
def test_saved_file_digest(case, tmp_path, triple_cache):
    t = _handmade() if case == "handmade" else triple_cache(*case)
    path = tmp_path / "saved.sts.json"
    save_sts(t, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DIGESTS[case]


def test_load_rejects_non_skew(tmp_path):
    t = build_symplectic_type(1)
    path = tmp_path / "bad.sts.json"
    save_sts(t, path)
    doc = path.read_text().replace('"-1"', '"1"')
    path.write_text(doc)
    with pytest.raises(ValidationError):
        load_sts(path)


def test_load_rejects_bad_index(tmp_path):
    import json

    t = build_symplectic_type(1)
    path = tmp_path / "bad.sts.json"
    save_sts(t, path)
    doc = json.loads(path.read_text())
    doc["triple"][0][0] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_sts(path)
    assert "out of range" in str(err.value)


def test_load_rejects_bad_scalar(tmp_path):
    import json

    t = build_symplectic_type(1)
    path = tmp_path / "bad.sts.json"
    save_sts(t, path)
    doc = json.loads(path.read_text())
    doc["triple"][0][4] = "3//4"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_sts(path)
    assert "triple[0]" in str(err.value)


def test_load_rejects_repeated_entry(tmp_path):
    import json

    t = build_symplectic_type(1)
    path = tmp_path / "dup.sts.json"
    save_sts(t, path)
    doc = json.loads(path.read_text())
    doc["triple"].append(doc["triple"][0])  # would otherwise sum to twice the value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_sts(path)
    i, j, k, l = doc["triple"][0][:4]
    last = len(doc["triple"]) - 1
    assert str(err.value) == (
        f"triple[0] and triple[{last}]: repeated entry [{i},{j},{k},{l}]"
    )


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.sts.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_sts(path)


# sha256 of the exceptional tensors as built by the dense gamma evaluation
# that preceded the table-driven build; any change to omega or to a single
# structure constant changes the digest
EXCEPTIONAL_DIGESTS = {
    "scalar": "b5fa821193e0a92704e110c123d66c50bcd7fdbb6aad9aa563c50668084a5649",
    "unarion": "a976c57486cdb0036102bf40e8e4725e9751f002a985605770bafe8183af3ab2",
    "binarion": "280b0d070e0448c9718e52fbc93d057fb7dc776e449cd3ebe7eea1e313bb184f",
    "quaternion": "5aa2d677905dfb78382037e9221cfdd820ad2f2ad9375c89a577ff4ad2322c7b",
    "octonion": "a2056388353daa3ef3efd88f364097611f1efbbba15ba8625c524ef91d215d83",
}


@pytest.mark.parametrize(
    "kind",
    ["scalar", "unarion", "binarion"]
    + [pytest.param(k, marks=pytest.mark.heavy) for k in ("quaternion", "octonion")],
)
def test_exceptional_tensor_digest(kind, triple_cache):
    t = triple_cache("exceptional", kind)
    omega_rows = [[scalar_to_json(t.omega[i, j]) for j in range(t.dim)] for i in range(t.dim)]
    triple_rows = [[i, j, k, l, scalar_to_json(v)] for (i, j, k, l, v) in t.entries()]
    doc = json.dumps([omega_rows, triple_rows], separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == EXCEPTIONAL_DIGESTS[kind]


@pytest.mark.parametrize("doc", [
    {"dim": True, "omega": [["0"]], "triple": []},
    {"dim": 2, "omega": [["0", "1"], ["-1", "0"]], "triple": [[True, False, 1, 0, "2"]]},
    {"dim": 2, "omega": [["0", "1"], ["-1", "0"]], "triple": [[0, 1, 1, False, "2"]]},
])
def test_load_rejects_booleans(tmp_path, doc):
    # JSON true/false are not integers, as they are not scalars
    path = tmp_path / "bool.sts.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_sts(path)


def _check_load(path):
    """load_sts gives a system with integer dim and indices, or raises a
    ParseError or ValidationError; any other exception propagates."""
    try:
        t = load_sts(path)
    except (ParseError, ValidationError):
        return
    assert type(t.dim) is int
    for i, j, k, l, _ in t.entries():
        assert all(type(x) is int for x in (i, j, k, l))


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(),
    st.sampled_from(["0", "1", "-1", "1/2", "i", "3/4-2/5i", "1/0", "x", ""]),
    st.text(max_size=4),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["re", "im", "dim", "x"]), inner, max_size=3),
    max_leaves=12,
)
_ODD_VALUES = (
    True, False, None, -1, 5, 0.5, "", "x", "1/0", [], {}, [0, 1], {"re": []},
)


def _paths(obj, prefix=()):
    """Every key path into a document of nested dicts and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def _sts_doc(draw):
    """A well-formed structure-constant document of dim n <= 4, with up to
    two fields, rows, entries or cells replaced by odd values or deleted."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    entry = st.tuples(index, index, index, index, st.integers(-2, 2))
    entries = draw(st.lists(entry, min_size=1, max_size=4))
    doc = {
        "dim": n,
        "label": "fuzz",
        "omega": [
            [str(upper[i * n + j] if i < j else -upper[j * n + i] if i > j else 0)
             for j in range(n)]
            for i in range(n)
        ],
        "triple": [[i, j, k, l, str(c)] for i, j, k, l, c in entries],
    }
    odd = st.sampled_from(_ODD_VALUES)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        top = draw(st.sampled_from(sorted({p[0] for p in paths})))
        *where, key = draw(st.sampled_from([p for p in paths if p[0] == top]))
        parent = doc
        for step in where:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            # a copy, so a later step never edits a shared _ODD_VALUES entry
            parent[key] = copy.deepcopy(draw(st.one_of(st.booleans(), odd, odd, _json_value)))
    return doc


@settings(max_examples=150, deadline=None)
@given(st.one_of(_sts_doc(), _sts_doc(), _sts_doc(), _json_value))
def test_load_fuzz_json_documents(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-doc.sts.json"
    path.write_text(json.dumps(doc))
    _check_load(path)


_VALID_BYTES = json.dumps({
    "dim": 2, "omega": [["0", "1"], ["-1", "0"]], "triple": [[0, 1, 1, 0, "2"]],
}).encode()


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(max_size=120),
    st.tuples(st.integers(0, len(_VALID_BYTES) - 1), st.binary(min_size=1, max_size=3)).map(
        lambda edit: _VALID_BYTES[:edit[0]] + edit[1] + _VALID_BYTES[edit[0] + len(edit[1]):]
    ),
))
def test_load_fuzz_raw_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-bytes.sts.json"
    path.write_bytes(raw)
    _check_load(path)
