"""Golden digests of the verifiers' reports on broken inputs.

The axiom, Jacobi and admissibility checks must report the same tuples,
in the same order, with the same counts and details, however they are
implemented.  Each report is serialized to JSON and pinned by its sha256.
"""

import hashlib
import json

import pytest

from symtriple import enveloping, triples
from symtriple.connections import NomizuMap, admissibility_failures, alpha_levi_civita
from symtriple.enveloping import GradedLieAlgebra, verify_jacobi
from symtriple.linalg import Matrix
from symtriple.scalars import ONE, qi
from symtriple.triples import check_witnesses, verify_axioms

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
    table = {k: dict(v) for k, v in L0.table.items()}
    table[(0, 1)] = {2: qi(-2)}
    return GradedLieAlgebra(L0.dim, L0.n, L0.h_dim, L0.t_dim, table)


@pytest.mark.parametrize("mode", sorted(JACOBI_DIGESTS))
def test_jacobi_report_digest(mode, model_cache):
    report = verify_jacobi(_sign_flipped_sp4(model_cache), mode=mode)
    record = {
        "checked_pairs": report.checked_pairs,
        "failures": [[list(f.witness), f.detail] for f in report.failures],
    }
    assert _digest(record) == JACOBI_DIGESTS[mode]


def test_admissibility_detects_bumped_entry(model_cache):
    model = model_cache("symplectic", 2)
    alpha = alpha_levi_civita(model)
    ops = list(alpha.ops)
    i, j, _ = min(ops[3].entries())
    ops[3] = ops[3] + Matrix(model.m_dim, model.m_dim, {i: {j: ONE}})
    failures = admissibility_failures(model, NomizuMap(ops, "bumped"))
    assert failures == [(1, 4)]
    assert not admissibility_failures(model, alpha)


def test_check_witnesses_stops():
    checks = [("a", True), ("b", False), ("c", True), ("d", False), ("e", False)]
    assert check_witnesses(iter(checks), "fast", 10) == (2, ["b"])
    assert check_witnesses(iter(checks), "audit", 2) == (4, ["b", "d"])
    assert check_witnesses(iter(checks), "audit", 10) == (5, ["b", "d", "e"])
    with pytest.raises(ValueError):
        check_witnesses(iter(checks), "thorough", 10)


def test_audit_caps(monkeypatch, triple_cache, model_cache):
    monkeypatch.setattr(triples, "AXIOM_FAILURE_CAP", 2)
    report = verify_axioms(_mutated(triple_cache("exceptional", "unarion")), mode="audit")
    # uncapped, the identities fail 1, 2, 200 and 1 times
    assert [f.axiom for f in report.failures] == [1, 2, 2, 3, 3, 4]
    assert report.checked == {1: 1274, 2: 15, 3: 205, 4: 196}
    monkeypatch.setattr(enveloping, "JACOBI_FAILURE_CAP", 3)
    report = verify_jacobi(_sign_flipped_sp4(model_cache), mode="audit")
    assert len(report.failures) == 3 and report.checked_pairs < 45
