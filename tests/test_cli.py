import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symtriple import cli
from symtriple.cli import main
from symtriple.errors import ConstructionError, ValidationError
from symtriple.triples import build_symplectic_type, save_sts, scalar_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--family", "symplectic", "--n", "2")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_json_counts(capsys):
    # identity (n) -> basis tuples certified, and the Jacobi pairs certified
    code, out, _ = run(capsys, "verify", "--family", "symplectic", "--n", "2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["jacobi_pass"] is True
    assert record["checked"] == {"1": 24, "2": 64, "3": 100, "4": 10}
    assert record["jacobi_pairs"] == 210


def test_verify_bad_parameter(capsys):
    code, _, err = run(capsys, "verify", "--family", "orthogonal", "--w", "2")
    assert code == 2
    assert "w >= 3" in err


def test_verify_missing_parameter(capsys):
    code, _, err = run(capsys, "verify", "--family", "symplectic")
    assert code == 2


def test_verify_perturbed_file(capsys, tmp_path):
    t = build_symplectic_type(2)
    path = tmp_path / "broken.sts.json"
    save_sts(t, path)
    doc = json.loads(path.read_text())
    i, j, k, l, c = doc["triple"][0]
    doc["triple"][0] = [i, j, k, l, "17"]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--family", "file", "--path", str(path))
    assert code == 1
    assert "witness" in out


def test_verify_file_round_trip(capsys, tmp_path):
    t = build_symplectic_type(1)
    path = tmp_path / "ok.sts.json"
    save_sts(t, path)
    code, out, _ = run(capsys, "verify", "--family", "file", "--path", str(path))
    assert code == 0


def test_verify_file_heavy_gate(capsys, tmp_path, monkeypatch):
    path = tmp_path / "sp9.sts.json"
    save_sts(build_symplectic_type(9), path)  # tangent dimension 39
    checked = []

    def stub_axioms(triple, mode="fast"):
        checked.append(triple.dim)
        raise ValidationError("stub stops after the gate")

    monkeypatch.setattr(cli, "verify_axioms", stub_axioms)
    code, _, err = run(capsys, "verify", "--family", "file", "--path", str(path))
    assert code == 3 and "tangent dimension 39" in err and "--allow-heavy" in err
    assert checked == []  # refused before any checking
    code, _, err = run(
        capsys, "verify", "--family", "file", "--path", str(path), "--allow-heavy"
    )
    assert code == 1 and checked == [18]


@pytest.mark.parametrize("command", [
    ("holonomy",),
    ("curvature", "-i", "0", "-j", "1"),
    ("ricci",),
])
def test_construction_failure_exit_code(capsys, monkeypatch, command):
    def failing_build(triple):
        raise ConstructionError("inner derivations not closed")

    monkeypatch.setattr(cli, "build_model", failing_build)
    code, out, err = run(capsys, *command, "--family", "symplectic", "--n", "1")
    assert code == 1 and out == ""
    assert err == "construction failed: inner derivations not closed\n"


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.sts.json"
    path.write_text("{")
    code, _, err = run(capsys, "verify", "--family", "file", "--path", str(path))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("command", [
    ("verify",),
    ("holonomy",),
    ("ricci",),
    ("curvature", "-i", "0", "-j", "0"),
])
def test_dim_one_file_is_math_failure(capsys, tmp_path, command):
    # the file parses, so the simplicity criterion's refusal is exit 1
    path = tmp_path / "dim1.sts.json"
    path.write_text('{"dim": 1, "omega": [["0"]], "triple": []}')
    code, out, err = run(capsys, *command, "--family", "file", "--path", str(path))
    assert code == 1 and out == ""
    assert err == "invalid input: simplicity criterion excludes dim 1\n"


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "too-deep", "long-int"])
def test_verify_unreadable_file(capsys, tmp_path, kind):
    path = tmp_path / "case.sts.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"dim": 2, "label": "\xff"}')
    elif kind == "too-deep":
        path.write_text("[" * 100000)
    elif kind == "long-int":
        path.write_text('{"dim": 1' + "0" * 5000 + "}")
    code, out, err = run(capsys, "verify", "--family", "file", "--path", str(path))
    assert code == 2 and out == ""
    assert err.startswith("file parse error: ") and err.count("\n") == 1


def test_holonomy_json_record(capsys):
    code, out, _ = run(
        capsys,
        "holonomy", "--family", "special", "--w", "1",
        "--connection", "canonical", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["dim"] == 4
    assert record["center"] == 1
    assert record["pass"] is True
    # JSON round-trips to equal values
    assert json.loads(json.dumps(record)) == record


def test_holonomy_heavy_refused(capsys):
    code, _, err = run(
        capsys,
        "holonomy", "--family", "exceptional", "--J", "octonion",
        "--connection", "distinguished",
    )
    assert code == 3
    assert "--allow-heavy" in err


def test_holonomy_file_case(capsys, tmp_path):
    t = build_symplectic_type(1)
    path = tmp_path / "t.sts.json"
    save_sts(t, path)
    code, out, _ = run(
        capsys,
        "holonomy", "--family", "file", "--path", str(path),
        "--connection", "distinguished", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["dim"] == 6 and record["expected"] is None


def test_holonomy_family_connection(capsys):
    code, out, _ = run(
        capsys,
        "holonomy", "--family", "symplectic", "--n", "1",
        "--connection", "family", "--a", "2", "--b-matrix", "1,0,0;0,1,0;0,0,1",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["dim"] == 6  # same map as the distinguished connection


def test_certified_holonomy_builds_no_so_algebra(capsys, monkeypatch):
    # the record of a certified member needs neither the closure nor so(m, g)
    from symtriple import holonomy

    def refuse(*args):
        raise AssertionError("a closure or so(m, g) was built")

    monkeypatch.setattr(holonomy, "bracket_closure", refuse)
    monkeypatch.setattr(holonomy, "so_algebra", refuse)
    code, out, _ = run(
        capsys,
        "holonomy", "--family", "symplectic", "--n", "1",
        "--connection", "family", "--a", "1/2", "--b-matrix", "1,2,0;0,-1,1;3,0,5",
        "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["dim"] == record["so_dim"] == 21
    assert record["contains_so"] is True and record["center"] == 0


@pytest.mark.parametrize("coefficient", (
    ("--a", "1/0"),
    ("--b-matrix", "1/0,0,0;0,0,0;0,0,0"),
))
def test_family_zero_denominator_is_usage_error(capsys, coefficient):
    code, out, err = run(
        capsys, "ricci", "--family", "symplectic", "--n", "1",
        "--connection", "family", *coefficient,
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "1/0" in err


@pytest.mark.parametrize("argv", (
    ("ricci", "--family", "symplectic", "--n", "1", "--a", "1/2x"),
    ("ricci", "--family", "symplectic", "--n", "1", "--connection", "canonical", "--a", "1"),
    ("holonomy", "--family", "symplectic", "--n", "1",
     "--connection", "distinguished", "--b-matrix", "1,2"),
    ("curvature", "--family", "symplectic", "--n", "1", "-i", "0", "-j", "1",
     "--b-matrix", "0,0,0;0,0,0;0,0,0"),
    # checked before the case is built or gated
    ("holonomy", "--family", "exceptional", "--J", "octonion",
     "--connection", "distinguished", "--a", "1"),
))
def test_family_coefficient_without_family_connection_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    flag = "--a" if "--a" in argv else "--b-matrix"
    assert len(err.splitlines()) == 1 and f"{flag} applies only to --connection family" in err


@pytest.mark.parametrize("case, extra", (
    (("special", "--w", "1"), ("--n", "7")),
    (("exceptional", "--J", "scalar"), ("--w", "1")),
    (("special", "--w", "1"), ("--J", "octonion")),
    (("symplectic", "--n", "1"), ("--path", "/nonexistent")),
))
def test_case_flag_of_another_family_is_usage_error(capsys, case, extra):
    code, out, err = run(
        capsys, "holonomy", "--family", *case, *extra, "--connection", "canonical",
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and f"{extra[0]} does not apply to --family" in err


def test_curvature_output_exact(capsys):
    code, out, _ = run(
        capsys,
        "curvature", "--family", "symplectic", "--n", "1",
        "--connection", "canonical", "-i", "0", "-j", "1",
    )
    assert code == 0
    assert "4i" in out  # exact Gaussian-rational entries
    assert "." not in out.replace("R(e_0, e_1)", "")  # no floats anywhere


def test_curvature_index_out_of_range(capsys):
    code, _, err = run(
        capsys,
        "curvature", "--family", "symplectic", "--n", "1",
        "--connection", "canonical", "-i", "0", "-j", "99",
    )
    assert code == 2


def test_ricci_text(capsys):
    code, out, _ = run(
        capsys, "ricci", "--family", "symplectic", "--n", "1",
        "--connection", "levi-civita",
    )
    assert code == 0
    assert "6 * g" in out
    assert "scalar curvature:  42" in out


def test_ricci_canonical_json(capsys):
    code, out, _ = run(
        capsys, "ricci", "--family", "symplectic", "--n", "1",
        "--connection", "canonical", "--json",
    )
    record = json.loads(out)
    assert record["vertical_constant"] == "-16"
    assert record["scalar_curvature"] == "-48"
    assert record["mixed_block_zero"] is True


def test_table_default(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "exceptional(J=scalar)" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--json")
    rows = json.loads(out)
    assert all(r["pass"] for r in rows)
    by_label = {r["case"]: r for r in rows}
    assert by_label["orthogonal(w=3)"]["dims"]["levi-civita"] == 105
    assert by_label["orthogonal(w=3)"]["dims"]["distinguished"] == 9


def test_table_heavy_gate(capsys):
    code, _, err = run(capsys, "table", "--heavy", "binarion")
    assert code == 3


# sha256 of ``table --all-light --centers --json``: any change to a light
# case's dimensions, centers or pass flags, or to the JSON layout, moves it
ALL_LIGHT_DIGEST = "88e439501aeb07ed868e991cee6e7daa0a4934f343e5a3a3391195ac0327d3a1"


def test_table_all_light(capsys):
    code, out, _ = run(capsys, "table", "--all-light", "--centers", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_LIGHT_DIGEST
    by_label = {r["case"]: r for r in json.loads(out)}
    f4 = by_label["exceptional(J=H3(unarion))"]
    assert f4["dims"] == {"levi-civita": 465, "distinguished": 24, "canonical": 24}
    assert by_label["orthogonal(w=5)"]["dims"]["levi-civita"] == 253
    assert all(r["pass"] for r in by_label.values())


CURVATURE_ARGS = ("curvature", "--family", "symplectic", "--n", "1", "--connection",
                  "canonical", "-i", "0", "-j", "1")


@pytest.mark.parametrize("args", [CURVATURE_ARGS, ("--help",)], ids=["curvature", "help"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_one_without_traceback(args, unbuffered):
    # the reader of stdout is gone before the first line is printed; a
    # block-buffered stdout meets it only when the output is flushed
    r, w = os.pipe()
    os.close(r)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "symtriple", *args], stdout=w,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(w)
    # argparse drops an OSError from writing its help, so an unbuffered
    # --help exits 0; a buffered one fails at the flush
    assert proc.returncode == 1 or (args == ("--help",) and unbuffered and proc.returncode == 0)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# sha256 of ``curvature --family symplectic --n 1 --connection canonical
# --json`` at (i, j): R(e_4, e_3) = -R(e_3, e_4) and R(e_0, e_0) = 0, each
# in canonical form
CURVATURE_DIGESTS = {
    (3, 4): "d9e24e320cce31e0f0451721263ee8482509d9a5c05b2d18e610a71c5fc3f9ad",
    (4, 3): "e21bc4bf5361d0178483e625f0dea8fdaf39883b3c7120b3f3d6a8b8503d2ca4",
    (0, 0): "0219f496fc3157853c50b41de211ece44fbecd29dec653286caf940bfc114143",
}


def test_curvature_json_digests(capsys):
    matrices = {}
    for (i, j), digest in CURVATURE_DIGESTS.items():
        code, out, _ = run(capsys, "curvature", "--family", "symplectic", "--n", "1",
                           "--connection", "canonical", "-i", str(i), "-j", str(j), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (i, j)
        matrices[(i, j)] = json.loads(out)["matrix"]
    r34, r43 = ([[scalar_from_json(x, "matrix") for x in row] for row in matrices[key]]
                for key in ((3, 4), (4, 3)))
    assert any(x for row in r34 for x in row)
    assert r43 == [[-x for x in row] for row in r34]
    assert all(x == "0" for row in matrices[(0, 0)] for x in row)
