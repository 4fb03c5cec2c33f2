"""Batch command-line front end.

Commands: verify | holonomy | curvature | ricci | table.  Exit codes:
0 success, 1 mathematical failure or an output pipe closed by its reader
(stdout then goes to the null device, and no traceback is printed),
2 usage error, 3 heavy case refused.
All numbers are printed exactly (rationals, optionally with an i-part);
``--json`` switches to machine-readable records built from the same exact
strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import families
from .connections import Connection, alpha_family, connection_by_name, curvature
from .enveloping import build_model, verify_jacobi
from .errors import ConstructionError, ParseError, ValidationError
from .holonomy import (
    format_table,
    holonomy_algebra,
    ricci,
    table_report,
)
from .scalars import GaussianRational
from .triples import is_simple, scalar_to_json, verify_axioms

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_HEAVY = 3


def _add_case_args(p: argparse.ArgumentParser, with_connection: bool = True) -> None:
    p.add_argument("--family", required=True, choices=families.FAMILIES)
    p.add_argument("--n", type=int, help="parameter for the symplectic family")
    p.add_argument("--w", type=int, help="parameter for the orthogonal/special families")
    p.add_argument("--J", choices=families.J_KINDS, help="exceptional J-kind")
    p.add_argument("--path", help="structure-constant file for --family file")
    p.add_argument("--allow-heavy", action="store_true",
                   help="permit cases of tangent dimension above 35")
    p.add_argument("--json", action="store_true", help="emit a JSON record")
    if with_connection:
        p.add_argument(
            "--connection",
            default="levi-civita",
            choices=("levi-civita", "distinguished", "canonical", "zero", "family"),
        )
        p.add_argument("--a",
                       help="coefficient of the vertical torsion block "
                            "(family connection only; default 0)")
        p.add_argument("--b-matrix", dest="b_matrix",
                       help="3x3 coefficient matrix, rows ';'-separated "
                            "(family connection only; default 0)")


_FAMILY_FLAG = {"symplectic": "n", "orthogonal": "w", "special": "w",
                "exceptional": "J", "file": "path"}


def _resolve_param(args) -> object:
    """The family's parameter; a case flag of another family is refused,
    not ignored."""
    fam = args.family
    used = _FAMILY_FLAG[fam]
    for flag in ("n", "w", "J", "path"):
        if flag != used and getattr(args, flag) is not None:
            raise _Usage(f"--{flag} does not apply to --family {fam}")
    param = getattr(args, used)
    if param is None:
        raise _Usage(f"--{used} is required for --family {fam}")
    return param


class _Usage(Exception):
    pass


def _gate(args, param, m_dim: int) -> None:
    if families.is_heavy(m_dim) and not args.allow_heavy:
        raise _Heavy(
            f"{args.family}({param}) has tangent dimension {m_dim} > "
            f"{families.LIGHT_M_DIM_LIMIT}; pass --allow-heavy"
        )


def _load_case(args, need_verified: bool = True):
    """Build the triple system for a case spec, enforcing the heavy gate."""
    param = _resolve_param(args)
    fam = args.family
    if fam != "file":
        try:
            m_dim = families.case_m_dim(fam, param)
        except ValidationError as exc:
            raise _Usage(str(exc)) from None
        _gate(args, param, m_dim)
        try:
            triple = families.build_triple(fam, param)
        except ValidationError as exc:
            raise _Usage(str(exc)) from None
    else:
        # parameter errors are usage errors, but invalid mathematics inside a
        # well-formed file (e.g. a non-skew form) is a mathematical failure
        triple = families.build_triple(fam, param)
        # a file's size is known only once loaded, still before any checking
        _gate(args, param, 2 * triple.dim + 3)
    if fam == "file" and need_verified:
        report = verify_axioms(triple)
        if not report.passed:
            raise _Math("file system fails the axioms:\n" + report.summary())
        if not is_simple(triple):
            raise _Math("file system is not simple (degenerate form or zero product)")
    return triple


class _Heavy(Exception):
    pass


class _Math(Exception):
    pass


def _family_coefficients(args):
    """(a, B) for --connection family, None for a named connection; a
    coefficient given to a named connection is refused, not ignored."""
    if args.connection != "family":
        for flag, value in (("--a", args.a), ("--b-matrix", args.b_matrix)):
            if value is not None:
                raise _Usage(f"{flag} applies only to --connection family")
        return None
    try:
        a = GaussianRational.parse("0" if args.a is None else args.a)
        b_matrix = "0,0,0;0,0,0;0,0,0" if args.b_matrix is None else args.b_matrix
        rows = [[GaussianRational.parse(c) for c in row.split(",")] for row in b_matrix.split(";")]
    except ValueError as exc:
        raise _Usage(f"bad family coefficient: {exc}") from None
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise _Usage("--b-matrix must be three ';'-separated rows of three entries")
    return a, rows


def _load_connection(args):
    """The triple system and connection of a case spec; the connection flags
    are checked before anything is built."""
    coefficients = _family_coefficients(args)
    triple = _load_case(args)
    model = build_model(triple)
    if coefficients is None:
        return triple, connection_by_name(model, args.connection)
    return triple, Connection(model, alpha_family(model, *coefficients))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    triple = _load_case(args, need_verified=False)
    mode = "audit" if args.audit else "fast"
    report = verify_axioms(triple, mode=mode)
    ok = report.passed
    simple = None
    jacobi_ok = jacobi_pairs = None
    if ok:
        simple = is_simple(triple)
        if simple:
            try:
                model = build_model(triple)
                jacobi = verify_jacobi(model.algebra, mode=mode)
                jacobi_ok, jacobi_pairs = jacobi.passed, jacobi.checked_pairs
            except ConstructionError as exc:
                jacobi_ok = False
                print(f"enveloping construction failed: {exc}", file=sys.stderr)
    passed = bool(ok and simple and jacobi_ok)
    if args.json:
        print(json.dumps({
            "label": triple.label,
            "dim": triple.dim,
            "axioms_pass": ok,
            "simple": simple,
            "jacobi_pass": jacobi_ok,
            "checked": report.checked,
            "jacobi_pairs": jacobi_pairs,
            "failures": [
                {"axiom": f.axiom, "witness": list(f.witness), "detail": f.detail}
                for f in report.failures
            ],
        }))
    else:
        print(report.summary())
        print(f"simple: {simple}")
        print(f"jacobi: {jacobi_ok}")
        print("RESULT: " + ("PASS" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_MATH


def cmd_holonomy(args) -> int:
    triple, conn = _load_connection(args)
    model = conn.model
    res = holonomy_algebra(conn, compute_center=not args.no_center)
    expected = None
    if args.family != "file" and args.connection in ("distinguished", "canonical"):
        expected = families.expected_hol_skew(args.family, _resolve_param(args))
    elif args.family != "file" and args.connection == "levi-civita":
        expected = families.expected_hol_levi_civita(model.n)
    status = None if expected is None else (res.dim == expected)
    record = {
        "case": triple.label,
        "connection": conn.label,
        "n": model.n,
        "m_dim": model.m_dim,
        "dim": res.dim,
        "center": res.center_dim,
        "so_dim": res.so_dim,
        "contains_so": res.contains_so,
        "expected": expected,
        "pass": status,
    }
    if args.json:
        print(json.dumps(record))
    else:
        print(f"case:        {record['case']}")
        print(f"connection:  {record['connection']}")
        print(f"dim hol:     {record['dim']}" +
              (f"  (expected {expected})" if expected is not None else ""))
        print(f"center dim:  {record['center']}")
        print(f"so(m,g) dim: {record['so_dim']}  contains_so: {record['contains_so']}")
        if status is not None:
            print("RESULT: " + ("PASS" if status else "FAIL"))
    return EXIT_OK if status in (True, None) else EXIT_MATH


def cmd_curvature(args) -> int:
    triple, conn = _load_connection(args)
    model = conn.model
    md = model.m_dim
    i, j = args.i, args.j
    if not (0 <= i < md and 0 <= j < md):
        raise _Usage(f"basis indices must lie in 0..{md - 1}")
    r = curvature(model, conn.alpha, i, j)
    if args.json:
        print(json.dumps({
            "case": triple.label,
            "connection": conn.label,
            "i": i,
            "j": j,
            "matrix": [[scalar_to_json(r[p, q]) for q in range(md)] for p in range(md)],
        }))
    else:
        print(f"R(e_{i}, e_{j}) for {conn.label} on {triple.label}:")
        for p in range(md):
            print("  [" + ", ".join(str(r[p, q]) for q in range(md)) + "]")
    return EXIT_OK


def cmd_ricci(args) -> int:
    triple, conn = _load_connection(args)
    model = conn.model
    data = ricci(conn)
    fmt = lambda c: "not proportional" if c is None else str(c)
    if args.json:
        print(json.dumps({
            "case": triple.label,
            "connection": conn.label,
            "n": model.n,
            "vertical_constant": None if data.vertical_constant is None
            else scalar_to_json(data.vertical_constant),
            "horizontal_constant": None if data.horizontal_constant is None
            else scalar_to_json(data.horizontal_constant),
            "mixed_block_zero": data.mixed_zero,
            "scalar_curvature": scalar_to_json(data.scalar_curvature),
        }))
    else:
        print(f"Ricci of {conn.label} on {triple.label} (n={model.n}):")
        print(f"  vertical block:    {fmt(data.vertical_constant)} * g")
        print(f"  horizontal block:  {fmt(data.horizontal_constant)} * g")
        print(f"  mixed block zero:  {data.mixed_zero}")
        print(f"  scalar curvature:  {data.scalar_curvature}")
    return EXIT_OK


def cmd_table(args) -> int:
    cases = list(families.ALL_LIGHT_TABLE_CASES if args.all_light
                 else families.DEFAULT_TABLE_CASES)
    if args.heavy:
        if not args.allow_heavy:
            raise _Heavy("heavy table cases need --allow-heavy")
        for kind in args.heavy:
            cases.append(("exceptional", kind))
    rows = table_report(cases, compute_centers=args.centers)
    if args.json:
        print(json.dumps([
            {
                "case": r.label,
                "family": r.family,
                "n": r.n,
                "dims": r.dims,
                "expected": r.expected,
                "centers": r.centers,
                "pass": r.passed,
            }
            for r in rows
        ]))
    else:
        print(format_table(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symtriple",
        description="Exact constructions and holonomy computations for "
        "symplectic triple systems and their homogeneous models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the triple-system axioms and Jacobi")
    _add_case_args(p, with_connection=False)
    p.add_argument("--audit", action="store_true", help="collect every witness")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("holonomy", help="holonomy algebra dimension and center")
    _add_case_args(p)
    p.add_argument("--no-center", action="store_true", help="skip the center computation")
    p.set_defaults(fn=cmd_holonomy)

    p = sub.add_parser("curvature", help="print one curvature operator exactly")
    _add_case_args(p)
    p.add_argument("-i", type=int, required=True, help="first m-basis index")
    p.add_argument("-j", type=int, required=True, help="second m-basis index")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("ricci", help="Ricci block constants and scalar curvature")
    _add_case_args(p)
    p.set_defaults(fn=cmd_ricci)

    p = sub.add_parser("table", help="reproduce the holonomy dimension table")
    p.add_argument("--all-light", action="store_true",
                   help="every case of tangent dimension <= 35")
    p.add_argument("--heavy", nargs="*", choices=("binarion", "quaternion", "octonion"),
                   default=(), help="add heavy exceptional cases (needs --allow-heavy)")
    p.add_argument("--allow-heavy", action="store_true")
    p.add_argument("--centers", action="store_true", help="also compute centers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_table)
    return ap


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            # a block-buffered stdout (a pipe) may hold all of the output
            # yet, also when argparse's --help exits; flush it here, where a
            # closed reader is still caught
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_MATH


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"file parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    except _Math as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MATH
    except _Heavy as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_HEAVY


if __name__ == "__main__":
    sys.exit(main())
