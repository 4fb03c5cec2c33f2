"""The benchmark's tracer wraps package functions by name; a refactor that
drops or renames one of them must fail here rather than in a traced run."""

import importlib
import types
from pathlib import Path

from symtriple.jordan import CubicJordan
from symtriple.linalg import Subspace

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # exec rather than import, so no bytecode cache is written beside it
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_traced_names_resolve():
    spanned = _tracing_module().SPANNED
    assert spanned
    for module, attr, _span in spanned:
        mod = importlib.import_module(f"symtriple.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    assert callable(Subspace.insert)
    assert callable(CubicJordan.linearized_cross)


def test_insert_returns_the_growth_flag_the_tracer_reads():
    # the traced insert counts growth from item [1] of the returned pair
    s = Subspace(2)
    out = s.insert({0: (1, 0)})
    assert len(out) == 2 and out[1] is True
    out = s.insert({0: (2, 0)})
    assert len(out) == 2 and out[1] is False
