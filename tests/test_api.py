"""The package's public surface: its export lists, and the README's example."""

import ast
import importlib
import pkgutil
from pathlib import Path

import symtriple

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_lists_resolve():
    # a stale ``__all__`` entry breaks ``from symtriple.<module> import *``
    modules = [m.name for m in pkgutil.iter_modules(symtriple.__path__) if m.name != "__main__"]
    assert "connections" in modules
    for name in modules:
        mod = importlib.import_module(f"symtriple.{name}")
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), f"symtriple.{name}.{attr}"
    tree = ast.parse(Path(symtriple.__file__).read_text(encoding="utf-8"))
    imported = [a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert imported and all(hasattr(symtriple, attr) for attr in imported)


def test_readme_python_api_example(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "13 0\n32\n"
