"""Static checks on the package source, standing in for a linter."""
import ast
from pathlib import Path

import hamcount

SRC = Path(hamcount.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` and never read,
    in the code or in a string annotation."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        hint = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for text in ast.walk(hint) if hint else ():
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                read.update(name.id for name in ast.walk(ast.parse(text.value, mode="eval"))
                            if isinstance(name, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom typing import Iterator, Optional\n"
                          "x: 'Optional[int]' = os.sep\n") == ["Iterator (line 2)"]


def test_no_unused_module_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for a chain of names and attributes, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else ""
    return ""


def numpy_random_calls(source: str) -> list[str]:
    """Calls into ``numpy.random`` in ``source``: ``np.random.X(...)``,
    ``numpy.random.X(...)``, or a call of a name imported from it.  Naming a
    type in an annotation is not a call."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
                for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name.startswith(("np.random.", "numpy.random.")) or name.split(".")[0] in imported:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_numpy_random_calls_are_found():
    source = ("import numpy as np\nfrom numpy.random import PCG64 as P\n"
              "def f(rng: np.random.Generator) -> int:\n"
              "    return rng.integers(3) + np.random.default_rng(0).integers(3)\n"
              "g = np.random.Generator(P(1))\n")
    assert sorted(numpy_random_calls(source)) == [
        "P (line 5)", "np.random.Generator (line 5)", "np.random.default_rng (line 4)"]


def test_streams_are_made_in_rng_only():
    # rng.py is the one module that knows the generator and numpy's shuffle
    # order; the rest of the package asks it for generators and prefixes
    found = {path.name: numpy_random_calls(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "rng.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}
