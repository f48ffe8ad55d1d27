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
