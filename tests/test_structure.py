"""Structure guard: modules of the package use each other's public names.

An underscore name is private to the module that defines it; a module
that needs another module's helper should get it made public there.
"""

import ast
from pathlib import Path

import operadkit


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(Path(operadkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            package = (node.module or "").split(".")[0]
            if node.level == 0 and package != "operadkit":
                continue
            for alias in node.names:
                if _private(alias.name):
                    offenders.append(f"{path.name}:{node.lineno} imports "
                                     f"{node.module}.{alias.name}")
    assert offenders == []
