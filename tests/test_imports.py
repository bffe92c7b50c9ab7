"""Imports: every name a poalab module imports is read there, and `import poalab` stays light."""

import ast
import pathlib
import subprocess
import sys

import poalab

from conftest import child_env


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads.

    ``__future__`` imports and names on a line marked ``# noqa: F401`` are
    exempt, and so is a name listed in the module's ``__all__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_reads():
    src = pathlib.Path(poalab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        found += [f"{path.name}:{line} {name}"
                  for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, f"unused imports: {found}"


def test_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from math import (\n"
              "    inf,\n"
              "    pi,  # noqa: F401\n"
              "    tau as full_turn,\n"
              ")\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "x = os.sep + str(inf)\n")
    assert unused_imports(source) == [(6, "full_turn")]


def test_import_leaves_scipy_quadrature_unloaded():
    # only the MonomialLog potential integrates, so importing poalab stays cheap
    code = "import sys, poalab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), check=True).stdout
    assert out.strip() == "False"
