"""Module boundaries inside the package: no module imports another
module's private (_-prefixed) names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "halfplane"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(source, filename="<string>"):
    """(line, module, name) of every import of a _-prefixed name from a
    halfplane module, at any depth, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "halfplane":
            continue
        found.extend((node.lineno, node.module, alias.name)
                     for alias in node.names if alias.name.startswith("_"))
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"extreal.py", "factor.py", "interp.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text(), str(path)) == []


def test_flags_private_import_in_function_body():
    source = ("from .extreal import INF\n"
              "def f():\n"
              "    from .factor import _omega_samples\n"
              "    from halfplane.krein import _hyp, p_eval\n")
    assert private_imports(source) == [(3, "factor", "_omega_samples"),
                                       (4, "halfplane.krein", "_hyp")]
