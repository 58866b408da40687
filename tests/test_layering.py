"""Module boundaries inside the package: no module imports another
module's private (_-prefixed) names, and each module-level private name
has a reader."""

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


def unread_private_names(sources):
    """(module, name) of every module-level _-prefixed function, class or
    constant of the {module: source} map that no code reads: neither a name
    in its own module (private names do not cross modules) nor an attribute
    anywhere."""
    trees = {mod: ast.parse(source, mod) for mod, source in sources.items()}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    found = []
    for mod, tree in trees.items():
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found.extend((mod, name) for name in names if name.startswith("_")
                         and not name.endswith("__") and name not in loads | attrs)
    return found


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_flags_an_unread_private_name():
    source = ("_USED, _UNUSED = 1.0, 2.0\n"
              "__all__ = ['f']\n"
              "def _helper():\n"
              "    return _USED\n"
              "def _orphan():\n"
              "    return _helper()\n"
              "class _Kept:\n"
              "    pass\n"
              "def f():\n"
              "    return x._Kept\n")
    assert unread_private_names({"m.py": source}) == [("m.py", "_UNUSED"), ("m.py", "_orphan")]
