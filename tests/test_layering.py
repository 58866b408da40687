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


def unread_flags(source):
    """The long options that ``_parser`` in a cli source adds and that no
    code reads as ``args.<dest>``."""
    tree = ast.parse(source)
    parser = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_parser")
    flags = [arg.value for node in ast.walk(parser)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
             for arg in node.args[:1]
             if isinstance(arg, ast.Constant) and arg.value.startswith("--")]
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    return [flag for flag in flags if flag[2:].replace("-", "_") not in read]


def test_every_flag_is_read():
    assert unread_flags((SRC / "cli.py").read_text()) == []


def test_flags_a_flag_read_only_through_getattr():
    source = ("def _parser():\n"
              "    p.add_argument('--spec')\n"
              "    p.add_argument('--max-depth', type=int)\n"
              "def main(args):\n"
              "    return args.spec, getattr(args, 'max_depth')\n")
    assert unread_flags(source) == ["--max-depth"]


def unread_fields(fields, sources):
    """The names of a {object: names} spec-field table that no source reads
    as a string literal outside the table's own assignment (docstrings do
    not count)."""
    literals = set()
    for source in sources:
        tree = ast.parse(source)
        skip = {id(node) for top in tree.body
                if isinstance(top, ast.Assign) and any(getattr(t, "id", "") == "FIELDS"
                                                       for t in top.targets)
                for node in ast.walk(top)}
        skip |= {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        literals |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                     and isinstance(node.value, str) and id(node) not in skip}
    names = sorted({name for names in fields.values() for name in names})
    return [name for name in names if name not in literals]


def test_every_spec_field_is_read():
    from halfplane.cli import FIELDS
    assert unread_fields(FIELDS, [p.read_text() for p in MODULES]) == []


def test_flags_a_field_no_code_reads():
    source = ('"""Reads "depth" only in this docstring."""\n'
              'FIELDS = {"cantor": ("interval", "depth")}\n'
              'def read(body):\n'
              '    return body.get("interval")\n')
    assert unread_fields({"cantor": ("interval", "depth")}, [source]) == ["depth"]
