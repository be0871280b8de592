"""Source hygiene: no dead names in the qlc sources.

Every name a qlc module imports is used in that module; the package's
__init__.py is skipped, because its imports are re-exports.  Names inside
string annotations count as used.

Every private function (module level) and private method is referenced
somewhere in the package besides its own definition.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qlc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict:
    """Bound name -> line of the import that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_string_annotations_count_as_used():
    tree = ast.parse("from m import A, B\ndef f(x: 'A') -> 'list[B]': pass\n")
    assert {"A", "B"} <= _used(tree)


def _private_defs(tree) -> list:
    """(name, line) of each private module-level function and private method;
    dunder names are public protocol, not private."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    defs = []
    for node in tree.body:
        bodies = node.body if isinstance(node, ast.ClassDef) else [node]
        defs += [(d.name, d.lineno) for d in bodies
                 if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and private(d.name)]
    return defs


def _references(tree) -> set:
    """Names read or written anywhere, attribute names included."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_no_orphaned_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    orphans = sorted(f"{name}.{fn} (line {line})" for name, tree in trees.items()
                     for fn, line in _private_defs(tree) if fn not in refs)
    assert not orphans, f"private helpers nothing calls: {orphans}"


def test_orphan_scan_sees_functions_and_methods():
    tree = ast.parse("def _used(): pass\ndef _dead(): pass\n"
                     "class C:\n    def _gone(self): pass\n    def __init__(self): pass\n"
                     "_used()\n")
    assert _private_defs(tree) == [("_used", 1), ("_dead", 2), ("_gone", 4)]
    assert {name for name, _l in _private_defs(tree)} - _references(tree) \
        == {"_dead", "_gone"}
