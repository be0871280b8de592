"""Source hygiene: no dead names in the qlc sources.

Every name a qlc module imports is used in that module; the package's
__init__.py is skipped, because its imports are re-exports.  Names inside
string annotations count as used.

Every private function (module level) and private method is referenced
somewhere in the package besides its own definition.

Every public module-level function is exported by the package's __init__.py
or referenced somewhere in the package, its tests or the benchmark; a name
inside a string counts, because bench/tracer.py names the functions it wraps
as strings.

Only the Groebner kernel takes a monomial order: every function or method
with a parameter named order is one of KERNEL_ORDER_TAKERS, so the option
cannot creep back into the ideal, quotient or DSL layers, which work in
grevlex.

The sources have no runtime dependency: every absolute import names a
top-level module of the standard library (sys.stdlib_module_names, Python
3.10+).
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qlc"
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


def _public_defs(tree) -> list:
    """(name, line) of each public module-level function."""
    return [(d.name, d.lineno) for d in tree.body
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not d.name.startswith("_")]


def _string_names(tree) -> set:
    """Dotted parts of every string constant: "Poly.mul" names Poly and mul."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def _unreferenced_public(defining: dict, referrers, exported: set) -> list:
    """Public functions of the defining trees that no referrer names and
    the package does not export."""
    refs = set().union(*(_references(t) | _string_names(t) for t in referrers))
    return sorted(f"{name}.{fn} (line {line})" for name, tree in defining.items()
                  for fn, line in _public_defs(tree)
                  if fn not in refs and fn not in exported)


def test_no_unreferenced_public_functions():
    defining = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py")) \
        + sorted((ROOT / "bench").rglob("*.py"))
    referrers = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    exported = set(_imported(ast.parse((SRC / "__init__.py").read_text())))
    dead = _unreferenced_public(defining, referrers, exported)
    assert not dead, f"public functions nothing references or exports: {dead}"


def test_public_scan_sees_calls_strings_and_exports():
    defining = {"m.py": ast.parse("def called(): pass\ndef wrapped(): pass\n"
                                  "def exported(): pass\ndef dead(): pass\n"
                                  "def _private(): pass\nclass C:\n"
                                  "    def method(self): pass\n")}
    assert _public_defs(defining["m.py"]) == [("called", 1), ("wrapped", 2),
                                              ("exported", 3), ("dead", 4)]
    referrers = [ast.parse("called()\nTARGETS = [('qlc.m', 'wrapped', 'g')]\n")]
    assert _unreferenced_public(defining, referrers, {"exported"}) == ["m.py.dead (line 4)"]


KERNEL_ORDER_TAKERS = {
    "groebner.py:_heap_of", "groebner.py:_reduce_terms", "groebner.py:_reduce",
    "groebner.py:buchberger", "groebner.py:_reduce_basis",
    "poly.py:Polynomial.prepared", "poly.py:Polynomial.leading",
    "poly.py:Polynomial.monic",
}


def _order_takers(node, prefix="") -> set:
    """Qualified names (Class.method, outer.inner) of the functions and
    methods under node, at any depth, with a parameter named order."""
    found = set()
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{prefix}{child.name}."
            if not isinstance(child, ast.ClassDef):
                args = child.args
                if "order" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                    found.add(inner[:-1])
        found |= _order_takers(child, inner)
    return found


def test_only_the_groebner_kernel_takes_a_monomial_order():
    takers = {f"{p.name}:{name}" for p in sorted(SRC.glob("*.py"))
              for name in _order_takers(ast.parse(p.read_text(), filename=str(p)))}
    assert takers == KERNEL_ORDER_TAKERS


def test_order_scan_sees_functions_methods_and_nested_defs():
    tree = ast.parse("def f(x, order=None): pass\ndef g(x): pass\n"
                     "class C:\n    def m(self, *, order): pass\n"
                     "    def n(self):\n        if True:\n"
                     "            def inner(order): pass\n")
    assert _order_takers(tree) == {"f", "C.m", "C.n.inner"}


def _non_stdlib_imports(tree) -> list:
    """Top-level module names of the absolute imports under tree that the
    standard library does not provide."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


def test_sources_import_the_standard_library_only():
    found = {p.name: _non_stdlib_imports(ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(SRC.glob("*.py"))}
    assert not {name: mods for name, mods in found.items() if mods}, found


def test_stdlib_scan_flags_a_third_party_import():
    tree = ast.parse("import sympy\nimport os.path\nfrom __future__ import annotations\n"
                     "from collections import deque\nfrom . import dsl\n")
    assert _non_stdlib_imports(tree) == ["sympy"]
