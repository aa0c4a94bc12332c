"""Every top-level function, class, method and property of the package is used.

A definition counts as used when its name appears, outside its own body,
as a name, an attribute or a string constant (whole, or as one part of a
dotted path such as "HPoly.eval_many") in the package, the tests, the
scripts or the benchmark.  Dunder methods are called by Python itself and
are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "valentiner"
SEARCHED = ("src", "tests", "scripts", "perfbench")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, _DEFS))


def _references(tree):
    """(name, line) for every name, attribute and string-constant reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                for p in parts:
                    yield p, node.lineno


def test_no_unreferenced_definitions():
    refs = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text())):
                refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(ast.parse(path.read_text())):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            outside = [(p, ln) for p, ln in refs.get(node.name, [])
                       if p != path or not node.lineno <= ln <= node.end_lineno]
            if not outside:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
