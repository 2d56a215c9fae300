"""Source hygiene of src/semikernel, read with the stdlib ast module: every
import is used, and every private function or method is referenced.

A leftover import or a private helper whose last caller is gone fails here.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semikernel"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _names(node):
    """Every identifier that node's subtree reads: names and attribute names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert not unused, unused


def test_every_private_function_is_referenced():
    everywhere = Counter()
    for tree in TREES.values():
        everywhere += _names(tree)
    unreferenced = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # a reference from inside its own body (recursion) does not count
            if everywhere[name] - _names(node)[name] <= 0:
                unreferenced.append(f"{module}: {name}")
    assert not unreferenced, unreferenced


def test_every_stored_attribute_is_read():
    """Each attribute that src/semikernel stores is loaded somewhere in the
    source or the tests, or named by a string (a slot, a getattr)."""
    tests = Path(__file__).resolve().parent
    trees = list(TREES.values()) + [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(tests.glob("*.py"))]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    unread = sorted(
        f"{module}:{n.lineno}: .{n.attr}"
        for module, tree in TREES.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and n.attr not in read
    )
    assert not unread, unread
