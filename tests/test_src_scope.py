"""Every top-level name in src/hardspheres is read by the program itself.

A name counts as read when a module of the package, a bench script (the
bench's own tests aside) or a demo loads it, as a bare name, an attribute
or an imported name, outside the statement that defines it.  A name only
tests read belongs in a test helper, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hardspheres"


def _readers():
    yield from sorted(SRC.glob("*.py"))
    yield from sorted(p for p in (ROOT / "bench").glob("*.py") if p.name != "test_bench.py")
    yield from sorted((ROOT / "demos").glob("*.py"))


def _reads(tree):
    """(name, line) of every name the module loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _definitions(tree):
    """(name, first line, last line) of every top-level function, class
    and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def unread_names() -> list:
    reads = {}  # name -> [(path, line)]
    for path in _readers():
        for name, line in _reads(ast.parse(path.read_text(), str(path))):
            reads.setdefault(name, []).append((path, line))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _definitions(ast.parse(path.read_text(), str(path))):
            outside = [
                (p, line)
                for p, line in reads.get(name, ())
                if p != path or not first <= line <= last
            ]
            if not outside:
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_src_name_is_read_by_the_program():
    assert unread_names() == []
