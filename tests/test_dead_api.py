"""Dead API: every module-level function, class and constant of
``src/schemreview`` is referenced somewhere in the program (``src/``,
``perfbench/`` or ``scripts/``) outside its own definition. A name that
only tests use is a test helper and lives under ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schemreview"
PROGRAM = [ROOT / "src", ROOT / "perfbench", ROOT / "scripts"]

# name -> why it stays although nothing in the program references it
ALLOWED = {
    "render_pstxnet": "the pstxnet round trip, parse(render(nets)), is an "
                      "acceptance criterion (08) that tests check against it",
}


def definitions(path: Path):
    """(name, first line, last line) of each module-level function, class
    and constant of the module at ``path``; dunder names are left out."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def references(tree: ast.AST):
    """(name, line) of each reference in ``tree``: a name read, an
    attribute, an imported name, or a string call argument that is an
    identifier (``getattr(module, "name")``, the probes' ``wrap`` calls)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Call):
            yield from ((arg.value, node.lineno) for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and arg.value.isidentifier())


def unreferenced() -> list[str]:
    used: dict[str, list[tuple[Path, int]]] = {}
    for root in PROGRAM:
        for path in sorted(root.rglob("*.py")):
            for name, line in references(ast.parse(path.read_text(encoding="utf-8"))):
                used.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in definitions(path):
            if not any(where != path or not first <= line <= last
                       for where, line in used.get(name, ())):
                dead.append(name)
    return dead


def test_every_module_level_name_is_used_by_the_program():
    assert sorted(set(unreferenced()) - ALLOWED.keys()) == []


def test_every_allowed_name_is_still_defined_and_unreferenced():
    assert ALLOWED.keys() <= set(unreferenced())
