"""Every public library name has a reader outside the tests.

A public top-level function or class of ``src/urglab`` must be referenced
(as an AST name, attribute or import, never a docstring) elsewhere in
``src/urglab`` outside its own definition, or in ``scripts/`` or
``perfbench/``.  The only exceptions are the names in ``KEPT``, each with
the reason it stays; a ``KEPT`` name that gains a reader leaves the list.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "urglab"

KEPT = {
    "balls.ball": "the tests' locality reference; perfbench's tracer wraps it as the balls.ball span",
    "cli.validate": "the library's validation entry point: run() without running",
    "graphs.window_to_json": "writes the window-file format that the window-file model reads",
    "palm.pp_cost_bound": "the point-process cost composition, for the exact periodic Delaunay graph",
}


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name, attribute or imported name occurs in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def unread_names() -> set[str]:
    """``module.name`` of each public top-level function or class without a reader."""
    package = sorted(PACKAGE.glob("*.py"))
    outside = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + outside}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unread = set()
    for path in package:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                # a name used only inside its own definition has no reader
                if everywhere[node.name] == referenced_names(node)[node.name]:
                    unread.add(f"{path.stem}.{node.name}")
    return unread


def test_every_public_name_has_a_reader():
    unread = unread_names()
    orphans, read = sorted(unread - set(KEPT)), sorted(set(KEPT) - unread)
    assert not orphans, f"no reader outside the tests (delete them or add them to KEPT): {orphans}"
    assert not read, f"these KEPT names have a reader now (drop them from KEPT): {read}"
