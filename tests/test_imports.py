"""Each module keeps its private names: no relative import of a _name, and no _name read off a
sibling module that `from . import module` bound (dunders are fine). The runtime is numpy only:
no scipy import anywhere in src/bincues, in a function or not; scipy comes with the test extra,
as the tests' oracle."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def private(name):
    return name.startswith("_") and not name.endswith("__")


def import_rule_breaks(package):
    """One 'path:line: problem' line per break of the import rules in the package's modules,
    each path relative to the repository root."""
    bad = []
    for path in sorted(package.glob("*.py")):
        where = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(where))
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level and not node.module
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                bad += [f"{where}:{node.lineno}: private name {alias.name}" for alias in node.names
                        if private(alias.name)]
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and private(node.attr)):
                bad.append(f"{where}:{node.lineno}: private name {node.value.id}.{node.attr}")
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                       else [])
            if any(m.split(".")[0] == "scipy" for m in modules):
                bad.append(f"{where}:{node.lineno}: scipy import; the runtime needs numpy only")
    return bad


def test_no_private_cross_module_import_and_no_scipy_import():
    bad = import_rule_breaks(ROOT / "src" / "bincues")
    assert not bad, "import rule broken:\n" + "\n".join(bad)
