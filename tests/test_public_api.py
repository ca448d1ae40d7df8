"""Every public module-level function and class of the package is used by
the package itself; a name that only tests call belongs in the tests."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dyngem"


def _is_command_callback(node):
    """Decorated with ``@<group>.command(...)``, ``@<group>.group(...)`` or
    ``@click.group(...)``: click calls it, not the package."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def test_every_public_name_is_used_by_package_code():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    public = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not _is_command_callback(node):
                    public[node.name] = module
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in public.items() if name not in used)
    assert not unused, "public names that no package code uses: " + ", ".join(unused)
