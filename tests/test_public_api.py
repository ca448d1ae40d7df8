"""Every public module-level function and class of the package, and every
public method and property of its classes, is used by the package itself;
a name that only tests call belongs in the tests."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dyngem"
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
    public = []  # (name, where)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not _is_command_callback(node):
                    public.append((node.name, f"{module}:{node.name}"))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        public.append((member.name, f"{module}:{node.name}.{member.name}"))
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(where for name, where in public if name not in used)
    assert not unused, "public names that no package code uses: " + ", ".join(unused)


def test_every_benchmark_trace_target_resolves():
    """The traced benchmark run wraps ``tracing.TARGETS`` by name and fails
    on a missing one; this catches a renamed or merged function in tier-1."""
    if not TRACING.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, *_ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, "trace targets that dyngem no longer has: " + ", ".join(missing)
