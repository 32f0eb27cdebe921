import ast
from pathlib import Path

import pytest

import redei

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "redei"


def test_package_has_no_assert():
    # an assert is stripped under python -O; invariants raise InvariantViolated
    modules = sorted(PACKAGE.rglob("*.py"))
    if not modules:
        pytest.fail(f"no modules under {PACKAGE}")
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail(f"assert statements in redei: {found}")


def test_exports_resolve():
    # a deleted name left in __all__ breaks "from redei import *"
    missing = [name for name in redei.__all__ if not hasattr(redei, name)]
    if missing:
        pytest.fail(f"redei.__all__ names what redei lacks: {missing}")
    twice = sorted({name for name in redei.__all__ if redei.__all__.count(name) > 1})
    if twice:
        pytest.fail(f"redei.__all__ lists {twice} more than once")


def test_symbol_imports_no_private_names():
    # symbol builds on the public API of conic and quadfield, not on their internals
    path = PACKAGE / "symbol.py"
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] in ("conic", "quadfield")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    if private:
        pytest.fail(f"symbol.py imports private names: {private}")
