import ast
from pathlib import Path

import pytest

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
