import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _private_imports(name: str, modules) -> list[str]:
    """The _-prefixed names that redei/<name> imports from the redei modules
    named in modules, or from any redei module when modules is None."""
    path = PACKAGE / name
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("redei"):
            continue
        if modules is not None and module.rpartition(".")[2] not in modules:
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_symbol_imports_no_private_names():
    # symbol builds on the public API of conic and quadfield, not on their internals,
    # and the CLI on the public API of every redei module
    private = _private_imports("symbol.py", ("conic", "quadfield"))
    if private:
        pytest.fail(f"symbol.py imports private names: {private}")
    private = _private_imports("cli.py", None)
    if private:
        pytest.fail(f"cli.py imports private names: {private}")


def test_cli_import_stays_light():
    # a one-shot command pays for every module redei.cli loads: the process pool
    # loads only under verify --jobs N > 1 (test_verify_jobs_match runs it), and
    # the records are built without dataclasses
    script = "import sys, redei.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "redei.cli" in loaded
    heavy = sorted(loaded & {"dataclasses", "concurrent.futures", "multiprocessing"})
    if heavy:
        pytest.fail(f"import redei.cli loads {heavy}")


def test_package_imports_no_rationals():
    # every value in redei is an int, read through arith._integer
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "fractions" for name in names):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    if found:
        pytest.fail(f"fractions imported in redei: {found}")
    script = "import sys, redei; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "redei" in loaded
    heavy = sorted(loaded & {"fractions", "decimal"})
    if heavy:
        pytest.fail(f"import redei loads {heavy}")


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.rglob("*.py"))}


def test_factor_bound_is_read_and_set_in_arith_alone():
    # the memos above factor are not keyed on the bound, so it is read once, at
    # arith's import, and no module sets it afterwards
    readers, setters = [], []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == "REDEI_FACTOR_BOUND":
                readers.append(f"{name}:{node.lineno}")
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Attribute) and t.attr == "trial_bound" for t in targets):
                setters.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Global) and "trial_bound" in node.names:
                setters.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Constant) and node.value == "trial_bound":  # setattr
                setters.append(f"{name}:{node.lineno}")
    assert [r.partition(":")[0] for r in readers] == ["arith"], readers
    assert not setters, f"trial_bound set in {setters}"


def test_one_place_per_formula():
    # p* = +-p is written once, in arith, and the second-kind decompositions are
    # built one way, as the rows of R8; their brute force is a test reference.
    # The oracle's roots mod 2A come from one CRT step, which the count of
    # h(D < 0) shares with the lister
    source = "".join(path.read_text() for path in sorted(PACKAGE.rglob("*.py")))
    assert source.count("p if p % 4 == 1 else -p") == 1
    assert (PACKAGE / "oracle.py").read_text().count("x + M * ((r - x) * inv % q)") == 1
    holders = [
        info.name
        for info in pkgutil.iter_modules(redei.__path__, "redei.")
        if hasattr(importlib.import_module(info.name), "second_kind_decompositions")
    ]
    assert not hasattr(redei, "second_kind_decompositions") and not holders, holders


def test_square_class_arithmetic_lives_in_arith():
    # the record of an argument, the 2-adic Hilbert test and the odd Hensel
    # lift are each defined once, in arith, whose Newton step is written once;
    # redeimatrix reads the records from arith and only the symbol from symbol
    names = ("_Arg", "_record", "_arg", "_fails_at_2", "_hensel_lift")
    defined = {name: [] for name in names}
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in defined:
                defined[node.name].append(module)
    assert defined == {name: ["arith"] for name in names}, defined
    source = "".join(path.read_text() for path in sorted(PACKAGE.rglob("*.py")))
    assert source.count("pow(2 * r, -1") == 1
    assert _private_imports("redeimatrix.py", ("symbol",)) == ["symbol._symbol"]


def test_one_class_group_constructor():
    # both signs build a ClassGroup from h and a function that streams the
    # classes; the D < 0 lister is a test helper, and a place's key is str
    modules = _modules()
    classes = [n for n in ast.walk(modules["oracle"]) if isinstance(n, ast.ClassDef)]
    group = next(n for n in classes if n.name == "ClassGroup")
    init = next(n for n in group.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    args = init.args
    assert [a.arg for a in args.args] == ["self", "D", "order", "forms", "canon"]
    assert [ast.literal_eval(d) for d in args.defaults] == [None]
    assert not (args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg)
    gone = [
        f"{module}:{node.lineno}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("_enumerate_definite", "_place_key")
    ]
    assert not gone, gone


def test_local_code_is_set_once():
    # the 2-adic Hilbert formula is written once, in arith._fails_at_2, and
    # the triple test's table is built through it; a record's local code is
    # set in _Arg.__init__ alone, so the table's index is the record's class
    source = "".join(path.read_text() for path in sorted(PACKAGE.rglob("*.py")))
    assert source.count("u.eps & w.eps") == 1
    modules = _modules()
    record = next(n for n in ast.walk(modules["arith"]) if isinstance(n, ast.ClassDef) and n.name == "_Arg")
    init = next(n for n in record.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    expected = {
        f"arith:{node.lineno}"
        for node in ast.walk(init)
        if isinstance(node, ast.Assign) and any(getattr(t, "attr", None) == "local" for t in node.targets)
    }
    found = set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Attribute) and t.attr == "local" for t in targets):
                found.add(f"{module}:{node.lineno}")
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setattr"
                and any(isinstance(a, ast.Constant) and a.value == "local" for a in node.args)
            ):
                found.add(f"{module}:{node.lineno}")
    assert len(expected) == 1 and found == expected, found


def test_one_factoring_route():
    # factor keeps no memo of its own: factor and the record memo arith._arg
    # are the only callers of _factor_abs, so every path that reads an
    # argument's square class or primes again reads one memoized record
    from redei import arith

    assert not hasattr(arith._factor_abs, "cache_info")
    callers = set()
    for module, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if getattr(func, "id", None) == "_factor_abs" or getattr(func, "attr", None) == "_factor_abs":
                    callers.add(f"{module}.{getattr(top, 'name', top.lineno)}")
    assert callers == {"arith.factor", "arith._arg"}, callers
