import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redei
from redei.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(bound: str, *argv, script=None):
    """A fresh `python -m redei.cli argv` (or `python -c script`) started with
    REDEI_FACTOR_BOUND=bound, the only way to set the bound: it is read once per
    process, at import."""
    env = dict(os.environ, REDEI_FACTOR_BOUND=bound, PYTHONPATH=str(Path(redei.__file__).parents[1]))
    command = ["-c", script] if script else ["-m", "redei.cli", *argv]
    return subprocess.run(
        [sys.executable, *command], capture_output=True, text=True, env=env, timeout=60
    )


def test_symbol_worked_example(capsys):
    code, out, _ = run(capsys, "symbol", "-20", "41", "5")
    assert code == 0
    assert out.strip() == "-1"


def test_symbol_trivial(capsys):
    code, out, _ = run(capsys, "symbol", "1", "7", "11")
    assert code == 0
    assert out.strip() == "+1"


def test_symbol_invalid_exit_2(capsys):
    code, out, err = run(capsys, "symbol", "-1", "-1", "3")
    assert code == 2
    assert "infinity" in err


def test_symbol_invalid_stderr_bytes(capsys):
    # canonicalized to (-105, -42, -30): two shared primes, then Hilbert failures
    # at infinity, 2 and odd p, one line each, in validate_triple's order
    code, out, err = run(capsys, "symbol", "-420", "-168", "-30")
    assert (code, out) == (2, "")
    assert err == (
        "invalid triple: all three discriminants share the prime 2\n"
        "invalid triple: all three discriminants share the prime 3\n"
        "invalid triple: hilbert symbol (a,b) = (-105, -42) fails at infinity\n"
        "invalid triple: hilbert symbol (a,b) = (-105, -42) fails at 2\n"
        "invalid triple: hilbert symbol (a,b) = (-105, -42) fails at 3\n"
        "invalid triple: hilbert symbol (a,b) = (-105, -42) fails at 5\n"
        "invalid triple: hilbert symbol (a,c) = (-105, -30) fails at infinity\n"
        "invalid triple: hilbert symbol (a,c) = (-105, -30) fails at 7\n"
        "invalid triple: hilbert symbol (b,c) = (-42, -30) fails at infinity\n"
        "invalid triple: hilbert symbol (b,c) = (-42, -30) fails at 2\n"
        "invalid triple: hilbert symbol (b,c) = (-42, -30) fails at 5\n"
        "invalid triple: hilbert symbol (b,c) = (-42, -30) fails at 7\n"
    )


def test_symbol_degenerate_exit_3(capsys):
    # 45 reduces to 5, and (5, 5, 11) passes the Hilbert conditions
    code, _, err = run(capsys, "symbol", "5", "45", "11")
    assert code == 3


def test_symbol_trace_json(capsys):
    code, out, _ = run(capsys, "symbol", "-20", "41", "5", "--trace", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == 1
    assert rec["result"] == -1
    assert rec["canonical"] == {"a": -5, "b": 41, "c": 5}
    assert rec["trace"]["parts"] == {"5": -1}
    assert rec["trace"]["twist"] == 2


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "symbol", "-20", "41", "5", "--trace", "--json")
    _, out2, _ = run(capsys, "symbol", "-20", "41", "5", "--trace", "--json")
    assert out1 == out2


def test_ranks(capsys):
    code, out, _ = run(capsys, "ranks", "-205", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == {"r2": 2, "r4": 1, "r8": 0}
    assert rec["canonical"]["D"] == -820
    code, out, _ = run(capsys, "ranks", "-1", "--json")
    assert json.loads(out)["result"] == {"r2": 0, "r4": 0, "r8": 0}


def test_ranks_oracle(capsys):
    code, out, _ = run(capsys, "ranks", "-17", "--oracle", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["oracle"]["match"] is True


def test_ranks_factor_limit_exit_4():
    proc = run_process("100", "ranks", str(1009 * 1013))
    assert proc.returncode == 4
    assert "factorization limit" in proc.stderr


def test_malformed_factor_bound_exit_5():
    # read once, at import: the import keeps the default, and each command
    # reports bad input instead of a traceback
    imported = run_process("abc", script="import redei")
    assert imported.returncode == 0, imported.stderr
    proc = run_process("abc", "ranks", "5")
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == "bad input: REDEI_FACTOR_BOUND='abc' is not an integer\n"


def test_ranks_twenty_digits():
    proc = run_process(str(10**10), "ranks", str(9700000001 * 9900000001), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["r2"] == 1


SYMBOL_PAST_BOUND = ("symbol", "10403", "13", "17")  # 10403 = 101 * 103, two primes above 100


def test_factor_bound_read_once_per_process(capsys, monkeypatch):
    # the memos above factor (the symbol's records, the pair witnesses, R4) are
    # not keyed on the bound, so the bound cannot change within a process: a
    # variable set after import changes nothing, warm memos or cold
    from redei import redeimatrix, symbol

    warm = run(capsys, *SYMBOL_PAST_BOUND)
    assert warm == (0, "+1\n", "")
    monkeypatch.setenv("REDEI_FACTOR_BOUND", "100")
    assert run(capsys, *SYMBOL_PAST_BOUND) == warm
    for memo in (symbol._arg, symbol._pair_witnesses, redeimatrix.build_R4):
        memo.cache_clear()
    assert run(capsys, *SYMBOL_PAST_BOUND) == warm
    # a process started with the bound exits 4 on it, whatever ran before and
    # whatever the environment says by then
    script = (
        "import os\n"
        "from redei.cli import main\n"
        "codes = [main(['ranks', '-205']), main(['symbol', '-20', '41', '5'])]\n"
        f"codes.append(main({list(SYMBOL_PAST_BOUND)}))\n"
        "del os.environ['REDEI_FACTOR_BOUND']\n"
        f"codes.append(main({list(SYMBOL_PAST_BOUND)}))\n"
        "print(codes)\n"
    )
    proc = run_process("100", script=script)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 4, 4]", proc.stderr
    assert proc.stderr.count("factorization limit: unfactored cofactor 10403") == 2


def test_verify_product_formula(capsys):
    code, out, _ = run(capsys, "verify", "product-formula", "--max", "200", "--seed", "7", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == "ok"
    assert rec["checked"] == 200


def test_verify_reciprocity_small(capsys):
    code, out, _ = run(capsys, "verify", "reciprocity", "--max", "12", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "ok"


def test_verify_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--max", "400", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == "ok"


def test_verify_jobs_match(capsys):
    _, out1, _ = run(capsys, "verify", "oracle", "--max", "200", "--json")
    _, out2, _ = run(capsys, "verify", "oracle", "--max", "200", "--jobs", "2", "--json")
    assert out1 == out2


def test_verify_reciprocity_runs_in_bounded_memory(capsys):
    # the suite yields its triples of ~1.2 N entries one at a time: listed whole,
    # the 156 849 triples of --max 80 take about 12 MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "reciprocity", "--max", "80")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "reciprocity: 156849 items checked, 0 violations\n")
    assert peak < 3 * 2**20, f"peak {peak} bytes"


def test_verify_jobs_capped_at_cpu_count(capsys, monkeypatch):
    # --jobs N starts at most one worker per CPU, and the pool is fed in batches;
    # the pool here maps serially and records its size and the batches it is
    # handed, so no process starts
    import concurrent.futures

    from redei import cli

    pools, batches = [], []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            batches.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    argv = ("verify", "reciprocity", "--max", "30", "--json")
    expected = run(capsys, *argv)
    assert run(capsys, *argv, "--jobs", "100000") == expected
    assert run(capsys, *argv, "--jobs", "2") == expected
    assert pools == [3, 2]
    checked = json.loads(expected[1])["checked"]
    assert checked > cli._BATCH and max(batches) <= cli._BATCH
    assert sum(batches) == 2 * checked


def test_verify_twist_independence_small(capsys):
    code, out, _ = run(capsys, "verify", "twist-independence", "--max", "5", "--seed", "3", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "ok"


def test_verify_governing_small(capsys):
    code, out, _ = run(capsys, "verify", "governing", "--max", "300", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "ok"
    # a negative --max is bad input, as in the other suites
    assert run(capsys, "verify", "governing", "--max", "-5", "--json") == (
        5,
        "",
        "bad input: --max -5 is negative\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("symbol", "0", "2", "3"),
        ("ranks", "1"),
        ("ranks", "4"),
        ("ranks", "1000003", "--oracle"),
    ],
)
def test_bad_input_exit_5(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert err.startswith("bad input: ") and err.count("\n") == 1


def test_other_library_error_exit_6(capsys, monkeypatch):
    from redei import cli
    from redei.errors import SearchExhausted

    def fail(d):
        raise SearchExhausted("no point in the box")

    monkeypatch.setattr(cli, "ranks", fail)
    code, _, err = run(capsys, "ranks", "-205")
    assert code == 6
    assert err == "error: no point in the box\n"


def test_verify_product_formula_library_error_exits_4(capsys, monkeypatch):
    # only a failed product formula is a counterexample; a library error in
    # the sweep exits with its own code
    from redei import cli
    from redei.errors import FactorLimitExceeded

    def fail(a, b):
        raise FactorLimitExceeded("cofactor too large")

    monkeypatch.setattr(cli, "hilbert_product", fail)
    code, out, err = run(capsys, "verify", "product-formula", "--max", "3")
    assert (code, out) == (4, "")
    assert err == "factorization limit: cofactor too large\n"


def test_verify_product_formula_violation_exits_1(capsys, monkeypatch):
    from redei import cli
    from redei.errors import ProductFormulaViolated

    def fail(a, b):
        raise ProductFormulaViolated(f"product formula failed for ({a}, {b})")

    monkeypatch.setattr(cli, "hilbert_product", fail)
    code, out, _ = run(capsys, "verify", "product-formula", "--max", "3")
    assert code == 1
    assert out.startswith("product-formula: 3 items checked, 3 violations\n")


def test_verify_oracle_decomposes_each_discriminant_once(capsys, monkeypatch):
    from redei import arith, redeimatrix

    calls = []
    real = arith.signed_prime_decomposition

    def counted(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(arith, "signed_prime_decomposition", counted)
    monkeypatch.setattr(redeimatrix, "signed_prime_decomposition", counted)
    redeimatrix.build_R4.cache_clear()
    code, out, _ = run(capsys, "verify", "oracle", "--max", "20000", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["checked"] == 12160
    assert sorted(calls) == sorted(set(calls)) and len(calls) == rec["checked"]


@pytest.mark.parametrize(
    "argv", [("symbol", "x", "2", "3"), ("ranks",), ("verify", "nosuch")], ids=["x", "none", "suite"]
)
def test_usage_error_exit_5(capsys, argv):
    # argparse's own code, 2, is the code of an invalid triple
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: redei") and "error: " in err
    assert run(capsys, "symbol", "3", "3", "5")[0] == 2


def test_verify_bounds_checked_before_any_work(capsys, monkeypatch):
    from redei import arith

    calls = 0
    real = arith.is_fundamental_discriminant

    def counted(D):
        nonlocal calls
        calls += 1
        return real(D)

    monkeypatch.setattr(arith, "is_fundamental_discriminant", counted)
    code, out, err = run(capsys, "verify", "oracle", "--max", "2000000")
    assert (code, out, calls) == (5, "", 0)
    assert err == "bad input: --max 2000000 exceeds the oracle bound 1000000\n"
    code, out, err = run(capsys, "verify", "reciprocity", "--max", "-1")
    assert (code, out, err) == (5, "", "bad input: --max -1 is negative\n")


def test_verify_governing_bound_checked_before_any_sieve(capsys, monkeypatch):
    # governing sieves --max + 1 bytes: past its bound it is bad input, and
    # nothing is sieved
    from redei import cli, redeimatrix

    def sieve(n):
        pytest.fail(f"sieved {n}")

    monkeypatch.setattr(redeimatrix, "_primes_upto", sieve)
    for n in (cli.GOVERNING_BOUND + 1, 3 * 10**9):
        code, out, err = run(capsys, "verify", "governing", "--max", str(n))
        assert (code, out) == (5, "")
        assert err == f"bad input: --max {n} exceeds the governing bound 100000000\n"
    assert len(cli._governing_work(cli.GOVERNING_BOUND, 0)) == 6  # the bound itself is allowed


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_jobs_below_one_exit_5(capsys, jobs):
    # as a negative --max, a --jobs below 1 is bad input, not a serial run
    code, out, err = run(capsys, "verify", "reciprocity", "--max", "6", "--jobs", jobs)
    assert (code, out, err) == (5, "", f"bad input: --jobs {jobs} is below 1\n")


ENVELOPES = {
    "symbol": (("symbol", "-20", "41", "5"), {"inputs", "canonical", "result"}),
    "ranks": (("ranks", "-205"), {"inputs", "canonical", "result"}),
    "verify": (
        ("verify", "reciprocity", "--max", "6"),
        {"inputs", "checked", "violations", "result"},
    ),
}


@pytest.mark.parametrize("command", sorted(ENVELOPES))
def test_record_envelope(capsys, command):
    argv, keys = ENVELOPES[command]
    code, out, _ = run(capsys, *argv, "--json")
    rec = json.loads(out)
    assert code == 0
    assert set(rec) == keys | {"schema", "command"}
    assert (rec["schema"], rec["command"]) == (1, command)
    code, out, _ = run(capsys, *argv, "--json", "--timing")
    timed = json.loads(out)
    assert code == 0 and set(timed) == set(rec) | {"timing_ms"}
    assert isinstance(timed["timing_ms"], float) and timed["timing_ms"] >= 0


@pytest.mark.parametrize("command", sorted(ENVELOPES))
def test_timing_ends_the_text(capsys, command):
    # --timing adds one last "time: <ms> ms" line to the text; without it the
    # text has no such line
    argv, _ = ENVELOPES[command]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "time:" not in plain
    code, timed, _ = run(capsys, *argv, "--timing")
    assert code == 0
    head, _, last = timed.rstrip("\n").rpartition("\n")
    assert head + "\n" == plain
    value, unit = last.removeprefix("time: ").split(" ")
    assert last.startswith("time: ") and unit == "ms" and float(value) >= 0


@pytest.mark.parametrize(
    "suite, check", [("product-formula", "hilbert_product"), ("twist-independence", "verify_twist_independence")]
)
def test_sampled_suites_draw_their_work_lazily(capsys, monkeypatch, suite, check):
    # a huge --max starts checking at once: the draws are capped, so a suite that
    # drew its whole --max first would stop on the cap, never on its first check
    import random

    from redei import cli
    from redei.errors import SearchExhausted

    class CappedRandom(random.Random):
        draws = 0

        def randint(self, lo, hi):
            CappedRandom.draws += 1
            if CappedRandom.draws > 10_000:
                raise RuntimeError(f"{suite} drew 10 000 numbers before its first check")
            return super().randint(lo, hi)

    checked = []

    def first_checks(*item):
        checked.append(item)
        if len(checked) == 3:
            raise SearchExhausted("stop")
        return []

    monkeypatch.setattr(cli.random, "Random", CappedRandom)
    monkeypatch.setattr(cli, check, first_checks)
    code, _, err = run(capsys, "verify", suite, "--max", str(10**12), "--seed", "7")
    assert (code, err) == (6, "error: stop\n")
    # the same items in the same order as a small --max draws
    first = checked[:]
    checked.clear()
    assert run(capsys, "verify", suite, "--max", "3", "--seed", "7")[0] == 6
    assert checked == first


# mostly well-formed numbers, so that most command lines reach the library
ARGV_NUMBERS = st.one_of(
    st.integers(-40, 40).map(str),
    st.integers(-40, 40).map(str),
    st.integers(-40, 40).map(str),
    st.sampled_from(("x", "", "1.5", "0x10", "1e3", " 7", "--")),
)
ARGV_MAX = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(("x", "-", "2.0")))

ARGV = st.one_of(
    st.tuples(
        st.just("symbol"),
        ARGV_NUMBERS,
        ARGV_NUMBERS,
        ARGV_NUMBERS,
        st.lists(st.sampled_from(("--trace", "--json", "--timing")), unique=True),
    ),
    st.tuples(
        st.just("ranks"),
        ARGV_NUMBERS,
        st.lists(st.sampled_from(("--oracle", "--json", "--timing")), unique=True),
    ),
    st.tuples(
        st.just("verify"),
        st.sampled_from(("reciprocity", "oracle", "product-formula", "twist-independence", "governing")),
        st.tuples(st.just("--max"), ARGV_MAX),
        st.tuples(st.just("--jobs"), st.sampled_from(("-1", "0", "1"))),
        st.tuples(st.just("--seed"), ARGV_NUMBERS),
        st.lists(st.sampled_from(("--json", "--timing")), unique=True),
    ),
).map(lambda parts: [x for part in parts for x in ((part,) if isinstance(part, str) else part)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=ARGV)
def test_cli_contract(argv):
    # every command line ends in a documented exit code, never in a traceback,
    # and never in 1, the counterexample code; the numbers stay small and
    # --jobs stays at most 1, so no conic search runs long and no process starts
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    assert code in (0, 2, 3, 4, 5, 6), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


OPTIMIZE_PARITY = (
    ("symbol", "-20", "41", "5", "--trace", "--json"),
    ("symbol", "-1", "-1", "3"),
    ("ranks", "-205", "--oracle", "--json"),
    ("ranks", "1"),
    ("verify", "reciprocity", "--max", "12", "--json"),
    ("verify", "product-formula", "--max", "50", "--seed", "7", "--json"),
)


def test_cli_is_the_same_under_python_O():
    # python -O strips assert statements, so an invariant kept by one would
    # change an answer or an exit code: each command gives the same bytes and
    # the same exit code with and without it
    env = dict(os.environ, PYTHONPATH=str(Path(redei.__file__).parents[1]))
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("REDEI_FACTOR_BOUND", None)
    for argv in OPTIMIZE_PARITY:
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "redei.cli", *argv], capture_output=True, env=env, timeout=60
            )
            for flags in ((), ("-O",))
        )
        assert (optimized.stdout, optimized.stderr, optimized.returncode) == (
            plain.stdout,
            plain.stderr,
            plain.returncode,
        ), argv
        assert plain.stdout or plain.stderr, argv
