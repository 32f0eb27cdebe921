"""Command-line surface: symbol evaluation, rank computation, verification sweeps.

JSON output (--json) is versioned ("schema": 1) and byte-deterministic: identical
invocations produce identical bytes, so timing is only emitted on request: under
--timing, as "timing_ms" in the record or as a last "time: <ms> ms" line of the
text. Exit codes: 0 ok, 1 verification counterexample, 2 invalid triple,
3 degenerate arguments, 4 factorization limit, 5 bad input (a malformed command
line included), 6 any other library error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import lru_cache
from itertools import combinations, islice

from . import arith
from .arith import discriminant, hilbert_product, square_class
from .errors import (
    BoundExceeded,
    DegenerateSquareClass,
    FactorLimitExceeded,
    InvalidFactorBound,
    InvalidTriple,
    NotFundamental,
    NotSquarefree,
    ProductFormulaViolated,
    RedeiError,
    TrivialClass,
    ZeroInput,
)
from .oracle import DEFAULT_ORACLE_BOUND, narrow_ranks
from .redeimatrix import governing_r4_check, r2, r4, r8, ranks
from .symbol import is_valid_triple, redei_symbol, verify_reciprocity, verify_twist_independence

SCHEMA = 1

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_FACTOR_LIMIT = 4
EXIT_BAD_INPUT = 5
EXIT_ERROR = 6

# library error -> (exit code, stderr prefix); the first matching row wins
_EXITS = (
    (FactorLimitExceeded, EXIT_FACTOR_LIMIT, "factorization limit"),
    (DegenerateSquareClass, EXIT_DEGENERATE, "degenerate"),
    (InvalidTriple, EXIT_INVALID, "invalid triple"),
    (
        (
            ZeroInput,
            TrivialClass,
            NotSquarefree,
            NotFundamental,
            BoundExceeded,
            InvalidFactorBound,
        ),
        EXIT_BAD_INPUT,
        "bad input",
    ),
    (RedeiError, EXIT_ERROR, "error"),
)


def _emit(record: dict, as_json: bool, text: str):
    if as_json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


# Each command returns (record, text, exit code), and main adds the envelope:
# "schema", "command" and, under --timing, "timing_ms".
def cmd_symbol(args) -> tuple[dict, str, int]:
    trace = redei_symbol(args.a, args.b, args.c)
    record = {
        "inputs": {"a": args.a, "b": args.b, "c": args.c},
        "canonical": {"a": trace.a, "b": trace.b, "c": trace.c},
        "result": trace.value,
    }
    lines = [f"{trace.value:+d}"]
    if args.trace:
        record["trace"] = {
            "parts": {str(v): s for v, s in trace.parts.items()},
            "sides": {str(v): s for v, s in trace.sides.items()},
        }
        if trace.witness is not None:
            w = trace.witness
            record["trace"]["solution"] = [w.solution.x, w.solution.y, w.solution.z]
            record["trace"]["twist"] = w.twist
            record["trace"]["ram_case"] = w.ram_case
            lines.append(
                f"witness: solution {(w.solution.x, w.solution.y, w.solution.z)}"
                f" twist {w.twist} case {w.ram_case}"
            )
        for v in sorted(trace.parts, key=str):
            lines.append(f"part at {v}: {trace.parts[v]:+d}")
    return record, "\n".join(lines), EXIT_OK


def cmd_ranks(args) -> tuple[dict, str, int]:
    d = square_class(args.d)
    r = ranks(d)  # checks that d is not 1, so D is its field's discriminant
    D = discriminant(d)
    record = {
        "inputs": {"d": args.d},
        "canonical": {"d": d, "D": D},
        "result": {"r2": r[0], "r4": r[1], "r8": r[2]},
    }
    text = f"D = {D}: r2 = {r[0]}, r4 = {r[1]}, r8 = {r[2]}"
    if args.oracle:
        o = narrow_ranks(D)
        record["oracle"] = {"r2": o[0], "r4": o[1], "r8": o[2], "match": o == r}
        text += f"\noracle: r2 = {o[0]}, r4 = {o[1]}, r8 = {o[2]}"
        text += " (match)" if o == r else " (MISMATCH)"
        if o != r:
            return record, text, EXIT_COUNTEREXAMPLE
    return record, text, EXIT_OK


# --- verification sweeps ----------------------------------------------------
# A suite pairs work(size, seed), an iterable of the items it checks, with
# item(x), the counterexamples found at one item.


def _squarefree_values(bound: int) -> list[int]:
    out = []
    for n in range(2, bound + 1):
        if square_class(n) == n:
            out.extend([n, -n])
    out.append(-1)
    return sorted(out, key=abs)


def _reciprocity_work(max_entry: int, seed: int):
    return combinations(_squarefree_values(max_entry), 3)


def _reciprocity_item(triple) -> list:
    a, b, c = triple
    if not is_valid_triple(a, b, c):
        return []
    rep = verify_reciprocity(a, b, c)
    if not rep.consistent:
        return [(a, b, c, sorted(rep.values.items()))]
    return []


def _oracle_work(bound: int, seed: int):
    if bound > DEFAULT_ORACLE_BOUND:  # checked at the call, before any D is listed
        raise BoundExceeded(f"--max {bound} exceeds the oracle bound {DEFAULT_ORACLE_BOUND}")
    return (D for D in range(-bound, bound + 1) if arith.is_fundamental_discriminant(D))


def _oracle_item(D: int) -> list:
    mine = (r2(D), r4(D), r8(D))
    truth = narrow_ranks(D)
    if mine != truth:
        return [(D, mine, truth)]
    return []


def _product_work(count: int, seed: int):
    rng = random.Random(seed)
    while count > 0:
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        if a and b:
            count -= 1
            yield a, b


def _product_item(pair) -> list:
    a, b = pair
    try:
        hilbert_product(a, b)
        return []
    except ProductFormulaViolated:
        return [(a, b)]


TWIST_ENTRY_BOUND = 60  # twist-independence draws its entries with |n| <= this


def _random_valid_triples(count: int, seed: int):
    rng = random.Random(seed)
    while count > 0:
        a, b, c = (
            square_class(rng.randint(2, TWIST_ENTRY_BOUND) * rng.choice((1, -1))) for _ in range(3)
        )
        if len({a, b, c}) == 3 and 1 not in (a, b, c) and is_valid_triple(a, b, c):
            count -= 1
            yield a, b, c


def _twist_item(triple) -> list:
    return verify_twist_independence(*triple)


GOVERNING_BOUND = 10**8  # governing sieves a bytearray of --max + 1 bytes


def _governing_work(bound: int, seed: int) -> list:
    if bound > GOVERNING_BOUND:  # checked at the call, before any sieve is built
        raise BoundExceeded(f"--max {bound} exceeds the governing bound {GOVERNING_BOUND}")
    return [(d, bound) for d in (-1, 2, -2, 3, -3, 5)]


def _governing_item(job) -> list:
    return governing_r4_check(*job).violations


_SUITES = {
    "reciprocity": (_reciprocity_work, _reciprocity_item, 30),
    "oracle": (_oracle_work, _oracle_item, 2000),
    "product-formula": (_product_work, _product_item, 1000),
    "twist-independence": (_random_valid_triples, _twist_item, 50),
    "governing": (_governing_work, _governing_item, 2000),
}


_BATCH = 4096  # items handed to the pool at a time: Executor.map submits all it is given


def _map_jobs(fn, work, jobs):
    """fn of each item of work, in order, on at most one worker process per CPU."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(fn, work)
        return
    # imported here: the pool costs more to import than a one-shot command runs
    from concurrent.futures import ProcessPoolExecutor

    work = iter(work)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch := list(islice(work, _BATCH)):
            yield from pool.map(fn, batch, chunksize=max(1, len(batch) // (8 * jobs)))


def cmd_verify(args) -> tuple[dict, str, int]:
    work_of, item, default_max = _SUITES[args.suite]
    n = args.max if args.max is not None else default_max
    if n < 0:
        raise BoundExceeded(f"--max {n} is negative")
    if args.jobs < 1:
        raise BoundExceeded(f"--jobs {args.jobs} is below 1")
    checked, violations = 0, []
    for out in _map_jobs(item, work_of(n, args.seed), args.jobs):
        checked += 1
        violations += out
    violations.sort()
    record = {
        "inputs": {"suite": args.suite, "max": n, "seed": args.seed},
        "checked": checked,
        "violations": [list(map(str, v)) for v in violations],
        "result": "ok" if not violations else "fail",
    }
    text = f"{args.suite}: {checked} items checked, {len(violations)} violations"
    if violations:
        text += f"\nfirst counterexample: {violations[0]}"
    return record, text, EXIT_COUNTEREXAMPLE if violations else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 5, bad input, on a usage error, where argparse exits 2: an invalid triple."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redei",
        description="Redei symbols [a,b,c] and 2/4/8-ranks of narrow quadratic class groups.",
        epilog="Negative arguments parse directly (e.g. `redei symbol -20 41 5`); "
        "use `--` before them if an option ambiguity ever arises. "
        "REDEI_FACTOR_BOUND overrides the factoring bound, a hard cap: an argument "
        "with two or more prime factors above it exits 4. A prime above the bound's "
        "square is accepted only below 3.3e24, where Miller-Rabin certifies it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_symbol = sub.add_parser("symbol", help="evaluate the symbol [a, b, c]")
    p_symbol.add_argument("a", type=int)
    p_symbol.add_argument("b", type=int)
    p_symbol.add_argument("c", type=int)
    p_symbol.add_argument("--trace", action="store_true", help="print local parts and witness")
    p_symbol.set_defaults(fn=cmd_symbol)

    p_ranks = sub.add_parser("ranks", help="(r2, r4, r8) for squarefree d")
    p_ranks.add_argument("d", type=int)
    p_ranks.add_argument("--oracle", action="store_true", help="cross-check with the form oracle")
    p_ranks.set_defaults(fn=cmd_ranks)

    p_verify = sub.add_parser(
        "verify",
        help="run a verification sweep",
        epilog="reciprocity checks every triple of distinct entries from -1 and the "
        "squarefree +-n with 2 <= n <= --max, and ignores --seed. "
        "oracle checks every fundamental D with |D| <= --max. "
        "product-formula draws --max pairs with |a|, |b| <= 10^6 from --seed. "
        "twist-independence draws --max valid triples with "
        f"|n| <= {TWIST_ENTRY_BOUND} from --seed. "
        "governing sweeps the primes p <= --max for d in -1, 2, -2, 3, -3, 5, "
        f"and exits 5 on a --max above {GOVERNING_BOUND} before it sieves.",
    )
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("--max", type=int, default=None, help="sweep size / bound")
    p_verify.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per CPU"
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the sampled suites, product-formula and twist-independence",
    )
    p_verify.set_defaults(fn=cmd_verify)
    for p in (p_symbol, p_ranks, p_verify):
        p.add_argument("--json", action="store_true")
        p.add_argument("--timing", action="store_true")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: building costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if arith._bound_error:
            raise arith._bound_error
        t0 = time.monotonic()
        record, text, code = args.fn(args)
    except RedeiError as exc:
        code, prefix = next(row[1:] for row in _EXITS if isinstance(exc, row[0]))
        for line in exc.violations if isinstance(exc, InvalidTriple) else [exc]:
            print(f"{prefix}: {line}", file=sys.stderr)
        return code
    record = {"schema": SCHEMA, "command": args.command, **record}
    if args.timing:
        record["timing_ms"] = round(1000 * (time.monotonic() - t0), 3)
        text += f"\ntime: {record['timing_ms']} ms"
    _emit(record, args.json, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
