"""Command-line surface: symbol evaluation, rank computation, verification sweeps.

JSON output (--json) is versioned ("schema": 1) and byte-deterministic: identical
invocations produce identical bytes, so timing is only emitted on request
(--timing) or in the human-readable text. Exit codes: 0 ok, 1 verification
counterexample, 2 invalid triple, 3 degenerate arguments, 4 factorization limit,
5 bad input, 6 any other library error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import combinations

from . import arith
from .arith import INFINITY, hilbert_product, square_class
from .conic import enumerate_solutions
from .errors import (
    BoundExceeded,
    DegenerateSquareClass,
    FactorLimitExceeded,
    InvalidFactorBound,
    InvalidTriple,
    NotFundamental,
    NotSquarefree,
    RedeiError,
    TrivialClass,
    ZeroInput,
)
from .oracle import narrow_ranks
from .redeimatrix import fundamental_discriminant, governing_r4_check, r2, r4, r8, ranks
from .symbol import (
    _symbol_from_witness,
    is_valid_triple,
    minimally_ramified_witness,
    redei_symbol,
    twist_witness,
    twisting_group,
    verify_reciprocity,
    witness_from_solution,
)

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


def _place_key(v) -> str:
    return "infinity" if v is INFINITY else str(v)


def cmd_symbol(args) -> int:
    t0 = time.monotonic()
    trace = redei_symbol(args.a, args.b, args.c)
    record = {
        "schema": SCHEMA,
        "command": "symbol",
        "inputs": {"a": args.a, "b": args.b, "c": args.c},
        "canonical": {"a": trace.a, "b": trace.b, "c": trace.c},
        "result": trace.value,
    }
    lines = [f"{trace.value:+d}"]
    if args.trace:
        record["trace"] = {
            "parts": {_place_key(v): s for v, s in trace.parts.items()},
            "sides": {_place_key(v): s for v, s in trace.sides.items()},
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
        for v in sorted(trace.parts, key=_place_key):
            lines.append(f"part at {_place_key(v)}: {trace.parts[v]:+d}")
    if args.timing:
        record["timing_ms"] = round(1000 * (time.monotonic() - t0), 3)
    _emit(record, args.json, "\n".join(lines))
    return EXIT_OK


def cmd_ranks(args) -> int:
    t0 = time.monotonic()
    d = square_class(args.d)
    D = fundamental_discriminant(d)
    r = ranks(d)
    record = {
        "schema": SCHEMA,
        "command": "ranks",
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
    if args.timing:
        record["timing_ms"] = round(1000 * (time.monotonic() - t0), 3)
    _emit(record, args.json, text)
    if args.oracle and not record["oracle"]["match"]:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# --- verification sweeps ----------------------------------------------------
# A suite pairs work(size, seed), the list of items it checks, with item(x),
# the counterexamples found at one item.


def _squarefree_values(bound: int) -> list[int]:
    out = []
    for n in range(2, bound + 1):
        if square_class(n) == n:
            out.extend([n, -n])
    out.append(-1)
    return sorted(out, key=abs)


def _reciprocity_work(max_entry: int, seed: int) -> list:
    return list(combinations(_squarefree_values(max_entry), 3))


def _reciprocity_item(triple) -> list:
    a, b, c = triple
    if not is_valid_triple(a, b, c):
        return []
    rep = verify_reciprocity(a, b, c)
    if not rep.consistent:
        return [(a, b, c, sorted(rep.values.items()))]
    return []


def _oracle_work(bound: int, seed: int) -> list:
    return [D for D in range(-bound, bound + 1) if arith.is_fundamental_discriminant(D)]


def _oracle_item(D: int) -> list:
    mine = (r2(D), r4(D), r8(D))
    truth = narrow_ranks(D)
    if mine != truth:
        return [(D, mine, truth)]
    return []


def _product_work(count: int, seed: int) -> list:
    rng = random.Random(seed)
    work = []
    while len(work) < count:
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        if a and b:
            work.append((a, b))
    return work


def _product_item(pair) -> list:
    a, b = pair
    try:
        hilbert_product(a, b)
        return []
    except RedeiError:
        return [(a, b)]


def _random_valid_triples(count: int, seed: int, entry_bound: int = 60):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        a, b, c = (square_class(rng.randint(2, entry_bound) * rng.choice((1, -1))) for _ in range(3))
        if len({a, b, c}) != 3 or 1 in (a, b, c):
            continue
        if not is_valid_triple(a, b, c):
            continue
        found.append((a, b, c))
    return found


def _twist_item(triple) -> list:
    a, b, c = triple
    base = redei_symbol(a, b, c).value
    w = minimally_ramified_witness(a, b)
    alternates = []
    for sol in enumerate_solutions(a, b, 3)[1:]:
        alternates.append(witness_from_solution(a, b, sol))
    for t in twisting_group(a, b).sample()[:2]:
        alternates.append(twist_witness(w, t))
    bad = []
    for alt in alternates:
        value = _symbol_from_witness(alt, c).value
        if value != base:
            bad.append((a, b, c, base, value))
    return bad


def _governing_work(bound: int, seed: int) -> list:
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


def _map_jobs(fn, work, jobs):
    if jobs <= 1:
        for item in work:
            yield fn(item)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, work, chunksize=max(1, len(work) // (8 * jobs)))


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    work_of, item, default_max = _SUITES[args.suite]
    n = args.max if args.max is not None else default_max
    work = work_of(n, args.seed)
    checked = len(work)
    violations = sorted(v for out in _map_jobs(item, work, args.jobs) for v in out)
    record = {
        "schema": SCHEMA,
        "command": "verify",
        "inputs": {"suite": args.suite, "max": n, "seed": args.seed},
        "checked": checked,
        "violations": [list(map(str, v)) if isinstance(v, tuple) else v for v in violations],
        "result": "ok" if not violations else "fail",
    }
    if args.timing:
        record["timing_ms"] = round(1000 * (time.monotonic() - t0), 3)
    text = f"{args.suite}: {checked} items checked, {len(violations)} violations"
    if violations:
        text += f"\nfirst counterexample: {violations[0]}"
    _emit(record, args.json, text)
    return EXIT_COUNTEREXAMPLE if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_symbol.add_argument("--json", action="store_true")
    p_symbol.add_argument("--timing", action="store_true")
    p_symbol.set_defaults(fn=cmd_symbol)

    p_ranks = sub.add_parser("ranks", help="(r2, r4, r8) for squarefree d")
    p_ranks.add_argument("d", type=int)
    p_ranks.add_argument("--oracle", action="store_true", help="cross-check with the form oracle")
    p_ranks.add_argument("--json", action="store_true")
    p_ranks.add_argument("--timing", action="store_true")
    p_ranks.set_defaults(fn=cmd_ranks)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("--max", type=int, default=None, help="sweep size / bound")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--timing", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: building costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    saved = arith.trial_bound
    try:
        arith.trial_bound = arith._trial_bound()
        return args.fn(args)
    except RedeiError as exc:
        code, prefix = next(row[1:] for row in _EXITS if isinstance(exc, row[0]))
        for line in exc.violations if isinstance(exc, InvalidTriple) else [exc]:
            print(f"{prefix}: {line}", file=sys.stderr)
        return code
    finally:
        arith.trial_bound = saved


if __name__ == "__main__":
    sys.exit(main())
