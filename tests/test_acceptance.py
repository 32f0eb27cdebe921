"""Acceptance suite: one test per criterion, each printing a PASS line with its
runtime (run with `pytest -s tests/test_acceptance.py` to see them live)."""

import itertools
import random
import time

from redei.arith import is_fundamental_discriminant, square_class
from redei.conic import ConicSolution, chord_points, is_solvable, solve
from redei.oracle import enumerate_classes, narrow_ranks
from redei.redeimatrix import (
    _primes_upto,
    build_R4,
    governing_r4_check,
    r2,
    r4,
    r8,
    ranks,
)
from redei.symbol import (
    _symbol_from_witness,
    is_valid_triple,
    minimally_ramified_witness,
    redei_symbol,
    twist_witness,
    twisting_group,
    verify_reciprocity,
    witness_from_solution,
)


def _report(name, t0, detail):
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - t0:.2f}s) {detail}")


def squarefree_values(bound):
    vals = [-1]
    for n in range(2, bound + 1):
        if square_class(n) == n:
            vals += [n, -n]
    return sorted(vals, key=abs)


def test_criterion_1_worked_example():
    """d = -205: ranks, the displayed R4, the R8 symbols, conic points, group shape."""
    t0 = time.monotonic()
    assert ranks(-205) == (2, 1, 0)
    m = build_R4(-820)
    assert m.row_labels == (-4, 5, 41) and m.col_labels == (2, 5, 41)
    assert m.as_lists() == [[1, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert redei_symbol(-20, 41, 5).value == -1
    assert redei_symbol(-20, 41, 41).value == -1
    for x, y, z in ((12, 1, 2), (17, 2, 3)):
        ConicSolution(x, y, z, -20, 41)  # raises for a point off the conic
    p = solve(-20, 41)
    assert [(q.x, q.y, q.z) for q in (p, *chord_points(p))] == [
        (7, 4, 3), (147, 2, 23), (252, 61, 58)
    ]
    group = enumerate_classes(-820)
    assert group.order == 8
    assert narrow_ranks(-820) == (2, 1, 0)  # order 8 + these ranks = Z/2 x Z/4
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"
    _report("1 (worked example -820)", t0, "exact match")


def test_criterion_2_reciprocity():
    """All orderings agree: exhaustive to 30 plus 500 seeded triples to 10^3."""
    t0 = time.monotonic()
    vals = squarefree_values(30)
    checked = 0
    for a, b, c in itertools.combinations(vals, 3):
        if not is_valid_triple(a, b, c):
            continue
        rep = verify_reciprocity(a, b, c)
        assert rep.consistent, (a, b, c, rep.values)
        checked += 1
    rng = random.Random(2024)
    found = 0
    while found < 500:
        a, b, c = (
            square_class(rng.randint(2, 1000) * rng.choice((1, -1))) for _ in range(3)
        )
        if len({a, b, c}) != 3 or 1 in (a, b, c):
            continue
        if not is_valid_triple(a, b, c):
            continue
        rep = verify_reciprocity(a, b, c)
        assert rep.consistent, (a, b, c, rep.values)
        found += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"reciprocity sweep took {elapsed:.1f}s"
    _report("2 (reciprocity)", t0, f"{checked} exhaustive + 500 random triples, 0 violations")


def test_criterion_3_choice_independence():
    """100 seeded triples, 3 distinct witnesses each: same symbol value."""
    t0 = time.monotonic()
    rng = random.Random(99)
    found = 0
    while found < 100:
        a, b, c = (
            square_class(rng.randint(2, 80) * rng.choice((1, -1))) for _ in range(3)
        )
        if len({a, b, c}) != 3 or 1 in (a, b, c):
            continue
        if not is_valid_triple(a, b, c):
            continue
        base = redei_symbol(a, b, c).value
        w = minimally_ramified_witness(a, b)
        witnesses = [witness_from_solution(a, b, s) for s in chord_points(w.solution)]
        witnesses += [twist_witness(w, t) for t in twisting_group(a, b).sample()[:2]]
        assert len(witnesses) >= 3
        for alt in witnesses:
            assert _symbol_from_witness(alt, c).value == base, (a, b, c, alt.twist)
        found += 1
    _report("3 (choice independence)", t0, "100 triples x >=3 witnesses, 0 violations")


def test_criterion_4_oracle_agreement():
    """(r2, r4, r8) equals the form-class-group ranks for all fundamental |D| <= 5000."""
    t0 = time.monotonic()
    checked = 0
    for D in range(-5000, 5001):
        if not is_fundamental_discriminant(D):
            continue
        assert (r2(D), r4(D), r8(D)) == narrow_ranks(D), D
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"oracle sweep took {elapsed:.1f}s"
    _report("4 (oracle agreement)", t0, f"{checked} fundamental discriminants, 0 mismatches")


def test_criterion_5_two_rank_formula():
    """r2 = t - 1 against the oracle on the same sweep."""
    t0 = time.monotonic()
    from redei.arith import signed_prime_decomposition

    checked = 0
    for D in range(-5000, 5001):
        if not is_fundamental_discriminant(D):
            continue
        assert narrow_ranks(D)[0] == signed_prime_decomposition(D).t - 1, D
        checked += 1
    _report("5 (r2 = t-1)", t0, f"{checked} discriminants, 0 mismatches")


def test_criterion_6_product_formula():
    """10^4 seeded pairs: the global Hilbert product is always +1."""
    t0 = time.monotonic()
    from redei.arith import hilbert_product

    rng = random.Random(6)
    done = 0
    while done < 10**4:
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        if a == 0 or b == 0:
            continue
        assert hilbert_product(a, b) == 1
        done += 1
    _report("6 (product formula)", t0, "10000 pairs, 0 violations")


def test_criterion_7_family_minus1_p_2():
    """[-1,p,2] = [-1,2,p] = [p,2,-1] for p = 1 mod 8 below 10^4; +1 iff r8(-4p) = 1."""
    t0 = time.monotonic()
    checked = 0
    for p in _primes_upto(10**4):
        if p % 8 != 1:
            continue
        v = redei_symbol(-1, p, 2).value
        assert redei_symbol(-1, 2, p).value == v, p
        assert redei_symbol(p, 2, -1).value == v, p
        assert (v == 1) == (narrow_ranks(-4 * p)[2] == 1), p
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"family sweep took {elapsed:.1f}s"
    _report("7 ([-1,p,2] family)", t0, f"{checked} primes, 0 violations")


def test_criterion_8_multiplicativity():
    """200 seeded instances of [a,b,c1][a,b,c2] = [a,b,c1c2]."""
    t0 = time.monotonic()
    rng = random.Random(7)
    found = 0
    while found < 200:
        a, b = (square_class(rng.randint(2, 300) * rng.choice((1, -1))) for _ in range(2))
        c1, c2 = (square_class(rng.randint(2, 300) * rng.choice((1, -1))) for _ in range(2))
        c3 = square_class(c1 * c2)
        if 1 in (a, b, c1, c2, c3) or a == b:
            continue
        if not all(is_valid_triple(a, b, c) for c in (c1, c2, c3)):
            continue
        v1, v2, v3 = (redei_symbol(a, b, c).value for c in (c1, c2, c3))
        assert v1 * v2 == v3, (a, b, c1, c2)
        found += 1
    _report("8 (multiplicativity)", t0, "200 instances, 0 violations")


def test_criterion_9_governing_consistency():
    """r4 constant on Frobenius classes of Omega(4,d) for the six standard d."""
    t0 = time.monotonic()
    for d in (-1, 2, -2, 3, -3, 5):
        rep = governing_r4_check(d, 2000)
        assert rep.ok, (d, rep.violations)
    _report("9 (governing r4)", t0, "d in {-1,2,-2,3,-3,5}, primes < 2000, 0 violations")
