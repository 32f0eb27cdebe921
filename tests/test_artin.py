"""The symbol [a, b, p] at an odd prime p as a biquadratic Artin symbol,
checked against references that do not go through the local parts.

With w = minimally_ramified_witness(a, b) and beta = x + y*sqrt(w.a), the
field F = Q(sqrt a, sqrt b, sqrt beta) is the one the symbol reads, and
[a, b, p] is the Frobenius of p in F over Q(sqrt a, sqrt b).  The norm of
X^2 - beta is f(X) = X^4 - 2x X^2 + (x^2 - w.a y^2).  For a valid (a, b, p),
p splits in Q(sqrt a, sqrt b), and beta * conj(beta) = N(beta) lies in
w.b * Q*^2 with (w.b | p) = 1, so beta and its conjugate are both squares at
a prime above p or both not: f has 4 roots mod p when [a, b, p] = +1 and 0
when it is -1.
"""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from redei import is_solvable, minimally_ramified_witness, redei_symbol
from redei.symbol import is_valid_triple

# solvable pairs; (-20, 41) is the class of (-5, 41), so f must be read in the
# witness's classes, not in the raw arguments
PAIRS = [
    (-1, 2),
    (-5, 41),
    (-20, 41),
    (2, -1),
    (-1, 5),
    (13, -3),
    (-2, 17),
    (5, -11),
    (-7, 29),
    (17, -13),
    (6, -5),
]


def odd_primes_below(n):
    return [p for p in range(3, n, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def quartic_root_count(w, p):
    """Roots mod p of the norm of X^2 - beta, or None when p divides a
    denominator of beta or the numerator of N(beta)."""
    x, y = Fraction(w.beta.x), Fraction(w.beta.y)
    norm = x * x - w.a * y * y
    if (x.denominator * y.denominator) % p == 0 or norm.numerator % p == 0:
        return None
    xm = x.numerator * pow(x.denominator, -1, p) % p
    nm = norm.numerator * pow(norm.denominator, -1, p) % p
    return sum((X**4 - 2 * xm * X * X + nm) % p == 0 for X in range(p))


def test_symbol_is_the_frobenius_at_a_prime():
    primes = odd_primes_below(3000)
    checked = 0
    for a, b in PAIRS:
        assert is_solvable(a, b), (a, b)
        w = minimally_ramified_witness(a, b)
        for p in primes:
            if (a * b) % p == 0 or not is_valid_triple(a, b, p):
                continue
            count = quartic_root_count(w, p)
            if count is None:
                continue
            value = redei_symbol(a, b, p).value
            assert count == (4 if value == 1 else 0), (a, b, p, value, count)
            checked += 1
    assert checked > 500


def test_minus_one_two_p_follows_barrucand_cohn():
    # for p = 1 mod 8, [-1, 2, p] = +1 iff (-4)^((p-1)/8) = 1 mod p
    # (Barrucand and Cohn, J. reine angew. Math. 238 (1969)), in every order
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    primes = set()
    while len(primes) < 40:
        p = 8 * rng.randint(10**12 // 8, 10**13 // 8) + 1
        if sympy.isprime(p):
            primes.add(p)
    values = set()
    for p in sorted(primes):
        e = pow(-4, (p - 1) // 8, p)
        assert e in (1, p - 1), p
        expected = 1 if e == 1 else -1
        values.add(expected)
        for triple in itertools.permutations((-1, 2, p)):
            assert redei_symbol(*triple).value == expected, (triple, expected)
    assert values == {1, -1}


def test_minus_one_two_p_is_x2_plus_32y2():
    # the other side of Barrucand-Cohn: for p = 1 mod 8, [-1, 2, p] = +1 iff
    # p = x^2 + 32 y^2, by brute force below 2 * 10^4
    for p in odd_primes_below(20000):
        if p % 8 != 1:
            continue
        rests = [p - 32 * y * y for y in range(isqrt(p // 32) + 1)]
        represented = any(isqrt(r) ** 2 == r for r in rests)
        assert redei_symbol(-1, 2, p).value == (1 if represented else -1), p
