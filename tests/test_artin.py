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
from redei.arith import square_class
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


# --- primes in [10^8, 10^9]: the roots of f mod p counted as deg gcd(f, X^p - X)


def is_prime(n):
    """Miller-Rabin on the bases 2, 3, 5, 7: deterministic below 3 215 031 751."""
    if n < 2 or any(n % q == 0 for q in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x not in (1, n - 1) and all(pow(x, 2**r, n) != n - 1 for r in range(1, s)):
            return False
    return True


def poly_rem(u, v, p):
    """u mod v in F_p[X]; polynomials as coefficient lists, lowest degree first."""
    u = [c % p for c in u]
    inv = pow(v[-1], -1, p)
    while u and u[-1] == 0 or len(u) >= len(v):
        if u[-1]:
            q, shift = u[-1] * inv % p, len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] = (u[shift + i] - q * c) % p
        u.pop()
    return u


def poly_mulmod(u, v, f, p):
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    return poly_rem(prod, f, p)


def distinct_root_count(f, p):
    """deg gcd(f, X^p - X) in F_p[X], the number of distinct roots of f mod p."""
    power, base = [1], [0, 1]
    for bit in bin(p)[2:]:
        power = poly_mulmod(power, power, f, p)
        if bit == "1":
            power = poly_mulmod(power, base, f, p)
    g = power + [0] * (2 - len(power))
    g[1] = (g[1] - 1) % p
    g = poly_rem(g, f, p)
    while g:
        f, g = g, poly_rem(f, g, p)
    return len(f) - 1


def quartic_mod_p(w, p):
    """f = X^4 - 2x X^2 + N(beta) mod p, or None when p divides y or N(beta)."""
    x, y = w.beta.x, w.beta.y
    norm = x * x - w.a * y * y
    if (y * norm) % p == 0:
        return None
    return [norm % p, 0, -2 * x % p, 0, 1]


def solvable_pairs(count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b = (rng.choice((1, -1)) * rng.randint(2, 1000) for _ in "ab")
        if 1 in {square_class(a), square_class(b)} or square_class(a * b) == 1:
            continue
        if is_solvable(a, b):
            pairs.append((a, b))
    return pairs


def test_root_count_by_gcd_matches_brute_force():
    for a, b in PAIRS:
        w = minimally_ramified_witness(a, b)
        for p in odd_primes_below(400):
            f = quartic_mod_p(w, p)
            if f is not None:
                brute = sum(sum(c * X**i for i, c in enumerate(f)) % p == 0 for X in range(p))
                assert distinct_root_count(f, p) == brute, (a, b, p)


def test_symbol_is_the_frobenius_at_large_primes():
    rng = random.Random(109)
    checked = plus = 0
    for a, b in solvable_pairs(12, 1009):
        w = minimally_ramified_witness(a, b)
        found = 0
        while found < 40:
            p = rng.randrange(10**8 + 1, 10**9, 2)
            if not is_prime(p) or (a * b) % p == 0 or not is_valid_triple(a, b, p):
                continue
            f = quartic_mod_p(w, p)
            if f is None:
                continue
            value = redei_symbol(a, b, p).value
            assert distinct_root_count(f, p) == (4 if value == 1 else 0), (a, b, p, value)
            found += 1
            plus += value == 1
        checked += found
    assert checked == 480 and 0 < plus < checked
