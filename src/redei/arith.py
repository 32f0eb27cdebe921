"""Exact integer arithmetic: factorization, square classes, Kronecker and Hilbert symbols.

Every value is an int: a square class of Q*/Q*^2 is its canonical
representative, a nonzero squarefree integer.  Each entry reads its arguments
through _integer, which takes an integral value of any type as its int and
raises InvariantViolated on anything else, so no argument is truncated.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod

from .errors import (
    FactorLimitExceeded,
    InvalidFactorBound,
    InvariantViolated,
    NotFundamental,
    ProductFormulaViolated,
    TrivialClass,
    ZeroInput,
)


class _Infinity:
    """The archimedean place of Q."""

    __slots__ = ()

    def __repr__(self):
        return "infinity"

    def __reduce__(self):
        # unpickles as the module's one instance, so "v is INFINITY" still holds
        return "INFINITY"


INFINITY = _Infinity()

# The hard cap on prime factors: factor() raises FactorLimitExceeded when n has
# two or more prime factors above it, counted with multiplicity. A returned
# prime is below its square or certified by Miller-Rabin below _MR_LIMIT.
DEFAULT_TRIAL_BOUND = 1 << 24

# trial division runs this far before the cofactor goes to Miller-Rabin and rho
TRIAL_LIMIT = 1 << 10

# the least prime above TRIAL_LIMIT; a cofactor from its square on is divided by
# the primes below TRIAL_LIMIT all at once, through one gcd with their product
_PAST_TRIAL = 1031

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # increments mod 30 starting from 7

# Miller-Rabin on the first k prime bases is exact below psi_k, the least strong
# pseudoprime to all of them (Jaeschke, Math. Comp. 61 (1993); OEIS A014233);
# psi_12 and psi_13 are from Sorenson and Webster, Math. Comp. 86 (2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_LIMIT = _MR_PSI[-1]

# rho's step budget on one cofactor, in units of isqrt(bound).  Rho finds a
# prime p in about 1.25 * sqrt(p) steps: within the budget it splits all but a
# rare tail of the cofactors with one prime above the bound, and decides the cap
# on products of two primes up to about (50 * sqrt(bound))**2, semiprimes of
# up to 21 digits at the default bound.  A cofactor it does not split is
# trial-divided up to the bound, about bound / 4 steps, so the budget sets only
# the time, never the answer; at the default bound it adds a tenth at most.
_RHO_STEPS = 64

# The one cache policy of the package.  A memo keyed on values that grow with a
# sweep (an integer, a discriminant, a pair of arguments) is bounded at
# CACHE_SIZE, so a long sweep runs in bounded memory.  arith holds one: the
# record memo _arg, keyed on the argument, through which every path reads an
# argument's square class and primes; factor keeps no memo.  The one table keyed
# on residues, quadfield._unit_squares (keyed on a basis mod 4), stays
# unbounded: it has at most a handful of entries.  The primes below TRIAL_LIMIT
# and their product (_small_primes) are a constant, built on first use.
# oracle.enumerate_classes keeps no memo: every path in the package reads a
# D's class group once.  The oracle's residue tables
# (oracle._LPP, _INV, _PRIMES and _SQRT) are keyed on A <= sqrt(|D|/3), not on
# D: they grow to the largest A asked for, so the oracle bound bounds them
# (about 55 KB at the default bound, 4 MB at 10**8, under 8 MB at any bound).
CACHE_SIZE = 4096


def _integer(q) -> int:
    """q as an int; InvariantViolated unless its value is an integer."""
    try:
        n = int(q)
        if n == q:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvariantViolated(f"{q!r} is not an integer")


# The bound factor() uses by default, read from REDEI_FACTOR_BOUND here, once per
# process, so every memo above factor answers under the bound factor applies.  A
# malformed value leaves the default in place and is kept in _bound_error, which
# cli.main reports as bad input before it runs a command.
trial_bound, _bound_error = DEFAULT_TRIAL_BOUND, None
if _env := os.environ.get("REDEI_FACTOR_BOUND"):
    try:
        trial_bound = int(_env)
    except ValueError:
        _bound_error = InvalidFactorBound(f"REDEI_FACTOR_BOUND={_env!r} is not an integer")


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first k prime bases, k least with n < psi_k: exact
    for odd n with 1 < n < _MR_LIMIT = psi_13."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def _rho(n: int, steps: int) -> tuple[int, int]:
    """(d, steps left): a proper divisor d of the odd composite n by Brent's
    variant of Pollard's rho, or d = 0 when the next round would pass steps
    iterations of the map."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps < 2 * r:
                return 0, 0
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps


def _split(m: int, steps: int) -> tuple[tuple[int, int], ...] | None:
    """(p, e) pairs, primes ascending, of an odd composite m < _MR_LIMIT, or None
    when rho spends steps iterations first."""
    primes, stack = [], [m]
    while stack:
        m = stack.pop()
        if _is_prime(m):
            primes.append(m)
        else:
            d, steps = _rho(m, steps)
            if not d:
                return None
            stack += (d, m // d)
    return tuple((p, primes.count(p)) for p in sorted(set(primes)))


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


_SMALL_PRIMES: list = []  # [the primes 7 <= p < TRIAL_LIMIT, their product], on first use


def _small_primes() -> list:
    if not _SMALL_PRIMES:
        primes = _primes_upto(TRIAL_LIMIT - 1)[3:]
        _SMALL_PRIMES[:] = primes, prod(primes)
    return _SMALL_PRIMES


def _strip(m: int, p: int, out: list) -> int:
    """m with every factor p divided out, its exponent appended to out as (p, e)."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    out.append((p, e))
    return m


def _factor_abs(m: int, bound: int) -> list[tuple[int, int]]:
    """(p, e) pairs, primes ascending, of m >= 1; see factor."""
    out = []
    for p in (2, 3, 5):
        if m % p == 0:
            m = _strip(m, p, out)
    c, i = 7, 0
    limit = min(bound, TRIAL_LIMIT)
    if limit == TRIAL_LIMIT and m >= _PAST_TRIAL * _PAST_TRIAL:
        primes, product = _small_primes()
        g = gcd(m, product)
        if g > 1:  # the primes below TRIAL_LIMIT that divide m, each once in g
            for p in primes:
                if p * p > g:
                    break
                if g % p == 0:
                    g //= p
                    m = _strip(m, p, out)
            if g > 1:
                m = _strip(m, g, out)
        c, i = _PAST_TRIAL, 1  # 1031 = 11 mod 30, the wheel's second residue
    while c * c <= m:
        if c > limit:
            # m has no prime factor below c: certify it prime, or split it with
            # rho and hold the primes found to the hard cap
            if m < _MR_LIMIT:
                if _is_prime(m):
                    break
                if c <= bound:
                    split = _split(m, _RHO_STEPS * isqrt(bound))
                    if split is not None:
                        above = [(p, e) for p, e in split if p > bound]
                        if sum(e for _, e in above) > 1:
                            # the cofactor trial division up to the bound leaves
                            raise _limit_exceeded(prod(p**e for p, e in above), bound)
                        return out + list(split)
            if c > bound:
                raise _limit_exceeded(m, bound)
            limit = bound  # rho ran out of steps: trial-divide up to the bound
        if m % c == 0:
            m = _strip(m, c, out)
        c += _WHEEL[i]
        i = (i + 1) % 8
    if m > 1:
        out.append((m, 1))
    return out


def _limit_exceeded(m: int, bound: int) -> FactorLimitExceeded:
    return FactorLimitExceeded(f"unfactored cofactor {m} exceeds certification bound {bound}**2")


def factor(n: int, bound: int | None = None) -> list[tuple[int, int]]:
    """Factor n != 0 into [(p, e), ...], primes ascending: sign(n) * prod(p**e) == n.

    The primes 2, 3 and 5 are divided out first, and the cofactor is
    trial-divided by the primes below TRIAL_LIMIT = 2**10: by a wheel mod 30
    while the cofactor is below 1031**2, and from there on by one gcd with
    their product.  A cofactor left over with no prime factor
    below 1031 is certified by Miller-Rabin on the first k prime bases, k least
    with the cofactor below psi_k (k = 5 near 10**12), exact below
    psi_13 = 3317044064679887385961981.  A composite cofactor below psi_13 is
    split by Brent's rho within a budget of steps proportional to sqrt(bound),
    and the hard cap below is applied to the primes found.  A cofactor that
    rho does not split within the budget, and any cofactor from psi_13 on, is
    trial-divided up to bound instead, so the answer never depends on the budget.

    bound (default trial_bound, from REDEI_FACTOR_BOUND) is a hard cap: raises
    FactorLimitExceeded whenever n has two or more prime factors above bound,
    counted with multiplicity, and whenever a cofactor above bound**2 cannot be
    certified prime.  Every prime returned is below bound**2 or certified by
    Miller-Rabin below psi_13.  Nothing is memoized here: the square classes
    and primes the package reads again come from the record memo _arg.
    """
    n = n if type(n) is int else _integer(n)
    if n == 0:
        raise ZeroInput("cannot factor 0")
    return _factor_abs(abs(n), trial_bound if bound is None else bound)


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factor(n)]


def square_class(q: int) -> int:
    """Canonical squarefree representative of the integer q in Q*/Q*^2."""
    return _arg(q if type(q) is int else _integer(q)).n


class _Arg:
    """A square class with its primes, read off one factorization.

    A plain slots class, not a tuple, because the validators read its fields in
    their inner loops; _arg shares each instance, so none is ever changed."""

    __slots__ = ("n", "negative", "even", "odd", "eps", "omega", "local")

    def __init__(self, n: int, negative: bool, even: int, odd: tuple[int, ...], eps: int, omega: int):
        self.n = n  # the squarefree class
        self.negative = negative
        self.even = even  # 1 iff 2 | n
        self.odd = odd  # the odd primes dividing n, ascending
        # epsilon and omega of the odd part n' = n / 2**even, read mod 8:
        # (n' - 1)/2 and (n'^2 - 1)/8, each mod 2
        self.eps = eps
        self.omega = omega
        # the class of n in R*/R*^2 x Q_2*/Q_2*^2, one of 16 codes: every
        # condition of a triple at infinity and at 2 reads only these bits
        self.local = negative << 3 | even << 2 | eps << 1 | omega


def _record(n: int, primes) -> _Arg:
    """The record of the squarefree n whose prime divisors, ascending, are primes."""
    even = 1 if primes and primes[0] == 2 else 0
    unit = (n >> even) % 8
    return _Arg(n, n < 0, even, tuple(primes[even:]), (unit >> 1) & 1, (unit * unit - 1) // 8 % 2)


@lru_cache(maxsize=CACHE_SIZE)
def _arg(q) -> _Arg:
    """The record of the square class of the integer q, memoized: q is factored
    once, under trial_bound, and square_class, the discriminant tests, the
    place check of hilbert and the symbol all read this one entry."""
    q = q if type(q) is int else _integer(q)
    if q == 0:
        raise ZeroInput("0 has no square class")
    primes = [p for p, e in _factor_abs(abs(q), trial_bound) if e & 1]
    n = prod(primes)
    return _record(-n if q < 0 else n, primes)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully extended to all integer n."""
    a = a if type(a) is int else _integer(a)
    n = n if type(n) is int else _integer(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    # Jacobi on odd positive n
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a mod an odd prime p (a a residue)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # find a non-residue
    n = 2
    while kronecker(n, p) != -1:
        n += 1
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    r = e
    while True:
        t, m = b, 0
        while t != 1:
            t = t * t % p
            m += 1
        if m == 0:
            return x
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m


def _hensel_lift(a: int, r: int, p: int, k: int) -> int:
    """The root of x^2 = a mod p**k that is r mod p, for a root r of a mod an odd
    prime p not dividing a: Newton steps mod p**k, each doubling the digits of r
    that are right."""
    q, digits = p**k, 1
    while digits < k:
        digits *= 2
        r = (r - (r * r - a) * pow(2 * r, -1, q)) % q
    return r


def discriminant(a: int) -> int:
    """Discriminant of Q(sqrt(a)) for a squarefree, a != 1."""
    a = a if type(a) is int else _integer(a)
    if a == 1:
        raise TrivialClass("the trivial square class has no quadratic field")
    return a if a % 4 == 1 else 4 * a


def is_fundamental_discriminant(D: int) -> bool:
    """True iff D != 1 is squarefree and 1 mod 4, or D = 4m with m squarefree
    and 2 or 3 mod 4: iff D, or m, is the square class of its own record."""
    D = D if type(D) is int else _integer(D)
    if D % 4 == 1:
        return D != 1 and _arg(D).n == D
    return D % 16 in (8, 12) and _arg(D // 4).n == D // 4


def _p_star(p: int) -> int:
    """The signed prime discriminant p* = (-1)^((p-1)/2) p of an odd prime p."""
    return p if p % 4 == 1 else -p


class SignedPrimeDecomposition(namedtuple("SignedPrimeDecomposition", "odd_parts two_part")):
    """D = two_part * prod(odd_parts), every odd part p* = (-1)^((p-1)/2) p.

    odd_parts is sorted by the underlying prime; two_part is 1, -4, 8 or -8.
    """

    __slots__ = ()

    @property
    def parts(self) -> tuple[int, ...]:
        if self.two_part == 1:
            return self.odd_parts
        return (self.two_part,) + self.odd_parts

    @property
    def t(self) -> int:
        return len(self.parts)


def signed_prime_decomposition(D: int) -> SignedPrimeDecomposition:
    """Factor a fundamental discriminant into signed prime discriminants."""
    D = D if type(D) is int else _integer(D)
    if not is_fundamental_discriminant(D):
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    odd = tuple(_p_star(p) for p in _arg(D if D & 1 else D // 4).odd)
    two_part = D // prod(odd)
    if two_part not in (1, -4, 8, -8):
        raise InvariantViolated(f"2-part {two_part} of {D}")
    return SignedPrimeDecomposition(odd_parts=odd, two_part=two_part)


def padic_val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    n = n if type(n) is int else _integer(n)
    p = p if type(p) is int else _integer(p)
    if p < 2:
        raise InvariantViolated(f"valuation at {p} < 2")
    if n == 0:
        raise ZeroInput("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def hilbert(a: int, b: int, v) -> int:
    """Hilbert symbol (a,b)_v: +1 iff x^2 - a y^2 - b z^2 = 0 has a nonzero Q_v-point.

    v is INFINITY or a prime; any other v raises InvariantViolated."""
    a = a if type(a) is int else _integer(a)
    b = b if type(b) is int else _integer(b)
    if a == 0 or b == 0:
        raise ZeroInput("Hilbert symbol needs nonzero arguments")
    if v is INFINITY:
        return -1 if a < 0 and b < 0 else 1
    p = v if type(v) is int else _integer(v)
    if p < 2 or p != 2 and _arg(p).odd != (p,):  # a prime is 2 or its record's one odd prime
        raise InvariantViolated(f"{v!r} is not a place of Q")
    alpha, beta = padic_val(a, p), padic_val(b, p)
    # a and b over even powers of p; at 2 as records, whose 2-adic fields alone are read
    if p == 2:
        u = _record(a >> alpha << (alpha & 1), (2,) * (alpha & 1))
        w = _record(b >> beta << (beta & 1), (2,) * (beta & 1))
        return -1 if _fails_at_2(u, w) else 1
    if not (alpha | beta) & 1:
        return 1
    return -1 if _fails_at_odd(a // p ** (alpha & ~1), b // p ** (beta & ~1), p) else 1


def _fails_at_2(u: _Arg, w: _Arg) -> int:
    """1 iff (u, w)_2 = -1, on the records of u and w (Serre, A Course in
    Arithmetic, III.1.2, Thm 1)."""
    return (u.eps & w.eps) ^ (u.even & w.omega) ^ (w.even & u.omega)


def _fails_at_odd(u: int, w: int, p: int) -> bool:
    """True iff (u, w)_p = -1, for an odd prime p dividing u or w, neither of them
    divisible by p**2.

    The symbol is the Legendre symbol at p of u, of w or of -(u/p)(w/p), which is
    prime to p, so Euler's criterion decides it."""
    if u % p:
        n = u
    elif w % p:
        n = w
    else:
        n = -(u // p) * (w // p)
    return pow(n, (p - 1) // 2, p) != 1


def hilbert_places(a: int, b: int) -> list:
    """Places where (a,b)_v may be nontrivial: infinity, 2 and odd p | ab.

    a and b are factored apart: their product can pass the factor cap where
    neither of them does."""
    ps = {2}
    for n in (a, b):
        ps.update(p for p, _ in factor(n))
    return [INFINITY] + sorted(ps)


def hilbert_product(a: int, b: int) -> int:
    """Product of (a,b)_v over all places; the global formula makes it +1."""
    if prod(hilbert(a, b, v) for v in hilbert_places(a, b)) != 1:
        raise ProductFormulaViolated(f"product formula failed for ({a}, {b})")
    return 1
