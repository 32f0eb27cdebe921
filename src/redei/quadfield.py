"""Exact arithmetic in quadratic fields Q(sqrt(a)): elements, their valuations
and unit parts at the two primes above a split p, and the two dyadic tests
that pick the minimally ramified twist.

Conventions.  For odd radicands the maximal order Z[(1+sqrt a)/2] is used where
2-splitting matters; for even discriminants everything happens in Z[sqrt a].
The primes above a split p send sqrt a to the two p-adic roots r and -r of a.
The canonical one is that of the root with the smaller residue mod p, or of
the root that is 1 mod 4 at p = 2, where the two roots first differ.

split_units gives the valuation and the unit part of an element at both primes
above a split p, canonical first, with no p-adic precision to raise: for m the
p-content of beta, at most one of the two embeddings of beta / p^m is a
non-unit, and the norm gives that one's valuation and unit.  So a unit wanted
mod p^d reads the root mod p^d, a Hensel lift computed on each call, and at
p = 2 mod 2^(d+1), which fixes (1 + sqrt a)/2 mod 2^d.  Which prime above p a
local part is read at is decided from that pair.

Where 2 is inert or ramified, both dyadic tests divide beta by squares of K*
down to a 2-unit of O and read that unit's class: unramified_at_two asks
whether it is a square mod 4O, looked up in the one table _unit_squares, and
conductor_two_at_two whether it is +-1 mod 2O.

Element coordinates have one normal form: an int when the coordinate is
integral and a Fraction otherwise.  The conic witnesses t(x + y sqrt a) and
nearly everything derived from them are integral, so they run on ints; a
division yields a Fraction only when it is inexact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import CACHE_SIZE, discriminant, kronecker, mod_p, padic_val, sqrt_mod_p
from .errors import InvariantViolated, NotTwoUnit, WrongDiscriminantClass, ZeroInput


def _normal(q):
    """The rational q as an int when it is integral, else as a Fraction."""
    if type(q) is int:
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _exact_div(x, q):
    """x / q for rationals x and q != 0, in the normal form of _normal."""
    if type(x) is int and type(q) is int:
        quo, rem = divmod(x, q)
        return quo if rem == 0 else Fraction(x, q)
    return _normal(Fraction(x) / Fraction(q))


class QuadElt:
    """x + y*sqrt(a) with exact rational coordinates.

    Each coordinate is an int when it is integral and a Fraction otherwise, so
    QuadElt(Fraction(6, 2), 0, a).x is 3.  Equality and hashing are those of the
    rationals, since Fraction(3) == 3 and the two hash alike.
    """

    __slots__ = ("x", "y", "a")

    def __init__(self, x, y, a):
        self.x = x if type(x) is int else _normal(x)
        self.y = y if type(y) is int else _normal(y)
        self.a = a if type(a) is int else int(a)

    def __repr__(self):
        return f"QuadElt({self.x}, {self.y}, sqrt {self.a})"

    def __eq__(self, other):
        return (
            isinstance(other, QuadElt)
            and self.a == other.a
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self):
        return hash((self.x, self.y, self.a))

    def is_zero(self):
        return self.x == 0 and self.y == 0

    def conjugate(self) -> "QuadElt":
        return QuadElt(self.x, -self.y, self.a)

    def norm(self):
        """x^2 - a y^2; an int for an element with int coordinates."""
        return self.x * self.x - self.a * self.y * self.y

    def __neg__(self):
        return QuadElt(-self.x, -self.y, self.a)

    def __add__(self, other):
        if isinstance(other, QuadElt):
            if other.a != self.a:
                raise InvariantViolated(f"{self} and {other} lie in different fields")
            return QuadElt(self.x + other.x, self.y + other.y, self.a)
        q = other if type(other) is int else Fraction(other)
        return QuadElt(self.x + q, self.y, self.a)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, QuadElt):
            if other.a != self.a:
                raise InvariantViolated(f"{self} and {other} lie in different fields")
            return QuadElt(
                self.x * other.x + self.a * self.y * other.y,
                self.x * other.y + self.y * other.x,
                self.a,
            )
        q = other if type(other) is int else Fraction(other)
        return QuadElt(self.x * q, self.y * q, self.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadElt):
            n = other.norm()
            if n == 0:
                raise ZeroDivisionError("division by a zero-norm element")
            num = self * other.conjugate()
            return QuadElt(_exact_div(num.x, n), _exact_div(num.y, n), self.a)
        return QuadElt(_exact_div(self.x, other), _exact_div(self.y, other), self.a)


def _hensel_sqrt_odd(a: int, p: int, k: int) -> int:
    """Root r of r^2 = a mod p**k with r = min root mod p, via Newton lifting."""
    r0 = sqrt_mod_p(a, p)
    r0 = min(r0, p - r0)
    r, prec = r0, 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        r = (r + a * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    if r % p != r0:
        r = p**k - r
    return r


@lru_cache(maxsize=CACHE_SIZE)
def _hensel_sqrt_2(a: int, k: int) -> int:
    """Root r of r^2 = a mod 2**k with r = 1 mod 4, for a = 1 mod 8 and k >= 3."""
    r = 1
    for j in range(3, k):
        if (r * r - a) % (1 << (j + 1)):
            r += 1 << (j - 1)
    return r % (1 << k)


def _content(x, y, p: int) -> tuple[int, int, int, int]:
    """(u, w, d, m) with (x, y) = p**m * (u, w) / d, for rationals x, y not both 0:
    ints u, w with no common factor p, d > 0 prime to p, and m the least v_p(x),
    v_p(y), which is negative when p divides a denominator."""
    d = x.denominator * y.denominator
    u, w = x.numerator * y.denominator, y.numerator * x.denominator
    m, e = padic_val(gcd(u, w), p), padic_val(d, p)
    return u // p**m, w // p**m, d // p**e, m - e


def split_units(
    beta: QuadElt, p: int, unit_digits: int = 1
) -> tuple[tuple[int, int], tuple[int, int]]:
    """((v, u), (v', u')): the valuation of beta and its unit part mod
    p**unit_digits at the canonical prime above a split p, then at its conjugate.

    With m the p-content of beta, in the basis 1, theta = (1 + sqrt a)/2 at
    p = 2, the two embeddings of beta / p**m differ by a unit times a
    coordinate prime to p, so at most one of them is a non-unit.  That one's
    unit part is N(beta) / p**v_p(N beta) over the other embedding.
    """
    a, mod = beta.a, p**unit_digits
    if unit_digits < 1:
        raise InvariantViolated(f"unit mod {p}**{unit_digits}")
    if p == 2:
        if a % 8 != 1:
            raise InvariantViolated(f"2 does not split in Q(sqrt {a})")
        x, y = _theta_coords(beta)
        # a root mod 2**k fixes the 2-adic root only mod 2**(k - 1)
        s = (1 + _hensel_sqrt_2(a, unit_digits + 2)) // 2  # theta at the canonical prime
        s_conj = 1 - s
    else:
        # for odd p, kronecker(a, p) = kronecker(discriminant(a), p)
        if kronecker(a, p) != 1:
            raise InvariantViolated(f"{p} does not split in Q(sqrt {a})")
        x, y = beta.x, beta.y
        s = _hensel_sqrt_odd(a, p, unit_digits)  # sqrt a at the canonical prime
        s_conj = -s
    u, w, d, m = _content(x, y, p)
    num, num_conj = u + w * s, u + w * s_conj
    d_inv = pow(d, -1, mod)
    if num % p and num_conj % p:
        return (m, num * d_inv % mod), (m, num_conj * d_inv % mod)
    norm = beta.norm()
    v = padic_val(norm, p)
    norm = _exact_div(norm, p**v) if v >= 0 else norm * p**-v
    norm = mod_p(norm, mod) * d
    if num % p:
        return (m, num * d_inv % mod), (v - m, norm * pow(num, -1, mod) % mod)
    return (v - m, norm * pow(num_conj, -1, mod) % mod), (m, num_conj * d_inv % mod)


# ---------------------------------------------------------------------------
# the dyadic tests used to pick the minimally ramified twist
# ---------------------------------------------------------------------------


def _theta_coords(beta: QuadElt) -> tuple[int | Fraction, int | Fraction]:
    # coordinates w.r.t. theta = (1 + sqrt a)/2: x + y sqrt(a) = (x - y) + 2y * theta
    return beta.x - beta.y, 2 * beta.y


@lru_cache(maxsize=None)
def _unit_squares(e: int, f: int) -> frozenset:
    """Squares of (O/4O)* in the basis 1, t with t^2 = e*t + f, for f taken mod 4."""
    squares = set()
    for p in range(4):
        for q in range(4):
            # p + q t is a unit iff its norm p^2 + e p q - f q^2 is odd, and
            # (p + q t)^2 = p^2 + f q^2 + (2 p q + e q^2) t
            if (p * p + e * p * q - f * q * q) % 2:
                squares.add(((p * p + f * q * q) % 4, (2 * p * q + e * q * q) % 4))
    return frozenset(squares)


def _reduce_two_unit(beta: QuadElt) -> QuadElt:
    """Divide beta by squares of K_a* until it is a 2-unit of O; NotTwoUnit if impossible."""
    if beta.is_zero():
        raise ZeroInput("not a field element")
    a = beta.a
    if discriminant(a) % 2:
        # O = Z[theta] and 2 splits or is inert: with m the 2-content in the
        # basis 1, theta, beta / 2**m is a 2-unit iff v_2(N beta) = 2m
        m = _content(*_theta_coords(beta), 2)[3]
        if m % 2 or padic_val(beta.norm(), 2) != 2 * m:
            raise NotTwoUnit("odd or unequal valuations at the dyadic primes")
        return beta / 2**m if m >= 0 else beta * 2**-m
    # 2 is ramified and v_frak(beta) = v_2(norm).  With omega^2 = a or
    # (1 + sqrt a)^2, each step is beta / omega^2 times the odd square
    # (a/2)^2 or ((1 - a)/2)^2, so it lowers v_frak by 2, keeps the class
    # mod 4O and divides exactly: ints stay ints
    v = padic_val(beta.norm(), 2)
    if v % 2:
        raise NotTwoUnit("odd dyadic valuation at the ramified prime")
    if v < 0:
        # 2 divides a coordinate denominator; v_frak(4) = 4, so a power of 4 clears it
        k = (3 - v) // 4
        beta, v = beta * 4**k, v + 4 * k
    if a % 2 == 0:
        for _ in range(v // 2):
            beta = beta * (a // 2) / 2
    else:
        conj_sq = QuadElt(1 + a, -2, a)  # (1 - sqrt a)^2
        for _ in range(v // 2):
            beta = beta * conj_sq / 4
    return beta


def unramified_at_two(elt: QuadElt) -> bool:
    """Does E(sqrt elt) stay unramified over 2, for elt over Q(sqrt s), other radicand odd?"""
    s = elt.a
    if s % 8 == 1:
        # even valuation and unit = 1 mod 4 at both dyadic primes
        return all(v % 2 == 0 and u == 1 for v, u in split_units(elt, 2, 2))
    try:
        beta = _reduce_two_unit(elt)
    except NotTwoUnit:
        return False
    # is the reduced 2-unit a square mod 4O?  In the basis 1, t with
    # t^2 = e*t + f: t = sqrt s, or theta when s is odd
    if discriminant(s) % 2:
        (x, y), e, f = _theta_coords(beta), 1, (s - 1) // 4
    else:
        (x, y), e, f = (beta.x, beta.y), 0, s
    return (mod_p(x, 4), mod_p(y, 4)) in _unit_squares(e, f % 4)


def conductor_two_at_two(elt: QuadElt) -> bool:
    """True iff some +-elt*s^2 lies in 1 + 2O, for elt over Q(sqrt a), a = 3 mod 4
    (discriminant 4 mod 8)."""
    a = elt.a
    if a % 4 != 3:
        raise WrongDiscriminantClass(f"conductor-2 test needs a = 3 mod 4, got {a}")
    try:
        beta = _reduce_two_unit(elt)
    except NotTwoUnit:
        return False
    # (O/2O)* = {1, sqrt a}; squares and signs land on 1, so test the raw class
    return mod_p(beta.x, 2) == 1 and mod_p(beta.y, 2) == 0
