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
down to a 2-unit of O = Z[t] and read that unit's coordinates in the basis 1, t
(t = (1 + sqrt a)/2 for an odd discriminant, else sqrt a): unramified_at_two
asks whether it is a square mod 4O, looked up in the one table _unit_squares,
and conductor_two_at_two whether it is +-1 mod 2O.

Elements have int coordinates.  The conic witnesses t(x + y sqrt a) are
integral, and every square class of K* holds integral elements, since
beta * d**2 has the class of beta; so no rational is ever needed, and a
division that is not exact is an error.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import _hensel_lift, _integer, discriminant, kronecker, padic_val, sqrt_mod_p
from .errors import InvariantViolated, NotTwoUnit, WrongDiscriminantClass, ZeroInput


class QuadElt:
    """x + y*sqrt(a) with int coordinates, an element of Z[sqrt a].

    A coordinate of another numeric type whose value is an integer is stored
    as that int; any other value raises InvariantViolated.  Every square class
    of Q(sqrt a)* holds such elements: beta * d**2 has the class of beta.
    """

    __slots__ = ("x", "y", "a")

    def __init__(self, x, y, a):
        self.x = x if type(x) is int else _integer(x)
        self.y = y if type(y) is int else _integer(y)
        self.a = a if type(a) is int else _integer(a)

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

    def norm(self) -> int:
        """x^2 - a y^2."""
        return self.x * self.x - self.a * self.y * self.y

    def __neg__(self):
        return QuadElt(-self.x, -self.y, self.a)

    def __add__(self, other):
        if isinstance(other, QuadElt):
            if other.a != self.a:
                raise InvariantViolated(f"{self} and {other} lie in different fields")
            return QuadElt(self.x + other.x, self.y + other.y, self.a)
        return QuadElt(self.x + other, self.y, self.a)

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
        return QuadElt(self.x * other, self.y * other, self.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by an int, or by a QuadElt through its conjugate and
        norm; InvariantViolated when the quotient is not integral."""
        if isinstance(other, QuadElt):
            n = other.norm()
            if n == 0:
                raise ZeroDivisionError("division by a zero-norm element")
            num = self * other.conjugate()
        else:
            num, n = self, other
        (x, rx), (y, ry) = divmod(num.x, n), divmod(num.y, n)
        if rx or ry:
            raise InvariantViolated(f"{self} / {other} is not integral")
        return QuadElt(x, y, self.a)


def _hensel_sqrt_2(a: int, k: int) -> int:
    """Root r of r^2 = a mod 2**k with r = 1 mod 4, for a = 1 mod 8 and k >= 3."""
    r = 1
    for j in range(3, k):
        if (r * r - a) % (1 << (j + 1)):
            r += 1 << (j - 1)
    return r % (1 << k)


def _content(x: int, y: int, p: int) -> tuple[int, int, int]:
    """(u, w, m) with (x, y) = p**m * (u, w), for ints x, y not both 0: m the
    least of v_p(x), v_p(y), so p does not divide both u and w."""
    m = padic_val(gcd(x, y), p)
    return x // p**m, y // p**m, m


def split_units(
    beta: QuadElt, p: int, unit_digits: int = 1
) -> tuple[tuple[int, int], tuple[int, int]]:
    """((v, u), (v', u')): the valuation of beta and its unit part mod
    p**unit_digits at the canonical prime above a split p, then at its conjugate.

    beta is integral; a rational element has the class of an integral one
    (beta * d**2), which is all a residue symbol reads.  With m the p-content
    of beta, in the basis 1, theta = (1 + sqrt a)/2 at p = 2, the two
    embeddings of beta / p**m differ by a unit times a coordinate prime to p,
    so at most one of them is a non-unit.  That one's unit part is
    N(beta) / p**v_p(N beta) over the other embedding.
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
        r = sqrt_mod_p(a, p)
        s = _hensel_lift(a, min(r, p - r), p, unit_digits)  # sqrt a at the canonical prime
        s_conj = -s
    u, w, m = _content(x, y, p)
    num, num_conj = u + w * s, u + w * s_conj
    if num % p and num_conj % p:
        return (m, num % mod), (m, num_conj % mod)
    norm = beta.norm()
    v = padic_val(norm, p)
    norm //= p**v
    if num % p:
        return (m, num % mod), (v - m, norm * pow(num, -1, mod) % mod)
    return (v - m, norm * pow(num_conj, -1, mod) % mod), (m, num_conj % mod)


# ---------------------------------------------------------------------------
# the dyadic tests used to pick the minimally ramified twist
# ---------------------------------------------------------------------------


def _theta_coords(beta: QuadElt) -> tuple[int, int]:
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


def _reduce_two_unit(beta: QuadElt) -> tuple[int, int, int, int]:
    """(x, y, e, f): beta divided by squares of K_a* down to a 2-unit x + y*t
    of O = Z[t], t^2 = e*t + f, for an integral beta; NotTwoUnit if impossible."""
    if beta.is_zero():
        raise ZeroInput("not a field element")
    a = beta.a
    if discriminant(a) % 2:
        # O = Z[theta] and 2 splits or is inert: with m the 2-content in the
        # basis 1, theta, beta / 2**m is a 2-unit iff v_2(N beta) = 2m
        x, y, m = _content(*_theta_coords(beta), 2)
        if m % 2 or padic_val(beta.norm(), 2) != 2 * m:
            raise NotTwoUnit("odd or unequal valuations at the dyadic primes")
        return x, y, 1, (a - 1) // 4
    # 2 is ramified, O = Z[sqrt a] and v_frak(beta) = v_2(norm).  With
    # omega^2 = a or (1 + sqrt a)^2, each step is beta / omega^2 times the odd
    # square (a/2)^2 or ((1 - a)/2)^2, so it lowers v_frak by 2, keeps the
    # class mod 4O and divides exactly
    v = padic_val(beta.norm(), 2)
    if v % 2:
        raise NotTwoUnit("odd dyadic valuation at the ramified prime")
    if a % 2 == 0:
        for _ in range(v // 2):
            beta = beta * (a // 2) / 2
    else:
        conj_sq = QuadElt(1 + a, -2, a)  # (1 - sqrt a)^2
        for _ in range(v // 2):
            beta = beta * conj_sq / 4
    return beta.x, beta.y, 0, a


def unramified_at_two(elt: QuadElt) -> bool:
    """Does E(sqrt elt) stay unramified over 2, for an integral elt over
    Q(sqrt s), other radicand odd?  A rational elt has the class of the
    integral elt * d**2, and the answer depends on the class alone."""
    if elt.a % 8 == 1:
        # even valuation and unit = 1 mod 4 at both dyadic primes
        return all(v % 2 == 0 and u == 1 for v, u in split_units(elt, 2, 2))
    try:
        x, y, e, f = _reduce_two_unit(elt)
    except NotTwoUnit:
        return False
    # is the reduced 2-unit a square mod 4O?
    return (x % 4, y % 4) in _unit_squares(e, f % 4)


def conductor_two_at_two(elt: QuadElt) -> bool:
    """True iff some +-elt*s^2 lies in 1 + 2O, for an integral elt over
    Q(sqrt a), a = 3 mod 4 (discriminant 4 mod 8); a rational elt has the
    class of the integral elt * d**2."""
    a = elt.a
    if a % 4 != 3:
        raise WrongDiscriminantClass(f"conductor-2 test needs a = 3 mod 4, got {a}")
    try:
        x, y, _, _ = _reduce_two_unit(elt)
    except NotTwoUnit:
        return False
    # (O/2O)* = {1, sqrt a}; squares and signs land on 1, so test the raw class
    return x % 2 == 1 and y % 2 == 0
