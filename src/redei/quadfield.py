"""Exact arithmetic in quadratic fields Q(sqrt(a)): elements, degree-one primes,
residue symbols, and the dyadic unit-class machinery used to normalize ramification.

Conventions.  For odd radicands the maximal order Z[(1+sqrt a)/2] is used where
2-splitting matters; for even discriminants everything happens in Z[sqrt a].
A degree-one prime is identified by a residue root r with r^2 = a mod p^k; the
conjugate prime carries -r.  The canonical prime of a split pair is the one whose
root has the smaller residue mod p (mod 4 for p = 2), which is stable under
precision lifts.

Element coordinates have one normal form: an int when the coordinate is
integral and a Fraction otherwise.  The conic witnesses t(x + y sqrt a) and
nearly everything derived from them are integral, so they run on ints; a
division yields a Fraction only when it is inexact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import CACHE_SIZE, discriminant, kronecker, mod_p, padic_val, sqrt_mod_p
from .errors import (
    InertPrime,
    InvariantViolated,
    NotTwoUnit,
    OddValuation,
    PartUndefined,
    TrivialClass,
    TwoNotSplit,
    WrongDiscriminantClass,
    ZeroInput,
)

SPLIT = "split"
RAMIFIED = "ramified"
INERT = "inert"

DEFAULT_PRECISION = 6  # work mod p**6; raised adaptively where valuations demand


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


@dataclass(frozen=True)
class DegreeOnePrime:
    """A split or ramified prime of Q(sqrt a) over p, with residue data mod p**precision."""

    p: int
    a: int
    kind: str
    root: int  # r with r*r = a mod p**precision; 0 for ramified primes
    precision: int

    def conjugate(self) -> "DegreeOnePrime":
        if self.kind != SPLIT:
            return self
        mod = self.p**self.precision
        return DegreeOnePrime(self.p, self.a, self.kind, (-self.root) % mod, self.precision)

    def lift(self, precision: int) -> "DegreeOnePrime":
        """Same prime at higher precision (root class preserved)."""
        if precision <= self.precision or self.kind != SPLIT:
            return self
        if self.p == 2:
            r = _hensel_sqrt_2(self.a, precision)
            if r % 4 != self.root % 4:
                r = (1 << precision) - r
        else:
            r = _hensel_sqrt_odd(self.a, self.p, precision)
            if r % self.p != self.root % self.p:
                r = self.p**precision - r
        return DegreeOnePrime(self.p, self.a, self.kind, r, precision)


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


@lru_cache(maxsize=CACHE_SIZE)
def primes_above(p: int, a: int, precision: int = DEFAULT_PRECISION):
    """Splitting of p in Q(sqrt a): (kind, [DegreeOnePrime, ...]).

    SPLIT returns the canonical prime first, then its conjugate; INERT returns [].
    """
    if a == 1:
        raise TrivialClass("no quadratic field for a = 1")
    if p == 2:
        if discriminant(a) % 2 == 0:
            return RAMIFIED, [DegreeOnePrime(2, a, RAMIFIED, 0, precision)]
        if a % 8 == 1:
            r = _hensel_sqrt_2(a, precision)  # r = 1 mod 4 is the canonical root
            frak = DegreeOnePrime(2, a, SPLIT, r, precision)
            return SPLIT, [frak, frak.conjugate()]
        return INERT, []
    kappa = kronecker(discriminant(a), p)
    if kappa == 0:
        return RAMIFIED, [DegreeOnePrime(p, a, RAMIFIED, 0, precision)]
    if kappa == 1:
        r = _hensel_sqrt_odd(a, p, precision)
        frak = DegreeOnePrime(p, a, SPLIT, r, precision)
        return SPLIT, [frak, frak.conjugate()]
    return INERT, []


def _p_integral(beta: QuadElt, p: int) -> QuadElt:
    # multiply by a rational square to clear p from coordinate denominators
    if type(beta.x) is int and type(beta.y) is int:
        return beta
    m = 0
    for c in (beta.x, beta.y):
        if c != 0:
            m = max(m, -padic_val(c, p))
    if m > 0:
        beta = beta * p ** (2 * ((m + 1) // 2))
    return beta


def _split_embedding(
    beta: QuadElt, frak: DegreeOnePrime, unit_digits: int = 1
) -> tuple[int, int | Fraction]:
    """(valuation, unit part) of beta in the completion at a split prime.

    Raises the working precision until the valuation is resolved and the unit
    part is accurate mod p**unit_digits.
    """
    p = frak.p
    beta = _p_integral(beta, p)
    slack = 1 if p == 2 else 0  # the 2-adic root is one bit short of its precision
    while True:
        image = beta.x + beta.y * frak.root
        if image != 0:
            v = padic_val(image, p)
            if v + unit_digits + slack <= frak.precision:
                return v, _exact_div(image, p**v)
        frak = frak.lift(frak.precision * 2)


def residue_symbol(beta: QuadElt, frak: DegreeOnePrime) -> int:
    """Legendre symbol of the unit part of beta at a degree-one prime over odd p.

    beta is reduced by an even power of the uniformizer; an odd valuation is an
    error (it signals a non-minimally-ramified input).
    """
    p = frak.p
    if p == 2:
        raise PartUndefined("residue_symbol is for odd primes; use dyadic_embedding at 2")
    if beta.is_zero():
        raise ZeroInput("residue symbol of 0")
    if frak.kind == RAMIFIED:
        a = beta.a
        # v_frak(beta) = v_p(norm); dividing by a = (sqrt a)^2 lowers it by 2
        v = padic_val(beta.norm(), p)
        if v % 2:
            raise OddValuation(f"odd valuation at ramified prime over {p}")
        beta = beta / a ** (v // 2)
        return kronecker(mod_p(beta.x, p), p)
    if frak.kind == SPLIT:
        v, unit = _split_embedding(beta, frak)
        if v % 2:
            raise OddValuation(f"odd valuation at split prime over {p}")
        return kronecker(mod_p(unit, p), p)
    raise InertPrime(f"no degree-one prime over inert {p}")


# ---------------------------------------------------------------------------
# dyadic machinery
# ---------------------------------------------------------------------------


def _theta_coords(beta: QuadElt) -> tuple[int | Fraction, int | Fraction]:
    # coordinates w.r.t. theta = (1 + sqrt a)/2: x + y sqrt(a) = (x - y) + 2y * theta
    return beta.x - beta.y, 2 * beta.y


def _frac_mod(q: int | Fraction, m: int) -> int:
    if type(q) is int:
        return q % m
    return q.numerator * pow(q.denominator, -1, m) % m


@lru_cache(maxsize=None)
def _sqrt_ring_squares(a_mod4: int) -> frozenset:
    """Squares of the unit group of Z[sqrt a]/4 (a with even discriminant)."""
    units, squares = [], set()
    for x in range(4):
        for y in range(4):
            if (x * x - a_mod4 * y * y) % 2:
                units.append((x, y))
    for x, y in units:
        squares.add(((x * x + a_mod4 * y * y) % 4, (2 * x * y) % 4))
    return frozenset(squares)


@lru_cache(maxsize=None)
def _max_order_squares(a_mod16: int) -> frozenset:
    """Squares of the unit group of Z[theta]/4, theta^2 = theta + (a-1)/4 (a odd)."""
    c = ((a_mod16 - 1) // 4) % 4
    squares = set()
    for p in range(4):
        for q in range(4):
            n = p * p + p * q - q * q * c
            if n % 2:
                # (p + q theta)^2 = p^2 + q^2 c + (2pq + q^2) theta
                squares.add(((p * p + q * q * c) % 4, (2 * p * q + q * q) % 4))
    return frozenset(squares)


@dataclass(frozen=True)
class DyadicUnitClass:
    """Residue of a 2-unit mod 4O with its square-membership flag.

    ring is "sqrt" (Z[sqrt a], even discriminant) or "maximal" (Z[theta], odd a);
    coords are the mod-4 coordinates in the respective basis.
    """

    a: int
    ring: str
    coords: tuple[int, int]
    is_square: bool


def _reduce_two_unit(beta: QuadElt) -> QuadElt:
    """Divide beta by squares of K_a* until it is a 2-unit of O; NotTwoUnit if impossible."""
    if beta.is_zero():
        raise ZeroInput("not a field element")
    a = beta.a
    d = discriminant(a)
    if d % 2 == 0:
        # 2 is ramified and v_frak(beta) = v_2(norm).  With omega^2 = a or
        # (1 + sqrt a)^2, each step is beta / omega^2 times the odd square
        # (a/2)^2 or ((1 - a)/2)^2, so it lowers v_frak by 2, keeps the class
        # mod 4O and divides exactly: ints stay ints
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
        return beta
    if a % 8 == 5:
        # 2 inert: v_frak = v_2(norm) / 2
        vn = padic_val(beta.norm(), 2)
        if vn % 2:
            raise NotTwoUnit("norm valuation odd at an inert prime")  # cannot happen
        v = vn // 2
        if v % 2:
            raise NotTwoUnit("odd dyadic valuation; twist by 2 first")
        return beta / 2**v
    # 2 split: only a common even valuation can be removed by rational squares
    _, fraks = primes_above(2, a)
    v0, _ = _split_embedding(beta, fraks[0])
    v1, _ = _split_embedding(beta, fraks[1])
    if v0 != v1 or v0 % 2:
        raise NotTwoUnit("unequal or odd valuations at the split dyadic primes")
    return beta / 2**v0


def dyadic_unit_class(beta: QuadElt) -> DyadicUnitClass:
    """Class of beta (a 2-unit up to rational squares; reduced here) in (O/4O)*."""
    beta = _reduce_two_unit(beta)
    a = beta.a
    if discriminant(a) % 2 == 0:
        coords = (_frac_mod(beta.x, 4), _frac_mod(beta.y, 4))
        return DyadicUnitClass(a, "sqrt", coords, coords in _sqrt_ring_squares(a % 4))
    p, q = _theta_coords(beta)
    coords = (_frac_mod(p, 4), _frac_mod(q, 4))
    return DyadicUnitClass(a, "maximal", coords, coords in _max_order_squares(a % 16))


def is_conductor_two(beta: QuadElt) -> bool:
    """True iff some +-beta*s^2 lies in 1 + 2O, for a = 3 mod 4 (discriminant 4 mod 8)."""
    a = beta.a
    if a % 4 != 3:
        raise WrongDiscriminantClass(f"conductor-2 test needs a = 3 mod 4, got {a}")
    beta = _reduce_two_unit(beta)
    # (O/2O)* = {1, sqrt a}; squares and signs land on 1, so test the raw class
    return _frac_mod(beta.x, 2) == 1 and _frac_mod(beta.y, 2) == 0


def dyadic_embedding(
    beta: QuadElt, precision: int = DEFAULT_PRECISION, frak: DegreeOnePrime | None = None
) -> int:
    """Odd unit u with beta = u * 2^(2m) at a dyadic prime of Q(sqrt a), a = 1 mod 8.

    Returns u mod 2**precision, computed at the canonical prime unless one is given.
    """
    a = beta.a
    if a % 8 != 1:
        raise TwoNotSplit(f"2 does not split in Q(sqrt {a})")
    if frak is None:
        _, fraks = primes_above(2, a, max(precision + 1, DEFAULT_PRECISION))
        frak = fraks[0]
    v, unit = _split_embedding(beta, frak, unit_digits=precision)
    if v % 2:
        raise OddValuation("odd dyadic valuation")
    return _frac_mod(unit, 1 << precision)


# ---------------------------------------------------------------------------
# ramification tests used to pick the minimally ramified twist
# ---------------------------------------------------------------------------


def unramified_at_two(elt: QuadElt) -> bool:
    """Does E(sqrt elt) stay unramified over 2, for elt over Q(sqrt s), other radicand odd?"""
    s = elt.a
    if s % 8 == 1:
        # per-prime: even valuation and unit = 1 mod 4 at both dyadic primes
        _, fraks = primes_above(2, s)
        for frak in fraks:
            try:
                unit = dyadic_embedding(elt, 2, frak)
            except OddValuation:
                return False
            if unit != 1:
                return False
        return True
    try:
        return dyadic_unit_class(elt).is_square
    except NotTwoUnit:
        return False


def conductor_two_at_two(elt: QuadElt) -> bool:
    try:
        return is_conductor_two(elt)
    except NotTwoUnit:
        return False
