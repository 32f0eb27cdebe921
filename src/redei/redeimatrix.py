"""Rank pipeline for the narrow class group: signed decomposition -> R4 ->
kernel bases (that of R4^T gives the second-kind decompositions) -> R8 ->
(r2, r4, r8).

Matrix conventions: F2 entries as int bitmasks (bit j = column j); labels are
ordered 2-part first, then odd primes ascending.  The R8 matrix keeps all
r4+1 kernel columns; the rank formula already accounts for the dependency.

D is factored once, into the record of d = D or D/4 (arith._arg), which the
squarefree check of d and build_R4's signed parts both read.  The labels of
the memoized R4 are the signed parts and their primes, so r2 is its size, and
every divisor of D the rest of the pipeline reads (each d1, d2 and m of R8)
takes its primes from those labels.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import prod

from . import gf2
from .arith import (
    CACHE_SIZE,
    _arg,
    _integer,
    _p_star,
    _primes_upto,
    _record,
    discriminant,
    kronecker,
    signed_prime_decomposition,
    square_class,
)
from .errors import InvariantViolated, NotSquarefree, TrivialClass
from .symbol import _symbol


def fundamental_discriminant(d: int) -> int:
    """D in {d, 4d} for squarefree d != 1."""
    d = d if type(d) is int else _integer(d)
    if d == 1:
        raise TrivialClass("d = 1 has no quadratic field")
    if square_class(d) != d:
        raise NotSquarefree(f"{d} is not squarefree")
    return discriminant(d)


def r2(D: int) -> int:
    """2-rank of the narrow class group: one less than the number of prime divisors."""
    return build_R4(D).t - 1


class _BitmaskMatrix(namedtuple("_BitmaskMatrix", "D row_labels col_labels rows")):
    """An F2 matrix of D: each row a bitmask over the columns col_labels."""

    __slots__ = ()

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def as_lists(self) -> list[list[int]]:
        cols = range(len(self.col_labels))
        return [[self.entry(i, j) for j in cols] for i in range(len(self.rows))]

    def rank(self) -> int:
        return gf2.rank(list(self.rows), len(self.col_labels))


class RedeiMatrixR4(_BitmaskMatrix):
    """The 4-rank matrix of D: rows labelled by the signed prime discriminants,
    columns by the ramified primes."""

    __slots__ = ()

    @property
    def t(self) -> int:
        return len(self.row_labels)


def _part_prime(part: int) -> int:
    return 2 if part % 2 == 0 else abs(part)


@lru_cache(maxsize=CACHE_SIZE)
def build_R4(D: int) -> RedeiMatrixR4:
    dec = signed_prime_decomposition(D)
    parts = dec.parts
    primes = tuple(_part_prime(part) for part in parts)
    t = len(parts)
    rows = [0] * t
    for j in range(t):
        col_sum = 0
        for i in range(t):
            if i == j:
                continue
            eps = 0 if kronecker(parts[i], primes[j]) == 1 else 1
            col_sum ^= eps
            if eps:
                rows[i] |= 1 << j
        if col_sum:  # sum-zero diagonal
            rows[j] |= 1 << j
    return RedeiMatrixR4(D, parts, primes, tuple(rows))


def r4(D: int) -> int:
    m = build_R4(D)
    return m.t - 1 - m.rank()


class SecondKindDecomposition(namedtuple("SecondKindDecomposition", "d1 d2")):
    """A row label of R8: D = d1 * d2 with every ramified prime split in
    Q(sqrt d1, sqrt d2)."""

    __slots__ = ()


def _is_second_kind(m4: RedeiMatrixR4, d1: int, mask: int) -> bool:
    """True iff D = d1*d2, d1 the product of the parts in mask, splits every
    ramified prime: kronecker(d2, p) = 1 for p | d1 and kronecker(d1, p) = 1 for p | d2."""
    d2 = m4.D // d1
    return all(
        kronecker(d2 if mask >> i & 1 else d1, p) == 1 for i, p in enumerate(m4.col_labels)
    )


class RedeiMatrixR8(_BitmaskMatrix):
    """The 8-rank matrix of D: rows labelled by second-kind decompositions,
    columns by squarefree divisors m | D."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)


def _divisor_record(m4: RedeiMatrixR4, mask: int):
    """The symbol's record of the square class of the product of the parts in
    mask, from the labels of R4: the class of a 2-part -4, 8 or -8 is -1, 2
    or -2, so its prime 2 counts only for 8 and -8."""
    n, primes = 1, []
    for i, (part, p) in enumerate(zip(m4.row_labels, m4.col_labels)):
        if mask >> i & 1:
            if part % 2:
                n *= part
                primes.append(p)
            else:
                n *= part // 4
                if part != -4:
                    primes.append(p)
    return _record(n, primes)


def build_R8(D: int) -> RedeiMatrixR8:
    m4 = build_R4(D)
    t = m4.t
    parts, primes = m4.row_labels, m4.col_labels
    kernel = gf2.nullspace_basis(list(m4.rows), t)  # dim r4 + 1
    cols, col_records = [], []
    for vec in kernel:
        ps = [primes[j] for j in range(t) if vec >> j & 1]
        cols.append(prod(ps))
        col_records.append(_record(cols[-1], ps))
    # rows: basis of ker(R4^T) modulo the all-one vector.  R4's columns sum to 0,
    # so the all-one vector lies in that kernel, and it is the sum of the canonical
    # basis (one vector per free column, 1 there and 0 at the other free columns):
    # every vector but the last is a basis of the quotient
    transpose = [0] * t
    for i in range(t):
        for j in range(t):
            if m4.entry(i, j):
                transpose[j] |= 1 << i
    decs, rows = [], []
    for vec in gf2.nullspace_basis(transpose, t)[:-1]:
        d1 = prod(parts[i] for i in range(t) if vec >> i & 1)
        d2 = D // d1
        if not _is_second_kind(m4, d1, vec):
            raise InvariantViolated(f"{D} = {d1} * {d2} is not of the second kind")
        decs.append(SecondKindDecomposition(d1, d2))
        a, b = _divisor_record(m4, vec), _divisor_record(m4, (1 << t) - 1 ^ vec)
        bits = 0
        for j, c in enumerate(col_records):
            if _symbol(a, b, c).value == -1:
                bits |= 1 << j
        rows.append(bits)
    return RedeiMatrixR8(D, tuple(decs), tuple(cols), tuple(rows))


def _r8(D: int, rk4: int) -> int:
    """r8(D) from rk4 = r4(D)."""
    if rk4 == 0:  # R8 would cost ~8 us here, more than the ~2 us r4 call it could replace
        return 0
    return rk4 - build_R8(D).rank()


def r8(D: int) -> int:
    return _r8(D, r4(D))


def ranks(d: int) -> tuple[int, int, int]:
    """(r2, r4, r8) of the narrow class group of Q(sqrt d), d squarefree."""
    D = fundamental_discriminant(d)
    rk4 = r4(D)
    return r2(D), rk4, _r8(D, rk4)


class GoverningReport(namedtuple("GoverningReport", "d bound classes violations")):
    """classes maps each signature to its sorted list of (p, r4)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def governing_r4_check(d: int, bound: int) -> GoverningReport:
    """Partition primes p by (p mod 8, kronecker(q*, p) for odd q | d) and assert
    that r4 of the discriminant of d*p is constant on each class."""
    if d == 0:
        raise TrivialClass("d must be nonzero")
    arg = _arg(_integer(d))
    d = arg.n
    signed = [_p_star(q) for q in arg.odd]
    classes: dict = {}
    violations = []
    for p in _primes_upto(bound):
        if p == 2 or d % p == 0:
            continue
        sig = (p % 8,) + tuple(kronecker(q, p) for q in signed)
        value = r4(discriminant(d * p))  # d * p is squarefree, as p does not divide d
        classes.setdefault(sig, []).append((p, value))
    for sig, pairs in classes.items():
        values = {v for _, v in pairs}
        if len(values) > 1:
            violations.append((d, sig, sorted(values)))
    return GoverningReport(d, bound, classes, violations)
