"""Rank pipeline for the narrow class group: signed decomposition -> R4 ->
second-kind decompositions -> kernel bases -> R8 -> (r2, r4, r8).

Matrix conventions: F2 entries as int bitmasks (bit j = column j); labels are
ordered 2-part first, then odd primes ascending.  The R8 matrix keeps all
r4+1 kernel columns; the rank formula already accounts for the dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import gf2
from .arith import (
    CACHE_SIZE,
    discriminant,
    kronecker,
    prime_divisors,
    signed_prime_decomposition,
    square_class,
)
from .errors import InvariantViolated, NotSquarefree, TrivialClass
from .symbol import redei_symbol


def fundamental_discriminant(d: int) -> int:
    """D in {d, 4d} for squarefree d != 1."""
    if d == 1:
        raise TrivialClass("d = 1 has no quadratic field")
    if square_class(d) != d:
        raise NotSquarefree(f"{d} is not squarefree")
    return discriminant(d)


def r2(D: int) -> int:
    """2-rank of the narrow class group: one less than the number of prime divisors."""
    return signed_prime_decomposition(D).t - 1


@dataclass(frozen=True)
class RedeiMatrixR4:
    D: int
    row_labels: tuple[int, ...]  # signed prime discriminants
    col_labels: tuple[int, ...]  # ramified primes
    rows: tuple[int, ...]  # bitmask rows

    @property
    def t(self) -> int:
        return len(self.row_labels)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def as_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.t)] for i in range(self.t)]

    def rank(self) -> int:
        return gf2.rank(list(self.rows), self.t)


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
    return r2(D) - m.rank()


@dataclass(frozen=True)
class SecondKindDecomposition:
    d1: int
    d2: int


def _is_second_kind(D: int, d1: int) -> bool:
    d2 = D // d1
    for di in (d1, d2):
        other = D // di
        for p in prime_divisors(di):
            if kronecker(other, p) != 1:
                return False
    return True


def second_kind_decompositions(D: int) -> list[SecondKindDecomposition]:
    """All unordered D = d1*d2 with every ramified prime split in Q(sqrt d1, sqrt d2)."""
    parts = signed_prime_decomposition(D).parts
    t = len(parts)
    out = []
    # keep part 0 in d2 so each unordered pair appears once
    for mask in range(1 << max(t - 1, 0)):
        d1 = 1
        for i in range(t - 1):
            if (mask >> i) & 1:
                d1 *= parts[i + 1]
        if _is_second_kind(D, d1):
            pair = sorted((d1, D // d1), key=abs)
            out.append(SecondKindDecomposition(pair[0], pair[1]))
    out.sort(key=lambda s: (abs(s.d1), s.d1))
    return out


@dataclass(frozen=True)
class RedeiMatrixR8:
    D: int
    row_labels: tuple[SecondKindDecomposition, ...]
    col_labels: tuple[int, ...]  # squarefree divisors m | D
    rows: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def as_lists(self) -> list[list[int]]:
        n, m = self.shape
        return [[self.entry(i, j) for j in range(m)] for i in range(n)]

    def rank(self) -> int:
        return gf2.rank(list(self.rows), len(self.col_labels))


def _quotient_basis(vectors: list[int], modulus: int, ncols: int) -> list[int]:
    """Greedy subset of vectors independent modulo the span of modulus."""
    span = [modulus]
    out = []
    for v in vectors:
        if not gf2.in_span(v, span, ncols):
            out.append(v)
            span.append(v)
    return out


def build_R8(D: int) -> RedeiMatrixR8:
    m4 = build_R4(D)
    t = m4.t
    parts, primes = m4.row_labels, m4.col_labels
    kernel = gf2.nullspace_basis(list(m4.rows), t)  # dim r4 + 1
    cols = []
    for vec in kernel:
        m = 1
        for j in range(t):
            if (vec >> j) & 1:
                m *= primes[j]
        cols.append(m)
    # rows: basis of ker(R4^T) modulo the all-one vector
    transpose = [0] * t
    for i in range(t):
        for j in range(t):
            if m4.entry(i, j):
                transpose[j] |= 1 << i
    cokernel = gf2.nullspace_basis(transpose, t)
    all_one = (1 << t) - 1
    row_vecs = _quotient_basis(cokernel, all_one, t)
    decs, rows = [], []
    for vec in row_vecs:
        d1 = 1
        for i in range(t):
            if (vec >> i) & 1:
                d1 *= parts[i]
        d2 = D // d1
        if not _is_second_kind(D, d1):
            raise InvariantViolated(f"{D} = {d1} * {d2} is not of the second kind")
        decs.append(SecondKindDecomposition(d1, d2))
        bits = 0
        for j, m in enumerate(cols):
            sym = redei_symbol(square_class(d1), square_class(d2), m).value
            if sym == -1:
                bits |= 1 << j
        rows.append(bits)
    return RedeiMatrixR8(D, tuple(decs), tuple(cols), tuple(rows))


def r8(D: int) -> int:
    rk4 = r4(D)
    if rk4 == 0:
        return 0
    return rk4 - build_R8(D).rank()


def ranks(d: int) -> tuple[int, int, int]:
    """(r2, r4, r8) of the narrow class group of Q(sqrt d), d squarefree."""
    D = fundamental_discriminant(d)
    return r2(D), r4(D), r8(D)


@dataclass(frozen=True)
class GoverningReport:
    d: int
    bound: int
    classes: dict  # signature -> sorted list of (p, r4)
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def governing_r4_check(d: int, bound: int) -> GoverningReport:
    """Partition primes p by (p mod 8, kronecker(q*, p) for odd q | d) and assert
    that r4 of the discriminant of d*p is constant on each class."""
    if d == 0:
        raise TrivialClass("d must be nonzero")
    d = square_class(d)
    odd_qs = [q for q in prime_divisors(d) if q != 2]
    signed = [q if q % 4 == 1 else -q for q in odd_qs]
    classes: dict = {}
    violations = []
    for p in _primes_upto(bound):
        if p == 2 or d % p == 0:
            continue
        sig = (p % 8,) + tuple(kronecker(q, p) for q in signed)
        D = fundamental_discriminant(square_class(d * p))
        value = r4(D)
        classes.setdefault(sig, []).append((p, value))
    for sig, pairs in classes.items():
        values = {v for _, v in pairs}
        if len(values) > 1:
            violations.append((d, sig, sorted(values)))
    return GoverningReport(d, bound, classes, violations)
