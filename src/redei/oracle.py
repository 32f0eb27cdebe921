"""Ground truth: the narrow class group of a fundamental discriminant as the
form class group of binary quadratic forms under proper equivalence.

Definite forms are identified with their unique reduced representative; an
indefinite class is identified with the lexicographically smallest form in its
cycle of reduced forms, so that proper (narrow) equivalence is decided exactly
without any unit computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .arith import is_fundamental_discriminant
from .errors import BoundExceeded, DiscriminantMismatch, InvariantViolated, NotFundamental

DEFAULT_ORACLE_BOUND = 10**6


@dataclass(frozen=True)
class FormClass:
    """A narrow ideal class, held as its canonical reduced form (A, B, C)."""

    A: int
    B: int
    C: int
    D: int


def _xgcd(a: int, b: int):
    if a == 0:
        return b, 0, 1
    g, x, y = _xgcd(b % a, a)
    return g, y - (b // a) * x, x


def _reduce_definite(A: int, B: int, C: int) -> tuple[int, int, int]:
    while True:
        if A > C:
            A, B, C = C, -B, A
            continue
        if B > A or B <= -A:
            r = B % (2 * A)
            if r > A:
                r -= 2 * A
            C = C + (r * r - B * B) // (4 * A)
            B = r
            continue
        if B < 0 and (A == C or B == -A):
            B = -B
            continue
        return A, B, C


def _is_reduced_indefinite(A: int, B: int, C: int, D: int) -> bool:
    if B <= 0 or B * B >= D:
        return False
    twoa = 2 * abs(A)
    # sqrt(D) - B < 2|A| < sqrt(D) + B, with sqrt(D) irrational
    if (twoa + B) ** 2 <= D:
        return False
    if twoa > B and (twoa - B) ** 2 >= D:
        return False
    return True


def _rho(A: int, B: int, C: int, D: int, isq: int) -> tuple[int, int, int]:
    """One reduction step (A,B,C) -> (C, B', C')."""
    ac = abs(C)
    if ac > isq:
        # normalize B' into (-|C|, |C|]
        b = (-B) % (2 * ac)
        if b > ac:
            b -= 2 * ac
    else:
        # normalize B' into (isq - 2|C|, isq]
        b = (-B) % (2 * ac)
        b += ((isq - b) // (2 * ac)) * 2 * ac
    return C, b, (b * b - D) // (4 * C)


def _cycle(form: tuple[int, int, int], D: int, isq: int) -> list[tuple[int, int, int]]:
    out = [form]
    f = _rho(*form, D, isq)
    while f != form:
        out.append(f)
        f = _rho(*f, D, isq)
    return out


def _compose_raw(f1, f2, D: int) -> tuple[int, int, int]:
    """Dirichlet composition of primitive forms of discriminant D."""
    a1, b1, _c1 = f1
    a2, b2, _c2 = f2
    s = (b1 + b2) // 2
    d1, u1, v1 = _xgcd(a1, a2)
    d, u2, v2 = _xgcd(d1, s)
    a3 = (a1 // d) * (a2 // d)
    num = u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2
    if num % d:
        raise InvariantViolated(f"composition of {f1} and {f2}: {d} does not divide {num}")
    b3 = (num // d) % (2 * a3)
    c3, rem = divmod(b3 * b3 - D, 4 * a3)
    if rem:
        raise InvariantViolated(f"composition of {f1} and {f2}: no form ({a3}, {b3}, c)")
    return a3, b3, c3


class ClassGroup:
    """Finite abelian group of form classes of one fundamental discriminant."""

    def __init__(self, D: int, classes: list[FormClass], canon: dict):
        self.D = D
        self.elements = classes
        self._canon = canon  # reduced form tuple -> canonical tuple
        b0 = D % 2
        principal = (1, b0, (b0 * b0 - D) // 4)
        self.identity = self._classify(principal)

    def _classify(self, form: tuple[int, int, int]) -> FormClass:
        D = self.D
        if D < 0:
            # checked before reducing: the reduction loop never ends on such a form
            if form[0] < 0:
                raise InvariantViolated(f"{form} is negative definite")
            A, B, C = _reduce_definite(*form)
        else:
            isq = isqrt(D)
            f = form
            seen = set()
            while not _is_reduced_indefinite(*f, D):
                if f in seen:
                    raise InvariantViolated(f"reduction of {form} did not terminate")
                seen.add(f)
                f = _rho(*f, D, isq)
            A, B, C = self._canon[f]
        return FormClass(A, B, C, D)

    def compose(self, f: FormClass, g: FormClass) -> FormClass:
        if f.D != g.D or f.D != self.D:
            raise DiscriminantMismatch("forms of different discriminants")
        return self._classify(_compose_raw((f.A, f.B, f.C), (g.A, g.B, g.C), self.D))

    def inverse(self, f: FormClass) -> FormClass:
        return self._classify((f.A, -f.B, f.C))

    @property
    def order(self) -> int:
        return len(self.elements)


def _enumerate_definite(D: int) -> list[tuple[int, int, int]]:
    out = []
    amax = isqrt(-D // 3)
    for A in range(1, amax + 1):
        for B in range(-A + 1, A + 1):
            if (B * B - D) % (4 * A):
                continue
            C = (B * B - D) // (4 * A)
            if C < A:
                continue
            if B < 0 and (A == C or B == -A):
                continue
            if gcd(gcd(A, B), C) != 1:
                continue
            out.append((A, B, C))
    return out


def _enumerate_indefinite(D: int) -> list[tuple[int, int, int]]:
    out = []
    for B in range(1, isqrt(D) + 1):
        if (B - D) % 2:
            continue
        M = (B * B - D) // 4  # = A*C < 0
        for A in range(1, isqrt(-M) + 1):
            if M % A:
                continue
            for a in (A, -A):
                c = M // a
                for f in ((a, B, c), (c, B, a)):
                    if _is_reduced_indefinite(*f, D) and gcd(gcd(f[0], B), f[2]) == 1:
                        out.append(f)
    return sorted(set(out))


@lru_cache(maxsize=None)
def enumerate_classes(D: int, bound: int = DEFAULT_ORACLE_BOUND) -> ClassGroup:
    """The full narrow class group of the fundamental discriminant D."""
    if not is_fundamental_discriminant(D):
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    if abs(D) > bound:
        raise BoundExceeded(f"|{D}| exceeds the oracle bound {bound}")
    if D < 0:
        reduced = _enumerate_definite(D)
        canon = {f: f for f in reduced}
        classes = [FormClass(*f, D) for f in sorted(reduced)]
    else:
        reduced = _enumerate_indefinite(D)
        isq = isqrt(D)
        canon, reps = {}, set()
        remaining = set(reduced)
        while remaining:
            start = min(remaining)
            cyc = _cycle(start, D, isq)
            rep = min(cyc)
            reps.add(rep)
            for f in cyc:
                canon[f] = rep
                remaining.discard(f)
        classes = [FormClass(*f, D) for f in sorted(reps)]
    return ClassGroup(D, classes, canon)


def compose(f: FormClass, g: FormClass) -> FormClass:
    """Group law on form classes (module-level convenience)."""
    if f.D != g.D:
        raise DiscriminantMismatch("forms of different discriminants")
    return enumerate_classes(f.D).compose(f, g)


def narrow_ranks(D: int) -> tuple[int, int, int]:
    """(r2, r4, r8) read off the group by counting 2-power torsion."""
    group = enumerate_classes(D)
    counts = []
    current = {f: f for f in group.elements}  # g -> g^(2^k)
    for _ in range(3):
        counts.append(sum(1 for img in current.values() if img == group.identity))
        current = {g: group.compose(img, img) for g, img in current.items()}
    counts.append(sum(1 for img in current.values() if img == group.identity))
    out = []
    for k in range(3):
        ratio = counts[k + 1] // counts[k]
        out.append(ratio.bit_length() - 1)
    return tuple(out)
