"""Ground truth: the narrow class group of a fundamental discriminant as the
form class group of binary quadratic forms under proper equivalence.

Definite forms are identified with their unique reduced representative; an
indefinite class is identified with the lexicographically smallest form in its
cycle of reduced forms, so that proper (narrow) equivalence is decided exactly
without any unit computation.

The reduced forms are enumerated from square roots of D.  A reduced (A, B, C)
has B*B = D mod 4A, whose roots repeat with period 2A, so each leading
coefficient A admits a few B rather than 2A of them.  Per D, a bytearray sieve
drops the A for which no root exists, and the rest get their roots by CRT from
the roots modulo 2**(v+2) and modulo each odd prime power dividing A (Tonelli-
Shanks, then Hensel lifting).  A runs up to sqrt(|D|/3) for D < 0 and up to
sqrt(D) for D > 0, so the work per D is about sqrt|D| (times a few roots per A)
instead of the |D|/3 or pi*D/16 trial divisions of a double loop over (A, B).
Building the group then costs one composition per class for the squaring map
of narrow_ranks, plus, for D > 0, one reduction cycle per class.  At the
default bound |D| <= 10**6 this is a few milliseconds per D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt

from .arith import is_fundamental_discriminant, sqrt_mod_p
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


def _sqrt_classes(D: int, amax: int):
    """Yield (A, xs) for 1 <= A <= amax, where xs lists the x in [0, 2A) with
    x*x = D mod 4A, skipping the A with no such x.

    A reduced form (A, B, C) of discriminant D has B = x mod 2A for one of them.
    The A are sieved per D: B*B = D mod 4A has no root when an odd p | A has
    (D/p) = -1, when p*p | A for an odd p | D (D is fundamental), or when the
    2-adic part of A admits none.  The roots for the rest come by CRT from the
    2-adic roots and the roots modulo each odd prime power dividing A.
    """
    n = amax + 1
    ok = bytearray(b"\x01") * n
    ok[0] = 0

    def strike(start: int, step: int):
        ok[start::step] = bytes(len(range(start, n, step)))

    # two[v]: the x mod 2**(v+1) with x*x = D mod 2**(v+2), lifted from two[v-1]
    two = [[D % 2]]
    while two[-1] and (1 << len(two)) < n:
        m = 1 << len(two)
        two.append([y for r in two[-1] for y in (r, r + m) if (y * y - D) % (4 * m) == 0])
    if not two[-1]:
        strike(1 << (len(two) - 1), 1 << (len(two) - 1))

    # smallest prime factors: the smallest prime writes last
    spf = list(range(n))
    for p in range(isqrt(amax) | 1, 2, -2):
        if spf[p] == p:
            spf[p * p :: p] = [p] * len(range(p * p, n, p))
    roots = {}  # odd prime power q <= amax -> the x mod q with x*x = D mod q
    for p in range(3, n, 2):
        if spf[p] != p:
            continue
        k = D % p
        if k == 0:
            roots[p] = [0]
            strike(p * p, p * p)
        elif pow(k, (p - 1) // 2, p) != 1:
            strike(p, p)
        else:
            r, q = sqrt_mod_p(k, p), p
            while q <= amax:
                roots[q] = [r, q - r]
                q *= p
                r = (r - (r * r - D) * pow(2 * r, -1, q)) % q  # Hensel lift

    for A in compress(range(n), ok):
        v = (A & -A).bit_length() - 1
        xs, M, m = two[v], 2 << v, A >> v
        while m > 1:
            p = q = spf[m]
            m //= p
            while m % p == 0:
                q *= p
                m //= p
            inv = pow(M, -1, q)
            xs = [x + M * ((r - x) * inv % q) for x in xs for r in roots[q]]
            M *= q
        yield A, xs


def _enumerate_definite(D: int) -> list[tuple[int, int, int]]:
    out = []
    for A, xs in _sqrt_classes(D, isqrt(-D // 3)):
        for x in xs:
            B = x - 2 * A if x > A else x  # the root in (-A, A]
            C = (B * B - D) // (4 * A)
            if C < A:
                continue
            if B < 0 and (A == C or B == -A):
                continue
            if gcd(gcd(A, B), C) != 1:
                continue
            out.append((A, B, C))
    return sorted(out)


def _enumerate_indefinite(D: int) -> list[tuple[int, int, int]]:
    out = []
    s = isqrt(D)
    for A, xs in _sqrt_classes(D, s):
        twoa = 2 * A
        # B in [lo, s] is necessary for a reduced form: see _is_reduced_indefinite
        lo = max(1, s + 1 - twoa, twoa - s)
        for x in xs:
            for B in range(lo + (x - lo) % twoa, s + 1, twoa):
                C = (B * B - D) // (4 * A)
                if _is_reduced_indefinite(A, B, C, D) and gcd(gcd(A, B), C) == 1:
                    out += [(A, B, C), (-A, B, -C)]
    return sorted(out)


@lru_cache(maxsize=4)  # every caller works on one D at a time
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
        canon, reps = {}, []
        for start in reduced:  # ascending: each new cycle starts at its least form
            if start in canon:
                continue
            cyc = _cycle(start, D, isq)
            rep = min(cyc)
            reps.append(rep)
            canon.update(dict.fromkeys(cyc, rep))
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
    index = {g: i for i, g in enumerate(group.elements)}
    square = [index[group.compose(g, g)] for g in group.elements]
    identity = index[group.identity]
    counts = []
    powers = range(len(square))  # the index of g^(2^k), for each g
    for _ in range(4):
        counts.append(powers.count(identity))
        powers = [square[i] for i in powers]
    out = []
    for k in range(3):
        ratio = counts[k + 1] // counts[k]
        out.append(ratio.bit_length() - 1)
    return tuple(out)
