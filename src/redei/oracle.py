"""Ground truth: the narrow class group of a fundamental discriminant as the
form class group of binary quadratic forms under proper equivalence.

A definite class is identified with its unique reduced form, an indefinite one
with the least form of its cycle of reduced forms, so proper (narrow)
equivalence is decided exactly without any unit computation.  A form is an
(A, B, C) tuple of ints, a class its canonical tuple or that tuple's index in
the sorted list, and the group law `_compose_raw` then `ClassGroup._reduce`.

The reduced forms come from square roots of D.  A reduced (A, B, C) has
B*B = D mod 4A, whose roots repeat with period 2A.  Per D, a bytearray sieve
drops the A with no root, and the rest get their roots by one CRT step each,
from those for A/q and those modulo q, the power of the least odd prime
dividing A.  What does not depend on D is tabulated once per process, grown on
first use to the largest A asked for: q and the CRT inverse for each A, and
square roots modulo each odd prime, which Hensel lifting takes to p**k.  A runs
up to sqrt(|D|/3) for D < 0 and below sqrt(D)/2 for D > 0: about sqrt|D| steps
per D, not the |D|/3 or pi*D/16 of a double loop over (A, B).  No form found
needs a further test: a common factor g of (A, B, C) would leave a form of
discriminant D/g**2, which a fundamental D is not, and for D > 0 the range of
B walked for each A is the reduction condition.

Cost.  Either sign builds one `ClassGroup` from h and a function that streams
the classes in sorted order.  For D < 0 the reduced forms are the classes, and
h is counted: an A with 4A**2 < -D has one reduced form per root, and the
number of roots is multiplicative in A, so only the band 4A**2 >= -D takes CRT
steps; the stream computes the forms only as far as it is read.  For D > 0 the
classes are listed, h is their number, and the cycle walks that find them start
only from the forms with 0 < A and 4A**2 < D, about 36% of the reduced forms
near D = 10**6; each walk also gives the mirror cycle under
(A, B, C) -> (-A, B, -C), and the walks stop once every such form lies on a
walked cycle (see `enumerate_classes`), typically within the first few percent
of them.  The ranks see only the 2-Sylow subgroup S of order 2**e, where
h = 2**e * m with m odd: S is G**m, built from the m-th powers of the first few
classes and closed by coset products, so the D < 0 forms are listed only when
m = 1, and squaring takes one composition per element of S.  At the default
bound |D| <= 10**6 this is about half a millisecond per D, after tables of
about 55 KB built once in a few milliseconds.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

from .arith import _hensel_lift, is_fundamental_discriminant, sqrt_mod_p
from .errors import BoundExceeded, InvariantViolated, NotFundamental

DEFAULT_ORACLE_BOUND = 10**6


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = x*a + y*b: Euclid on (b, a) with floored quotients, so
    g keeps the sign the remainders give it (g < 0 is possible for negative input)."""
    r0, r1 = b, a
    x0, x1 = 0, 1
    y0, y1 = 1, 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return r0, x0, y0


def _reduce_definite(A: int, B: int, C: int) -> tuple[int, int, int]:
    """The reduced form properly equivalent to a positive definite (A, B, C):
    Cohen, GTM 138, Algorithm 5.4.2."""
    while True:
        if B > A or B <= -A:  # the Euclidean step: B into (-A, A]
            r = B % (2 * A)
            if r > A:
                r -= 2 * A
            C += (r * r - B * B) // (4 * A)
            B = r
        if A <= C:
            return (A, -B, C) if A == C and B < 0 else (A, B, C)
        A, B, C = C, -B, A


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
    """The cycle of the reduced form `form` under rho, starting at `form`."""
    # _rho inlined without its |C| > isq branch: the reduction condition is
    # symmetric in A and C, so a reduced form has |C| < (sqrt(D) + B)/2 < sqrt(D)
    out = [form]
    _, B, C = form
    while True:
        twoc = 2 * abs(C)
        b = (-B) % twoc
        b += ((isq - b) // twoc) * twoc
        f = (C, b, (b * b - D) // (4 * C))
        if f == form:
            return out
        out.append(f)
        _, B, C = f


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
    """Finite abelian group of form classes of one fundamental discriminant.

    `order` is h, and `forms` a function that returns a fresh stream of the
    canonical tuples (A, B, C) in sorted order: `_forms()` is that stream, and
    `_reps` lists it on first read and checks its length against h.  For D < 0,
    h is counted and the stream computes forms only as far as it is read; for
    D > 0, the cycle walk lists the classes and the stream reads that list.
    `_identity` is the identity, and `_reduce` maps any primitive form of
    discriminant D to the canonical tuple of its class.
    """

    def __init__(self, D: int, order: int, forms, canon: dict | None = None):
        self.D, self.order, self._forms, self._list = D, order, forms, None
        self._canon = canon  # D > 0: every reduced form -> its canonical tuple
        self._isq = isqrt(D) if D > 0 else 0
        b0 = D % 2
        self._identity = self._reduce((1, b0, (b0 * b0 - D) // 4))

    @property
    def _reps(self) -> list[tuple[int, int, int]]:
        if self._list is None:
            reps = list(self._forms())
            if len(reps) != self.order:
                raise InvariantViolated(f"D = {self.D}: {len(reps)} reduced forms, {self.order} counted")
            self._list = reps
        return self._list

    def _reduce(self, form: tuple[int, int, int]) -> tuple[int, int, int]:
        """The canonical tuple of the class of a primitive form of discriminant D."""
        D = self.D
        if D < 0:
            # checked before reducing: the reduction loop never ends on such a form
            if form[0] < 0:
                raise InvariantViolated(f"{form} is negative definite")
            return _reduce_definite(*form)
        canon, isq = self._canon, self._isq
        f = form
        seen = set()
        while f not in canon:  # rho ends on a reduced form: a key of _canon
            if f in seen:
                raise InvariantViolated(f"reduction of {form} did not terminate")
            seen.add(f)
            f = _rho(*f, D, isq)
        return canon[f]


# Residue tables shared by every D, grown on first use to the largest amax any D
# asks for (so bounded by the oracle bound, never by the length of a sweep):
# for each A, the power q of the least odd prime dividing A (1 when A is a power
# of 2) and (2A/q)**-1 mod q, the CRT step from the roots for A/q to those for A;
# the odd primes; and per odd prime p below _SQRT_TABLE_LIMIT, an array t of
# length p with t[k] a root of k mod p, or -1 where k is a non-residue.
# An entry for A is complete before len(_LPP) passes A, so reading them is
# safe while they grow; growing them from two threads at once is not (the
# package starts no threads: `verify --jobs` runs processes).
_LPP: list[int] = []
_INV: list[int] = []
_PRIMES: list[int] = []
_SQRT: dict = {}
# The square-root tables hold p entries per prime, about |D|/(6 log amax) in
# all.  Primes from this one on (|D| above about 2*10**8) take Euler's criterion
# and Tonelli-Shanks per D instead, so the tables stay under 8 MB at any bound.
_SQRT_TABLE_LIMIT = 1 << 13


def _grow_tables(n: int) -> None:
    """Extend the residue tables to every A < n."""
    from array import array  # here, not at import: most commands never enumerate

    spf = list(range(n))  # smallest prime factors: the smallest prime writes last
    for p in range(isqrt(n - 1) | 1, 2, -2):
        spf[p * p :: p] = [p] * len(range(p * p, n, p))
    for A in range(len(_LPP), n):
        q = inv = 1
        if A & (A - 1):  # A has an odd prime factor
            m = A >> ((A & -A).bit_length() - 1)
            p = q = spf[m]
            while m % (q * p) == 0:
                q *= p
            inv = pow(2 * A // q, -1, q)
            if m == A == p:  # A is an odd prime
                _PRIMES.append(p)
                if p < _SQRT_TABLE_LIMIT:
                    t = _SQRT[p] = array("h", [-1]) * p
                    for x in range((p + 1) // 2):
                        t[x * x % p] = x
        _LPP.append(q)
        _INV.append(inv)


def _residues(D: int, amax: int):
    """The data of the x with x*x = D mod 4A, 1 <= A <= amax, that depends on D:
    (ok, two, roots).

    `ok[A]` is 0 for the A with no such x: those with an odd p | A and
    (D/p) = -1, with p*p | A for an odd p | D (D is fundamental), or whose 2-adic
    part admits none.  `two[v]` lists the x mod 2**(v+1) with x*x = D mod
    2**(v+2), and `roots[q]` the x mod q with x*x = D mod q, for each odd prime
    power q <= amax that admits one: a table lookup at p, then Hensel lifting.
    """
    n = amax + 1
    if n > len(_LPP):
        _grow_tables(n)
    ok = bytearray(b"\x01") * n
    ok[0] = 0

    def strike(start: int, step: int):
        ok[start::step] = bytes(len(range(start, n, step)))

    # two[v] lifted from two[v-1]
    two = [[D % 2]]
    while two[-1] and (1 << len(two)) < n:
        m = 1 << len(two)
        two.append([y for r in two[-1] for y in (r, r + m) if (y * y - D) % (4 * m) == 0])
    if not two[-1]:
        strike(1 << (len(two) - 1), 1 << (len(two) - 1))

    roots = {}
    for p in _PRIMES:
        if p > amax:
            break
        k = D % p
        if k == 0:
            roots[p] = [0]
            strike(p * p, p * p)
            continue
        t = _SQRT.get(p)
        if t is not None:
            r = t[k]
        else:  # p >= _SQRT_TABLE_LIMIT
            r = sqrt_mod_p(k, p) if pow(k, p >> 1, p) == 1 else -1
        if r < 0:
            strike(p, p)
            continue
        roots[p] = [r, p - r]
        q, k = p * p, 2
        while q <= amax:
            r = _hensel_lift(D, r, p, k)
            roots[q] = [r, q - r]
            q, k = q * p, k + 1
    return ok, two, roots


def _root_count(residues, amax: int | None = None) -> int:
    """The number of pairs (A, x) with A <= amax that `_roots(residues)` yields,
    without CRT: rho(A), the number of roots, is rho(A/q) * len(roots[q])."""
    ok, two, roots = residues
    rho = [0] * len(ok)
    for A in compress(range(len(ok) if amax is None else amax + 1), ok):
        q = _LPP[A]
        rho[A] = len(two[A.bit_length() - 1]) if q == 1 else rho[A // q] * len(roots[q])
    return sum(rho)


def _roots(residues, wanted=None):
    """Yield (A, xs) for the A of `wanted`, by default every A that `residues`
    admits, in increasing order, where xs lists the x in [0, 2A) with x*x = D mod 4A.
    The roots for A come by one CRT step from those for A/q, which `wanted`
    holds before A, and those modulo q."""
    ok, two, roots = residues
    memo = [None] * len(ok)
    for A in compress(range(len(ok)), ok) if wanted is None else wanted:
        q = _LPP[A]
        if q == 1:
            xs = two[A.bit_length() - 1]
        else:
            M, inv = 2 * A // q, _INV[A]
            xs = [x + M * ((r - x) * inv % q) for x in memo[A // q] for r in roots[q]]
        memo[A] = xs
        yield A, xs


def _definite_forms(D: int, residues, wanted=None):
    """Yield the reduced forms (A, B, C) of discriminant D < 0 with A in
    `wanted` (as for `_roots`), in sorted order."""
    for A, xs in _roots(residues, wanted):
        for B in sorted([x - 2 * A if x > A else x for x in xs]):  # the root in (-A, A]
            C = (B * B - D) // (4 * A)
            if C > A or C == A and B >= 0:
                yield A, B, C


def _definite_order(D: int, residues) -> int:
    """h(D) for D < 0, the number of reduced forms, counted.  For 4A**2 < -D,
    each root x gives one: its B in (-A, A] has C = (B*B - D)/4A > A.  Only
    the band 4A**2 >= -D takes roots, with the A/q each CRT step reads."""
    ok, lim, wanted = residues[0], isqrt(-D - 1) // 2, set()
    for A in compress(range(lim + 1, len(ok)), ok[lim + 1 :]):
        while A not in wanted:  # a power of 2 ends the chain: its q is 1
            wanted.add(A)
            A //= _LPP[A]
    band = sum(A > lim for A, _, _ in _definite_forms(D, residues, sorted(wanted)))
    return _root_count(residues, lim) + band


def enumerate_classes(D: int, bound: int = DEFAULT_ORACLE_BOUND) -> ClassGroup:
    """The full narrow class group of the fundamental discriminant D."""
    if not is_fundamental_discriminant(D):
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    if abs(D) > bound:
        raise BoundExceeded(f"|{D}| exceeds the oracle bound {bound}")
    if D < 0:
        residues = _residues(D, isqrt(-D // 3))
        return ClassGroup(D, _definite_order(D, residues), lambda: _definite_forms(D, residues))
    # Lemma 1: every cycle holds a form with 4A**2 < D.  A reduced form has
    # |A|*|C| = (D - B*B)/4 < D/4, so 4A**2 < D or 4C**2 < D, and rho moves C
    # into the leading place.
    # Lemma 2: sigma (A, B, C) -> (-A, B, -C) commutes with rho, whose step
    # reads only |C| and B, and keeps the reduction condition, which reads
    # only |A|; so sigma maps each cycle onto a cycle.
    # Hence every cycle or its mirror holds a start form, one with 0 < A and
    # 4A**2 < D (that is, A <= amax), and each walk adds a cycle with its mirror:
    # once every start form lies on a walked cycle, no cycle is left, so the
    # start forms are counted first and the walks stop when none is left.
    s, amax = isqrt(D), isqrt(D - 1) // 2
    residues = _residues(D, amax)
    left = _root_count(residues)  # one start form per root x mod 2A, see below
    canon, reps = {}, []
    for A, xs in _roots(residues):
        # (A, B, C) is reduced when 0 < B < sqrt(D) and
        # sqrt(D) - B < 2|A| < sqrt(D) + B.  Given 2A < sqrt(D), that is B in
        # [s + 1 - 2A, s]: B*B < D is B <= s and sqrt(D) - B < 2A is B >= s + 1 - 2A.
        # That range holds one B per root, and B >= 1 as 2A <= isqrt(D - 1).
        # Primitivity holds as for D < 0.
        twoa = 2 * A
        lo = s + 1 - twoa
        for x in xs:
            B = lo + (x - lo) % twoa
            start = (A, B, (B * B - D) // (4 * A))
            if start in canon:
                continue
            cyc = _cycle(start, D, s)
            # the start forms of the cycle and those of its mirror, which sigma
            # swaps: half of them when the mirror is the cycle itself
            covered = len([a for a, _, _ in cyc if -amax <= a <= amax])
            reps.append(min(cyc))
            canon.update(dict.fromkeys(cyc, reps[-1]))
            if (-A, B, -start[2]) in canon:  # sigma maps the cycle onto itself
                covered //= 2
            else:
                mirror = [(-a, b, -c) for a, b, c in cyc]
                reps.append(min(mirror))
                canon.update(dict.fromkeys(mirror, reps[-1]))
            left -= covered
        if not left:
            break
    if left:
        raise InvariantViolated(f"D = {D}: {left} start forms lie on no cycle")
    reps.sort()
    return ClassGroup(D, len(reps), reps.__iter__, canon)


def _ranks(group: ClassGroup) -> tuple[int, int, int]:
    """(r2, r4, r8) of `group`, read off by counting 2-power torsion.

    Only the 2-Sylow subgroup S = G**m, of order 2**e where h = 2**e * m with m
    odd, is looked at: it holds every G[2**k], and h is an exact count, so S is
    complete once it has 2**e elements.
    """
    D, reduce = group.D, group._reduce

    def mul(f, g):
        return reduce(_compose_raw(f, g, D))

    two = group.order & -group.order
    m = group.order // two
    if m == 1:  # S is G: its list costs less than its closure, which took 1.5x as long
        sylow = group._reps
    else:
        S = dict.fromkeys([group._identity])  # an ordered set, identity first
        for f in group._forms():  # read only as far as the closure needs
            if len(S) == two:
                break
            g = f  # g = f**m, by square-and-multiply over the bits of m
            for bit in bin(m)[3:]:
                g = mul(g, g)
                if bit == "1":
                    g = mul(g, f)
            if g in S:
                continue
            base = list(S)[1:]
            gk = g
            while gk not in S:  # add the coset g**k * S, for k = 1, 2, ... until g**k is in S
                S[gk] = None
                for s in base:
                    S[mul(s, gk)] = None
                gk = mul(gk, g)
        sylow = list(S)
    index = {f: i for i, f in enumerate(sylow)}
    square = [index[mul(f, f)] for f in sylow]
    identity = index[group._identity]
    counts = []
    powers = range(len(square))  # the index of g^(2^k), for each g in S
    for _ in range(4):
        counts.append(powers.count(identity))
        powers = [square[i] for i in powers]
    return tuple((counts[k + 1] // counts[k]).bit_length() - 1 for k in range(3))


def narrow_ranks(D: int) -> tuple[int, int, int]:
    """(r2, r4, r8) of the narrow class group of D, from the form class group."""
    return _ranks(enumerate_classes(D))
