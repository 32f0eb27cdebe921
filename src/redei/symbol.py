"""The trilinear symbol [a,b,c]: minimally ramified dihedral witnesses, local parts,
and the assembled value, together with its symmetry checks.

A witness for the pair (a, b) is a conic solution (x, y, z) twisted by some
t in {1, -1, 2, -2} so that beta = t(x + y*sqrt a) generates an extension of
E = Q(sqrt a, sqrt b) with the least possible ramification: unramified at all odd
primes not dividing both discriminants (automatic for primitive solutions),
unramified over 2 whenever possible, and of dyadic conductor 2 in the one case
where ramification over 2 cannot be avoided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, permutations

from .arith import (
    CACHE_SIZE,
    INFINITY,
    discriminant,
    kronecker,
    prime_divisors,
    square_class,
)
from .conic import ConicSolution, solve
from .errors import (
    DegenerateSquareClass,
    InvalidTriple,
    OddValuation,
    PartUndefined,
    RamificationAssertFailed,
    TrivialClass,
)
from .gf2 import in_span
from .quadfield import (
    SPLIT,
    QuadElt,
    conductor_two_at_two,
    dyadic_embedding,
    primes_above,
    residue_symbol,
    unramified_at_two,
)

A_SIDE = "A"
B_SIDE = "B"

UNRAMIFIED_AT_2 = "unramified_at_2"
TWO_MINIMAL = "two_minimal"
ODD_ONLY = "odd_only"


@dataclass(frozen=True)
class Violation:
    kind: str  # "hilbert" or "common_factor"
    slot: str | None  # which argument pair, e.g. "a,c"
    pair: tuple | None
    place: object

    def __str__(self):
        if self.kind == "hilbert":
            return f"hilbert symbol ({self.slot}) = {self.pair} fails at {self.place}"
        return f"all three discriminants share the prime {self.place}"


@dataclass(frozen=True, slots=True)
class _Arg:
    """One argument of the symbol, canonicalized and factored once."""

    n: int  # the squarefree class
    negative: bool
    even: int  # 1 iff 2 | n
    odd: tuple[int, ...]  # the odd primes dividing n, ascending
    # epsilon and omega of the odd part n' = n / 2**even, read mod 8:
    # (n' - 1)/2 and (n'^2 - 1)/8, each mod 2
    eps: int
    omega: int


@lru_cache(maxsize=CACHE_SIZE)
def _arg(q) -> _Arg:
    """The record of q, memoized: canonicalizing and factoring is done once per q."""
    n = square_class(q)
    primes = prime_divisors(n)
    even = 1 if primes and primes[0] == 2 else 0
    unit = (n >> even) % 8
    return _Arg(n, n < 0, even, tuple(primes[even:]), (unit >> 1) & 1, (unit * unit - 1) // 8 % 2)


def _fails_at_2(u: _Arg, w: _Arg) -> int:
    """1 iff (u, w)_2 = -1 (Serre, A Course in Arithmetic, III.1.2, Thm 1)."""
    return (u.eps & w.eps) ^ (u.even & w.omega) ^ (w.even & u.omega)


def _fails_at_odd(u: int, w: int, p: int) -> bool:
    """True iff (u, w)_p = -1, for squarefree u, w and an odd prime p dividing u or w."""
    if u % p:
        return kronecker(u, p) == -1
    if w % p:
        return kronecker(w, p) == -1
    return kronecker(-(u // p) * (w // p), p) == -1


def _shared_primes(a: _Arg, b: _Arg, c: _Arg) -> list[int]:
    """Primes dividing all three discriminants, ascending: 2 when no class is 1 mod 4."""
    shared = sorted(set(a.odd).intersection(b.odd, c.odd))
    if a.n % 4 != 1 and b.n % 4 != 1 and c.n % 4 != 1:
        shared.insert(0, 2)
    return shared


def _violations(a: _Arg, b: _Arg, c: _Arg):
    """Every failing condition of (a, b, c), lazily: first the primes shared by
    all three discriminants, then for the pairs (a,b), (a,c), (b,c) the Hilbert
    failures at infinity, at 2 and at ascending odd p."""
    for p in _shared_primes(a, b, c):
        yield Violation("common_factor", None, None, p)
    for slot, u, w in (("a,b", a, b), ("a,c", a, c), ("b,c", b, c)):
        pair = (u.n, w.n)
        if u.negative and w.negative:
            yield Violation("hilbert", slot, pair, INFINITY)
        if _fails_at_2(u, w):
            yield Violation("hilbert", slot, pair, 2)
        # (u, w)_p = 1 at every odd p dividing neither u nor w
        for p in sorted(set(u.odd).union(w.odd)):
            if _fails_at_odd(u.n, w.n, p):
                yield Violation("hilbert", slot, pair, p)


def _is_valid(a: _Arg, b: _Arg, c: _Arg) -> bool:
    """The conditions of _violations, cheapest first."""
    if a.negative + b.negative + c.negative > 1:
        return False
    if _fails_at_2(a, b) or _fails_at_2(a, c) or _fails_at_2(b, c):
        return False
    if _shared_primes(a, b, c):
        return False
    for u, w in ((a, b), (a, c), (b, c)):
        for p in u.odd + w.odd:
            if _fails_at_odd(u.n, w.n, p):
                return False
    return True


def validate_triple(a, b, c) -> list[Violation]:
    """Empty list iff (a, b, c) admits a symbol; otherwise every failing condition."""
    return list(_violations(_arg(a), _arg(b), _arg(c)))


def is_valid_triple(a, b, c) -> bool:
    """Short-circuit form of validate_triple, for rejection-sampling sweeps."""
    return _is_valid(_arg(a), _arg(b), _arg(c))


@dataclass(frozen=True)
class TwistingGroup:
    """Square classes whose twists preserve minimal ramification of F over (a, b)."""

    a: int
    b: int
    generators: tuple[int, ...]

    def contains(self, t: int) -> bool:
        t = _arg(t)
        if t.n == 1:
            return True
        gens = [_arg(g) for g in self.generators]
        primes = sorted({p for g in gens + [t] for p in _primes(g)})
        index = {p: i + 1 for i, p in enumerate(primes)}  # bit 0 is the sign

        def vec(g: _Arg) -> int:
            v = int(g.negative)
            for p in _primes(g):
                v |= 1 << index[p]
            return v

        return in_span(vec(t), [vec(g) for g in gens], len(primes) + 1)

    def sample(self) -> list[int]:
        """A few nontrivial members: the generators and their pairwise products."""
        gens = self.generators
        out = list(gens) + [square_class(g * h) for g, h in combinations(gens, 2)]
        return [t for t in dict.fromkeys(out) if t != 1]


def _primes(g: _Arg) -> tuple[int, ...]:
    return (2,) * g.even + g.odd


def _two_part(g: _Arg) -> int:
    """Square class of the 2-part of disc Q(sqrt n): 1, -1, 2 or -2."""
    if g.even:
        return -2 if g.eps else 2
    return -1 if g.eps else 1


def twisting_group(a: int, b: int) -> TwistingGroup:
    """Generators: p* for the odd primes of a or b, the 2-parts of the two
    discriminants, and -1, 2 when both discriminants are even."""
    ra, rb = _arg(a), _arg(b)
    if ra.n == 1 or rb.n == 1:
        raise TrivialClass("twisting group needs nontrivial classes")
    gens = [p if p % 4 == 1 else -p for p in sorted(set(ra.odd + rb.odd))]
    two_parts = [_two_part(ra), _two_part(rb)]
    gens.extend(t for t in two_parts if t != 1)
    if 1 not in two_parts:
        gens.extend([-1, 2])
    return TwistingGroup(ra.n, rb.n, tuple(dict.fromkeys(gens)))


@dataclass(frozen=True)
class MinRamWitness:
    a: int
    b: int
    beta: QuadElt  # over Q(sqrt a), norm in b * squares
    alpha: QuadElt  # over Q(sqrt b), norm in a * squares
    twist: int
    solution: ConicSolution
    ram_case: str


def _ram_case(a: int, b: int) -> tuple[str, str | None]:
    """(case, side) where side names the field over which the dyadic test runs."""
    da, db = discriminant(a), discriminant(b)
    both_odd = da % 2 == 1 and db % 2 == 1
    if both_odd:
        return UNRAMIFIED_AT_2, "a"
    if da % 8 == 1:  # db even
        return UNRAMIFIED_AT_2, "b"
    if db % 8 == 1:  # da even
        return UNRAMIFIED_AT_2, "a"
    if {da % 8, db % 8} == {4, 5}:
        return TWO_MINIMAL, "a" if da % 8 == 4 else "b"
    return ODD_ONLY, None


def _minimally_ramified(case: str, side: str | None, beta: QuadElt, alpha: QuadElt) -> bool:
    """The dyadic condition of _ram_case(a, b) on the witness pair (beta, alpha)."""
    if case == ODD_ONLY:
        return True
    elt = beta if side == "a" else alpha
    if case == UNRAMIFIED_AT_2:
        return unramified_at_two(elt)
    return conductor_two_at_two(elt)


def witness_from_solution(a: int, b: int, sol: ConicSolution) -> MinRamWitness:
    """Choose the twist in {1, -1, 2, -2} that makes F minimally ramified."""
    beta0 = QuadElt(sol.x, sol.y, a)
    alpha0 = QuadElt(2 * sol.x, 2 * sol.z, b)
    case, side = _ram_case(a, b)
    for t in (1, -1, 2, -2):
        beta, alpha = beta0 * t, alpha0 * t
        if _minimally_ramified(case, side, beta, alpha):
            return MinRamWitness(a, b, beta, alpha, t, sol, case)
    raise RamificationAssertFailed(
        f"no twist in {{1,-1,2,-2}} normalizes ({a}, {b}) from {sol}"
    )


@lru_cache(maxsize=CACHE_SIZE)
def minimally_ramified_witness(a: int, b: int) -> MinRamWitness:
    a, b = square_class(a), square_class(b)
    if a == 1 or b == 1:
        raise TrivialClass("witness needs nontrivial classes")
    if a == b:
        raise DegenerateSquareClass("ab is a square; no dihedral extension")
    return witness_from_solution(a, b, solve(a, b))


def twist_witness(w: MinRamWitness, t: int) -> MinRamWitness:
    """Twist a witness by t in T_{a,b}; the result is re-checked minimally ramified."""
    t = square_class(t)
    beta, alpha = w.beta * t, w.alpha * t
    if not _minimally_ramified(*_ram_case(w.a, w.b), beta, alpha):
        raise RamificationAssertFailed(f"twist {t} is not in the twisting group")
    return replace(w, beta=beta, alpha=alpha, twist=square_class(w.twist * t))


def _odd_part(w: MinRamWitness, p: int) -> tuple[int, str]:
    # prefer the side where p splits: the B side when p | a, the A side otherwise
    if w.a % p == 0:
        side, elt, radicand = B_SIDE, w.alpha, w.b
    else:
        side, elt, radicand = A_SIDE, w.beta, w.a
    kind, fraks = primes_above(p, radicand)
    if kind != SPLIT:
        raise RamificationAssertFailed(
            f"{p} does not split in the evaluation field Q(sqrt {radicand})"
        )
    for frak in fraks:
        try:
            return residue_symbol(elt, frak), side
        except OddValuation:
            continue
    raise RamificationAssertFailed(f"odd valuation over {p} at both conjugate primes")


def _dyadic_part(w: MinRamWitness) -> tuple[int, str]:
    # relabel to the side whose radicand is 1 mod 8, where 2 splits
    if w.a % 8 == 1:
        side, elt, radicand = A_SIDE, w.beta, w.a
    elif w.b % 8 == 1:
        side, elt, radicand = B_SIDE, w.alpha, w.b
    else:
        raise RamificationAssertFailed("no side with radicand 1 mod 8 at p = 2")
    _, fraks = primes_above(2, radicand)
    values = set()
    for frak in fraks:
        try:
            u = dyadic_embedding(elt, 3, frak)
        except OddValuation:
            continue
        if u % 4 != 1:
            continue  # the square root ramifies at this prime; use the conjugate
        values.add(1 if u == 1 else -1)
    if len(values) != 1:
        raise RamificationAssertFailed(
            f"dyadic part undetermined for ({w.a}, {w.b}): units {values}"
        )
    return values.pop(), side


def _local_part(w: MinRamWitness, v) -> tuple[int, str]:
    """(value, side) of the local factor at v, for a c < 0 at infinity or v | c."""
    if v is INFINITY:
        # c < 0 forces a, b > 0; beta is totally positive or totally negative
        if w.a < 0 or w.beta.norm() <= 0:
            raise RamificationAssertFailed("sign part needs a totally real witness")
        return (1 if w.beta.x > 0 else -1), A_SIDE
    if v == 2:
        return _dyadic_part(w)
    return _odd_part(w, v)


def p_part(w: MinRamWitness, c: int, v) -> int:
    """Local factor of [a, b, c] at the place v, computed from the witness w."""
    c = square_class(c)
    if v is INFINITY:
        if c > 0:
            return 1
    else:
        v = int(v)
        if c % v != 0:
            raise PartUndefined(f"{v} does not divide {c}")
    return _local_part(w, v)[0]


@dataclass(frozen=True)
class SymbolTrace:
    a: int
    b: int
    c: int
    value: int
    parts: dict
    sides: dict
    witness: MinRamWitness | None

    def __int__(self):
        return self.value


def _symbol_from_witness(w: MinRamWitness, c: int) -> SymbolTrace:
    arg = _arg(c)
    parts, sides = {}, {}
    for v in [2] * arg.even + list(arg.odd) + [INFINITY] * arg.negative:
        parts[v], sides[v] = _local_part(w, v)
    value = 1
    for s in parts.values():
        value *= s
    return SymbolTrace(w.a, w.b, c, value, parts, sides, w)


def redei_symbol(a, b, c) -> SymbolTrace:
    """[a, b, c] with its local parts; trilinear and symmetric for valid triples."""
    args = _arg(a), _arg(b), _arg(c)
    a, b, c = (arg.n for arg in args)
    if 1 in (a, b, c):
        # the trivial-argument rule applies regardless of the remaining pair
        return SymbolTrace(a, b, c, 1, {}, {}, None)
    if not _is_valid(*args):
        raise InvalidTriple(_violations(*args))
    if a == b:
        raise DegenerateSquareClass(f"[{a}, {b}, {c}] has ab square")
    return _symbol_from_witness(minimally_ramified_witness(a, b), c)


@dataclass(frozen=True)
class ReciprocityReport:
    triple: tuple[int, int, int]
    values: dict
    consistent: bool


def verify_reciprocity(a, b, c) -> ReciprocityReport:
    """Evaluate all orderings of (a, b, c) independently and compare.

    The triple conditions are symmetric, so they are checked once; each ordering
    builds its own witness and local parts."""
    args = _arg(a), _arg(b), _arg(c)
    a, b, c = (arg.n for arg in args)
    if 1 in (a, b, c) or a == b or a == c or b == c:
        raise DegenerateSquareClass(f"({a}, {b}, {c}) has a degenerate pair")
    if not _is_valid(*args):
        raise InvalidTriple(_violations(*args))
    values = {}
    for x, y, z in permutations((a, b, c)):
        values[x, y, z] = _symbol_from_witness(minimally_ramified_witness(x, y), z).value
    return ReciprocityReport((a, b, c), values, len(set(values.values())) == 1)
