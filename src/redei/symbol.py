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

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations
from math import prod

from .arith import (
    CACHE_SIZE,
    INFINITY,
    _Arg,
    _arg,
    _fails_at_2,
    _fails_at_odd,
    _p_star,
    kronecker,
    square_class,
)
from .conic import ConicSolution, enumerate_solutions, solve_pair_squarefree
from .errors import (
    DegenerateSquareClass,
    InvalidTriple,
    RamificationAssertFailed,
    TrivialClass,
)
from .quadfield import QuadElt, conductor_two_at_two, split_units, unramified_at_two

A_SIDE = "A"
B_SIDE = "B"

UNRAMIFIED_AT_2 = "unramified_at_2"
TWO_MINIMAL = "two_minimal"
ODD_ONLY = "odd_only"


class Violation(namedtuple("Violation", "kind slot pair place")):
    """kind is "hilbert" or "common_factor"; slot names the argument pair, e.g.
    "a,c", and pair holds its classes (both None for a common factor)."""

    __slots__ = ()

    def __str__(self):
        if self.kind == "hilbert":
            return f"hilbert symbol ({self.slot}) = {self.pair} fails at {self.place}"
        return f"all three discriminants share the prime {self.place}"


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


# _is_valid stays beside _violations: rejection sampling draws hundreds of
# candidates per accepted triple, and the first violation of the generator,
# which yields in the pinned report order, costs about four times as much
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


class TwistingGroup(namedtuple("TwistingGroup", "a b generators")):
    """Square classes whose twists preserve minimal ramification of F over (a, b)."""

    __slots__ = ()

    def sample(self) -> list[int]:
        """A few nontrivial members: the generators and their pairwise products."""
        gens = self.generators
        out = list(gens) + [square_class(g * h) for g, h in combinations(gens, 2)]
        return [t for t in dict.fromkeys(out) if t != 1]


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
    gens = [_p_star(p) for p in sorted(set(ra.odd + rb.odd))]
    two_parts = [_two_part(ra), _two_part(rb)]
    gens.extend(t for t in two_parts if t != 1)
    if 1 not in two_parts:
        gens.extend([-1, 2])
    return TwistingGroup(ra.n, rb.n, tuple(dict.fromkeys(gens)))


class MinRamWitness(namedtuple("MinRamWitness", "a b beta alpha twist solution ram_case")):
    """beta = twist*(x + y sqrt a) over Q(sqrt a), of norm in b * squares, and
    alpha = twist*(2x + 2z sqrt b) over Q(sqrt b), of norm in a * squares, from
    the conic point solution = (x, y, z); ram_case is the case of _ram_case."""

    __slots__ = ()


def _ram_case(a: int, b: int) -> tuple[str, str | None]:
    """(case, side) where side names the field over which the dyadic test runs.

    For squarefree n != 1, disc Q(sqrt n) is odd iff n = 1 mod 4, is 1 or 5
    mod 8 iff n is, and is 4 mod 8 iff n = 3 mod 4."""
    if a == 1 or b == 1:
        raise TrivialClass("the trivial square class has no quadratic field")
    if a % 4 == 1 and b % 4 == 1:
        return UNRAMIFIED_AT_2, A_SIDE
    if a % 8 == 1:  # disc b even
        return UNRAMIFIED_AT_2, B_SIDE
    if b % 8 == 1:  # disc a even
        return UNRAMIFIED_AT_2, A_SIDE
    if a % 4 == 3 and b % 8 == 5:
        return TWO_MINIMAL, A_SIDE
    if b % 4 == 3 and a % 8 == 5:
        return TWO_MINIMAL, B_SIDE
    return ODD_ONLY, None


def _minimally_ramified(case: str, side: str | None, beta: QuadElt, alpha: QuadElt) -> bool:
    """The dyadic condition of _ram_case(a, b) on the witness pair (beta, alpha)."""
    if case == ODD_ONLY:
        return True
    elt = beta if side == A_SIDE else alpha
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
def _pair_witnesses(a: int, b: int, a_odd: tuple, b_odd: tuple) -> list:
    """For square classes a < b with odd primes a_odd and b_odd: [least point
    of (a, b), least point of (b, a), witness of (a, b), witness of (b, a)].
    One search of the shared Holzer box finds both points; each witness is
    built on first use, since the rank matrices read one order of most pairs.
    a_odd and b_odd follow from a and b, so they leave the memo keyed on the
    pair; they are passed so that the search factors nothing."""
    return [*solve_pair_squarefree(a, b, sorted(set(a_odd).union(b_odd))), None, None]


def _witness(a: _Arg, b: _Arg) -> MinRamWitness:
    """The witness of (a.n, b.n), for distinct nontrivial classes; both orders
    of a pair share one memo entry."""
    if a.n < b.n:
        entry, i = _pair_witnesses(a.n, b.n, a.odd, b.odd), 0
    else:
        entry, i = _pair_witnesses(b.n, a.n, b.odd, a.odd), 1
    w = entry[2 + i]
    if w is None:
        w = entry[2 + i] = witness_from_solution(a.n, b.n, entry[i])
    return w


def minimally_ramified_witness(a: int, b: int) -> MinRamWitness:
    """The witness of the square classes of (a, b), from the least conic point."""
    ra, rb = _arg(a), _arg(b)
    if ra.n == 1 or rb.n == 1:
        raise TrivialClass("witness needs nontrivial classes")
    if ra.n == rb.n:
        raise DegenerateSquareClass("ab is a square; no dihedral extension")
    return _witness(ra, rb)


def twist_witness(w: MinRamWitness, t: int) -> MinRamWitness:
    """Twist a witness by t in T_{a,b}; the result is re-checked minimally ramified."""
    t = square_class(t)
    beta, alpha = w.beta * t, w.alpha * t
    if not _minimally_ramified(*_ram_case(w.a, w.b), beta, alpha):
        raise RamificationAssertFailed(f"twist {t} is not in the twisting group")
    return w._replace(beta=beta, alpha=alpha, twist=square_class(w.twist * t))


def _odd_part(w: MinRamWitness, p: int) -> tuple[int, str]:
    # prefer the side where p splits: the B side when p | a, the A side otherwise
    side, elt = (B_SIDE, w.alpha) if w.a % p == 0 else (A_SIDE, w.beta)
    for v, unit in split_units(elt, p):
        if v % 2 == 0:
            return kronecker(unit, p), side
    raise RamificationAssertFailed(f"odd valuation over {p} at both conjugate primes")


def _dyadic_part(w: MinRamWitness) -> tuple[int, str]:
    # relabel to the side whose radicand is 1 mod 8, where 2 splits
    if w.a % 8 == 1:
        side, elt = A_SIDE, w.beta
    elif w.b % 8 == 1:
        side, elt = B_SIDE, w.alpha
    else:
        raise RamificationAssertFailed("no side with radicand 1 mod 8 at p = 2")
    # at a prime of odd valuation, or of unit 3 mod 4, the square root ramifies
    values = {1 if u == 1 else -1 for v, u in split_units(elt, 2, 3) if v % 2 == 0 and u % 4 == 1}
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


class SymbolTrace(namedtuple("SymbolTrace", "a b c value parts sides witness")):
    """[a, b, c] = value, the product of the local parts, each keyed on its place
    and computed on the side named in sides; witness is None for a trivial argument."""

    __slots__ = ()


def _symbol_from_witness(w: MinRamWitness, c) -> SymbolTrace:
    """[w.a, w.b, c] from the witness w; c is an int or, on the internal paths,
    its _Arg record."""
    arg = c if type(c) is _Arg else _arg(c)
    parts, sides = {}, {}
    for v in [2] * arg.even + list(arg.odd) + [INFINITY] * arg.negative:
        parts[v], sides[v] = _local_part(w, v)
    return SymbolTrace(w.a, w.b, arg.n, prod(parts.values()), parts, sides, w)


def _symbol(a: _Arg, b: _Arg, c: _Arg) -> SymbolTrace:
    """redei_symbol on the records of its arguments."""
    if 1 in (a.n, b.n, c.n):
        # the trivial-argument rule applies regardless of the remaining pair
        return SymbolTrace(a.n, b.n, c.n, 1, {}, {}, None)
    if not _is_valid(a, b, c):
        raise InvalidTriple(_violations(a, b, c))
    if a.n == b.n:
        raise DegenerateSquareClass(f"[{a.n}, {b.n}, {c.n}] has ab square")
    return _symbol_from_witness(_witness(a, b), c)


def redei_symbol(a, b, c) -> SymbolTrace:
    """[a, b, c] with its local parts; trilinear and symmetric for valid triples."""
    return _symbol(_arg(a), _arg(b), _arg(c))


class ReciprocityReport(namedtuple("ReciprocityReport", "triple values consistent")):
    """values maps each ordering of triple to its symbol; consistent iff they agree."""

    __slots__ = ()


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
    for x, y, z in permutations(args):
        values[x.n, y.n, z.n] = _symbol_from_witness(_witness(x, y), z).value
    return ReciprocityReport((a, b, c), values, len(set(values.values())) == 1)


def verify_twist_independence(a, b, c) -> list[tuple[int, int, int, int, int]]:
    """Evaluate [a, b, c] from other witnesses of (a, b) and compare with redei_symbol.

    The other witnesses come from the next two conic points and from twists of
    the least witness by the first two generators of the twisting group; the value depends
    on neither choice.  Returns (a, b, c, value, other) for each witness that
    gives another value, on the square classes of the arguments."""
    trace = redei_symbol(a, b, c)
    a, b, c, w = trace.a, trace.b, trace.c, trace.witness
    if w is None:
        raise TrivialClass("twist independence needs nontrivial classes")
    alternates = [witness_from_solution(a, b, sol) for sol in enumerate_solutions(a, b, 3)[1:]]
    alternates += [twist_witness(w, t) for t in twisting_group(a, b).generators[:2]]
    return [
        (a, b, c, trace.value, other)
        for other in (_symbol_from_witness(alt, c).value for alt in alternates)
        if other != trace.value
    ]
