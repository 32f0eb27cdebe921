"""Primitive integral points on the Legendre conic x^2 - a*y^2 - b*z^2 = 0.

``solve`` returns the lexicographically smallest primitive point (x, y, z) with
nonnegative entries inside the Holzer box |y| <= isqrt|b|, |z| <= isqrt|a|,
which holds a point whenever the conic has a rational one.  The box of (b, a)
is that of (a, b) with y and z swapped, so ``solve_pair`` reads the least
points of both orders from one search.  Below the public entries every
function takes ``primes``: the odd p dividing a or b exactly once and neither
of them twice, ascending.  ``solve_pair`` reads them once from factor(a) and
factor(b), in ``_congruence_primes``; ``solve_pair_squarefree`` takes them from
a caller that already knows them, and factors nothing on its way to a point:
only the local symbols factor there, read by ``is_solvable`` when the Holzer
box holds no point or a large box falls back to the cell scan.
``_box_solutions`` lists the primitive points of least x in a box, ties
included, by one of two exact enumerations, which return the same list:

* the cell scan walks each row z of the box from its first y with
  t = a*y^2 + b*z^2 >= 0, in the direction where t grows, tests t for a square,
  and leaves the row once t passes the least x^2 found so far: at most
  O(|box|) work, cheapest on small boxes;
* the lattice path (after Cremona and Rusin, "Efficient solution of rational
  conics", Math. Comp. 72 (2003)) uses that a primitive point satisfies, at
  each odd prime p dividing a or b exactly once, a congruence fixed by a square
  root mod p and a sign.  Each choice of signs, up to the sign symmetries of
  the conic, gives a lattice of index about |ab| with O(1) points in the box.
  A basis reduced under the box-weighted norm and coefficient bounds taken
  exactly from the adjugate find all of them, so reduction quality affects
  only speed.  The points past the least x are then dropped.

A box takes the lattice path when it has more than ``LATTICE_CELLS`` cells, a
crossover measured against the old full-box loop (see the constant), unless
square factors of a and b leave the lattices more candidate points than the
box has cells.  ``chord_points`` finds more points with no search, on the
lines through one point.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count, product
from math import gcd, inf, isqrt, prod

from .arith import factor, hilbert, hilbert_places, kronecker, sqrt_mod_p
from .errors import InvariantViolated, NotSolvable, SearchExhausted, ZeroInput

# boxes with more (y, z) cells than this are enumerated by lattices.  1,500
# cells was the crossover against the old full-box loop; the pruned cell scan
# has since moved it (cheaper than the lattices near 1,500 and 5,000 cells,
# dearer near 20,000), but no ladder has measured the new one, so it stays
LATTICE_CELLS = 1_500

# LLL swap and size-reduction steps per basis; more only means a better basis
_LLL_STEPS = 200


class ConicSolution(namedtuple("ConicSolution", "x y z a b")):
    """A primitive point (x, y, z) of x^2 - a*y^2 - b*z^2 = 0, checked when built."""

    __slots__ = ()

    def __new__(cls, x, y, z, a, b):
        self = super().__new__(cls, x, y, z, a, b)
        if x == y == z == 0:
            raise ZeroInput("the zero triple is not a solution")
        if x**2 - a * y**2 - b * z**2 != 0:
            raise InvariantViolated(f"{self} is not on the conic")
        if gcd(gcd(x, y), z) != 1:
            raise InvariantViolated(f"{self} is not primitive")
        return self


def _nonzero(a: int, b: int) -> None:
    if a == 0 or b == 0:
        raise ZeroInput("conic coefficients must be nonzero")


def is_solvable(a: int, b: int) -> bool:
    """Local-global: solvable over Q iff every local symbol (a,b)_v is +1."""
    _nonzero(a, b)
    return all(hilbert(a, b, v) == 1 for v in hilbert_places(a, b))


def _search(a: int, b: int, ybound: int, zbound: int):
    """The cell scan: the sorted primitive points of least x with
    0 <= y <= ybound, 0 <= z <= zbound.

    Each row z is walked from its first y with t = a*y^2 + b*z^2 >= 0 in the
    direction where t grows, and left once t passes the least x^2 found so
    far; a point of equal x^2 is still taken.
    """
    if a < 0 and b < 0:
        return []
    found = []
    cutoff = inf  # the least x^2 found so far
    for z in range(zbound + 1):
        bz = b * z * z
        if a > 0:
            ys = range(isqrt((-bz - 1) // a) + 1 if bz < 0 else 0, ybound + 1)
        else:
            ys = range(min(ybound, isqrt(bz // -a)), -1, -1)
        for y in ys:
            t = a * y * y + bz
            if t > cutoff:
                break
            x = isqrt(t)
            if x * x != t or gcd(gcd(x, y), z) != 1:
                continue
            if t < cutoff:
                found, cutoff = [], t
            found.append((x, y, z))
    found.sort()
    return found


def _congruence_primes(a: int, b: int) -> list[int]:
    """The primes of the module docstring, for nonzero a and b."""
    _nonzero(a, b)
    ea, eb = dict(factor(a)), dict(factor(b))
    return [
        p for p in sorted(ea.keys() | eb.keys()) if p != 2 and ea.get(p, 0) < 2 and eb.get(p, 0) < 2
    ]


def _congruences(a: int, b: int, primes):
    """(kind, p, root) at each p in primes, or None if a root is missing (then
    the conic has no primitive point).

    A primitive point has x = +-root*z (mod p) for kind "z" (p | a only),
    x = +-root*y for kind "y" (p | b only), and x = 0, y = +-root*z for kind
    "yz" (p divides both); 2 and primes whose square divides a or b add none.
    """
    out = []
    for p in primes:
        if b % p:
            kind, n = "z", b % p
        elif a % p:
            kind, n = "y", a % p
        else:
            kind, n = "yz", -(b // p) * pow(a // p, -1, p) % p
        if kronecker(n, p) != 1:
            return None
        out.append((kind, p, sqrt_mod_p(n, p)))
    return out


def _crt_units(moduli):
    m = prod(moduli)
    return [m // p * pow(m // p, -1, p) % m for p in moduli]


def _reduce(basis, weights):
    """LLL (delta 0.99) of three integer vectors under the norm sum (w_i v_i)^2.

    Floats only steer the integer row operations, so the result always spans
    the same lattice; a capped step count bounds the work.
    """
    b = [list(v) for v in basis]
    wx, wy, wz = weights
    star, norms = [], []  # Gram-Schmidt vectors of b[0], ..., b[k-1], weighted
    k = 0
    for _ in range(_LLL_STEPS):
        if k == 3:
            break
        v = b[k]
        f = (v[0] * wx, v[1] * wy, v[2] * wz)
        for j in range(k - 1, -1, -1):
            s = star[j]
            q = round((f[0] * s[0] + f[1] * s[1] + f[2] * s[2]) / norms[j])
            if q:
                u = b[j]
                v = b[k] = [v[0] - q * u[0], v[1] - q * u[1], v[2] - q * u[2]]
                f = (v[0] * wx, v[1] * wy, v[2] * wz)
        g, mu = f, 0.0
        for j in range(k):
            s = star[j]
            mu = (f[0] * s[0] + f[1] * s[1] + f[2] * s[2]) / norms[j]
            g = (g[0] - mu * s[0], g[1] - mu * s[1], g[2] - mu * s[2])
        n = g[0] * g[0] + g[1] * g[1] + g[2] * g[2]
        if k == 0 or n > 0 and n >= (0.99 - mu * mu) * norms[k - 1]:
            star.append(g)
            norms.append(n)
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            del star[k - 1 :], norms[k - 1 :]
            k -= 1
    return b


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _lattice_box_points(basis, bounds, a: int, b: int, found: set) -> None:
    """Add |P| to found for each primitive conic point P of the lattice with
    |P_t| <= bounds[t]."""
    u, v, w = basis
    # P = cu*u + cv*v + cw*w with c_i = rows[i] . P / det, rows the adjugate,
    # so a box point has |c_i| <= sum_t |rows[i][t]| * bounds[t] / det
    rows = (_cross(v, w), _cross(w, u), _cross(u, v))
    det = abs(sum(p * q for p, q in zip(u, rows[0])))
    cu, cv, cw = (sum(abs(r) * m for r, m in zip(row, bounds)) // det for row in rows)
    # P and -P give the same point, so the last nonzero coefficient is positive
    for k in range(cw + 1):
        for j in range(-cv if k else 0, cv + 1):
            base = [j * v[t] + k * w[t] for t in range(3)]
            lo, hi = (1 if j == k == 0 else -cu), cu
            for t in range(3):
                # the i with |base_t + i*u_t| <= bounds[t]
                if u[t] > 0:
                    lo = max(lo, -((bounds[t] + base[t]) // u[t]))
                    hi = min(hi, (bounds[t] - base[t]) // u[t])
                elif u[t] < 0:
                    lo = max(lo, -((bounds[t] - base[t]) // -u[t]))
                    hi = min(hi, (bounds[t] + base[t]) // -u[t])
                elif abs(base[t]) > bounds[t]:
                    hi = lo - 1
            for i in range(lo, hi + 1):
                x = abs(base[0] + i * u[0])
                y = abs(base[1] + i * u[1])
                z = abs(base[2] + i * u[2])
                if x * x == a * y * y + b * z * z and gcd(gcd(x, y), z) == 1:
                    found.add((x, y, z))


def _xbound(a: int, b: int, ybound: int, zbound: int) -> int:
    return isqrt(max(a, 0) * ybound * ybound + max(b, 0) * zbound * zbound)


def _lattices(a: int, b: int, ybound: int, zbound: int, primes):
    """(bases, candidates): a basis of each congruence lattice, one per sign
    orbit, which together hold every primitive point with |y| <= ybound,
    |z| <= zbound, and the number of lattice points expected in that box."""
    xbound = _xbound(a, b, ybound, zbound)
    conds = _congruences(a, b, primes) if xbound else None
    if conds is None:
        return [], 0
    kinds = [kind for kind, _, _ in conds]
    primes = [p for _, p, _ in conds]
    yz = [i for i, kind in enumerate(kinds) if kind == "yz"]
    m, c = prod(primes), prod(primes[i] for i in yz)
    # Flipping the sign of z negates the choices of kinds "z" and "yz", flipping
    # y those of "y" and "yz".  One choice per orbit: fix the sign at the first
    # "z" and the first "y", and at the first "yz" if one of those is missing.
    first = {}
    for i, kind in enumerate(kinds):
        first.setdefault(kind, i)
    fixed = {first[kind] for kind in ("z", "y") if kind in first}
    if "yz" in first and len(fixed) < 2:
        fixed.add(first["yz"])
    choices = list(product(*[(1,) if i in fixed else (1, -1) for i in range(len(kinds))]))
    units = _crt_units(primes)
    yz_units = _crt_units([primes[i] for i in yz])
    bases = []
    for signs in choices:
        alpha = beta = 0
        for (kind, _, root), e, s in zip(conds, units, signs):
            if kind == "y":
                alpha += s * root * e
            elif kind == "z":
                beta += s * root * e
        shift = sum(signs[i] * conds[i][2] * e for i, e in zip(yz, yz_units)) % c
        bases.append(((m, 0, 0), (alpha * c % m, c, 0), ((alpha * shift + beta) % m, shift, 1)))
    # each lattice has index m*c, so about box volume / (m*c) points in the box
    candidates = len(bases) * (2 * xbound + 1) * (2 * ybound + 1) * (2 * zbound + 1) // (m * c)
    return bases, candidates


def _lattice_search(a: int, b: int, bases, ybound: int, zbound: int):
    """Sorted primitive points with 0 <= y <= ybound, 0 <= z <= zbound among
    the lattices spanned by bases."""
    xbound = _xbound(a, b, ybound, zbound)
    found: set = set()
    for basis in bases:
        reduced = _reduce(basis, (1 / xbound, 1 / ybound, 1 / zbound))
        _lattice_box_points(reduced, (xbound, ybound, zbound), a, b, found)
    return sorted(found)


def _box_solutions(a: int, b: int, ybound: int, zbound: int, primes):
    """The sorted primitive points of least x with 0 <= y <= ybound,
    0 <= z <= zbound."""
    cells = (ybound + 1) * (zbound + 1)
    if cells > LATTICE_CELLS:
        bases, candidates = _lattices(a, b, ybound, zbound, primes)
        if candidates <= cells:
            found = _lattice_search(a, b, bases, ybound, zbound)
            return [p for p in found if p[0] == found[0][0]]
        # a large box back on the cell scan reads the local symbols first:
        # an unsolvable conic has no point to scan for
        if not is_solvable(a, b):
            return []
    return _search(a, b, ybound, zbound)


def solve_pair(a: int, b: int) -> tuple[ConicSolution, ConicSolution]:
    """(solve(a, b), solve(b, a)) from one search of their shared Holzer box.

    (x, y, z) solves (a, b) iff (x, z, y) solves (b, a), and the box of (b, a)
    is that of (a, b) with y and z swapped.  Both least points have the least x,
    and the search keeps every point of least x, ties included, so the least
    point of (b, a) is the least swapped one among them.
    """
    return solve_pair_squarefree(a, b, _congruence_primes(a, b))


def solve_pair_squarefree(a: int, b: int, primes) -> tuple[ConicSolution, ConicSolution]:
    """solve_pair(a, b) for a caller that knows primes (see the module
    docstring), which for squarefree a and b are the odd primes of ab,
    ascending.  Nothing is factored unless the local symbols are read: for an
    empty Holzer box (NotSolvable or SearchExhausted), or a large box sent
    back to the cell scan."""
    _nonzero(a, b)
    found = _box_solutions(a, b, isqrt(abs(b)), isqrt(abs(a)), primes)
    if not found:
        # Holzer's theorem puts a point in the box of every solvable conic, so a
        # point found proves solvability; only an empty box reads the local
        # symbols, to tell NotSolvable from SearchExhausted
        if not is_solvable(a, b):
            raise NotSolvable(f"x^2 - {a}y^2 - {b}z^2 = 0 has no rational point")
        raise SearchExhausted(f"no solution for ({a}, {b}) inside the Holzer box")
    x, z, y = min((x, z, y) for x, y, z in found)
    return ConicSolution(*found[0], a, b), ConicSolution(x, z, y, b, a)


def solve(a: int, b: int) -> ConicSolution:
    """Smallest primitive solution under (|x|, |y|, |z|) with nonnegative entries,
    from the same search as solve_pair.

    The lattices carry no condition at an odd p with p^2 | a or p^2 | b, so
    such square factors can send a large box back to the cell scan:
    solve(-1, 5 * 1000003**2) walks about 2.4e5 of its 4.5e6 cells.  That path
    reads the local symbols first, so an unsolvable conic raises NotSolvable
    unscanned.
    """
    return solve_pair(a, b)[0]


def chord_points(sol: ConicSolution) -> tuple[ConicSolution, ConicSolution]:
    """Two more nonnegative points of the conic of sol, none of the three a sign
    flip of another.

    The line through P = sol along V meets the conic again in
    Q = F(V)*P - 2*B(P, V)*V, for the form F and its bilinear form B.  Distinct t
    give distinct lines along V = (0, 1, t), or (1, 0, t) when P has x = 0, so
    distinct Q; at most 4 meet a sign flip of P and 3 one of the first Q taken,
    so the walk stops by t = 8.
    """
    x, y, z, a, b = sol
    _nonzero(a, b)
    taken = [(abs(x), abs(y), abs(z))]
    for t in count():
        u, v, w = (0, 1, t) if x else (1, 0, t)
        f = u * u - a * v * v - b * w * w
        g = 2 * (x * u - a * y * v - b * z * w)
        q = (abs(f * x - g * u), abs(f * y - g * v), abs(f * z - g * w))
        d = gcd(*q)
        q = (q[0] // d, q[1] // d, q[2] // d)
        if q not in taken:
            taken.append(q)
            if len(taken) == 3:
                return ConicSolution(*taken[1], a, b), ConicSolution(*taken[2], a, b)
