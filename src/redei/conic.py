"""Primitive integral points on the Legendre conic x^2 - a*y^2 - b*z^2 = 0.

A bounded exhaustive search inside the Holzer box |y| <= sqrt|b|, |z| <= sqrt|a|,
|x| <= sqrt|ab| finds the minimal solution whenever one exists; determinism matters
more than speed at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .arith import hilbert, hilbert_places
from .errors import InvariantViolated, NotSolvable, SearchExhausted, ZeroInput


@dataclass(frozen=True)
class ConicSolution:
    x: int
    y: int
    z: int
    a: int
    b: int

    def __post_init__(self):
        if self.x == self.y == self.z == 0:
            raise ZeroInput("the zero triple is not a solution")
        if self.x**2 - self.a * self.y**2 - self.b * self.z**2 != 0:
            raise InvariantViolated(f"{self} is not on the conic")
        if gcd(gcd(self.x, self.y), self.z) != 1:
            raise InvariantViolated(f"{self} is not primitive")


def is_solvable(a: int, b: int) -> bool:
    """Local-global: solvable over Q iff every local symbol (a,b)_v is +1."""
    if a == 0 or b == 0:
        raise ZeroInput("conic coefficients must be nonzero")
    return all(hilbert(a, b, v) == 1 for v in hilbert_places(a, b))


def _search(a: int, b: int, ybound: int, zbound: int):
    found = []
    for z in range(zbound + 1):
        bz = b * z * z
        for y in range(ybound + 1):
            t = a * y * y + bz
            if t < 0 or (t == 0 and y == z == 0):
                continue
            x = isqrt(t)
            if x * x != t:
                continue
            if gcd(gcd(x, y), z) != 1:
                continue
            found.append((x, y, z))
    found.sort()
    return found


@lru_cache(maxsize=None)
def _solve_cached(a: int, b: int) -> tuple[int, int, int]:
    if not is_solvable(a, b):
        raise NotSolvable(f"x^2 - {a}y^2 - {b}z^2 = 0 has no rational point")
    found = _search(a, b, isqrt(abs(b)), isqrt(abs(a)))
    if not found:
        raise SearchExhausted(f"no solution for ({a}, {b}) inside the Holzer box")
    return found[0]


def solve(a: int, b: int) -> ConicSolution:
    """Smallest primitive solution under (|x|, |y|, |z|) with nonnegative entries."""
    x, y, z = _solve_cached(a, b)
    return ConicSolution(x, y, z, a, b)


def enumerate_solutions(a: int, b: int, count: int) -> list[ConicSolution]:
    """count distinct primitive solutions, no two related by coordinate sign flips."""
    if not is_solvable(a, b):
        raise NotSolvable(f"x^2 - {a}y^2 - {b}z^2 = 0 has no rational point")
    ybound, zbound = isqrt(abs(b)), isqrt(abs(a))
    while True:
        found = _search(a, b, ybound, zbound)
        if len(found) >= count:
            return [ConicSolution(x, y, z, a, b) for x, y, z in found[:count]]
        ybound = 2 * ybound + 1
        zbound = 2 * zbound + 1
