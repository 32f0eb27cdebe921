from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from redei import conic
from redei.arith import square_class
from redei.conic import (
    LATTICE_CELLS,
    ConicSolution,
    _lattice_search,
    _lattices,
    _search,
    enumerate_solutions,
    is_solvable,
    solve,
)
from redei.errors import NotSolvable, SearchExhausted, ZeroInput


def cell_loop(a, b, ybound, zbound):
    """The reference enumeration: every primitive point of the box, sorted."""
    return _search(a, b, ybound, zbound)


def lattice_path(a, b, ybound, zbound):
    """The lattice enumeration of the box, whatever its size."""
    bases, _ = _lattices(a, b, ybound, zbound)
    return _lattice_search(a, b, bases, ybound, zbound)


def holzer_box(a, b):
    return isqrt(abs(b)), isqrt(abs(a))


def test_is_solvable_examples():
    assert is_solvable(-20, 41)
    assert not is_solvable(-1, -1)
    assert is_solvable(-4, 205)  # discriminant-style input: (3,7,1) solves x^2+4y^2-205z^2


def test_solve_examples():
    s = solve(-1, 2)
    assert (s.x, s.y, s.z) == (1, 1, 1)
    s = solve(2, 7)
    assert (s.x, s.y, s.z) == (3, 1, 1)
    # solve keeps no memo: each call searches again and finds the same point,
    # here on a box of the cell loop and one of the lattices
    assert solve(2, 7) == s
    s = solve(1000033, -2000029)
    assert (s.x, s.y, s.z) == (98969, 305, 204)
    assert solve(1000033, -2000029) == s
    sols = {(s.x, s.y, s.z) for s in enumerate_solutions(-20, 41, 6)}
    assert (12, 1, 2) in sols and (17, 2, 3) in sols


def test_solve_holzer_bounds_and_primitivity():
    for a in range(-60, 61):
        for b in range(-60, 61):
            if a == 0 or b == 0:
                continue
            if not is_solvable(a, b):
                with pytest.raises(NotSolvable):
                    solve(a, b)
                continue
            s = solve(a, b)
            assert s.x * s.x - a * s.y * s.y - b * s.z * s.z == 0
            assert gcd(gcd(s.x, s.y), s.z) == 1
            assert abs(s.y) <= isqrt(abs(b)) and abs(s.z) <= isqrt(abs(a))
            assert s.x * s.x <= abs(a * b)


def test_solve_succeeds_when_solvable_full_range():
    # exhaustive: every solvable squarefree pair up to 200 has a Holzer-box solution
    vals = [n for n in range(-200, 201) if n and square_class(n) == n]
    for a in vals:
        for b in vals:
            if is_solvable(a, b):
                solve(a, b)


def test_lattice_matches_cell_loop_small_range():
    for a in range(-60, 61):
        for b in range(-60, 61):
            if a and b:
                box = holzer_box(a, b)
                assert lattice_path(a, b, *box) == cell_loop(a, b, *box), (a, b)


def test_lattice_matches_cell_loop_squarefree():
    vals = [n for n in range(-200, 201) if n and square_class(n) == n]
    for a in vals:
        for b in vals:
            box = holzer_box(a, b)
            assert lattice_path(a, b, *box) == cell_loop(a, b, *box), (a, b)


def test_lattice_matches_cell_loop_wider_boxes():
    # the boxes enumerate_solutions widens to, with |y| and |z| past the Holzer bounds
    for a in (-5, -1, 2, 3, 7, -20, 41):
        for b in (-7, 2, 5, 13, 41, -15):
            for box in ((13, 5), (27, 11), (55, 23)):
                assert lattice_path(a, b, *box) == cell_loop(a, b, *box), (a, b, box)


@st.composite
def solvable_pairs(draw):
    # squarefree a, b with 1e5 <= |a|, |b| <= 1e7, as the witness construction
    # passes square classes; b is a norm x^2 - a*y^2, so (x, y, 1) is a point
    sign = st.sampled_from((1, -1))
    a = draw(sign) * draw(st.integers(10**5, 10**7))
    y = draw(st.integers(1, 3))
    target = draw(sign) * draw(st.integers(10**5, 10**7))
    x = isqrt(max(0, target + a * y * y))
    b = x * x - a * y * y
    assume(b != 0 and square_class(a) == a and square_class(b) == b)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(solvable_pairs())
def test_solve_large_boxes(pair):
    a, b = pair
    ybound, zbound = holzer_box(a, b)
    s = solve(a, b)  # ConicSolution rejects a point off the conic or not primitive
    assert 0 <= s.y <= ybound and 0 <= s.z <= zbound and s.x >= 0
    found = lattice_path(a, b, ybound, zbound)
    assert found[0] == (s.x, s.y, s.z)
    if (ybound + 1) * (zbound + 1) <= 2 * 10**5:
        assert found == cell_loop(a, b, ybound, zbound)


def test_square_factors_fall_back_to_the_cell_loop():
    # 10007^2 | b adds no congruence, so the lattices would hold ~1e9 candidates
    # where the box has ~4.5e4 cells; the box goes back to the cell loop
    a, b = -1, 5 * 10007**2
    ybound, zbound = holzer_box(a, b)
    cells = (ybound + 1) * (zbound + 1)
    assert cells > LATTICE_CELLS
    assert _lattices(a, b, ybound, zbound)[1] > cells
    s = solve(a, b)
    assert (s.x, s.y, s.z) == cell_loop(a, b, ybound, zbound)[0]


def test_is_solvable_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic_normal

    x, y, z = sympy.symbols("x y z", integer=True)
    vals = [n for n in range(-20, 21) if n and square_class(n) == n]
    for a in vals:
        for b in vals:
            point = diop_ternary_quadratic_normal(x**2 - a * y**2 - b * z**2)
            assert (point[0] is not None) == is_solvable(a, b), (a, b)
            if point[0] is not None:
                px, py, pz = point
                assert px * px - a * py * py - b * pz * pz == 0


def test_enumerate_solutions():
    sols = enumerate_solutions(-1, 2, 1)
    assert [(s.x, s.y, s.z) for s in sols] == [(1, 1, 1)]
    sols = enumerate_solutions(3, 13, 2)
    assert len(sols) == 2
    assert (4, 1, 1) == (sols[0].x, sols[0].y, sols[0].z)
    seen = {(s.x, s.y, s.z) for s in sols}
    assert len(seen) == 2
    # expansion past the Holzer box still yields primitive exact solutions
    many = enumerate_solutions(-1, 2, 8)
    assert len({(s.x, s.y, s.z) for s in many}) == 8
    for s in many:
        assert s.x**2 + s.y**2 - 2 * s.z**2 == 0
        assert gcd(gcd(s.x, s.y), s.z) == 1


def test_off_conic_point_rejected_under_optimize():
    # the solution invariants must hold without assert statements, i.e. under python -O
    import os
    import subprocess
    import sys
    from pathlib import Path

    import redei

    script = (
        "from redei.conic import ConicSolution\n"
        "from redei.errors import InvariantViolated\n"
        "for point in ((1, 1, 1, 5, 7), (4, 2, 0, 4, 7)):\n"
        "    try:\n"
        "        ConicSolution(*point)\n"
        "    except InvariantViolated:\n"
        "        print('rejected')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(redei.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected", "rejected"]


def test_zero_coefficients_rejected():
    with pytest.raises(ZeroInput, match="conic coefficients must be nonzero"):
        solve(0, 5)
    with pytest.raises(ZeroInput, match="conic coefficients must be nonzero"):
        enumerate_solutions(3, 0, 2)


def test_empty_box_reads_the_local_symbols(monkeypatch):
    # solvability comes from the search; only an empty box consults is_solvable,
    # which tells an unsolvable conic from a search that missed
    monkeypatch.setattr(conic, "_box_solutions", lambda a, b, ybound, zbound: [])
    for find in (solve, lambda a, b: enumerate_solutions(a, b, 2)):
        with pytest.raises(SearchExhausted):
            find(-20, 41)
        with pytest.raises(NotSolvable):
            find(-1, -1)
