from math import gcd, isqrt

import pytest

from redei.arith import square_class
from redei.conic import ConicSolution, enumerate_solutions, is_solvable, solve
from redei.errors import NotSolvable


def test_is_solvable_examples():
    assert is_solvable(-20, 41)
    assert not is_solvable(-1, -1)
    assert is_solvable(-4, 205)  # discriminant-style input: (3,7,1) solves x^2+4y^2-205z^2


def test_solve_examples():
    s = solve(-1, 2)
    assert (s.x, s.y, s.z) == (1, 1, 1)
    s = solve(2, 7)
    assert (s.x, s.y, s.z) == (3, 1, 1)
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
