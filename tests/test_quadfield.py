import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redei.arith import discriminant, kronecker, padic_val, square_class
from redei.errors import (
    InvariantViolated,
    NotTwoUnit,
    RamificationAssertFailed,
    WrongDiscriminantClass,
)
from redei import quadfield
from redei.quadfield import QuadElt, conductor_two_at_two, split_units, unramified_at_two
from redei.symbol import MinRamWitness, _dyadic_part


def test_norm_examples():
    assert QuadElt(12, 2, -5).norm() == 164
    assert QuadElt(17, 4, -5).norm() == 369
    assert QuadElt(1, 0, 7).norm() == 1


def test_norm_multiplicative():
    rng = random.Random(0)
    for _ in range(200):
        a = square_class(rng.randint(2, 50) * rng.choice((1, -1)))
        e = QuadElt(rng.randint(-9, 9), rng.randint(-9, 9), a)
        f = QuadElt(rng.randint(-9, 9), rng.randint(-9, 9), a)
        assert (e * f).norm() == e.norm() * f.norm()


def test_division_is_exact():
    e = QuadElt(3, -8, -5)
    f = QuadElt(2, 1, -5)
    assert (e * f) / f == e
    assert (e * 6) / 6 == e
    with pytest.raises(InvariantViolated):
        e / f  # (3 - 8 sqrt -5)(2 - sqrt -5) = -34 - 19 sqrt -5 over the norm 9


def _integral(x, y, a):
    """x + y sqrt a for rationals x, y, times d**2 for d their least common
    denominator: an integral element of the same square class."""
    x, y = Fraction(x), Fraction(y)
    d = lcm(x.denominator, y.denominator)
    return QuadElt(x * d * d, y * d * d, a)


# int coordinates, integral Fractions Fraction(n, 1) and proper fractions
_coord = st.one_of(
    st.integers(-60, 60),
    st.integers(-60, 60).map(Fraction),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)
_radicand = st.sampled_from((-7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 13, 17))


def _fraction_ops(x1, y1, x2, y2, a):
    """The QuadElt operations on all-Fraction coordinate pairs, by their
    formulas; a result that is not integral is InvariantViolated."""
    x1, y1, x2, y2 = map(Fraction, (x1, y1, x2, y2))
    n2 = x2 * x2 - a * y2 * y2
    out = {
        "+": (x1 + x2, y1 + y2),
        "-": (x1 - x2, y1 - y2),
        "*": (x1 * x2 + a * y1 * y2, x1 * y2 + y1 * x2),
        "+ scalar": (x1 + x2, y1),
        "- scalar": (x1 - x2, y1),
        "* scalar": (x1 * x2, y1 * x2),
        "conjugate": (x1, -y1),
        "neg": (-x1, -y1),
    }
    if n2:
        out["/"] = ((x1 * x2 - a * y1 * y2) / n2, (y1 * x2 - x1 * y2) / n2)
    if x2:
        out["/ scalar"] = (x1 / x2, y1 / x2)
    return {
        op: (x, y) if x.denominator == y.denominator == 1 else InvariantViolated
        for op, (x, y) in out.items()
    }


def _quotient(e, f):
    try:
        return e / f
    except InvariantViolated:
        return InvariantViolated


def _quadelt_ops(e, f):
    out = {
        "+": e + f,
        "-": e - f,
        "*": e * f,
        "+ scalar": e + f.x,
        "- scalar": e - f.x,
        "* scalar": e * f.x,
        "conjugate": e.conjugate(),
        "neg": -e,
    }
    if f.norm():
        out["/"] = _quotient(e, f)
    if f.x:
        out["/ scalar"] = _quotient(e, f.x)
    return out


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_coord, _coord, _coord, _coord, _radicand)
def test_quadelt_matches_fraction_arithmetic(x1, y1, x2, y2, a):
    # no bare assert, so that the property also checks under python -O
    drawn = (x1, y1, x2, y2)
    for x, y in ((x1, y1), (x2, y2)):
        if Fraction(x).denominator != 1 or Fraction(y).denominator != 1:
            with pytest.raises(InvariantViolated):
                QuadElt(x, y, a)
    # the draws times their common denominator, each of its drawn type
    d = lcm(*(Fraction(c).denominator for c in drawn))
    x1, y1, x2, y2 = (c * d for c in drawn)
    e, f = QuadElt(x1, y1, a), QuadElt(x2, y2, a)
    expected = _fraction_ops(x1, y1, x2, y2, a)
    found = _quadelt_ops(e, f)
    if found.keys() != expected.keys():
        pytest.fail(f"operations {sorted(found)} != {sorted(expected)}")
    for op, g in found.items():
        if g is InvariantViolated or expected[op] is InvariantViolated:
            if g is not expected[op]:
                pytest.fail(f"{e} {op} {f} = {g!r}, expected {expected[op]!r}")
            continue
        if (g.x, g.y, g.a) != (*expected[op], a):
            pytest.fail(f"{e} {op} {f} = {g}, expected {expected[op]}")
        if type(g.x) is not int or type(g.y) is not int:
            pytest.fail(f"{e} {op} {f} = {g!r} has a coordinate that is no int")
    for g in (e, f):
        norm = g.norm()
        if type(g.x) is not int or type(g.y) is not int:
            pytest.fail(f"{g!r} has a coordinate that is no int")
        if type(norm) is not int or norm != g.x**2 - a * g.y**2:
            pytest.fail(f"norm of {g} is {norm!r}")
        # the same element built from Fraction coordinates
        h = QuadElt(Fraction(g.x), Fraction(g.y), a)
        if type(h.x) is not int or type(h.y) is not int:
            pytest.fail(f"{h!r} has a coordinate that is no int")
        if h != g or hash(h) != hash(g) or repr(h) != repr(g):
            pytest.fail(f"{h!r} and {g!r} disagree")


def test_quadelt_rejects_non_integral_values():
    e = QuadElt(Fraction(6, 2), Fraction(-4, 2), 5)
    assert type(e.x) is int and type(e.y) is int and e == QuadElt(3, -2, 5)
    for x, y in ((Fraction(1, 2), 0), (0, Fraction(-1, 2)), (1.5, 0), ("3", 0), (None, 1)):
        with pytest.raises(InvariantViolated):
            QuadElt(x, y, 5)
    with pytest.raises(InvariantViolated):
        QuadElt(1, 1, 5) + Fraction(1, 2)
    with pytest.raises(InvariantViolated):
        QuadElt(1, 1, 5) * Fraction(1, 2)
    assert type((QuadElt(12, 2, -5) / QuadElt(6, 1, -5)).x) is int
    # (1 + sqrt 5)/2 and 1/(1 + sqrt 5) = (sqrt 5 - 1)/4 are not in Z[sqrt 5]
    with pytest.raises(InvariantViolated):
        QuadElt(1, 1, 5) / 2
    with pytest.raises(InvariantViolated):
        QuadElt(1, 0, 5) / QuadElt(1, 1, 5)


def ref_root(p, a, conjugate=False):
    """The residue of sqrt a at the canonical prime above a split p, by search:
    the smaller root mod p at odd p, the root 1 mod 4 at p = 2; the other root
    at the conjugate prime."""
    mod = 4 if p == 2 else p
    roots = [r for r in range(mod) if (r * r - a) % (8 if p == 2 else p) == 0]
    if len(roots) != 2:
        raise ValueError(f"{p} does not split in Q(sqrt {a})")
    return roots[int(conjugate)]


def ref_lift(p, a, root, precision):
    """The p-adic root of a in the class of root (mod p, or mod 4 at p = 2),
    mod p**precision, one digit at a time: each digit is the one that keeps
    r*r = a mod p**(k + 1), mod 2**(k + 2) at p = 2, where r and r + 2**k
    first differ there."""
    known, extra = (2, 1) if p == 2 else (1, 0)
    r = root % p**known
    for k in range(known, precision):
        r = next(t for t in range(r, p ** (k + 1), p**k) if (t * t - a) % p ** (k + 1 + extra) == 0)
    return r % p**precision


def _split_pair(beta, p, digits):
    """split_units read as the Legendre symbols of the units of even valuation
    (None at a prime of odd valuation)."""
    return tuple(None if v % 2 else kronecker(u, p) for v, u in split_units(beta, p, digits))


def test_primes_above_examples():
    # sqrt a at the two primes above a split p is the pair of p-adic roots of a
    if split_units(QuadElt(0, 1, -1), 5) != ((0, 2), (0, 3)):
        pytest.fail(f"sqrt -1 over 5: {split_units(QuadElt(0, 1, -1), 5)}")
    if split_units(QuadElt(0, 1, -1), 5, 3) != ((0, 57), (0, 68)):  # 57^2 = -1 mod 125
        pytest.fail(f"sqrt -1 over 125: {split_units(QuadElt(0, 1, -1), 5, 3)}")
    if split_units(QuadElt(0, 1, 17), 2, 6) != ((0, 41), (0, 23)):  # 41^2 = 17 mod 64
        pytest.fail(f"sqrt 17 over 64: {split_units(QuadElt(0, 1, 17), 2, 6)}")
    for p, a in ((5, -5), (3, -1), (2, 5), (2, -2)):
        with pytest.raises(InvariantViolated):
            split_units(QuadElt(0, 1, a), p)


def test_primes_above_matches_kronecker():
    for a in (-1, -2, -5, 3, 6, 17, -17, 21):
        for p in (3, 5, 7, 11, 13, 2):
            sqrt_a = QuadElt(0, 1, a)
            if kronecker(discriminant(a), p) != 1:
                with pytest.raises(InvariantViolated):
                    split_units(sqrt_a, p)
                continue
            for k in (1, 2, 5):
                mod = p**k
                (v1, r1), (v2, r2) = split_units(sqrt_a, p, k)
                if (v1, v2) != (0, 0) or (r1 + r2) % mod or (r1 * r1 - a) % mod:
                    pytest.fail(f"sqrt {a} over {p}**{k}: {((v1, r1), (v2, r2))}")
                if r1 % (4 if p == 2 else p) != ref_root(p, a):
                    pytest.fail(f"sqrt {a} over {p}**{k}: canonical root {r1}")


def test_residue_symbol_examples():
    # over a = -1, p = 5: sqrt -1 is 2 at the canonical prime and 3 at its conjugate
    beta = QuadElt(1, 1, -1)  # 3 and 4 = -1 mod 5, norm 2
    if split_units(beta, 5) != ((0, 3), (0, 4)) or _split_pair(beta, 5, 1) != (-1, 1):
        pytest.fail(f"{beta!r} over 5: {split_units(beta, 5)}")
    beta = QuadElt(3, 1, -1)  # 5 and 1: norm 10 = 5 * 2 gives the unit 2 / 1
    if split_units(beta, 5) != ((1, 2), (0, 1)) or _split_pair(beta, 5, 1) != (None, 1):
        pytest.fail(f"{beta!r} over 5: {split_units(beta, 5)}")
    beta = QuadElt(12, 2, -1)  # 16 and 8 = 3 mod 5
    if _split_pair(beta, 5, 1) != (1, -1):
        pytest.fail(f"{beta!r} over 5: {split_units(beta, 5)}")
    if _split_pair(QuadElt(1, 0, -1), 5, 1) != (1, 1):
        pytest.fail(f"1 over 5: {split_units(QuadElt(1, 0, -1), 5)}")


def test_residue_symbol_square_invariance():
    rng = random.Random(1)
    for _ in range(60):
        beta = QuadElt(rng.randint(-20, 20), rng.randint(-20, 20), 3)
        s = QuadElt(rng.randint(1, 9), rng.randint(-9, 9), 3)
        if beta.is_zero() or s.norm() == 0 or beta.norm() == 0:
            continue
        lhs, rhs = _split_pair(beta, 13, 1), _split_pair(beta * s * s, 13, 1)
        if lhs != rhs:
            pytest.fail(f"{beta!r} over 13: {lhs}, times the square of {s!r}: {rhs}")


def test_residue_symbol_conjugate_product_is_norm_symbol():
    rng = random.Random(2)
    count = 0
    while count < 60:
        a = square_class(rng.randint(2, 60) * rng.choice((1, -1)))
        if a == 1:
            continue
        p = rng.choice((3, 5, 7, 11, 13, 17))
        if kronecker(discriminant(a), p) != 1:
            continue
        beta = QuadElt(rng.randint(-30, 30), rng.randint(-30, 30), a)
        if beta.is_zero() or beta.norm() == 0 or beta.norm() % p == 0:
            continue
        lhs, rhs = _split_pair(beta, p, 1), kronecker(beta.norm(), p)
        if lhs[0] * lhs[1] != rhs:
            pytest.fail(f"{beta!r} over {p}: symbols {lhs}, norm symbol {rhs}")
        count += 1


def _coords(beta):
    """The coordinates of an integral beta in the basis 1, t of O: t = theta =
    (1 + sqrt a)/2 for an odd discriminant, where x + y sqrt a = (x - y) + 2y
    theta, else t = sqrt a."""
    if discriminant(beta.a) % 2:
        return beta.x - beta.y, 2 * beta.y
    return beta.x, beta.y


def _product(u, w, a):
    """u * w for u, w given in the basis 1, t, by QuadElt multiplication of 2u
    and 2w: 2(x + y theta) = (2x + y) + y sqrt a."""
    odd = discriminant(a) % 2
    g, h = (QuadElt(2 * x + odd * y, (2 - odd) * y, a) for x, y in (u, w))
    x, y = _coords(g * h)
    return x // 4, y // 4


def _congruent(u, w, m):
    """u = w mod mO, for elements given in the basis 1, t."""
    return all((c - d) % m == 0 for c, d in zip(u, w))


def _is_unit_square_mod_4(unit, a):
    """Is the 2-unit, given in the basis 1, t, a square mod 4O?  A search over
    gamma = p + q t mod 4, squared by QuadElt multiplication."""
    return any(
        _congruent(unit, _product((p, q), (p, q), a), 4) for p in range(4) for q in range(4)
    )


def _reduced(beta):
    """The library's reduced 2-unit of beta, in the basis 1, t, after checking
    that it is given as ints in that basis."""
    x, y, e, f = quadfield._reduce_two_unit(beta)
    a = beta.a
    if (e, f) != ((1, (a - 1) // 4) if discriminant(a) % 2 else (0, a)):
        pytest.fail(f"{beta!r} reduced in Z[t] with t^2 = {e} t + {f}")
    if type(x) is not int or type(y) is not int:
        pytest.fail(f"{beta!r} reduced to {(x, y)!r}")
    return x, y


def _square_quotient(beta, other):
    """Is the quotient of the reduced 2-units u, w of beta and other a unit
    square mod 4O?  u / w = u w / w^2, so ask it of u w."""
    return _is_unit_square_mod_4(_product(_reduced(beta), _reduced(other), beta.a), beta.a)


def test_dyadic_unit_class_examples():
    assert unramified_at_two(QuadElt(1, 0, -5))
    # tau = (1+a)/2 + sqrt a has square -1 mod 4O: order 4, not itself a square
    tau = QuadElt(-2, 1, -5)
    sq = tau * tau
    assert (sq.x + 1) % 4 == 0 and sq.y % 4 == 0
    assert not unramified_at_two(tau)
    assert not _is_unit_square_mod_4(_coords(tau), -5)
    # delta = 12 + 2 sqrt(-5) = (1 + sqrt -5)^2 mod 4, so its reduced class is a square
    delta = QuadElt(12, 2, -5)
    w = QuadElt(1, 1, -5)
    diff = delta - w * w
    assert diff.x % 4 == 0 and diff.y % 4 == 0
    assert unramified_at_two(delta)
    assert _is_unit_square_mod_4(_reduced(delta), -5)
    # 2 + 2 sqrt 5 = 4 theta reduces to theta in Z[theta], theta^2 = theta + 1
    assert quadfield._reduce_two_unit(QuadElt(2, 2, 5)) == (0, 1, 1, 1)


def test_dyadic_unit_class_rejects_non_units():
    with pytest.raises(NotTwoUnit):
        quadfield._reduce_two_unit(QuadElt(0, 1, 2))  # sqrt 2 has odd valuation
    assert unramified_at_two(QuadElt(0, 1, 2)) is False


def test_square_subgroup_sizes():
    # |(O/4O)*| = 8 with squares of order 2 when the discriminant is even;
    # order 4 (split) or 12 (inert) with squares of index 4 when odd
    from redei.quadfield import _unit_squares

    def max_order_units(a):
        # p + q theta is a unit mod 4O iff its norm p^2 + pq - q^2 c is odd
        c = ((a - 1) // 4) % 4
        return [(p, q) for p in range(4) for q in range(4) if (p * p + p * q - q * q * c) % 2]

    for a in (-5, -1, 2, -2, 3, 6):
        assert len(_unit_squares(0, a % 4)) == 2
    for a in (17, 73, -31):  # 1 mod 8
        assert len(max_order_units(a)) == 4
        assert len(_unit_squares(1, ((a - 1) // 4) % 4)) == 1
    for a in (5, 13, -3):  # 5 mod 8
        assert len(max_order_units(a)) == 12
        assert len(_unit_squares(1, ((a - 1) // 4) % 4)) == 3


def test_squares_and_minus_one_generate_norm_kernel():
    # for odd a, <squares, -1> is the kernel of the norm (O/4O)* -> (Z/4)*
    for a in range(-50, 51):
        if a in (0, 1) or square_class(a) != a or a % 2 == 0 or a % 4 != 1:
            continue
        c = ((a - 1) // 4) % 4

        def mul(u, v):
            p1, q1 = u
            p2, q2 = v
            return ((p1 * p2 + q1 * q2 * c) % 4, (p1 * q2 + p2 * q1 + q1 * q2) % 4)

        def norm(u):
            p, q = u
            return (p * p + p * q - q * q * c) % 4

        units = [(p, q) for p in range(4) for q in range(4) if norm((p, q)) % 2]
        kernel = {u for u in units if norm(u) == 1}
        assert {norm(u) for u in units} == {1, 3}  # norm is onto (Z/4)*
        squares = {mul(u, u) for u in units}
        generated = squares | {mul((3, 0), s) for s in squares}
        assert generated == kernel, a


def _val(q, p):
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    return padic_val(q.numerator, p) - padic_val(q.denominator, p)


def ref_reduce_two_unit(beta):
    """The reference reduction for a = 2, 3 mod 4: divide by omega^2 = a or
    (1 + sqrt a)^2 while v_2(norm) >= 2, in rational coordinates.  The 2-unit
    left has odd denominators; it is returned times the square of their least
    common multiple d, which is integral and, as d^2 = 1 mod 8, the same mod 8O."""
    a = beta.a
    x, y = Fraction(beta.x), Fraction(beta.y)
    if _val(x * x - a * y * y, 2) % 2:
        raise NotTwoUnit("odd dyadic valuation at the ramified prime")
    ox, oy = (a, 0) if a % 2 == 0 else (1 + a, 2)
    n = ox * ox - a * oy * oy
    while _val(x * x - a * y * y, 2) >= 2:
        x, y = (x * ox - a * y * oy) / n, (y * ox - x * oy) / n
    return _integral(x, y, a)


def _outcome(fn, beta):
    try:
        return fn(beta)
    except NotTwoUnit:
        return NotTwoUnit


# squarefree radicands with even discriminant, 2 mod 4 and 3 mod 4
_even_disc = st.sampled_from((-14, -10, -6, -2, 2, 6, 10, 14, -13, -5, -1, 3, 7, 11, 15, 19))
_odd_den = st.sampled_from((1, 3, 5, 7, 9, 15))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(
    st.integers(-200, 200), st.integers(-200, 200), _even_disc, st.integers(0, 7),
    _odd_den, _odd_den,
)
def test_reduce_two_unit_matches_reference(x, y, a, k, dx, dy):
    # beta times a power of the uniformizer (sqrt a or 1 + sqrt a) covers high
    # and odd dyadic valuations; odd denominators d keep beta 2-integral, and
    # the integral beta * d**2 stands in for the rational beta
    if x == 0 and y == 0:
        return
    pi = QuadElt(0, 1, a) if a % 2 == 0 else QuadElt(1, 1, a)
    base = QuadElt(x, y, a)
    for _ in range(k):
        base = base * pi
    for beta in (base, _integral(Fraction(base.x, dx), Fraction(base.y, dy), a)):
        ref = _outcome(ref_reduce_two_unit, beta)
        found = _outcome(_reduced, beta)
        if (ref is NotTwoUnit) != (found is NotTwoUnit):
            pytest.fail(f"{beta!r}: reduced to {found!r}, reference {ref!r}")
        if ref is NotTwoUnit:
            if unramified_at_two(beta) is not False:
                pytest.fail(f"unramified_at_two accepts {beta!r}")
            if a % 4 == 3 and conductor_two_at_two(beta) is not False:
                pytest.fail(f"conductor_two_at_two accepts {beta!r}")
            continue
        # the reference is a 2-unit already, so it is its own reduced unit, and
        # found / ref = found * ref / ref^2
        if not _is_unit_square_mod_4(_product(found, _coords(ref), a), a):
            pytest.fail(f"{beta!r} reduced to {found!r}, reference {ref!r}: not a square apart")
        if unramified_at_two(beta) != unramified_at_two(ref):
            pytest.fail(f"unramified test of {beta!r} disagrees with reference {ref!r}")
        if a % 4 == 3 and conductor_two_at_two(beta) != conductor_two_at_two(ref):
            pytest.fail(f"conductor-2 test of {beta!r} disagrees with reference {ref!r}")


def _ref_two_unit(beta):
    """An integral beta times a square of K*, reduced to a 2-unit of O and given
    in the basis 1, t, or NotTwoUnit; for a = 2, 3 mod 4 (2 ramified) or
    a = 5 mod 8 (2 inert)."""
    if beta.a % 4 != 1:
        return _coords(ref_reduce_two_unit(beta))
    # 2 is its own uniformizer: v_2(N beta) >= 4 puts beta in 4O, so divide
    # its theta-coordinates by 4 while that holds
    (x, y), v = _coords(beta), padic_val(beta.norm(), 2)
    while v >= 4:
        x, y, v = x // 4, y // 4, v - 4
    if v:
        raise NotTwoUnit("odd dyadic valuation at the inert prime")
    return x, y


# squarefree radicands 5 mod 8, where 2 is inert
_inert_at_two = st.sampled_from((-19, -11, -3, 5, 13, 21, 29, 37))


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(
    st.integers(-200, 200), st.integers(-200, 200), st.one_of(_even_disc, _inert_at_two),
    st.integers(0, 5), st.sampled_from((1, 2, 3, 4, 5, 8, 12, 15)),
)
def test_dyadic_predicates_match_a_square_search(x, y, a, k, d):
    # beta = (x + y sqrt a) * pi**k * d for pi = sqrt a, 1 + sqrt a or 2, which
    # has the class of (x + y sqrt a) * pi**k / d; the verdicts are checked
    # against squares gamma^2 of gamma = p + q t mod 4, found by QuadElt
    # multiplication, and not against the library's table
    if x == 0 and y == 0:
        return
    pi = QuadElt(0, 1, a) if a % 4 == 2 else QuadElt(1, 1, a) if a % 4 == 3 else QuadElt(2, 0, a)
    base = QuadElt(x, y, a)
    for _ in range(k):
        base = base * pi
    beta = base * d
    try:
        unit = _ref_two_unit(beta)
    except NotTwoUnit:
        unit = None
    want = unit is not None and _is_unit_square_mod_4(unit, a)
    if unramified_at_two(beta) != want:
        pytest.fail(f"unramified_at_two({beta!r}) is {not want}, reduced unit {unit!r}")
    if a % 4 != 3:
        with pytest.raises(WrongDiscriminantClass):
            conductor_two_at_two(beta)
        return
    want = unit is not None and any(
        _congruent(unit, [sign * c for c in _product((p, q), (p, q), a)], 2)
        for p in range(2) for q in range(2) for sign in (1, -1)
    )
    if conductor_two_at_two(beta) != want:
        pytest.fail(f"conductor_two_at_two({beta!r}) is {not want}, reduced unit {unit!r}")


def test_is_conductor_two_examples():
    assert conductor_two_at_two(QuadElt(-1, 2, -1))  # -1 + 2i over a = -1
    assert conductor_two_at_two(QuadElt(3, 2, -5))
    tau = QuadElt(-2, 1, -5)
    assert not conductor_two_at_two(tau * QuadElt(3, 2, -5))
    with pytest.raises(WrongDiscriminantClass):
        conductor_two_at_two(QuadElt(1, 2, 5))


def test_dyadic_embedding():
    # a = 17: sqrt 17 is 41 mod 64 at the canonical prime; 5 + 2 sqrt 17 maps to
    # 87 and 5 - 82 = -77 there and at the conjugate, 7 and 3 mod 8
    if split_units(QuadElt(1, 0, 17), 2, 6) != ((0, 1), (0, 1)):
        pytest.fail(f"1 over 17: {split_units(QuadElt(1, 0, 17), 2, 6)}")
    (v0, u0), (v1, u1) = split_units(QuadElt(5, 2, 17), 2, 6)
    if (v0, u0 % 8, v1, u1 % 8) != (0, 7, 0, 3):
        pytest.fail(f"5 + 2 sqrt 17: {((v0, u0), (v1, u1))}")
    # 4 + 2 sqrt 17 = 2 (2 + sqrt 17) has norm -52 and valuation 1 at each prime
    if [v for v, _ in split_units(QuadElt(4, 2, 17), 2, 6)] != [1, 1]:
        pytest.fail(f"4 + 2 sqrt 17: {split_units(QuadElt(4, 2, 17), 2, 6)}")
    with pytest.raises(InvariantViolated):
        split_units(QuadElt(1, 1, 5), 2)  # 2 is inert over 5


def test_dyadic_embedding_consistency():
    # the unit is the image of beta under sqrt(a) -> the 2-adic root, over 2**v
    rng = random.Random(3)
    for a in (17, 33, 41, 73):
        roots = [ref_lift(2, a, ref_root(2, a, c), 12) for c in (False, True)]
        for _ in range(40):
            beta = QuadElt(rng.randint(-40, 40), rng.randint(-40, 40), a)
            if beta.is_zero() or beta.norm() == 0:
                continue
            pair = split_units(beta, 2, 5)
            for (v, u), root in zip(pair, roots):
                image = beta.x + beta.y * root
                if image % 2**12 == 0:
                    continue
                w = padic_val(image, 2)
                if w > 6:
                    continue
                if (v, u) != (w, image // 2**w % 32):
                    pytest.fail(f"{beta!r} over {a}: {(v, u)}, image {image} at root {root}")


def ref_split_embedding(beta, p, root, precision, unit_digits=1):
    """The lifting embedding at the prime where sqrt a -> root, a root of a mod
    p**precision: double the precision of the root until the valuation of the
    image x + y*r of the integral beta is resolved."""
    a = beta.a
    while True:
        image = beta.x + beta.y * root
        if image != 0:
            v = padic_val(image, p)
            if v + unit_digits <= precision:
                return v, image // p**v
        precision *= 2
        root = ref_lift(p, a, root, precision)


_SPLIT_RADICANDS = [a for a in range(-100, 101) if a not in (0, 1) and square_class(a) == a]
_split_at_two = st.sampled_from([(2, a) for a in _SPLIT_RADICANDS if a % 8 == 1])
_split_at_odd = st.sampled_from(
    [
        (p, a)
        for p in (3, 5, 7, 11, 13, 17, 19, 23)
        for a in _SPLIT_RADICANDS
        if kronecker(discriminant(a), p) == 1
    ]
)


def _frak_side_uniformizer(p, a):
    """An element of positive valuation at the canonical prime over p: r + sqrt a,
    of valuation 0 at the conjugate, for odd p; at 2, 3 + sqrt a, twice such an
    element (3 + sqrt a)/2."""
    if p == 2:
        return QuadElt(3, 1, a)
    return QuadElt(-ref_root(p, a) % p, 1, a)


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(
    st.one_of(_split_at_two, _split_at_odd),
    st.integers(-300, 300), st.integers(-300, 300),
    st.integers(0, 5), st.integers(0, 5),  # p-content of each coordinate
    st.sampled_from((1, 3, 5, 7, 11)), st.sampled_from((1, 3, 5, 7, 11)),
    st.integers(0, 8), st.integers(0, 3),  # powers of g and of its conjugate
    st.integers(1, 6), st.integers(1, 6), st.booleans(),
)
def test_split_embedding_matches_lifting_reference(
    pa, x, y, kx, ky, dx, dy, i, j, digits, precision, conjugate
):
    # no bare assert, so that the property also checks under python -O
    p, a = pa
    if x == 0 and y == 0:
        return
    dx, dy = (dx if dx % p else 1), (dy if dy % p else 1)
    # denominators prime to p: the integral beta * d**2 stands in for the rational beta
    beta = _integral(Fraction(x * p**kx, dx), Fraction(y * p**ky, dy), a)
    g = _frak_side_uniformizer(p, a)
    for _ in range(i):
        beta = beta * g
    for _ in range(j):
        beta = beta * g.conjugate()
    if p == 2:
        precision = max(precision, 2)  # the two root classes differ mod 4
    root = ref_lift(p, a, ref_root(p, a, conjugate), precision)
    prime = f"the prime over {p} where sqrt {a} -> {root}"
    v, unit = split_units(beta, p, digits)[int(conjugate)]
    ref_v, ref_unit = ref_split_embedding(beta, p, root, precision, digits)
    mod = p**digits
    if type(unit) is not int or not 0 <= unit < mod or unit % p == 0:
        pytest.fail(f"{beta!r} at {prime}: unit {unit!r} is not a unit residue mod {mod}")
    if unit != ref_unit % mod:
        pytest.fail(f"{beta!r} at {prime}: unit {unit}, reference {ref_unit % mod}")
    if v != ref_v:
        pytest.fail(f"{beta!r} at {prime}: valuation {v}, reference {ref_v}")


def test_two_unit_class_ignores_powers_of_four():
    # 1/4 has the class of 1/4 * 4**2 = 4, and beta / 4**k that of beta * 4**k
    for a in (-5, 17):
        four, one = QuadElt(4, 0, a), QuadElt(1, 0, a)
        if not _square_quotient(four, one) or not unramified_at_two(four):
            pytest.fail(f"4 over {a}: reduced to {quadfield._reduce_two_unit(four)!r}")
    rng = random.Random(4)
    radicands = (-14, -10, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13, 17, 33, 41)
    for _ in range(400):
        a = rng.choice(radicands)
        beta = QuadElt(rng.randint(-40, 40), rng.randint(-40, 40), a)
        if beta.is_zero():
            continue
        beta = beta * rng.choice((1, 3, 5))  # beta / c has the class of beta * c
        base = _outcome(_reduced, beta)
        base_verdict = unramified_at_two(beta)
        base_c2 = conductor_two_at_two(beta) if a % 4 == 3 else None
        for k in range(4):
            scaled = beta * 4**k
            found = _outcome(_reduced, scaled)
            # the reduced unit mod 4O may change by the unit square -1; its square class may not
            if (found is NotTwoUnit) != (base is NotTwoUnit) or (
                base is not NotTwoUnit and not _is_unit_square_mod_4(_product(found, base, a), a)
            ):
                pytest.fail(f"{scaled!r} reduced to {found!r}, while {beta!r} gives {base!r}")
            if unramified_at_two(scaled) != base_verdict:
                pytest.fail(f"unramified test of {scaled!r} differs from {beta!r}")
            if a % 4 == 3 and conductor_two_at_two(scaled) != base_c2:
                pytest.fail(f"conductor-2 test of {scaled!r} differs from {beta!r}")


def test_split_embedding_needs_digits_the_root_has():
    # a unit mod p**d reads the root to d digits: mod p**d at odd p, and
    # mod 2**(d + 2) at 2, where the roots mod 2**(d + 1) agree in pairs;
    # a unit mod p**0 says nothing
    for p, a in ((5, -1), (3, 7), (13, 17), (2, 17), (2, -7)):
        beta = QuadElt(1, 2, a)  # a unit at both primes
        deep = split_units(beta, p, 8)
        for d in range(1, 8):
            found = split_units(beta, p, d)
            if found != tuple((v, u % p**d) for v, u in deep):
                pytest.fail(f"{beta!r} over {p}**{d}: {found}, over {p}**8: {deep}")
        for d in (0, -1):
            with pytest.raises(InvariantViolated):
                split_units(beta, p, d)


_ONE_MOD_8 = [a for a in _SPLIT_RADICANDS if a % 8 == 1]


def test_primes_above_needs_digits_that_tell_the_primes_apart():
    # the two dyadic units of 1 + 2 sqrt a, 1 + 2r and 1 - 2r, differ mod 8 but
    # agree mod 4; each one read mod 2**d is the same 2-adic unit for every d
    if split_units(QuadElt(1, 2, 17), 2, 3)[1][1] != 7:
        pytest.fail("the conjugate dyadic prime over 17 gives no 7 mod 8 for 1 + 2 sqrt 17")
    for a in _ONE_MOD_8:
        beta = QuadElt(1, 2, a)  # odd norm: a unit at both dyadic primes
        reference = [u for _, u in split_units(beta, 2, 6)]
        if reference[0] % 8 == reference[1] % 8:
            pytest.fail(f"{beta!r}: the units {reference} agree mod 8")
        for d in range(1, 9):
            found = [u for _, u in split_units(beta, 2, d)]
            if [u % 2 ** min(d, 6) for u in found] != [u % 2 ** min(d, 6) for u in reference]:
                pytest.fail(f"units of {beta!r} mod 2**{d}: {found}, mod 2**6: {reference}")


def test_split_units_needs_a_split_prime():
    # a RedeiError, so the CLI maps it to exit 6 rather than a traceback:
    # 2 is inert over 5 and ramified over -2; 3 is inert over -1, 5 ramified over -5
    for p, a in ((2, 5), (2, -2), (3, -1), (5, -5)):
        with pytest.raises(InvariantViolated):
            split_units(QuadElt(1, 1, a), p)
    # and a unit mod p**0, at 2 and at an odd split p
    for p, a in ((2, 17), (5, -1), (3, 7)):
        with pytest.raises(InvariantViolated):
            split_units(QuadElt(1, 1, a), p, 0)


def test_dyadic_unit_class_coords_name_the_square_class():
    # 4 beta = beta * u^2 with u^2 = -1 mod 4O when a = 3 mod 4
    for a in (-5, -1, 7):
        beta = QuadElt(1, 2, a)
        for k in range(1, 3):
            if not _square_quotient(beta * 4**k, beta):
                pytest.fail(f"1 + 2 sqrt {a} times 4**{k} leaves its square class")
    rng = random.Random(5)
    radicands = (-14, -10, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13, 17, 33, 41)
    for _ in range(400):
        a = rng.choice(radicands)
        # beta / c has the class of beta * c
        beta = QuadElt(rng.randint(-40, 40), rng.randint(-40, 40), a) * rng.choice((1, 3, 5))
        if _outcome(quadfield._reduce_two_unit, beta) is NotTwoUnit:
            continue
        base_verdict = unramified_at_two(beta)
        s = QuadElt(rng.randint(-9, 9), rng.randint(-9, 9), a)
        if s.norm() % 2 == 0:
            s = QuadElt(1, 0, a)  # the square of s must be a 2-unit
        for k in range(4):  # beta / 4**k has the class of beta * 4**k
            for scaled in (beta * 4**k, beta * s * s * 4**k):
                if not _square_quotient(scaled, beta) or unramified_at_two(scaled) != base_verdict:
                    pytest.fail(f"{scaled!r} leaves the square class of {beta!r}")


def _ref_dyadic_embeddings(elt, unit_digits):
    """(valuation, unit mod 2**unit_digits) at the canonical dyadic prime and at
    its conjugate, from the lifting reference."""
    a = elt.a
    out = []
    for conjugate in (False, True):
        root = ref_lift(2, a, ref_root(2, a, conjugate), 4)
        v, u = ref_split_embedding(elt, 2, root, 4, unit_digits)
        out.append((v, u % 2**unit_digits))
    return out


def ref_unramified_at_two(elt):
    """The per-prime loop: even valuation and unit 1 mod 4 at both dyadic primes."""
    for v, u in _ref_dyadic_embeddings(elt, 2):
        if v % 2 or u != 1:
            return False
    return True


def ref_dyadic_units(elt):
    """The signs of the units mod 8 that are 1 mod 4, at the dyadic primes of even
    valuation: the conjugate stands in where the square root ramifies."""
    values = set()
    for v, u in _ref_dyadic_embeddings(elt, 3):
        if v % 2 == 0 and u % 4 == 1:
            values.add(1 if u == 1 else -1)
    return values


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(
    st.sampled_from(_ONE_MOD_8), _coord, _coord,
    st.integers(0, 6), st.integers(0, 6),  # powers of g and of its conjugate
)
def test_split_units_match_the_per_prime_loops(a, x, y, i, j):
    # no bare assert, so that the property also checks under python -O
    if x == 0 and y == 0:
        return
    beta = _integral(x, y, a)  # beta * d**2 stands in for a rational beta
    g = _frak_side_uniformizer(2, a)
    for _ in range(i):
        beta = beta * g
    for _ in range(j):
        beta = beta * g.conjugate()
    if unramified_at_two(beta) != ref_unramified_at_two(beta):
        pytest.fail(f"unramified_at_two({beta!r}) = {unramified_at_two(beta)}")
    pair = split_units(beta, 2, 3)
    values = {1 if u == 1 else -1 for v, u in pair if v % 2 == 0 and u % 4 == 1}
    ref = ref_dyadic_units(beta)
    if values != ref:
        pytest.fail(f"{beta!r}: units {values} from {pair}, reference {ref}")
    # the order of the pair: canonical prime first, against the lifting reference
    for (v, u), (ref_v, ref_u) in zip(pair, _ref_dyadic_embeddings(beta, 3)):
        if v != ref_v or u != ref_u:
            pytest.fail(f"{beta!r}: {pair}, reference {(ref_v, ref_u)} at the same prime")
    # the witness path reads the same set; a stand-in witness carries beta alone
    try:
        found = _dyadic_part(MinRamWitness(a, 0, beta, None, 1, None, ""))[0]
    except RamificationAssertFailed:
        found = None
    if found != (min(ref) if len(ref) == 1 else None):
        pytest.fail(f"_dyadic_part of {beta!r} is {found}, reference units {ref}")
