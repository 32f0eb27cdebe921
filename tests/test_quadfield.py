import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redei.arith import kronecker, square_class
from redei.errors import (
    NotTwoUnit,
    OddValuation,
    PartUndefined,
    TrivialClass,
    TwoNotSplit,
    WrongDiscriminantClass,
)
from redei.quadfield import (
    INERT,
    RAMIFIED,
    SPLIT,
    DegreeOnePrime,
    QuadElt,
    dyadic_embedding,
    dyadic_unit_class,
    is_conductor_two,
    primes_above,
    residue_symbol,
)


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
    e = QuadElt(Fraction(3, 2), -4, -5)
    f = QuadElt(2, 1, -5)
    assert (e / f) * f == e


# int coordinates, integral Fractions Fraction(n, 1) and proper fractions
_coord = st.one_of(
    st.integers(-60, 60),
    st.integers(-60, 60).map(Fraction),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)
_radicand = st.sampled_from((-7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 13, 17))


def _fraction_ops(x1, y1, x2, y2, a):
    """The QuadElt operations on all-Fraction coordinate pairs, by their formulas."""
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
    return out


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
        out["/"] = e / f
    if f.x:
        out["/ scalar"] = e / f.x
    return out


def _normal_form(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_coord, _coord, _coord, _coord, _radicand)
def test_quadelt_matches_fraction_arithmetic(x1, y1, x2, y2, a):
    # no bare assert, so that the property also checks under python -O
    e, f = QuadElt(x1, y1, a), QuadElt(x2, y2, a)
    expected = _fraction_ops(x1, y1, x2, y2, a)
    found = _quadelt_ops(e, f)
    if found.keys() != expected.keys():
        pytest.fail(f"operations {sorted(found)} != {sorted(expected)}")
    for op, g in found.items():
        if (g.x, g.y, g.a) != (*expected[op], a):
            pytest.fail(f"{e} {op} {f} = {g}, expected {expected[op]}")
        if not (_normal_form(g.x) and _normal_form(g.y)):
            pytest.fail(f"{e} {op} {f} = {g!r} is not in normal form")
    for g in (e, f):
        norm = g.norm()
        if norm != Fraction(g.x) ** 2 - a * Fraction(g.y) ** 2:
            pytest.fail(f"norm of {g} is {norm}")
        if type(g.x) is int and type(g.y) is int and type(norm) is not int:
            pytest.fail(f"norm of the integral {g} is {norm!r}")
        # the same element built from Fraction coordinates
        h = QuadElt(Fraction(g.x), Fraction(g.y), a)
        if not (_normal_form(h.x) and _normal_form(h.y)):
            pytest.fail(f"{h!r} is not in normal form")
        if h != g or hash(h) != hash(g) or repr(h) != repr(g):
            pytest.fail(f"{h!r} and {g!r} disagree")


def test_quadelt_normal_form_examples():
    e = QuadElt(Fraction(6, 2), Fraction(-1, 2), 5)
    assert type(e.x) is int and e.x == 3
    assert type(e.y) is Fraction
    assert type((e + e).y) is int
    assert type((QuadElt(12, 2, -5) / QuadElt(6, 1, -5)).x) is int
    assert QuadElt(1, 1, 5) / 2 == QuadElt(Fraction(1, 2), Fraction(1, 2), 5)


def test_primes_above_examples():
    kind, fraks = primes_above(5, -1)
    assert kind == SPLIT
    assert {f.root % 5 for f in fraks} == {2, 3}
    assert primes_above(5, -5)[0] == RAMIFIED
    assert primes_above(3, -1) == (INERT, [])
    with pytest.raises(TrivialClass):
        primes_above(5, 1)


def test_primes_above_matches_kronecker():
    for a in (-1, -2, -5, 3, 6, 17, -17, 21):
        from redei.arith import discriminant

        for p in (3, 5, 7, 11, 13, 2):
            kind, fraks = primes_above(p, a)
            kappa = kronecker(discriminant(a), p)
            if kappa == 1:
                assert kind == SPLIT and len(fraks) == 2
                r1, r2 = fraks[0].root, fraks[1].root
                mod = p**fraks[0].precision
                assert (r1 + r2) % mod == 0
                for f in fraks:
                    assert (f.root * f.root - a) % mod == 0
            elif kappa == -1:
                assert kind == INERT and fraks == []
            else:
                assert kind == RAMIFIED and len(fraks) == 1


def test_residue_symbol_examples():
    frak5 = primes_above(5, -5)[1][0]
    assert residue_symbol(QuadElt(12, 2, -5), frak5) == -1  # residue 2 mod 5
    assert residue_symbol(QuadElt(17, 4, -5), frak5) == -1
    assert residue_symbol(QuadElt(1, 0, -5), frak5) == 1


def test_residue_symbol_odd_valuation():
    frak5 = primes_above(5, -5)[1][0]
    with pytest.raises(OddValuation):
        residue_symbol(QuadElt(0, 1, -5), frak5)  # sqrt(-5) is a uniformizer


def test_residue_symbol_at_two_is_a_library_error():
    # a RedeiError, so the CLI maps it to exit 6 rather than a traceback
    frak2 = primes_above(2, 17)[1][0]
    with pytest.raises(PartUndefined):
        residue_symbol(QuadElt(3, 1, 17), frak2)


def test_residue_symbol_inert_prime_rejected():
    from redei.errors import InertPrime
    from redei.quadfield import INERT

    fake = DegreeOnePrime(3, -1, INERT, 0, 6)
    with pytest.raises(InertPrime):
        residue_symbol(QuadElt(1, 1, -1), fake)


def test_residue_symbol_square_invariance():
    rng = random.Random(1)
    frak = primes_above(13, 3)[1][0]
    for _ in range(60):
        beta = QuadElt(rng.randint(-20, 20), rng.randint(-20, 20), 3)
        s = QuadElt(rng.randint(1, 9), rng.randint(-9, 9), 3)
        if beta.is_zero() or s.norm() == 0 or beta.norm() == 0:
            continue
        try:
            lhs = residue_symbol(beta, frak)
        except OddValuation:
            continue
        assert residue_symbol(beta * s * s, frak) == lhs


def test_residue_symbol_conjugate_product_is_norm_symbol():
    rng = random.Random(2)
    count = 0
    while count < 60:
        a = square_class(rng.randint(2, 60) * rng.choice((1, -1)))
        if a == 1:
            continue
        p = rng.choice((3, 5, 7, 11, 13, 17))
        kind, fraks = primes_above(p, a)
        if kind != SPLIT:
            continue
        beta = QuadElt(rng.randint(-30, 30), rng.randint(-30, 30), a)
        if beta.is_zero() or beta.norm() == 0 or beta.norm().numerator % p == 0:
            continue
        lhs = residue_symbol(beta, fraks[0]) * residue_symbol(beta, fraks[1])
        assert lhs == kronecker(beta.norm().numerator, p) * kronecker(
            beta.norm().denominator, p
        )
        count += 1


def test_dyadic_unit_class_examples():
    cls = dyadic_unit_class(QuadElt(1, 0, -5))
    assert cls.is_square
    # tau = (1+a)/2 + sqrt a has square -1 mod 4O: order 4, not itself a square
    tau = QuadElt(-2, 1, -5)
    sq = tau * tau
    assert (sq.x + 1) % 4 == 0 and sq.y % 4 == 0
    assert not dyadic_unit_class(tau).is_square
    # delta = 12 + 2 sqrt(-5) = (1 + sqrt -5)^2 mod 4, so its reduced class is a square
    delta = QuadElt(12, 2, -5)
    w = QuadElt(1, 1, -5)
    diff = delta - w * w
    assert diff.x % 4 == 0 and diff.y % 4 == 0
    assert dyadic_unit_class(delta).is_square


def test_dyadic_unit_class_rejects_non_units():
    with pytest.raises(NotTwoUnit):
        dyadic_unit_class(QuadElt(0, 1, 2))  # sqrt 2 has odd valuation


def test_square_subgroup_sizes():
    # |(O/4O)*| = 8 with squares of order 2 when the discriminant is even;
    # order 4 (split) or 12 (inert) with squares of index 4 when odd
    from redei.quadfield import _max_order_squares, _sqrt_ring_squares

    def max_order_units(a):
        # p + q theta is a unit mod 4O iff its norm p^2 + pq - q^2 c is odd
        c = ((a - 1) // 4) % 4
        return [(p, q) for p in range(4) for q in range(4) if (p * p + p * q - q * q * c) % 2]

    for a in (-5, -1, 2, -2, 3, 6):
        assert len(_sqrt_ring_squares(a % 4)) == 2
    for a in (17, 73, -31):  # 1 mod 8
        assert len(max_order_units(a)) == 4
        assert len(_max_order_squares(a % 16)) == 1
    for a in (5, 13, -3):  # 5 mod 8
        assert len(max_order_units(a)) == 12
        assert len(_max_order_squares(a % 16)) == 3


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


def test_is_conductor_two_examples():
    assert is_conductor_two(QuadElt(-1, 2, -1))  # -1 + 2i over a = -1
    assert is_conductor_two(QuadElt(3, 2, -5))
    tau = QuadElt(-2, 1, -5)
    assert not is_conductor_two(tau * QuadElt(3, 2, -5))
    with pytest.raises(WrongDiscriminantClass):
        is_conductor_two(QuadElt(1, 2, 5))


def test_dyadic_embedding():
    # a = 17: the mod-64 roots come in the two classes {9, 55}; 7 is a valid
    # root at precision 32 (49 = 17 + 32) and lies in the class of 55
    assert (7 * 7 - 17) % 32 == 0
    _, fraks = primes_above(2, 17)
    for f in fraks:
        assert (f.root * f.root - 17) % (1 << f.precision) == 0
    assert dyadic_embedding(QuadElt(1, 0, 17)) == 1
    u0 = dyadic_embedding(QuadElt(5, 2, 17), 6)
    u1 = dyadic_embedding(QuadElt(5, 2, 17), 6, frak=fraks[1])
    assert u0 % 8 == 7
    assert u1 % 8 == 3  # the root class containing 7 mod 32, as in 5 + 2*7 = 19
    with pytest.raises(TwoNotSplit):
        dyadic_embedding(QuadElt(1, 1, 5))
    with pytest.raises(OddValuation):
        dyadic_embedding(QuadElt(4, 2, 17))


def test_dyadic_embedding_consistency():
    # u is the image of beta under sqrt(a) -> root, up to even powers of 2
    rng = random.Random(3)
    for a in (17, 33, 41, 73):
        _, fraks = primes_above(2, a, 12)
        for _ in range(40):
            beta = QuadElt(rng.randint(-40, 40), rng.randint(-40, 40), a)
            if beta.is_zero() or beta.norm() == 0:
                continue
            for frak in fraks:
                image = beta.x + beta.y * frak.root
                if image == 0:
                    continue
                v = 0
                img = int(image)
                while img % 2 == 0:
                    img //= 2
                    v += 1
                if v % 2 or v > 6:
                    continue
                assert dyadic_embedding(beta, 5, frak=frak) == img % 32
