import random

import pytest

from redei.arith import is_fundamental_discriminant, signed_prime_decomposition
from redei.errors import BoundExceeded, DiscriminantMismatch, InvariantViolated, NotFundamental
from redei.oracle import FormClass, compose, enumerate_classes, narrow_ranks


def test_enumerate_examples():
    g = enumerate_classes(-820)
    assert g.order == 8
    assert narrow_ranks(-820) == (2, 1, 0)  # so the 2-part is Z/2 x Z/4
    assert enumerate_classes(-4).order == 1
    g60 = enumerate_classes(60)
    assert g60.order == 4
    assert narrow_ranks(60) == (2, 0, 0)  # exponent 2
    assert narrow_ranks(-68) == (1, 1, 0)  # cyclic of order 4


def test_enumerate_errors():
    with pytest.raises(NotFundamental):
        enumerate_classes(-12)  # -12 = 4*(-3) but disc(Q(sqrt -3)) = -3
    with pytest.raises(BoundExceeded):
        enumerate_classes(-3, bound=2)


def test_negative_definite_form_is_a_library_error():
    # a RedeiError, so the CLI maps it to exit 6 rather than a traceback
    with pytest.raises(InvariantViolated):
        enumerate_classes(-820)._classify((-1, 0, -205))


def test_compose_examples():
    g = enumerate_classes(-820)
    for f in g.elements:
        assert compose(g.identity, f) == f
        sq = compose(f, f)
        if sq != g.identity and compose(sq, sq) == g.identity:
            pass  # order-4 elements exist in Z/2 x Z/4
    two_torsion = [f for f in g.elements if compose(f, f) == g.identity]
    assert len(two_torsion) == 4
    squares = {compose(f, f) for f in g.elements}
    orders = set()
    for s in squares:
        if s != g.identity:
            assert compose(s, s) == g.identity  # square of a generator has order 2
            orders.add(2)
    assert orders == {2}


def test_compose_discriminant_mismatch():
    f = enumerate_classes(-4).identity
    g = enumerate_classes(-8).identity
    with pytest.raises(DiscriminantMismatch):
        compose(f, g)


def test_group_axioms_sweep():
    rng = random.Random(9)
    for D in (-840, -420, -163, -56, 40, 105, 136, 316, 776, 1596):
        if not is_fundamental_discriminant(D):
            continue
        g = enumerate_classes(D)
        els = g.elements
        for f in els:
            assert g.compose(g.identity, f) == f
            assert g.compose(f, g.inverse(f)) == g.identity
        for _ in range(60):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert g.compose(x, y) == g.compose(y, x)
            assert g.compose(g.compose(x, y), z) == g.compose(x, g.compose(y, z))
            assert g.compose(x, y) in set(els)


def test_two_rank_is_t_minus_one():
    for D in range(-2000, 2000):
        if not is_fundamental_discriminant(D):
            continue
        t = signed_prime_decomposition(D).t
        g = enumerate_classes(D)
        assert narrow_ranks(D)[0] == t - 1, D
        assert g.order % (1 << (t - 1)) == 0
