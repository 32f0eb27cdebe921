import importlib
import pkgutil
import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redei
from redei import arith
from redei.arith import (
    INFINITY,
    discriminant,
    factor,
    hilbert,
    hilbert_places,
    hilbert_product,
    is_fundamental_discriminant,
    kronecker,
    padic_val,
    prime_divisors,
    signed_prime_decomposition,
    square_class,
)
from redei.errors import (
    FactorLimitExceeded,
    InvariantViolated,
    NotFundamental,
    NotSquarefree,
    TrivialClass,
    ZeroInput,
)
from redei.quadfield import QuadElt
from redei.redeimatrix import fundamental_discriminant


def test_factor_examples():
    assert factor(1) == []
    assert factor(-820) == [(2, 2), (5, 1), (41, 1)]
    assert factor(2310) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]


def test_factor_reconstructs():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(-(10**6), 10**6)
        if n == 0:
            continue
        prod = 1
        for p, e in factor(n):
            prod *= p**e
        assert prod * (1 if n > 0 else -1) == n


def test_factor_errors():
    with pytest.raises(ZeroInput):
        factor(0)
    # two primes above the trial bound leave an uncertifiable cofactor
    with pytest.raises(FactorLimitExceeded):
        factor(1009 * 1013, bound=100)
    # a prime cofactor below bound**2 is certified
    assert factor(1009, bound=100) == [(1009, 1)]


def test_padic_val_rejects_a_base_below_2():
    # n % 1 == 0 for every n, so a valuation at 1 or -1 would never end
    assert padic_val(-12, 2) == 2 and padic_val(12, 3) == 1 and padic_val(12, 4) == 1
    for p in (0, 1, -1):
        with pytest.raises(InvariantViolated):
            padic_val(12, p)


def test_square_class_examples():
    assert square_class(12) == 3
    assert square_class(-4) == -1
    assert square_class(50 * 9) == 2
    # a square class is read from an integer: a proper fraction is no argument
    with pytest.raises(InvariantViolated):
        square_class(Fraction(50, 9))


def test_square_class_and_prime_divisors_follow_factor(monkeypatch):
    # both read the factorization under the module's trial_bound, as factor does
    for n in (1, -1, 2, -12, 820, -(3**3) * 7**2 * 1009, 9999991 * 1013):
        assert square_class(n) == (-1 if n < 0 else 1) * prod(p for p, e in factor(n) if e % 2)
        assert prime_divisors(n) == [p for p, _ in factor(n)]
    with pytest.raises(ZeroInput):
        square_class(0)
    with pytest.raises(ZeroInput):
        prime_divisors(0)
    monkeypatch.setattr(arith, "trial_bound", 100)
    for f in (factor, square_class, prime_divisors):
        with pytest.raises(FactorLimitExceeded):
            f(1009 * 1013)


def test_square_class_properties():
    rng = random.Random(1)
    for _ in range(300):
        q = rng.randint(1, 5000) * rng.choice((1, -1)) * rng.randint(1, 500)
        s = square_class(q)
        assert square_class(s) == s  # idempotent
        # q / s is the square of an integer
        assert q % s == 0 and isqrt(q // s) ** 2 == q // s
        assert square_class(q // s) == 1
        with pytest.raises(InvariantViolated):
            square_class(Fraction(2 * q + 1, 2))


def test_kronecker_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(5, 2) == -1
    for a in (-7, -1, 0, 3, 10):
        assert kronecker(a, 1) == 1


def test_kronecker_matches_legendre():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            expected = pow(a, (p - 1) // 2, p)
            expected = -1 if expected == p - 1 else expected
            assert kronecker(a, p) == expected


def test_kronecker_multiplicative():
    rng = random.Random(2)
    for _ in range(500):
        a, b = rng.randint(-300, 300), rng.randint(-300, 300)
        n = rng.randint(-300, 300)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        assert kronecker(n, a * b) == kronecker(n, a) * kronecker(n, b)


def test_discriminant():
    assert discriminant(5) == 5
    assert discriminant(-5) == -20
    assert discriminant(2) == 8
    with pytest.raises(TrivialClass):
        discriminant(1)


def test_signed_prime_decomposition():
    d = signed_prime_decomposition(-820)
    assert d.odd_parts == (5, 41) and d.two_part == -4
    d = signed_prime_decomposition(-4)
    assert d.odd_parts == () and d.two_part == -4
    d = signed_prime_decomposition(60)
    assert set(d.odd_parts) == {-3, 5} and d.two_part == -4
    with pytest.raises(NotFundamental):
        signed_prime_decomposition(20)  # = 4 * 5 with 5 = 1 mod 4
    with pytest.raises(NotFundamental):
        signed_prime_decomposition(45)


def test_signed_parts_shape():
    for D in range(-300, 300):
        if not is_fundamental_discriminant(D):
            continue
        dec = signed_prime_decomposition(D)
        prod = 1
        for part in dec.parts:
            prod *= part
        assert prod == D
        for part in dec.odd_parts:
            assert part % 4 == 1


def test_hilbert_examples():
    assert hilbert(-1, -1, INFINITY) == -1
    assert hilbert(-1, -1, 2) == -1  # frozen from the mod-8 search below
    for v in hilbert_places(-20, 41):
        assert hilbert(-20, 41, v) == 1  # (12,1,2) solves the conic globally
    assert hilbert_places(-20, 41) == [INFINITY, 2, 5, 41]
    assert hilbert_places(-20 * 9, 41 * 7) == [INFINITY, 2, 3, 5, 7, 41]
    assert hilbert_places(Fraction(-20), 41) == hilbert_places(-20, 41)
    # the arguments are integers: a proper fraction is no argument
    for a, b in ((Fraction(-20, 9), 41), (-20, Fraction(41, 7))):
        with pytest.raises(InvariantViolated):
            hilbert_places(a, b)
        with pytest.raises(InvariantViolated):
            hilbert(a, b, 5)


def test_hilbert_rejects_a_v_that_is_not_a_place():
    # the valuation loop never ends at v = 1 and divides by zero at v = 0, and a
    # composite or negative v is no place of Q either
    for v in (0, 1, 4, -3):
        with pytest.raises(InvariantViolated):
            hilbert(3, 5, v)
    if hilbert(3, 5, 5) != -1 or hilbert(3, 5, 1000003) != 1:
        pytest.fail("the Hilbert symbol at a prime changed")


def test_hilbert_minus1_minus1_mod8_oracle():
    # no primitive x^2 + y^2 + z^2 = 0 mod 8
    sols = [
        (x, y, z)
        for x in range(8)
        for y in range(8)
        for z in range(8)
        if (x * x + y * y + z * z) % 8 == 0 and (x % 2 or y % 2 or z % 2)
    ]
    assert sols == []


def test_hilbert_odd_unit_places():
    rng = random.Random(3)
    for _ in range(300):
        a, b = rng.randint(1, 400), rng.randint(1, 400)
        for p in (3, 5, 7, 11, 13):
            if a % p and b % p:
                assert hilbert(a, b, p) == 1


def test_hilbert_bilinear():
    rng = random.Random(4)
    for _ in range(150):
        a, a2, b = (rng.choice((1, -1)) * rng.randint(1, 10**4) for _ in range(3))
        for v in [INFINITY, 2, 3, 5, 7, 13]:
            assert hilbert(a * a2, b, v) == hilbert(a, b, v) * hilbert(a2, b, v)
            assert hilbert(a, b, v) == hilbert(b, a, v)


def test_hilbert_2adic_against_search():
    # primitive solvability mod 64 decides Q_2-solvability for squarefree inputs
    squares64 = {x * x % 64 for x in range(64)}
    odd_squares64 = {x * x % 64 for x in range(1, 64, 2)}

    def solvable_mod64(a, b):
        for y in range(64):
            for z in range(64):
                t = (a * y * y + b * z * z) % 64
                if y % 2 or z % 2:
                    if t in squares64:
                        return True
                elif t in odd_squares64:
                    return True
        return False

    vals = [n for n in range(-21, 22) if n and square_class(n) == n]
    for a in vals[::3]:
        for b in vals[::3]:
            assert (hilbert(a, b, 2) == 1) == solvable_mod64(a, b), (a, b)


def test_product_formula():
    assert hilbert_product(3, 5) == 1
    assert hilbert_product(-1, 2) == 1
    assert hilbert_product(-20, 41) == 1
    rng = random.Random(5)
    for _ in range(500):
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        if a and b:
            assert hilbert_product(a, b) == 1


def test_hilbert_places_of_primes_past_the_factor_cap():
    # p and q are primes just above 2**24: each is certified alone, and their
    # product, which has two primes above the cap, never is; the two arguments
    # are factored apart
    p, q = 16777259, 16777289
    assert hilbert_places(p, q) == [INFINITY, 2, p, q]
    assert hilbert_product(p, q) == 1
    with pytest.raises(FactorLimitExceeded):
        hilbert_places(p * q, 3)


def test_square_class_of_primes_past_the_factor_cap():
    # the same primes: each alone has its class, and their product raises
    p, q = 16777259, 16777289
    assert square_class(p) == p
    assert square_class(-4 * q * 9) == -q
    with pytest.raises(FactorLimitExceeded):
        square_class(p * q)


def _answer(f, *errors):
    """f, with each of errors returned as its type: an integer that f rejects
    still has an answer to compare."""

    def answer(n):
        try:
            return f(n)
        except errors as exc:
            return type(exc)

    return answer


# every entry that reads an integer argument, as a function of that one argument
ONE_CHECK = {
    "discriminant": _answer(discriminant, TrivialClass),
    "is_fundamental_discriminant": is_fundamental_discriminant,
    "signed_prime_decomposition": _answer(signed_prime_decomposition, NotFundamental),
    "padic_val": lambda n: padic_val(n, 2),
    "fundamental_discriminant": _answer(fundamental_discriminant, TrivialClass, NotSquarefree),
    "factor": factor,
    "prime_divisors": prime_divisors,
    "square_class": square_class,
    "kronecker a": lambda n: kronecker(n, 15),
    "kronecker n": lambda n: kronecker(7, n),
    "hilbert a": lambda n: [hilbert(n, -3, v) for v in (INFINITY, 2, 3)],
    "hilbert b": lambda n: [hilbert(-3, n, v) for v in (INFINITY, 2, 3)],
    "QuadElt x": lambda n: QuadElt(n, 1, 5),
    "QuadElt y": lambda n: QuadElt(1, n, 5),
    "QuadElt a": lambda n: QuadElt(1, 1, n),
}

NOT_INTEGERS = st.one_of(
    st.fractions(min_value=-1000, max_value=1000).filter(lambda q: q.denominator != 1),
    st.sampled_from((2.5, "3", None)),
)


@pytest.mark.parametrize("entry", sorted(ONE_CHECK))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(-(10**6), 10**6).filter(bool), q=NOT_INTEGERS)
def test_every_entry_reads_its_argument_through_one_check(entry, n, q):
    # an integral value of any type gives the int's answer, of the int's types
    # (a float does not leak into it); nothing is truncated
    f = ONE_CHECK[entry]
    expected = f(n)
    for same in (Fraction(n), float(n)):
        if repr(f(same)) != repr(expected):
            pytest.fail(f"{entry}: {same!r} gives {f(same)!r}, {n} gives {expected!r}")
    with pytest.raises(InvariantViolated):
        f(q)


def test_one_cache_policy():
    # every memo is bounded at CACHE_SIZE, except the residue table (at most a
    # handful of entries) and the CLI parser
    exceptions = {
        "redei.quadfield._unit_squares": None,
        "redei.cli._parser": 1,
    }
    found = {}
    for info in pkgutil.iter_modules(redei.__path__, "redei."):
        module = importlib.import_module(info.name)
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_parameters") and fn.__module__ == info.name:
                found[f"{info.name}.{name}"] = fn.cache_parameters()["maxsize"]
    assert set(exceptions) <= set(found)
    for name, maxsize in found.items():
        assert maxsize == exceptions.get(name, arith.CACHE_SIZE), name
