"""factor() against the trial-division reference it replaced, and its certification edges."""

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redei import arith
from redei.arith import DEFAULT_TRIAL_BOUND, factor
from redei.errors import FactorLimitExceeded

# strong pseudoprimes to the first 12 and the first 13 prime bases
PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981  # 1287836182261 * 2575672364521

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # increments mod 30 starting from 7


@lru_cache(maxsize=None)
def _factor_abs(m: int, bound: int) -> tuple[tuple[int, int], ...]:
    out = []
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    c, i = 7, 0
    while c * c <= m:
        if c > bound:
            raise FactorLimitExceeded(
                f"unfactored cofactor {m} exceeds certification bound {bound}**2"
            )
        if m % c == 0:
            e = 0
            while m % c == 0:
                m //= c
                e += 1
            out.append((c, e))
        c += _WHEEL[i]
        i = (i + 1) % 8
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def reference(n, bound):
    """The trial-division factorization, or None where it raises."""
    try:
        return list(_factor_abs(n, bound))
    except FactorLimitExceeded:
        return None


def is_prime(n):
    return n > 1 and reference(n, DEFAULT_TRIAL_BOUND) == [(n, 1)]


def check_against_reference(n, bound):
    want = reference(n, bound)
    if want is not None:
        assert factor(n, bound) == want
        return
    try:
        got = factor(n, bound)
    except FactorLimitExceeded:
        return
    prod = 1
    for p, e in got:
        prod *= p**e
    assert prod == n
    assert sum(e for p, e in got if p > bound) <= 1, (n, bound, got)


def test_factor_matches_reference_below_1e12():
    rng = random.Random(2017)
    for _ in range(20000):
        n = rng.randint(1, 10 ** rng.randint(1, 12) - 1)
        assert factor(n) == reference(n, DEFAULT_TRIAL_BOUND), n


def test_factor_matches_reference_small_bounds():
    rng = random.Random(1980)
    for _ in range(3000):
        n = rng.randint(1, 10**7 - 1)
        for bound in (10, 100, 1000, 5000):
            check_against_reference(n, bound)


def test_factor_bound_is_a_hard_cap():
    # m <= bound**2 must not let rho split a composite when bound is negative
    with pytest.raises(FactorLimitExceeded):
        factor(1031 * 1033, bound=-2000)
    with pytest.raises(FactorLimitExceeded):
        factor(1031 * 1033, bound=1030)
    assert factor(1031 * 1033, bound=1031) == [(1031, 1), (1033, 1)]


def test_factor_near_square_semiprimes():
    # the worst case of trial division, and the case rho is for
    for p, q in ((31607, 31627), (999983, 1000003), (8388593, 8388617)):
        assert factor(p * q) == [(p, 1), (q, 1)]


def test_pseudoprime_to_twelve_bases():
    p, q = 399165290221, 798330580441
    assert p * q == PSI12
    assert not arith._is_prime(PSI12)
    assert factor(PSI12, bound=10**12) == [(p, 1), (q, 1)]
    with pytest.raises(FactorLimitExceeded):
        factor(PSI12)  # both primes lie above the default bound


def test_pseudoprime_to_thirteen_bases_is_never_a_prime():
    assert 1287836182261 * 2575672364521 == PSI13
    assert arith._is_prime(PSI13)  # so the certified range must stop below it
    assert PSI13 == arith._MR_LIMIT
    with pytest.raises(FactorLimitExceeded):
        factor(PSI13, bound=10**6)


def test_carmichael_numbers():
    assert factor(561) == [(3, 1), (11, 1), (17, 1)]
    assert factor(41041) == [(7, 1), (11, 1), (13, 1), (41, 1)]
    assert factor(825265) == [(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)]
    # every prime factor above the trial limit: Miller-Rabin, then rho
    assert factor(9624742921) == [(1171, 1), (2341, 1), (3511, 1)]
    for n in (561, 41041, 825265, 9624742921):
        assert not arith._is_prime(n)


def test_prime_powers_above_the_trial_limit():
    p = 1000003
    assert factor(p**2) == [(p, 2)]
    assert factor(2 * p**3) == [(2, 1), (p, 3)]
    assert factor(p**3, bound=10**9) == [(p, 3)]
    assert factor(1031**5, bound=10**8) == [(1031, 5)]
    assert factor(1031**2 * 1033**3, bound=10**8) == [(1031, 2), (1033, 3)]


def test_is_prime_matches_reference():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randrange(43, 10**9, 2)
        assert arith._is_prime(n) == is_prime(n), n


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1975)
    for _ in range(400):
        n = rng.randint(1, 10 ** rng.randint(1, 18) - 1)
        # no n < bound**2 has two prime factors above bound: factor never raises
        assert factor(n, bound=10**9) == sorted(sympy.factorint(n).items()), n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(2, 82), st.integers(0, 2**82)), min_size=1, max_size=5),
    st.integers(10, 10**5),
)
def test_factor_products_of_primes(draws, bound):
    sympy = pytest.importorskip("sympy")
    primes, n = [], 1
    for bits, r in draws:
        x = min((1 << bits - 1) + r % (1 << bits - 1), (PSI13 - 1) // n)
        if x < 2:
            break
        p = sympy.prevprime(x + 1)
        primes.append(p)
        n *= p
    if sum(p > bound for p in primes) >= 2:
        with pytest.raises(FactorLimitExceeded):
            factor(n, bound)
    else:
        assert factor(n, bound) == sorted(Counter(primes).items())


PSI = arith._MR_PSI  # psi_1, ..., psi_13


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_psi_table_is_the_least_strong_pseudoprimes():
    # psi_k passes the first k bases, so Miller-Rabin needs one more base at
    # psi_k, and _is_prime, which picks k from n, takes it
    sympy = pytest.importorskip("sympy")
    assert arith._MR_BASES == tuple(sympy.primerange(2, 42))
    assert list(PSI) == sorted(PSI)
    for k, psi in enumerate(PSI[:12], 1):
        assert not sympy.isprime(psi), k
        assert all(_strong_probable_prime(psi, a) for a in arith._MR_BASES[:k]), k
        assert not arith._is_prime(psi), k


def test_is_prime_matches_sympy_in_every_band():
    # each band [psi_(k-1), psi_k) runs Miller-Rabin on the first k bases
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1993)
    for low, high in zip((3,) + PSI, PSI):
        if low == high:
            continue
        odd = [rng.randrange(low | 1, high, 2) for _ in range(150)]
        # Miller-Rabin errs only on composites: test primes too
        odd += [sympy.nextprime(rng.randrange(low, high - high // 1000)) for _ in range(10)]
        for n in odd:
            assert arith._is_prime(n) == sympy.isprime(n), n


def test_factor_around_the_trial_limit():
    # the gcd with the primes below 2**10 takes over from the wheel at 1031**2
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1031)
    ns = [p**e for p in (1009, 1013, 1019, 1021, 1031, 1033, 1039) for e in (1, 2, 3, 5)]
    ns += [1021**3 * 1031**2, 3 * 5**2 * 7 * 1021 * 1031]
    edge = 1031 * 1031
    ns += list(range(edge - 40, edge + 40))
    ns += [edge - 2 * 1021, 1021 * 1039, 1031 * 1033, 1021 * 1031, 7 * 1031**2, 1021 * 1033**2]
    # even n with large odd parts: the power of 2 is split off before the memo
    ns += [2**e * sympy.nextprime(rng.randrange(10**11, 10**12)) for e in (1, 2, 3, 17)]
    ns += [2**40 * 1021 * 999983, 2**3 * 1031**2 * 1000003]
    for n in ns:
        assert factor(n) == sorted(sympy.factorint(n).items()), n
        assert factor(n, bound=10**9) == sorted(sympy.factorint(n).items()), n
    # below TRIAL_LIMIT the bound stops the wheel early, whatever the cofactor
    for n in ns:
        check_against_reference(n, 1000)
        check_against_reference(n, 100)


def test_rho_budget_never_changes_the_answer(monkeypatch):
    # with no steps for rho, every cofactor is trial-divided up to the bound
    rng = random.Random(24)
    ns = [rng.randrange(10**11, 10**13) for _ in range(200)]
    ns += [1009 * 1013, 1031 * 1033 * 99991, 3 * 1009 * 1013]
    bounds = (100, 1000, 1031, 5000, 10**5)

    def outcome(n, bound):
        try:
            return factor(n, bound)
        except FactorLimitExceeded as exc:
            return str(exc)

    fast = {(n, b): outcome(n, b) for n in ns for b in bounds}
    monkeypatch.setattr(arith, "_RHO_STEPS", 0)
    arith._factor_abs.cache_clear()
    try:
        for (n, b), want in fast.items():
            assert outcome(n, b) == want, (n, b)
    finally:
        arith._factor_abs.cache_clear()


def test_cap_on_large_semiprimes_reports_the_cofactor():
    # both primes above the default bound: rho splits the cofactor, and the
    # error names the cofactor that trial division up to the bound leaves
    p, q = 100000007, 1000000007
    with pytest.raises(FactorLimitExceeded, match=f"unfactored cofactor {p * q} "):
        factor(3 * p * q)
    assert factor(3 * p * q, bound=q) == [(3, 1), (p, 1), (q, 1)]
