import os
import random
import subprocess
import sys
from itertools import islice
from math import gcd, isqrt, log, pi, sin, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redei import oracle
from redei.arith import is_fundamental_discriminant, kronecker, signed_prime_decomposition
from redei.errors import BoundExceeded, InvariantViolated, NotFundamental
from redei.oracle import _cycle, enumerate_classes, narrow_ranks
from redei.redeimatrix import r2, r4, r8


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
        enumerate_classes(-820)._reduce((-1, 0, -205))


def group_law(g):
    """The product of two canonical tuples of g, and the inverse of one."""

    def mul(f, h):
        return g._reduce(oracle._compose_raw(f, h, g.D))

    def inverse(f):
        A, B, C = f
        return g._reduce((A, -B, C))

    return mul, inverse


def test_compose_examples():
    g = enumerate_classes(-820)
    mul, _ = group_law(g)
    one = g._identity
    for f in g._reps:
        assert mul(one, f) == f
    two_torsion = [f for f in g._reps if mul(f, f) == one]
    assert len(two_torsion) == 4
    squares = {mul(f, f) for f in g._reps}
    assert len(squares) == 2  # Z/2 x Z/4 squares onto Z/2
    for s in squares - {one}:
        assert mul(s, s) == one  # square of a generator has order 2


def test_group_axioms_sweep():
    rng = random.Random(9)
    for D in (-840, -420, -163, -56, 40, 105, 136, 316, 776, 1596):
        if not is_fundamental_discriminant(D):
            continue
        g = enumerate_classes(D)
        mul, inverse = group_law(g)
        els, one = g._reps, g._identity
        for f in els:
            assert mul(one, f) == f
            assert mul(f, inverse(f)) == one
        for _ in range(60):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert mul(x, y) == mul(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, y) in set(els)


def test_two_rank_is_t_minus_one():
    for D in range(-2000, 2000):
        if not is_fundamental_discriminant(D):
            continue
        t = signed_prime_decomposition(D).t
        g = enumerate_classes(D)
        assert narrow_ranks(D)[0] == t - 1, D
        assert g.order % (1 << (t - 1)) == 0


# --- references: the trial-division enumerations; the square-root enumeration of every
# reduced indefinite form, which the enumeration from 0 < A and 4A**2 < D replaced; the
# three-pass ranks; and the squaring map over all classes, which the 2-Sylow ranks replaced


def enumerate_definite(D: int) -> list[tuple[int, int, int]]:
    """The reduced forms of D < 0 in sorted order: the oracle's stream, listed."""
    return list(oracle._definite_forms(D, oracle._residues(D, isqrt(-D // 3))))


def ref_enumerate_definite(D: int) -> list[tuple[int, int, int]]:
    out = []
    amax = isqrt(-D // 3)
    for A in range(1, amax + 1):
        for B in range(-A + 1, A + 1):
            if (B * B - D) % (4 * A):
                continue
            C = (B * B - D) // (4 * A)
            if C < A:
                continue
            if B < 0 and (A == C or B == -A):
                continue
            if gcd(gcd(A, B), C) != 1:
                continue
            out.append((A, B, C))
    return out


def _is_reduced_indefinite(A: int, B: int, C: int, D: int) -> bool:
    if B <= 0 or B * B >= D:
        return False
    twoa = 2 * abs(A)
    # sqrt(D) - B < 2|A| < sqrt(D) + B, with sqrt(D) irrational
    if (twoa + B) ** 2 <= D:
        return False
    if twoa > B and (twoa - B) ** 2 >= D:
        return False
    return True


def ref_enumerate_indefinite(D: int) -> list[tuple[int, int, int]]:
    out = []
    for B in range(1, isqrt(D) + 1):
        if (B - D) % 2:
            continue
        M = (B * B - D) // 4  # = A*C < 0
        for A in range(1, isqrt(-M) + 1):
            if M % A:
                continue
            for a in (A, -A):
                c = M // a
                for f in ((a, B, c), (c, B, a)):
                    if _is_reduced_indefinite(*f, D) and gcd(gcd(f[0], B), f[2]) == 1:
                        out.append(f)
    return sorted(set(out))


def sqrt_enumerate_indefinite(D: int) -> list[tuple[int, int, int]]:
    """Every reduced form of discriminant D > 0, from the square roots of D mod 4A."""
    out = []
    s = isqrt(D)
    for A, xs in oracle._roots(oracle._residues(D, s)):
        twoa = 2 * A
        # B in [lo, s] is exactly _is_reduced_indefinite: with D no square,
        # B*B < D is B <= s, sqrt(D) - B < 2A is B >= s + 1 - 2A, and
        # 2A < sqrt(D) + B is B >= 2A - s.
        lo = max(1, s + 1 - twoa, twoa - s)
        for x in xs:
            for B in range(lo + (x - lo) % twoa, s + 1, twoa):
                C = (B * B - D) // (4 * A)
                out += [(A, B, C), (-A, B, -C)]
    return sorted(out)


def ref_canon(forms: list, D: int) -> dict:
    """enumerate_classes' grouping of the reduced indefinite forms into cycles."""
    isq = isqrt(D)
    canon = {}
    remaining = set(forms)
    while remaining:
        start = min(remaining)
        cyc = _cycle(start, D, isq)
        rep = min(cyc)
        for f in cyc:
            canon[f] = rep
            remaining.discard(f)
    return canon


def ref_narrow_ranks(D: int) -> tuple[int, int, int]:
    group = enumerate_classes(D)
    mul, _ = group_law(group)
    counts = []
    current = {f: f for f in group._reps}  # g -> g^(2^k)
    for _ in range(3):
        counts.append(sum(1 for img in current.values() if img == group._identity))
        current = {g: mul(img, img) for g, img in current.items()}
    counts.append(sum(1 for img in current.values() if img == group._identity))
    out = []
    for k in range(3):
        ratio = counts[k + 1] // counts[k]
        out.append(ratio.bit_length() - 1)
    return tuple(out)


def ref_squares(group) -> list[int]:
    """The squaring map on class indices, in the order of `group._reps`."""
    D, reps, reduce = group.D, group._reps, group._reduce
    index = {f: i for i, f in enumerate(reps)}
    return [index[reduce(oracle._compose_raw(f, f, D))] for f in reps]


def ref_ranks_all_squares(group) -> tuple[int, int, int]:
    """(r2, r4, r8) from 2-power torsion counted over every class."""
    square = ref_squares(group)
    identity = group._reps.index(group._identity)
    counts = []
    powers = range(len(square))  # the index of g^(2^k), for each g
    for _ in range(4):
        counts.append(powers.count(identity))
        powers = [square[i] for i in powers]
    return tuple((counts[k + 1] // counts[k]).bit_length() - 1 for k in range(3))


def assert_matches_reference(D: int):
    g = enumerate_classes(D)
    if D < 0:
        assert enumerate_definite(D) == sorted(ref_enumerate_definite(D)), D
    else:
        forms = ref_enumerate_indefinite(D)
        assert sorted(g._canon) == forms, D
        assert sqrt_enumerate_indefinite(D) == forms, D
        assert g._canon == ref_canon(forms, D), D
    assert narrow_ranks(D) == ref_narrow_ranks(D) == ref_ranks_all_squares(g), D


def test_enumeration_matches_reference_exhaustively():
    for D in range(-20000, 20001):
        if is_fundamental_discriminant(D):
            assert_matches_reference(D)


def test_reduce_definite_undoes_random_words():
    # each reduced form f with |D| <= 3000, moved by a seeded word in
    # S: (A, B, C) -> (C, -B, A) and T**k: (A, B, C) -> (A, B + 2kA, C + kB + k*k*A),
    # reduces back to f; the forms with A == C or B == A are the edge cases
    rng = random.Random(1039)
    edges = {"A == C": 0, "B == A": 0}
    for D in range(-3000, -2):
        if not is_fundamental_discriminant(D):
            continue
        for f in enumerate_classes(D)._forms():
            A, B, C = f
            edges["A == C"] += A == C and B > 0
            edges["B == A"] += B == A
            for _ in range(3):
                g = f
                for _ in range(rng.randint(1, 8)):
                    a, b, c = g
                    k = rng.randint(-4, 4)
                    g = (c, -b, a) if rng.random() < 0.5 else (a, b + 2 * k * a, c + k * b + k * k * a)
                got = oracle._reduce_definite(*g)
                if got != f:
                    pytest.fail(f"D = {D}: {g} reduces to {got}, not {f}")
    assert min(edges.values()) > 100, edges


def large_sample() -> list[int]:
    """About 100 seeded fundamental D with 1e5 <= |D| <= 1e6: per sign, 30 odd D,
    10 even D and 10 D with at least five prime discriminant factors."""
    rng = random.Random(2718)
    want = {"odd": 30, "even": 10, "many": 10}
    taken = dict.fromkeys([(s, k) for s in (-1, 1) for k in want], 0)
    out = []
    while len(out) < 2 * sum(want.values()):
        sign = rng.choice((-1, 1))
        D = sign * rng.randint(10**5, 10**6)
        if not is_fundamental_discriminant(D):
            continue
        kind = "many" if signed_prime_decomposition(D).t >= 5 else "even" if D % 2 == 0 else "odd"
        if taken[sign, kind] < want[kind]:
            taken[sign, kind] += 1
            out.append(D)
    return out


def test_enumeration_matches_reference_large():
    for D in large_sample():
        assert_matches_reference(D)


def test_class_number_formula():
    # Dirichlet: h(D) = -(1/|D|) sum_{a=1}^{|D|-1} a (D/a) for fundamental D < -4
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        D = -rng.randint(5, 2 * 10**4)
        if not is_fundamental_discriminant(D):
            continue
        total = sum(a * kronecker(D, a) for a in range(1, -D))
        assert total % D == 0, D
        assert enumerate_classes(D).order == total // D, D
        checked += 1


def log_fundamental_unit(D: int) -> tuple[float, int]:
    """(log eps_D, period) from one continued-fraction period of the reduced
    xi = (P + sqrt D)/2, P = D mod 2 + 2k: eps_D is the product of the
    complete quotients (P_i + sqrt D)/Q_i over the period, of norm (-1)**period."""
    s, root = isqrt(D), sqrt(D)
    P = D % 2 + 2 * ((s - D % 2) // 2)  # the k making -1 < conj(xi) < 0
    P0, Q = P, 2
    total, period = 0.0, 0
    while True:
        total += log((P + root) / Q)
        period += 1
        P = (P + s) // Q * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == (P0, 2):
            return total, period


def test_class_number_formula_real():
    # Dirichlet: h(D) log eps_D = -1/2 sum_{a=1}^{D-1} (D/a) log sin(pi a/D) for
    # fundamental D > 0, and the narrow h+ is h when N(eps_D) = -1, else 2h
    rng = random.Random(32)
    checked = 0
    while checked < 60:
        D = rng.randint(5, 2 * 10**4)
        if not is_fundamental_discriminant(D):
            continue
        log_eps, period = log_fundamental_unit(D)
        total = sum(kronecker(D, a) * log(sin(pi * a / D)) for a in range(1, D))
        h = -total / (2 * log_eps)
        assert abs(h - round(h)) < 1e-6, (D, h)
        narrow = round(h) if period % 2 else 2 * round(h)
        assert enumerate_classes(D).order == narrow, D
        checked += 1


# --- h(D < 0) counted, the reduced forms streamed in sorted order and listed on demand


def band_edges() -> list[int]:
    """The fundamental D within 8 of -4A**2 and -3A**2, A <= 600: where the band
    4A**2 >= -D of the leading coefficients that take roots starts and ends."""
    near = {-k * A * A + e for A in range(1, 601) for k in (3, 4) for e in range(-8, 9)}
    return sorted(D for D in near if D < 0 and is_fundamental_discriminant(D))


def test_counted_order_matches_the_list():
    sample = [D for D in range(-20000, -2) if is_fundamental_discriminant(D)]
    sample += band_edges() + [D for D in large_sample() if D < 0]
    for D in sample:
        g = enumerate_classes(D, bound=-D)
        forms = enumerate_definite(D)
        k = 1 + -D % g.order
        if g.order != len(forms) or list(islice(g._forms(), k)) != forms[:k]:
            pytest.fail(f"D = {D}: h = {g.order} counted, {len(forms)} forms listed")


def test_ranks_list_the_forms_only_when_h_is_a_power_of_two(monkeypatch):
    reps = oracle.ClassGroup._reps

    def refuse(group):
        pytest.fail(f"D = {group.D}: the forms of h = {group.order} were listed")

    monkeypatch.setattr(oracle.ClassGroup, "_reps", property(refuse))
    large = [D for D in large_sample() if D < 0][0]
    for D, h in [(-23, 3), (-47, 5), (large, 136)]:
        assert enumerate_classes(D).order == h
        assert narrow_ranks(D) == (r2(D), r4(D), r8(D)), D
    listed = []
    monkeypatch.setattr(oracle.ClassGroup, "_reps", property(lambda g: listed.append(g.D) or reps.fget(g)))
    assert narrow_ranks(-820) == (2, 1, 0)
    assert listed == [-820]


def test_listing_checks_the_counted_order():
    # h counted one too high: reading the list raises, also under python -O,
    # and so do the ranks once h = 7 + 1 is taken for a power of 2
    script = (
        "from redei import oracle\n"
        "from redei.errors import InvariantViolated\n"
        "count = oracle._root_count\n"
        "oracle._root_count = lambda residues, amax=None: count(residues, amax) + 1\n"
        "for D in (-23, -820, -71):\n"
        "    try:\n"
        "        oracle.narrow_ranks(D) if D == -71 else oracle.enumerate_classes(D)._reps\n"
        "    except InvariantViolated as e:\n"
        "        print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "D = -23: 3 reduced forms, 4 counted",
        "D = -820: 8 reduced forms, 9 counted",
        "D = -71: 7 reduced forms, 8 counted",
    ]


@st.composite
def large_fundamental_discriminants(draw):
    sign = draw(st.sampled_from((-1, 1)))
    D = sign * draw(st.integers(10**5 + 1000, 10**6))
    while not is_fundamental_discriminant(D):
        D -= sign
    return D


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(large_fundamental_discriminants())
def test_redei_matrix_ranks_match_oracle_large(D):
    assert (r2(D), r4(D), r8(D)) == narrow_ranks(D)


# --- the recursive extended Euclid that the iterative _xgcd replaced


def ref_xgcd(a: int, b: int):
    if a == 0:
        return b, 0, 1
    g, x, y = ref_xgcd(b % a, a)
    return g, y - (b // a) * x, x


def test_xgcd_matches_recursive_reference():
    # identical triples, sign of g included, keep every _compose_raw result unchanged;
    # pytest.fail rather than assert, so the check also runs under python -O
    rng = random.Random(1009)
    edge = (0, 1, -1, 2, -2, 10**9, -(10**9))
    pairs = [(a, b) for a in edge for b in edge]
    for _ in range(40000):
        a, b = (rng.choice((0, rng.randint(-100, 100), rng.randint(-(10**9), 10**9))) for _ in "ab")
        pairs.append((a, b))
    for a, b in pairs:
        got, want = oracle._xgcd(a, b), ref_xgcd(a, b)
        if got != want:
            pytest.fail(f"_xgcd({a}, {b}) = {got}, the recursion gives {want}")
        if got[0] != got[1] * a + got[2] * b:
            pytest.fail(f"_xgcd({a}, {b}) = {got} is no Bezout identity")


# --- the cycle walk through _rho that _cycle inlines


def ref_cycle(form, D: int) -> list:
    isq = isqrt(D)
    out = [form]
    f = oracle._rho(*form, D, isq)
    while f != form:
        out.append(f)
        f = oracle._rho(*f, D, isq)
    return out


def test_cycle_matches_rho_walk():
    sample = [D for D in range(5, 5001) if is_fundamental_discriminant(D)]
    sample += [D for D in large_sample() if D > 0]
    for D in sample:
        isq, seen = isqrt(D), set()
        for f in sqrt_enumerate_indefinite(D):
            if f not in seen:
                cyc = ref_cycle(f, D)
                assert _cycle(f, D, isq) == cyc, (D, f)
                seen.update(cyc)


def ref_reduce_indefinite(form, D: int):
    """The least form of the cycle that rho reaches from `form`."""
    isq, f, steps = isqrt(D), form, 0
    while not _is_reduced_indefinite(*f, D):
        steps += 1
        assert steps < 10**4, (D, form)
        f = oracle._rho(*f, D, isq)
    return min(ref_cycle(f, D))


def test_reduce_matches_rho_to_a_reduced_form():
    # forms (A, B, C) with A of either sign and B*B = D mod 4|A|, mostly unreduced
    rng = random.Random(1031)
    sample = [D for D in range(5, 3000) if is_fundamental_discriminant(D)]
    sample += [D for D in range(10**6 - 40, 10**6) if is_fundamental_discriminant(D)]
    unreduced = 0
    for D in sample:
        group = enumerate_classes(D)
        for _ in range(4):
            A = rng.randint(1, 200)
            xs = [x for x in range(2 * A) if (x * x - D) % (4 * A) == 0]
            if not xs:
                continue
            B = rng.choice(xs) + 2 * A * rng.randint(-3, 3)
            A *= rng.choice((1, -1))
            form = (A, B, (B * B - D) // (4 * A))
            unreduced += not _is_reduced_indefinite(*form, D)
            assert group._reduce(form) == ref_reduce_indefinite(form, D), (D, form)
    assert unreduced > 1000


# --- the group's reps, identity and law on canonical tuples, against the references


def test_public_surface_over_tuples():
    rng = random.Random(1013)
    sample = [-820, 60]
    while len(sample) < 8:
        D = rng.choice((-1, 1)) * rng.randint(9 * 10**5, 10**6)
        if is_fundamental_discriminant(D):
            sample.append(D)
    for D in sample:
        g = enumerate_classes(D)
        if D < 0:
            reps = enumerate_definite(D)
        else:
            reps = sorted(set(ref_canon(sqrt_enumerate_indefinite(D), D).values()))
        mul, _ = group_law(g)
        els, one = g._reps, g._identity
        assert els == reps, D
        assert g.order == len(els), D
        assert one in els, D
        assert one == g._reduce((1, D % 2, (D % 2 - D) // 4)), D
        assert all(mul(one, f) == f for f in els), D
        assert ref_squares(g) == [els.index(mul(f, f)) for f in els], D
        assert narrow_ranks(D) == ref_ranks_all_squares(g), D


# --- agreement with the Redei matrices past the default oracle bound


def sample_1e7_1e8() -> list[int]:
    """32 seeded fundamental D, per sign and per rung (10**6 <= |D| <= 10**7 and
    10**7 <= |D| <= 10**8): 4 odd D, 2 even D and 2 D with at least five prime
    discriminant factors."""
    rng = random.Random(1019)
    want = {"odd": 4, "even": 2, "many": 2}
    out = []
    for e in (7, 8):
        for sign in (-1, 1):
            taken = dict.fromkeys(want, 0)
            while taken != want:
                D = sign * rng.randint(10 ** (e - 1), 10**e)
                if not is_fundamental_discriminant(D):
                    continue
                t = signed_prime_decomposition(D).t
                kind = "many" if t >= 5 else "even" if D % 2 == 0 else "odd"
                if taken[kind] < want[kind]:
                    taken[kind] += 1
                    out.append(D)
    return out


def test_ranks_match_redei_matrix_to_1e8():
    for D in sample_1e7_1e8():
        g = enumerate_classes(D, bound=10**8)
        got = oracle._ranks(g)
        assert got == ref_ranks_all_squares(g) == (r2(D), r4(D), r8(D)), D


@st.composite
def fundamental_discriminants_to_1e8(draw):
    sign = draw(st.sampled_from((-1, 1)))
    D = sign * draw(st.integers(10**7, 10**8 - 1000))
    while not is_fundamental_discriminant(D):
        D += sign
    return D


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(fundamental_discriminants_to_1e8())
def test_redei_matrix_ranks_match_oracle_to_1e8(D):
    g = enumerate_classes(D, bound=10**8)
    assert oracle._ranks(g) == ref_ranks_all_squares(g) == (r2(D), r4(D), r8(D))


# --- the two lemmas behind enumerating D > 0 from the forms with 0 < A and 4A**2 < D


def sigma(f):
    A, B, C = f
    return (-A, B, -C)


def test_cycle_lemmas():
    # every cycle holds a form with 4A**2 < D, sigma commutes with rho, and so
    # sigma maps each cycle onto the cycle of the mirrored form
    for D in range(5, 20001):
        if not is_fundamental_discriminant(D):
            continue
        isq, seen = isqrt(D), set()
        for f in sqrt_enumerate_indefinite(D):
            assert sigma(oracle._rho(*f, D, isq)) == oracle._rho(*sigma(f), D, isq), (D, f)
            if f in seen:
                continue
            cyc = _cycle(f, D, isq)
            assert any(4 * A * A < D for A, _, _ in cyc), (D, f)
            assert [sigma(g) for g in cyc] == _cycle(sigma(f), D, isq), (D, f)
            seen.update(cyc)


def test_mirror_of_the_principal_cycle():
    # D = 5: the unit (1 + sqrt 5)/2 has norm -1, so sigma fixes the principal cycle
    cyc = _cycle((1, 1, -1), 5, 2)
    assert sigma((1, 1, -1)) in cyc
    assert enumerate_classes(5).order == 1
    # D = 12: every unit of Z[sqrt 3] has norm +1, so sigma moves it to another class
    cyc = _cycle((1, 2, -2), 12, 3)
    assert cyc == [(1, 2, -2), (-2, 2, 1)]
    assert sigma((1, 2, -2)) not in cyc
    assert enumerate_classes(12)._reps == [(-2, 2, 1), (-1, 2, 2)]


# --- the ranks from the 2-Sylow subgroup: h = 2**e * m with m odd


@pytest.mark.parametrize(
    "D, h, ranks",
    [
        (-23, 3, (0, 0, 0)),
        (-100003, 39, (0, 0, 0)),  # h odd: S is the identity alone
        (229, 3, (0, 0, 0)),
        (100069, 3, (0, 0, 0)),
        (-521951, 1024, (1, 1, 1)),  # m = 1: S is the whole group
        (-228791, 768, (1, 1, 1)),  # a large 2-part, 2**8, with m = 3
    ],
)
def test_ranks_from_the_two_sylow_subgroup(D, h, ranks):
    g = enumerate_classes(D)
    assert g.order == h
    assert oracle._ranks(g) == ref_ranks_all_squares(g) == ranks == (r2(D), r4(D), r8(D))


def test_composition_count(monkeypatch):
    calls = 0
    compose_raw = oracle._compose_raw

    def counted(f1, f2, D):
        nonlocal calls
        calls += 1
        return compose_raw(f1, f2, D)

    monkeypatch.setattr(oracle, "_compose_raw", counted)
    rng = random.Random(1021)
    sample = [-521951]  # h = 1024 = 2**10: the closure would spend more than h
    while len(sample) < 60:
        D = rng.choice((-1, 1)) * rng.randint(10**5, 10**6)
        if is_fundamental_discriminant(D):
            sample.append(D)
    total = total_h = 0
    for D in sample:
        g = enumerate_classes(D)
        h = g.order
        calls = 0
        oracle._ranks(g)
        if h & (h - 1) == 0:  # m = 1: one squaring per class, nothing else
            assert calls <= h, (D, h, calls)
        total += calls
        total_h += h
    assert 3 * total <= total_h, (total, total_h)


# --- the residue tables, grown once per process, and the count of start forms


def test_start_form_count():
    # the early stop of the D > 0 walks rests on this count being exact
    for D in range(5, 20001):
        if not is_fundamental_discriminant(D):
            continue
        amax = isqrt(D - 1) // 2
        count = oracle._root_count(oracle._residues(D, amax))
        assert count == sum(len(xs) for _, xs in oracle._roots(oracle._residues(D, amax))), D
        assert count == sum(0 < A <= amax for A, _, _ in enumerate_classes(D)._canon), D


@pytest.fixture
def fresh_tables(monkeypatch):
    # empty residue tables for the test to grow; the module's come back afterwards
    for name, empty in (("_LPP", []), ("_INV", []), ("_PRIMES", []), ("_SQRT", {})):
        monkeypatch.setattr(oracle, name, empty)


@pytest.mark.parametrize("limit", [oracle._SQRT_TABLE_LIMIT, 20])
def test_tables_grow_out_of_order(fresh_tables, monkeypatch, limit):
    # amax falls and then rises, so each D reads tables grown for another one;
    # with limit 20 the primes from 23 on take their roots per D
    monkeypatch.setattr(oracle, "_SQRT_TABLE_LIMIT", limit)
    for D, amax in [(-1155, 60), (4620, 7), (-3, 25), (8, 150), (-9240, 90), (4621, 40), (5, 1)]:
        assert is_fundamental_discriminant(D), D
        brute = [(A, [x for x in range(2 * A) if (x * x - D) % (4 * A) == 0]) for A in range(1, amax + 1)]
        got = [(A, sorted(xs)) for A, xs in oracle._roots(oracle._residues(D, amax))]
        assert got == [(A, xs) for A, xs in brute if xs], (D, amax)
        assert oracle._root_count(oracle._residues(D, amax)) == sum(len(xs) for _, xs in brute)
    assert len(oracle._LPP) == 151
    assert all(p < limit for p in oracle._SQRT)


def test_tables_grow_to_the_largest_amax_only(fresh_tables):
    # bounded by the oracle bound, whatever the length of the sweep
    sample = large_sample()
    for D in sample:
        narrow_ranks(D)
    largest = max(isqrt(-D // 3) if D < 0 else isqrt(D - 1) // 2 for D in sample)
    assert len(oracle._LPP) == len(oracle._INV) == largest + 1 <= isqrt(10**6 // 3) + 1
    assert max(oracle._PRIMES) <= largest


def test_tables_built_on_first_use():
    script = (
        "import sys, redei.cli; from redei import oracle; print(len(oracle._LPP), 'array' in sys.modules);"
        "oracle.narrow_ranks(-23); print(len(oracle._LPP), 'array' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "3", "True"]
