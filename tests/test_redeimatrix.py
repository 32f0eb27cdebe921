import random
import sys
from math import prod
from types import SimpleNamespace

import pytest

from redei import gf2, redeimatrix
from redei.arith import is_fundamental_discriminant, kronecker, signed_prime_decomposition
from redei.errors import NotFundamental, NotSquarefree, TrivialClass
from redei.redeimatrix import (
    SecondKindDecomposition,
    build_R4,
    build_R8,
    fundamental_discriminant,
    governing_r4_check,
    r2,
    r4,
    r8,
    ranks,
)


def second_kind_decompositions(D: int) -> list[SecondKindDecomposition]:
    """Reference for build_R8's rows: every unordered D = d1*d2 with each ramified
    prime split in Q(sqrt d1, sqrt d2), by trying all 2**t products of signed
    parts; there are 2**r4 of them, where R8 keeps a basis of r4."""
    parts = signed_prime_decomposition(D).parts
    out = []
    for mask in range(0, 1 << len(parts), 2):  # part 0 stays in d2: each pair once
        d1 = prod(part for i, part in enumerate(parts) if mask >> i & 1)
        d2 = D // d1
        # kronecker(d2, p) = 1 for p | d1 and kronecker(d1, p) = 1 for p | d2
        if all(
            kronecker(d2 if mask >> i & 1 else d1, abs(part) if part % 2 else 2) == 1
            for i, part in enumerate(parts)
        ):
            out.append(SecondKindDecomposition(*sorted((d1, d2), key=abs)))
    return sorted(out, key=lambda s: (abs(s.d1), s.d1))


def test_fundamental_discriminant():
    assert fundamental_discriminant(-205) == -820
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(-1) == -4
    with pytest.raises(NotSquarefree):
        fundamental_discriminant(12)
    with pytest.raises(TrivialClass):
        fundamental_discriminant(1)


def test_r2_examples():
    assert r2(-820) == 2
    assert r2(-4) == 0
    assert r2(60) == 2
    with pytest.raises(NotFundamental):
        r2(-205)


def test_build_R4_worked_example():
    m = build_R4(-820)
    assert m.row_labels == (-4, 5, 41)
    assert m.col_labels == (2, 5, 41)
    assert m.as_lists() == [[1, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert m.rank() == 1


def test_build_R4_prime_discriminant():
    for D in (5, -4, 13, -7, 8):
        m = build_R4(D)
        assert m.as_lists() == [[0]]


def test_build_R4_minus_68():
    m = build_R4(-68)
    assert m.as_lists() == [[0, 0], [0, 0]]
    assert r4(-68) == 1


def test_r4_examples():
    assert r4(-820) == 1
    assert r4(-4) == 0


def test_R4_column_sums_vanish():
    for D in range(-(10**5), 10**5 + 1):
        if not is_fundamental_discriminant(D):
            continue
        m = build_R4(D)
        for j in range(m.t):
            assert sum(m.entry(i, j) for i in range(m.t)) % 2 == 0


def test_second_kind_decompositions_worked_example():
    decs = second_kind_decompositions(-820)
    pairs = {(d.d1, d.d2) for d in decs}
    assert (1, -820) in pairs
    assert (-20, 41) in pairs
    assert len(decs) == 2  # (−4, 205) is not of the second kind
    assert (-4, 205) not in pairs


def test_second_kind_count_matches_rank():
    for D in range(-2000, 2000):
        if not is_fundamental_discriminant(D):
            continue
        assert len(second_kind_decompositions(D)) == 1 << r4(D)


def test_build_R8_worked_example():
    m = build_R8(-820)
    assert m.shape == (1, 2)
    assert m.as_lists() == [[1, 1]]
    assert set(m.col_labels) == {5, 41}
    dec = m.row_labels[0]
    assert {abs(dec.d1), abs(dec.d2)} == {20, 41}


def test_build_R8_rank_zero_is_empty():
    m = build_R8(-4)
    assert m.shape[0] == 0
    assert r8(-4) == 0


def test_r8_examples():
    assert r8(-820) == 0
    assert ranks(-205) == (2, 1, 0)


@pytest.mark.parametrize(
    "d, expected",
    [
        (838529494469, (1, 1, 0)),  # 92957 * 9020617
        (-262723337047, (2, 2, 1)),  # -37 * 75533 * 94007
        (650012313245, (3, 1, 0)),  # 5 * 2131 * 4421 * 13799
        (-997216298578, (1, 1, 1)),  # -2 * 498608149289, D = 4d
        (470446520314, (2, 1, 1)),  # 2 * 57809 * 4068973, D = 4d
        (427087716553, (2, 2, 0)),  # 101 * 53117 * 79609
    ],
)
def test_ranks_pinned_large(d, expected):
    # |d| in [1e11, 1e12], as in the ranks-large benchmark: every R8 entry needs
    # a conic point in a Holzer box of 5e5 to 1.5e6 cells, which the lattice
    # enumeration finds; the values were computed by the exhaustive cell loop
    assert ranks(d) == expected


def test_r8_of_minus_p_follows_barrucand_cohn():
    # d = -p with p = 1 mod 8: r4 = 1, and r8 = 1 iff (-4)^((p-1)/8) = 1 mod p
    # (Barrucand and Cohn, 1969): a check of r8 at the ranks-large scale that
    # does not go through the Redei matrices
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    primes = set()
    while len(primes) < 60:
        p = 8 * rng.randint(10**11 // 8, 10**12 // 8) + 1
        if sympy.isprime(p):
            primes.add(p)
    r8s = set()
    for p in sorted(primes):
        expected = 1 if pow(-4, (p - 1) // 8, p) == 1 else 0
        assert ranks(-p) == (1, 1, expected), p
        r8s.add(expected)
    assert r8s == {0, 1}


def test_oracle_checked_examples():
    from redei.oracle import narrow_ranks

    assert r4(-5460) == narrow_ranks(-5460)[1] == 0
    assert ranks(-445) == narrow_ranks(-1780) == (2, 1, 0)
    m = build_R8(-68)
    assert m.as_lists() == [[1, 0]]  # [-1,17,2] = -1, [-1,17,17] = +1
    assert set(m.col_labels) == {2, 17}
    assert r8(-68) == narrow_ranks(-68)[2] == 0


def test_rank_chain_monotone():
    for D in range(-1200, 1200):
        if not is_fundamental_discriminant(D):
            continue
        assert r2(D) >= r4(D) >= r8(D) >= 0


def test_governing_r4_check():
    rep = governing_r4_check(-1, 500)
    assert rep.ok
    assert all(len(sig) == 1 for sig in rep.classes)  # d = -1 has no odd primes
    rep = governing_r4_check(-2, 500)
    assert rep.ok
    # primes p = 3 mod 4: t = 2 and rank R4 = 1 is forced, so r4 = 0 throughout
    rep = governing_r4_check(-1, 300)
    for sig, pairs in rep.classes.items():
        if sig[0] % 4 == 3:
            assert {v for _, v in pairs} == {0}


def ref_quotient_basis(vectors: list[int], modulus: int, ncols: int) -> list[int]:
    """Greedy subset of vectors independent modulo the span of modulus."""
    span = [modulus]
    out = []
    for v in vectors:
        if gf2.rank(span + [v], ncols) > gf2.rank(span, ncols):
            out.append(v)
            span.append(v)
    return out


def test_R8_rows_match_greedy_quotient_basis(monkeypatch):
    # only the row choice is compared, so a stub stands in for the symbols
    monkeypatch.setattr(redeimatrix, "_symbol", lambda a, b, c: SimpleNamespace(value=1))
    checked = 0
    for D in range(-20000, 20001):
        if not is_fundamental_discriminant(D):
            continue
        m4 = build_R4(D)
        t = m4.t
        transpose = [sum(m4.entry(i, j) << i for i in range(t)) for j in range(t)]
        cokernel = gf2.nullspace_basis(transpose, t)
        expected = []
        for vec in ref_quotient_basis(cokernel, (1 << t) - 1, t):
            d1 = prod(part for i, part in enumerate(m4.row_labels) if vec >> i & 1)
            expected.append((d1, D // d1))
        found = [(s.d1, s.d2) for s in build_R8(D).row_labels]
        if found != expected:
            pytest.fail(f"R8 rows of {D}: {found}, greedy reference {expected}")
        checked += 1
    if checked != 12160:
        pytest.fail(f"{checked} fundamental discriminants with |D| <= 20000")


def _clear_memos():
    import importlib
    import pkgutil

    import redei

    for info in pkgutil.iter_modules(redei.__path__, "redei."):
        for fn in vars(importlib.import_module(info.name)).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.mark.parametrize(
    "d",
    [
        838529494469,  # 92957 * 9020617, D = d
        -262723337047,  # -37 * 75533 * 94007, D = d
        650012313245,  # 5 * 2131 * 4421 * 13799, D = d
        -997216298578,  # -2 * 498608149289, D = 4d
        470446520314,  # 2 * 57809 * 4068973, D = 4d
        -972643831517,  # -980999 * 991483, D = 4d
        196847072999,  # 4327 * 5527 * 8231, D = 4d
    ],
)
def test_ranks_factors_once(d, capsys):
    # D comes from one factorization, and every divisor of D that R4, R8 and
    # the symbols read takes its primes from D's: from cold memos, one miss
    from redei import arith
    from redei.cli import main

    _clear_memos()
    assert ranks(d)[1] >= 1  # so build_R8 runs
    assert arith._factor_abs.cache_info().misses == 1
    _clear_memos()
    assert main(["ranks", str(d), "--json"]) == 0
    assert arith._factor_abs.cache_info().misses == 1
    capsys.readouterr()


@pytest.mark.parametrize("d", [-262723337047, 470446520314])
def test_ranks_canonicalizes_d_once(d, capsys):
    # `redei ranks d` takes two square classes (the input's, and the check in
    # fundamental_discriminant), and reads both that D is fundamental and its
    # parts from one more factorization, that of D
    from redei import arith
    from redei.cli import main

    watched = {arith.square_class.__code__: "square_class", arith._factorization.__code__: "_factorization"}
    calls = dict.fromkeys(watched.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    _clear_memos()
    sys.setprofile(profile)
    try:
        code = main(["ranks", str(d), "--json"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    assert calls == {"square_class": 2, "_factorization": 3}
