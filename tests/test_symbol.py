import hashlib
import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redei.arith import (
    INFINITY,
    _fails_at_odd,
    discriminant,
    hilbert,
    kronecker,
    prime_divisors,
    signed_prime_decomposition,
    square_class,
)
from redei.conic import enumerate_solutions, solve
from redei.errors import DegenerateSquareClass, InvalidTriple, TrivialClass
from redei.quadfield import QuadElt, split_units
from redei.symbol import (
    A_SIDE,
    B_SIDE,
    ODD_ONLY,
    TWO_MINIMAL,
    UNRAMIFIED_AT_2,
    TwistingGroup,
    Violation,
    _pair_witnesses,
    _ram_case,
    _symbol_from_witness,
    is_valid_triple,
    minimally_ramified_witness,
    redei_symbol,
    twist_witness,
    twisting_group,
    validate_triple,
    verify_reciprocity,
    verify_twist_independence,
    witness_from_solution,
)
from redei import symbol


def squarefree_values(bound):
    vals = [-1]
    for n in range(2, bound + 1):
        if square_class(n) == n:
            vals += [n, -n]
    return sorted(vals, key=abs)


def test_validate_triple_examples():
    assert validate_triple(-5, 41, 5) == []
    bad = validate_triple(-1, -1, 3)
    assert any(v.place is INFINITY for v in bad)
    assert validate_triple(-1, 17, 2) == []  # p = 17 is 1 mod 8


def test_twisting_group_examples():
    g = twisting_group(-5, 41)
    assert set(g.generators) == {5, 41, -1}
    g = twisting_group(-1, 2)
    assert -1 in g.generators and 2 in g.generators
    g = twisting_group(5, 13)
    assert set(g.generators) == {5, 13}


def ref_twisting_group(a, b):
    """The reference construction, from the signed prime decompositions of the
    two discriminants."""
    a, b = square_class(a), square_class(b)
    if a == 1 or b == 1:
        raise TrivialClass("twisting group needs nontrivial classes")
    gens = []
    for p in sorted(set(prime_divisors(a) + prime_divisors(b))):
        if p != 2:
            gens.append(p if p % 4 == 1 else -p)
    da, db = discriminant(a), discriminant(b)
    for d in (da, db):
        two_part = signed_prime_decomposition(d).two_part
        if two_part != 1:
            gens.append(square_class(two_part))
    if da % 2 == 0 and db % 2 == 0:
        gens.extend([-1, 2])
    return TwistingGroup(a, b, tuple(dict.fromkeys(gens)))


def test_twisting_group_matches_reference():
    # generator order included: sample() order feeds verify twist-independence
    vals = squarefree_values(200) + [1]
    for a in vals:
        for b in vals:
            if a == 1 or b == 1:
                with pytest.raises(TrivialClass):
                    twisting_group(a, b)
                continue
            group = twisting_group(a, b)
            if group != ref_twisting_group(a, b):
                pytest.fail(f"({a}, {b}): {group} != {ref_twisting_group(a, b)}")


def test_witness_worked_example():
    w = minimally_ramified_witness(-5, 41)
    # delta = 2(6 + sqrt -5): the t = 2 twist; +-(6 + sqrt -5) are ramified over 2
    assert w.twist == 2
    assert w.beta == QuadElt(12, 2, -5)
    assert square_class(int(w.beta.norm())) == 41
    assert square_class(int(w.alpha.norm())) == -5


def test_witness_memo_is_keyed_on_square_classes():
    # both orders of a pair, and every representative of its classes, share one entry
    _pair_witnesses.cache_clear()
    first = minimally_ramified_witness(-20, 41)
    assert minimally_ramified_witness(-5, 41) == first
    for a, b in ((41, -5), (41 * 9, -5)):
        w = minimally_ramified_witness(a, b)
        assert (w.a, w.b, w.solution.a, w.solution.b) == (41, -5, 41, -5)
    info = _pair_witnesses.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_witness_orders_have_their_own_least_points():
    # (33, 66) has two points of least x that are not swaps of each other
    for a, b in ((-5, 41), (33, 66), (66, 33)):
        sol = minimally_ramified_witness(a, b).solution
        assert (sol.a, sol.b) == (a, b) and sol == solve(a, b)


def test_witness_norm_classes():
    rng = random.Random(0)
    done = 0
    while done < 40:
        a, b = (square_class(rng.randint(2, 60) * rng.choice((1, -1))) for _ in range(2))
        if a == b or 1 in (a, b):
            continue
        from redei.conic import is_solvable

        if not is_solvable(a, b):
            continue
        w = minimally_ramified_witness(a, b)
        assert square_class(w.beta.norm()) == b
        assert square_class(w.alpha.norm()) == a
        done += 1


def test_symbol_worked_example():
    assert redei_symbol(-5, 41, 5).value == -1
    assert redei_symbol(-20, 41, 5).value == -1  # discriminant-style arguments reduce
    assert redei_symbol(-5, 41, 41).value == -1
    assert redei_symbol(-20, 41, 205).value == 1  # product of the two parts


def test_symbol_trivial_argument():
    assert redei_symbol(1, 7, 11).value == 1
    assert redei_symbol(4, 7, 11).value == 1  # 4 reduces to the trivial class
    assert redei_symbol(-5, 1, 3).value == 1


def test_symbol_errors():
    with pytest.raises(InvalidTriple):
        redei_symbol(-1, -1, 3)
    with pytest.raises(DegenerateSquareClass):
        redei_symbol(5, 5, 11)
    with pytest.raises(DegenerateSquareClass):
        redei_symbol(5, 45, 11)  # 45 reduces to 5


def test_infinite_part_sign():
    # [17, 2, -1]: c = -1 has only the infinite part, the sign of beta
    trace = redei_symbol(17, 2, -1)
    assert set(trace.parts) == {INFINITY}
    assert trace.value == -1


def test_redei_family_1_mod_8():
    # [-1, p, 2] = [-1, 2, p] = [p, 2, -1] for p = 1 mod 8 (the classical family)
    for p in (17, 41, 73, 89, 97):
        v = redei_symbol(-1, p, 2).value
        assert redei_symbol(-1, 2, p).value == v
        assert redei_symbol(p, 2, -1).value == v


def test_reciprocity_exhaustive_small():
    vals = squarefree_values(15)
    for a, b, c in itertools.combinations(vals, 3):
        if not is_valid_triple(a, b, c):
            continue
        rep = verify_reciprocity(a, b, c)
        assert rep.consistent, (a, b, c, rep.values)


def test_reciprocity_worked_example():
    rep = verify_reciprocity(-5, 41, 5)
    assert rep.consistent
    assert set(rep.values.values()) == {-1}


def test_reciprocity_rejects_degenerate():
    with pytest.raises(DegenerateSquareClass):
        verify_reciprocity(-1, 5, 5)


def test_multiplicativity_seeded():
    rng = random.Random(20)
    done = 0
    while done < 25:
        a, b = (square_class(rng.randint(2, 120) * rng.choice((1, -1))) for _ in range(2))
        c1, c2 = (square_class(rng.randint(2, 120) * rng.choice((1, -1))) for _ in range(2))
        c3 = square_class(c1 * c2)
        if 1 in (a, b, c1, c2, c3) or a == b:
            continue
        if not all(is_valid_triple(a, b, c) for c in (c1, c2, c3)):
            continue
        v1, v2, v3 = (redei_symbol(a, b, c).value for c in (c1, c2, c3))
        assert v1 * v2 == v3, (a, b, c1, c2)
        done += 1


def test_trivial_symbol_on_second_kind_decompositions():
    # [d1, d2, squarefree part of -d1d2] = +1 when (d1, d2) is of the second kind
    from redei.arith import is_fundamental_discriminant
    from test_redeimatrix import second_kind_decompositions

    checked = 0
    for D in list(range(-350, 0)) + list(range(5, 350)):
        if not is_fundamental_discriminant(D):
            continue
        for dec in second_kind_decompositions(D):
            if dec.d1 == 1:
                continue
            a, b, c = square_class(dec.d1), square_class(dec.d2), square_class(-D)
            if 1 in (a, b, c):
                continue
            assert redei_symbol(a, b, c).value == 1, (D, dec)
            checked += 1
    assert checked > 10


def test_witness_built_for_the_order_asked(monkeypatch):
    # one conic search serves both orders of a pair; each order's witness is
    # built on first use, from its own least point
    _pair_witnesses.cache_clear()
    built = []
    real = symbol.witness_from_solution
    monkeypatch.setattr(
        symbol, "witness_from_solution", lambda a, b, sol: built.append((a, b)) or real(a, b, sol)
    )
    w = minimally_ramified_witness(-5, 41)
    assert built == [(-5, 41)]
    assert minimally_ramified_witness(-20, 41) is w
    assert built == [(-5, 41)]
    v = minimally_ramified_witness(41, -5)
    assert built == [(-5, 41), (41, -5)]
    assert v == real(41, -5, solve(41, -5))
    assert minimally_ramified_witness(41 * 9, -5) is v
    assert built == [(-5, 41), (41, -5)]
    assert _pair_witnesses.cache_info().misses == 1


def test_verify_twist_independence(monkeypatch):
    assert verify_twist_independence(-20, 41, 5) == []
    with pytest.raises(TrivialClass):
        verify_twist_independence(-5, 41, 9)
    with pytest.raises(InvalidTriple):
        verify_twist_independence(-5, 41, 3)
    # a value that depends on the conic point is reported, on the square classes,
    # once for each of the next two points; the two twists keep the least point
    least = minimally_ramified_witness(-5, 41)

    def skewed(w, c):
        trace = _symbol_from_witness(w, c)
        return trace if w.solution == least.solution else trace._replace(value=-trace.value)

    monkeypatch.setattr(symbol, "_symbol_from_witness", skewed)
    assert verify_twist_independence(-20, 41, 5) == [(-5, 41, 5, -1, 1)] * 2


def test_choice_independence():
    rng = random.Random(30)
    done = 0
    while done < 20:
        a, b, c = (square_class(rng.randint(2, 60) * rng.choice((1, -1))) for _ in range(3))
        if len({a, b, c}) != 3 or 1 in (a, b, c):
            continue
        if not is_valid_triple(a, b, c):
            continue
        base = redei_symbol(a, b, c).value
        w = minimally_ramified_witness(a, b)
        for sol in enumerate_solutions(a, b, 3)[1:]:
            alt = witness_from_solution(a, b, sol)
            assert _symbol_from_witness(alt, c).value == base, (a, b, c)
        for t in twisting_group(a, b).sample()[:3]:
            alt = twist_witness(w, t)
            assert _symbol_from_witness(alt, c).value == base, (a, b, c, t)
        done += 1


def test_side_consistency_for_odd_places():
    # for odd p | c computable on both sides the A- and B-side symbols agree:
    # the Legendre symbol of the unit at the first prime above p of even valuation
    rng = random.Random(40)
    done = 0
    while done < 30:
        a, b, c = (square_class(rng.randint(2, 60) * rng.choice((1, -1))) for _ in range(3))
        if len({a, b, c}) != 3 or 1 in (a, b, c):
            continue
        if not is_valid_triple(a, b, c):
            continue
        w = minimally_ramified_witness(a, b)
        for p in [q for q in prime_divisors(c) if q != 2]:
            values = []
            for elt, radicand in ((w.beta, a), (w.alpha, b)):
                if kronecker(discriminant(radicand), p) != 1:
                    continue
                even = [u for v, u in split_units(elt, p) if v % 2 == 0]
                if even:
                    values.append(kronecker(even[0], p))
            if len(values) == 2:
                assert values[0] == values[1], (a, b, c, p)
                done += 1


def ref_ram_case(a, b):
    """The ramification case read from the two field discriminants mod 8."""
    da, db = discriminant(a), discriminant(b)
    if da % 2 == 1 and db % 2 == 1:
        return UNRAMIFIED_AT_2, A_SIDE
    if da % 8 == 1:  # db even
        return UNRAMIFIED_AT_2, B_SIDE
    if db % 8 == 1:  # da even
        return UNRAMIFIED_AT_2, A_SIDE
    if {da % 8, db % 8} == {4, 5}:
        return TWO_MINIMAL, A_SIDE if da % 8 == 4 else B_SIDE
    return ODD_ONLY, None


def test_ram_case_matches_reference():
    vals = squarefree_values(100)
    for a in vals:
        for b in vals:
            if a != b and _ram_case(a, b) != ref_ram_case(a, b):
                pytest.fail(f"_ram_case({a}, {b}) = {_ram_case(a, b)}, not {ref_ram_case(a, b)}")
        for pair in ((1, a), (a, 1)):
            with pytest.raises(TrivialClass):
                _ram_case(*pair)


def ref_fails_at_odd(u, w, p):
    """(u, w)_p = -1 read from Kronecker symbols, for squarefree u, w and an odd
    prime p dividing u or w."""
    if u % p:
        return kronecker(u, p) == -1
    if w % p:
        return kronecker(w, p) == -1
    return kronecker(-(u // p) * (w // p), p) == -1


def test_fails_at_odd_matches_kronecker():
    vals = squarefree_values(200)
    for u in vals:
        for w in vals:
            for p in prime_divisors(abs(u * w)):
                if p != 2 and _fails_at_odd(u, w, p) != ref_fails_at_odd(u, w, p):
                    pytest.fail(f"_fails_at_odd({u}, {w}, {p}) = {_fails_at_odd(u, w, p)}")


def _reference_violations(a, b, c):
    """The triple conditions straight from the definition, as (kind, slot, place) keys."""
    a, b, c = square_class(a), square_class(b), square_class(c)
    places = [INFINITY, 2] + [p for p in (3, 5, 7, 11, 13) if any(n % p == 0 for n in (a, b, c))]
    out = {
        ("hilbert", slot, v)
        for slot, u, w in (("a,b", a, b), ("a,c", a, c), ("b,c", b, c))
        for v in places
        if hilbert(u, w, v) != 1
    }
    if 1 not in (a, b, c):
        discs = [discriminant(n) for n in (a, b, c)]
        out |= {
            ("common_factor", None, p)
            for p in prime_divisors(discs[0])
            if all(d % p == 0 for d in discs)
        }
    return out


def test_validators_agree_exhaustively():
    # every ordered triple of squarefree n with |n| <= 15, trivial class included
    values = [1] + squarefree_values(15)
    for a, b, c in itertools.product(values, repeat=3):
        found = validate_triple(a, b, c)
        assert is_valid_triple(a, b, c) == (found == []), (a, b, c)
        keys = [(v.kind, v.slot, v.place) for v in found]
        assert len(keys) == len(set(keys)) and set(keys) == _reference_violations(a, b, c)


def _generic_violations(a, b, c):
    """Every failing condition of (a, b, c) from the generic hilbert at every place
    that can fail, in validate_triple's order: the primes shared by all three
    discriminants, read off their gcd, then the Hilbert failures per pair."""
    a, b, c = square_class(a), square_class(b), square_class(c)
    if 1 not in (a, b, c):
        shared = gcd(gcd(discriminant(a), discriminant(b)), discriminant(c))
        for p in prime_divisors(shared):
            yield Violation("common_factor", None, None, p)
    places = [INFINITY, 2] + sorted(
        {p for n in (a, b, c) for p in prime_divisors(n) if p != 2}
    )
    for slot, u, w in (("a,b", a, b), ("a,c", a, c), ("b,c", b, c)):
        for v in places:
            if hilbert(u, w, v) != 1:
                yield Violation("hilbert", slot, (u, w), v)


# few enough primes that random subsets often share some, in every class mod 8,
# up to the largest prime below 10**9
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 101, 103, 107, 109,
           9973, 10007, 65537, 999983, 1000003, 999999937)


def _product_below(primes):
    out = 1
    for p in primes:
        if out * p <= 10**9:
            out *= p
    return out


_squarefree = st.builds(
    lambda sign, n: sign * n,
    st.sampled_from((1, -1)),
    st.one_of(
        st.sampled_from((1, 2)),
        st.lists(st.sampled_from(_PRIMES), unique=True, max_size=5).map(_product_below),
        st.integers(1, 10**9).filter(lambda n: square_class(n) == n),
    ),
)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(_squarefree, _squarefree, _squarefree)
def test_validate_triple_matches_generic_hilbert(a, b, c):
    # no bare assert, so that the property also checks under python -O
    found = validate_triple(a, b, c)
    expected = list(_generic_violations(a, b, c))
    if found != expected:
        pytest.fail(f"validate_triple{(a, b, c)} = {found}, expected {expected}")
    if is_valid_triple(a, b, c) != (found == []):
        pytest.fail(f"is_valid_triple{(a, b, c)} disagrees with {found}")


def _pinned_triples():
    small = squarefree_values(60)
    for t in itertools.permutations(small, 3):
        if is_valid_triple(*t):
            yield t
    rng = random.Random(9)
    done = 0
    while done < 100:
        t = tuple(square_class(rng.choice((1, -1)) * rng.randint(2, 10**5)) for _ in range(3))
        if 1 in t or len(set(t)) < 3 or not is_valid_triple(*t):
            continue
        done += 1
        yield t


def _by_place(items):
    return sorted(items, key=lambda kv: (kv[0] is INFINITY, 0 if kv[0] is INFINITY else kv[0]))


def test_symbol_outputs_pinned():
    # value, local parts and witness of every valid ordered triple of distinct
    # squarefree n with |n| <= 60, plus a seeded sample with |n| <= 10**5;
    # the digest was taken from the all-Fraction QuadElt arithmetic
    h = hashlib.sha256()
    rows = 0
    for a, b, c in _pinned_triples():
        s = redei_symbol(a, b, c)
        w = s.witness
        row = (a, b, c, s.value, _by_place(s.parts.items()), _by_place(s.sides.items()),
               w.twist, w.ram_case, str(w.beta.x), str(w.beta.y), str(w.alpha.x), str(w.alpha.y))
        h.update(repr(row).encode())
        rows += 1
    digest = h.hexdigest()
    pinned = "7fd25d2e7622f4c2501971b0afacddfdf3c0381c46981129083e2f8bd61cdaee"
    if (rows, digest) != (1900, pinned):
        pytest.fail(f"{rows} rows with digest {digest}")
