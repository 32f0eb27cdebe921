"""The dyadic clauses of minimal ramification are load-bearing: with either one
dropped, reciprocity fails on a pinned valid triple, while the definition as it
stands is consistent there.

Each ablation patches symbol._minimally_ramified, which witness_from_solution
asks of every twist in {1, -1, 2, -2}.  The witness memo is cleared before and
after each test, so that no witness built under a patch reaches another test.
"""

import pytest

from redei import symbol
from redei.errors import RamificationAssertFailed
from redei.symbol import TWO_MINIMAL, UNRAMIFIED_AT_2, verify_reciprocity

_minimally_ramified = symbol._minimally_ramified


def dropping(clause):
    """The witness test with the dyadic condition of `clause` accepting every twist."""

    def patched(case, side, beta, alpha):
        return case == clause or _minimally_ramified(case, side, beta, alpha)

    return patched


@pytest.fixture
def fresh_witnesses():
    symbol._pair_witnesses.cache_clear()
    yield
    symbol._pair_witnesses.cache_clear()


@pytest.mark.parametrize("triple", [(-29, 5, 29), (-1, 2, 17)])
def test_definition_is_consistent(triple, fresh_witnesses):
    assert verify_reciprocity(*triple).consistent


def test_conductor_two_clause_is_needed(monkeypatch, fresh_witnesses):
    # (-29, 29) and (5, -29) are TWO_MINIMAL pairs whose conductor-2 twist is 2;
    # without the clause they keep the twist 1, and those two orderings flip
    monkeypatch.setattr(symbol, "_minimally_ramified", dropping(TWO_MINIMAL))
    values = verify_reciprocity(-29, 5, 29).values
    assert {t for t, v in values.items() if v == 1} == {(-29, 29, 5), (5, -29, 29)}


def test_unramified_at_two_clause_is_needed(monkeypatch, fresh_witnesses):
    # the twist 1 of (17, -1) is ramified over 2, so its dyadic part has no value
    monkeypatch.setattr(symbol, "_minimally_ramified", dropping(UNRAMIFIED_AT_2))
    with pytest.raises(RamificationAssertFailed):
        verify_reciprocity(-1, 2, 17)
