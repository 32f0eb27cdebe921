from hypothesis import given, settings
from hypothesis import strategies as st

from redei import gf2


def span(rows):
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def parity(v):
    return bin(v).count("1") % 2


# (ncols, rows, vec) with every entry inside the ncols columns
matrices = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=7),
        st.integers(0, (1 << n) - 1),
    )
)


@settings(max_examples=300, derandomize=True, database=None)
@given(matrices)
def test_gf2_against_span_enumeration(m):
    ncols, rows, vec = m
    sp = span(rows)
    rk = gf2.rank(rows, ncols)
    assert 2**rk == len(sp)
    assert (gf2.rank(rows + [vec], ncols) == rk) == (vec in sp)

    pivots, red = gf2.rref(rows, ncols)
    assert len(pivots) == len(red) == rk
    assert pivots == sorted(pivots)
    assert span(red) == sp
    for i, pcol in enumerate(pivots):
        assert [(row >> pcol) & 1 for row in red] == [int(j == i) for j in range(rk)]

    null = gf2.nullspace_basis(rows, ncols)
    assert len(null) == ncols - rk
    assert span(null) == {v for v in range(1 << ncols) if not any(parity(r & v) for r in rows)}
