"""Small GF(2) linear algebra on int bitsets (bit j = column j)."""

from __future__ import annotations


def rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form by Gaussian elimination with lowest-column pivots;
    returns (pivot column list, reduced nonzero rows)."""
    work = [r for r in rows if r]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(work):
            break
        pivot = None
        for i in range(r, len(work)):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and ((work[i] >> col) & 1):
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return pivots, work[:r]


def rank(rows: list[int], ncols: int) -> int:
    """Rank over GF(2)."""
    return len(rref(rows, ncols)[0])


def nullspace_basis(rows: list[int], ncols: int) -> list[int]:
    """Canonical basis of {v : parity(row & v) = 0 for all rows}, one vector per free column."""
    pivots, red = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for prow, pcol in zip(red, pivots):
            if (prow >> free) & 1:
                v |= 1 << pcol
        basis.append(v)
    return basis
