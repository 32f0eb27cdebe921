"""The contract of the public records: repr, equality and hashing by fields,
immutability, and pickling, which verify --jobs relies on to ship results
between processes.  That ConicSolution rejects a zero, off-conic or
non-primitive point, also under python -O, is
tests/test_conic.py::test_off_conic_point_rejected_under_optimize."""

import pickle

import pytest

from redei.arith import signed_prime_decomposition
from redei.conic import solve
from redei.redeimatrix import build_R4, build_R8, governing_r4_check
from redei.symbol import (
    minimally_ramified_witness,
    redei_symbol,
    twisting_group,
    validate_triple,
    verify_reciprocity,
)

_WITNESS = (
    "MinRamWitness(a=-5, b=41, beta=QuadElt(12, 2, sqrt -5), alpha=QuadElt(24, 4, sqrt 41), "
    "twist=2, solution=ConicSolution(x=6, y=1, z=1, a=-5, b=41), ram_case='unramified_at_2')"
)

# (builder, field names in constructor order, pinned repr)
RECORDS = [
    (
        lambda: signed_prime_decomposition(-820),
        ("odd_parts", "two_part"),
        "SignedPrimeDecomposition(odd_parts=(5, 41), two_part=-4)",
    ),
    (
        lambda: solve(-5, 41),
        ("x", "y", "z", "a", "b"),
        "ConicSolution(x=6, y=1, z=1, a=-5, b=41)",
    ),
    (
        lambda: build_R4(-820),
        ("D", "row_labels", "col_labels", "rows"),
        "RedeiMatrixR4(D=-820, row_labels=(-4, 5, 41), col_labels=(2, 5, 41), rows=(1, 1, 0))",
    ),
    (
        lambda: build_R8(-820).row_labels[0],
        ("d1", "d2"),
        "SecondKindDecomposition(d1=-20, d2=41)",
    ),
    (
        lambda: build_R8(-820),
        ("D", "row_labels", "col_labels", "rows"),
        "RedeiMatrixR8(D=-820, row_labels=(SecondKindDecomposition(d1=-20, d2=41),), "
        "col_labels=(5, 41), rows=(3,))",
    ),
    (
        lambda: governing_r4_check(-1, 12),
        ("d", "bound", "classes", "violations"),
        "GoverningReport(d=-1, bound=12, classes={(3,): [(3, 0), (11, 0)], (5,): [(5, 0)], "
        "(7,): [(7, 0)]}, violations=[])",
    ),
    (
        lambda: validate_triple(-1, -1, 2)[1],
        ("kind", "slot", "pair", "place"),
        "Violation(kind='hilbert', slot='a,b', pair=(-1, -1), place=infinity)",
    ),
    (
        lambda: twisting_group(-5, 41),
        ("a", "b", "generators"),
        "TwistingGroup(a=-5, b=41, generators=(5, 41, -1))",
    ),
    (
        lambda: minimally_ramified_witness(-5, 41),
        ("a", "b", "beta", "alpha", "twist", "solution", "ram_case"),
        _WITNESS,
    ),
    (
        lambda: redei_symbol(-20, 41, 5),
        ("a", "b", "c", "value", "parts", "sides", "witness"),
        f"SymbolTrace(a=-5, b=41, c=5, value=-1, parts={{5: -1}}, sides={{5: 'B'}}, "
        f"witness={_WITNESS})",
    ),
    (
        # unpickled, a place at infinity must still be the one INFINITY: it has no __eq__
        lambda: redei_symbol(17, 2, -1),
        ("a", "b", "c", "value", "parts", "sides", "witness"),
        "SymbolTrace(a=17, b=2, c=-1, value=-1, parts={infinity: -1}, sides={infinity: 'A'}, "
        "witness=MinRamWitness(a=17, b=2, beta=QuadElt(-5, -1, sqrt 17), "
        "alpha=QuadElt(-10, -4, sqrt 2), twist=-1, "
        "solution=ConicSolution(x=5, y=1, z=2, a=17, b=2), ram_case='unramified_at_2'))",
    ),
    (
        lambda: verify_reciprocity(-5, 41, 5),
        ("triple", "values", "consistent"),
        "ReciprocityReport(triple=(-5, 41, 5), values={(-5, 41, 5): -1, (-5, 5, 41): -1, "
        "(41, -5, 5): -1, (41, 5, -5): -1, (5, -5, 41): -1, (5, 41, -5): -1}, consistent=True)",
    ),
]

# records holding a dict or a list, which hash no more than their fields do
UNHASHABLE = {"GoverningReport", "SymbolTrace", "ReciprocityReport"}


def _name(case):
    return case[2].partition("(")[0]


@pytest.mark.parametrize("build, fields, pinned", RECORDS, ids=[_name(c) for c in RECORDS])
def test_record_contract(build, fields, pinned):
    record = build()
    assert repr(record) == pinned
    values = [getattr(record, f) for f in fields]
    twin = type(record)(*values)
    assert twin == record and twin is not record
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert [getattr(record, f) for f in fields] == values
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == pinned

