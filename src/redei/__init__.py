"""Redei symbols [a,b,c], 2/4/8-ranks of narrow quadratic class groups, and an
independent binary-quadratic-form oracle."""

from .arith import (
    INFINITY,
    SignedPrimeDecomposition,
    discriminant,
    factor,
    hilbert,
    hilbert_product,
    kronecker,
    signed_prime_decomposition,
    square_class,
)
from .conic import ConicSolution, enumerate_solutions, is_solvable, solve, solve_pair
from .oracle import ClassGroup, enumerate_classes, narrow_ranks
from .quadfield import QuadElt, split_units
from .redeimatrix import (
    RedeiMatrixR4,
    RedeiMatrixR8,
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
from .symbol import (
    MinRamWitness,
    ReciprocityReport,
    SymbolTrace,
    TwistingGroup,
    minimally_ramified_witness,
    redei_symbol,
    twist_witness,
    twisting_group,
    validate_triple,
    verify_reciprocity,
    verify_twist_independence,
    witness_from_solution,
)

__all__ = [
    # arith
    "INFINITY", "SignedPrimeDecomposition", "discriminant", "factor", "hilbert",
    "hilbert_product", "kronecker", "signed_prime_decomposition", "square_class",
    # conic
    "ConicSolution", "enumerate_solutions", "is_solvable", "solve", "solve_pair",
    # oracle
    "ClassGroup", "enumerate_classes", "narrow_ranks",
    # quadfield
    "QuadElt", "split_units",
    # redeimatrix
    "RedeiMatrixR4", "RedeiMatrixR8", "SecondKindDecomposition", "build_R4", "build_R8",
    "fundamental_discriminant", "governing_r4_check", "r2", "r4", "r8", "ranks",
    # symbol
    "MinRamWitness", "ReciprocityReport", "SymbolTrace", "TwistingGroup",
    "minimally_ramified_witness", "redei_symbol", "twist_witness",
    "twisting_group", "validate_triple", "verify_reciprocity", "verify_twist_independence",
    "witness_from_solution",
]
