"""Toric ideals of phylogenetic invariants for star trees under the
two-state group-based model, in Fourier coordinates.

The package builds the parametrization incidence matrix, a basis of its
kernel lattice, and an explicit quadratic generating set of the kernel
ideal, then verifies the constructions against brute-force oracles and
the Buchberger criterion.
"""

from __future__ import annotations

from .core import (
    MAX_LEAVES,
    Binomial,
    Monomial,
    ParamVariable,
    Word,
    compare_monomials_lex,
    compare_words,
    in_kernel,
    make_binomial,
    param_image,
    param_image_monomial,
    project,
)
from .groebner import (
    BinomialReducer,
    GroebnerCertificate,
    PairOutcome,
    ReductionTrace,
    in_ideal,
    is_groebner,
    leading_monomial,
    normal_form,
    s_polynomial,
    verify_groebner,
)
from .ideal import (
    GeneratorSet,
    build_generators,
    complementary_count,
    complementary_generators,
    fixed_leaf_count,
    fixed_positions,
    generator_count,
    is_fully_complementary,
    lift_fixed_leaf,
)
from .lattice import (
    LatticeBasis,
    build_lattice_basis,
    expected_row_count,
    lattice_binomials,
)
from .matrix import (
    IncidenceMatrix,
    build_matrix,
    extract_submatrix,
    matrix_from_parametrization,
)
from .oracle import (
    circuit_support_check,
    enumerate_quadratic_kernel,
    exact_rank,
    kernel_fibers,
    nullspace_dimension,
)

__all__ = [
    "MAX_LEAVES",
    "Binomial",
    "BinomialReducer",
    "GeneratorSet",
    "GroebnerCertificate",
    "IncidenceMatrix",
    "LatticeBasis",
    "Monomial",
    "PairOutcome",
    "ParamVariable",
    "ReductionTrace",
    "Word",
    "build_generators",
    "build_lattice_basis",
    "build_matrix",
    "circuit_support_check",
    "compare_monomials_lex",
    "compare_words",
    "complementary_count",
    "complementary_generators",
    "enumerate_quadratic_kernel",
    "exact_rank",
    "expected_row_count",
    "extract_submatrix",
    "fixed_leaf_count",
    "fixed_positions",
    "generator_count",
    "in_ideal",
    "in_kernel",
    "is_fully_complementary",
    "is_groebner",
    "kernel_fibers",
    "lattice_binomials",
    "leading_monomial",
    "lift_fixed_leaf",
    "make_binomial",
    "matrix_from_parametrization",
    "normal_form",
    "nullspace_dimension",
    "param_image",
    "param_image_monomial",
    "project",
    "s_polynomial",
    "verify_groebner",
]

__version__ = "0.1.0"
