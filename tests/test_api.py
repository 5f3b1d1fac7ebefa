"""The public surface: every exported name and every parameter of it."""

from __future__ import annotations

import inspect

import clawtoric

# name -> parameters, as "name", "name=default", with "*" before keyword-only ones
PUBLIC_SIGNATURES = {
    "Binomial": "plus, minus",
    "BinomialReducer": "basis",
    "GeneratorSet": "n, fixed_rows, complementary_rows",
    "GroebnerCertificate": "n, size, strict, is_groebner, pairs_total, reduced, spoly_zero, "
    "skipped_coprime, skipped_shared_trailing, max_steps, failures, pairs, step_histogram=()",
    "IncidenceMatrix": "n, entries, row_labels, col_labels",
    "LatticeBasis": "n, rows, col_labels",
    "Monomial": "n, words",
    "PairOutcome": "i, j, rule, steps",
    "ParamVariable": "g, i",
    "ReductionTrace": "start, steps, final",
    "Word": "value, n",
    "build_generators": "n, cap=16",
    "build_lattice_basis": "n, cap=16",
    "build_matrix": "n, cap=16",
    "circuit_support_check": "vector, matrix",
    "compare_monomials_lex": "m1, m2",
    "compare_words": "w1, w2",
    "complementary_count": "n",
    "complementary_generators": "n",
    "enumerate_quadratic_kernel": "n",
    "exact_rank": "matrix",
    "expected_row_count": "n",
    "extract_submatrix": "matrix, leaf",
    "fixed_leaf_count": "n",
    "fixed_positions": "b",
    "generator_count": "n",
    "in_ideal": "b, basis",
    "in_kernel": "b",
    "is_fully_complementary": "b",
    "is_groebner": "basis, *, strict=False",
    "kernel_fibers": "n",
    "lattice_binomials": "basis",
    "leading_monomial": "b",
    "lift_fixed_leaf": "lower",
    "make_binomial": "m1, m2",
    "matrix_from_parametrization": "n, cap=16",
    "normal_form": "b, basis",
    "nullspace_dimension": "matrix",
    "param_image": "w",
    "param_image_monomial": "m",
    "project": "b, position",
    "s_polynomial": "b1, b2",
    "verify_groebner": "basis, *, strict=False, record_pairs=False",
}


def parameters(obj) -> str:
    out = []
    for p in inspect.signature(obj).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    return ", ".join(out)


def test_exported_names_are_pinned():
    assert clawtoric.__all__ == ["MAX_LEAVES", *sorted(PUBLIC_SIGNATURES)]
    assert clawtoric.MAX_LEAVES == 16


def test_public_signatures_are_pinned():
    assert {name: parameters(getattr(clawtoric, name)) for name in PUBLIC_SIGNATURES} == (
        PUBLIC_SIGNATURES
    )
