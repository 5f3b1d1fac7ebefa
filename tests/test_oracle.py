"""Brute-force oracles: exact rank, kernel enumeration, circuit support."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clawtoric import oracle
from clawtoric.core import Word, in_kernel, param_image_monomial
from clawtoric.lattice import build_lattice_basis, expected_row_count
from clawtoric.matrix import build_matrix
from clawtoric.oracle import (
    circuit_support_check,
    enumerate_quadratic_kernel,
    exact_rank,
    kernel_fibers,
    nullspace_dimension,
)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------


def test_rank_small_examples():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0
    assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_rank_accepts_fractions():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
    ]
    assert exact_rank(rows) == 1
    assert exact_rank([[Fraction(1, 2), 1], [0, Fraction(3)]]) == 2


def test_rank_rejects_float_arrays():
    with pytest.raises(ValueError):
        exact_rank(np.array([[0.5, 1.0]]))


def test_rank_needs_no_fast_path():
    # duplicate trailing columns force the full elimination
    assert exact_rank([[1, 1], [0, 1], [1, 0]]) == 2


def test_incidence_matrix_ranks():
    assert exact_rank(build_matrix(2)) == 4
    for n in range(3, 9):
        assert exact_rank(build_matrix(n)) == n + 2


def test_nullspace_dimensions():
    assert nullspace_dimension(build_matrix(2)) == 0
    assert nullspace_dimension(build_matrix(3)) == 3
    assert nullspace_dimension(build_matrix(4)) == 10
    assert nullspace_dimension(build_matrix(10)) == 1012


def test_lattice_bases_have_full_rank_up_to_twelve():
    for n in (10, 11, 12):
        basis = build_lattice_basis(n)
        assert exact_rank(basis.rows) == expected_row_count(n)


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_agrees_with_floating_point_on_small_random_matrices(rows):
    got = exact_rank(rows)
    expected = np.linalg.matrix_rank(np.array(rows, dtype=np.float64))
    assert got == int(expected)
    assert exact_rank([list(c) for c in zip(*rows)]) == got


# ---------------------------------------------------------------------------
# kernel enumeration
# ---------------------------------------------------------------------------


def test_two_leaf_kernel_is_trivial():
    assert enumerate_quadratic_kernel(2) == set()


def test_three_leaf_kernel_has_six_binomials():
    kernel = enumerate_quadratic_kernel(3)
    assert len(kernel) == 6
    words = {tuple(sorted(w.value for m in (b.plus, b.minus) for w in m.words))
             for b in kernel}
    # the four complementary pairs, taken two at a time
    assert words == {
        (0, 1, 6, 7), (0, 2, 5, 7), (0, 3, 4, 7),
        (1, 2, 5, 6), (1, 3, 4, 6), (2, 3, 4, 5),
    }


def test_kernel_sizes_are_stable():
    assert len(enumerate_quadratic_kernel(4)) == 60
    assert len(enumerate_quadratic_kernel(5)) == 480


def test_everything_enumerated_is_in_the_kernel():
    for n in (3, 4):
        for b in enumerate_quadratic_kernel(n):
            assert in_kernel(b)


def test_fibers_share_one_image():
    fibers = kernel_fibers(4)
    for image, members in fibers.items():
        for m in members:
            assert param_image_monomial(m) == image
    assert sum(len(g) for g in fibers.values()) == 16 * 17 // 2


def test_fiber_sizes_explain_the_kernel_count():
    for n in (3, 4, 5):
        fibers = kernel_fibers(n)
        expected = sum(len(g) * (len(g) - 1) // 2 for g in fibers.values())
        assert len(enumerate_quadratic_kernel(n)) == expected


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        kernel_fibers(1)
    with pytest.raises(ValueError):
        kernel_fibers(6)
    with pytest.raises(ValueError):
        enumerate_quadratic_kernel(6)


# ---------------------------------------------------------------------------
# circuit support
# ---------------------------------------------------------------------------


def test_lattice_rows_have_minimal_support():
    for n in (3, 4):
        matrix = build_matrix(n)
        for row in build_lattice_basis(n).rows:
            assert circuit_support_check(row, matrix)


def test_row_sums_are_not_circuits():
    basis = build_lattice_basis(4)
    matrix = build_matrix(4)
    # support of row 0 is a proper subset of the support of row 0 + row 3
    combined = basis.rows[0].astype(np.int64) + basis.rows[3].astype(np.int64)
    assert np.count_nonzero(combined) == 6
    assert not circuit_support_check(combined, matrix)


def test_circuit_check_rejects_non_kernel_vectors():
    matrix = build_matrix(3)
    vector = np.zeros(8, dtype=np.int64)
    vector[0] = 1
    with pytest.raises(ValueError):
        circuit_support_check(vector, matrix)
    with pytest.raises(ValueError):
        circuit_support_check(np.zeros(4, dtype=np.int64), matrix)


def test_kernel_binomials_with_repeated_words_do_not_occur():
    # a square q_w^2 can never pair with a distinct monomial in its fiber
    for n in (3, 4):
        for b in enumerate_quadratic_kernel(n):
            for m in (b.plus, b.minus):
                assert len({w.value for w in m.words}) == 2


def test_word_list_matches_column_labels():
    fibers = kernel_fibers(3)
    seen = {w for members in fibers.values() for m in members for w in m.words}
    assert seen == {Word(v, 3) for v in range(8)}


# ---------------------------------------------------------------------------
# the trailing test on integer arrays
# ---------------------------------------------------------------------------

RANK_DTYPES = (np.int8, np.uint8, np.int16, np.int32, np.int64)


def random_integer_matrix(rng: np.random.Generator, dtype) -> np.ndarray:
    rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 8))
    info = np.iinfo(dtype)
    low, high = max(info.min, -3), min(info.max, 3)
    a = rng.integers(low, high + 1, size=(rows, cols)).astype(dtype)
    a[rng.random(a.shape) < 0.4] = 0
    shape = int(rng.integers(4))
    if shape == 0:
        # distinct trailing columns: the trailing test decides
        for r in range(rows):
            last = cols - 1 - r if r < cols else None
            if last is not None:
                a[r, last + 1 :] = 0
                a[r, last] = a[r, last] or 1
    elif shape == 1:
        a[int(rng.integers(rows))] = 0  # a zero row
    elif shape == 2 and rows > 1:
        a[1] = a[0]  # a repeated row, so a repeated trailing column
    if dtype is np.int64 and rng.random() < 0.5:
        a *= np.int64(1) << int(rng.integers(31, 40))  # entries beyond int32
    return a


def test_rank_of_integer_arrays_equals_the_elimination():
    rng = np.random.default_rng(20071)
    fast = slow = 0
    for trial in range(400):
        a = random_integer_matrix(rng, RANK_DTYPES[trial % len(RANK_DTYPES)])
        expected = oracle._bareiss_rank(a.tolist())
        assert exact_rank(a) == expected, a
        if oracle._trailing_echelon_rank(a) is None:
            slow += 1
        else:
            fast += 1
            assert expected == len(a)
    assert fast > 50 and slow > 50


def test_trailing_test_on_arrays_needs_no_python_ints(monkeypatch):
    rows = build_lattice_basis(8).rows
    calls = []
    to_rows = oracle._as_int_rows
    monkeypatch.setattr(oracle, "_as_int_rows", lambda m: calls.append(m) or to_rows(m))
    assert exact_rank(rows) == expected_row_count(8)
    assert not calls
    # a repeated trailing column sends the array through the elimination
    assert exact_rank(np.array([[1, 1], [0, 1], [1, 0]], dtype=np.int8)) == 2
    assert len(calls) == 1
    # and lists take the old path, Fractions included
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]) == 1
    assert len(calls) == 2


def test_rank_edge_arrays():
    assert exact_rank(np.zeros((0, 4), dtype=np.int64)) == 0
    assert exact_rank(np.zeros((3, 0), dtype=np.int64)) == 0
    assert exact_rank(np.zeros((2, 3), dtype=np.int16)) == 0
    for bad in (np.array([[0.0, 1.0]]), np.array([[True, False]]), np.zeros((0, 2))):
        with pytest.raises(ValueError):
            exact_rank(bad)
