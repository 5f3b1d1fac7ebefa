"""Kernel lattice basis: recursion, golden values, and validity."""

from __future__ import annotations

import numpy as np
import pytest

from clawtoric import lattice
from clawtoric.core import Binomial, Monomial, Word, in_kernel
from clawtoric.lattice import (
    LatticeBasis,
    build_lattice_basis,
    expected_row_count,
    lattice_binomials,
)
from clawtoric.matrix import build_matrix
from clawtoric.oracle import exact_rank

L3 = [
    [0, 0, 1, -1, -1, 1, 0, 0],
    [0, 1, 0, -1, -1, 0, 1, 0],
    [1, 0, 0, -1, -1, 0, 0, 1],
]

L4 = [
    [0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, -1, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, -1, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, -1, 0, 0, 1],
]

IL4 = [
    "q_0010*q_0101 - q_0011*q_0100",
    "q_0001*q_0110 - q_0011*q_0100",
    "q_0000*q_0111 - q_0011*q_0100",
    "q_0010*q_1001 - q_0011*q_1000",
    "q_0001*q_1010 - q_0011*q_1000",
    "q_0000*q_1011 - q_0011*q_1000",
    "q_0001*q_1100 - q_0101*q_1000",
    "q_0000*q_1101 - q_0101*q_1000",
    "q_0000*q_1110 - q_0110*q_1000",
    "q_1000*q_1111 - q_1011*q_1100",
]


def test_l3_golden():
    basis = build_lattice_basis(3)
    assert basis.shape == (3, 8)
    assert np.array_equal(basis.rows, np.array(L3))


def test_l4_golden():
    basis = build_lattice_basis(4)
    assert basis.shape == (10, 16)
    assert np.array_equal(basis.rows, np.array(L4))


def test_l4_binomials_golden_in_row_order():
    binomials = lattice_binomials(build_lattice_basis(4))
    assert [str(b) for b in binomials] == IL4


def test_expected_row_count():
    assert [expected_row_count(n) for n in (3, 4, 5, 6)] == [3, 10, 25, 56]


def test_row_count_matches_formula():
    for n in range(3, 11):
        assert build_lattice_basis(n).shape == (expected_row_count(n), 1 << n)


def test_column_labels_follow_binary_counting():
    basis = build_lattice_basis(3)
    assert basis.col_labels == tuple(Word(v, 3) for v in range(8))


def test_bounds():
    with pytest.raises(ValueError):
        build_lattice_basis(2)
    with pytest.raises(ValueError):
        build_lattice_basis(11, cap=10)


def test_rows_are_read_only():
    basis = build_lattice_basis(4)
    with pytest.raises(ValueError):
        basis.rows[0, 0] = 5


def test_every_row_is_in_the_matrix_kernel():
    for n in range(3, 11):
        matrix = build_matrix(n)
        basis = build_lattice_basis(n)
        product = matrix.entries.astype(np.int64) @ basis.rows.T.astype(np.int64)
        assert not product.any()


def test_rows_have_entries_in_minus_one_zero_one_and_support_four():
    for n in range(3, 11):
        rows = build_lattice_basis(n).rows
        assert rows.min() == -1 and rows.max() == 1
        assert np.array_equal(
            np.abs(rows).sum(axis=1), np.full(rows.shape[0], 4, dtype=np.int64)
        )
        assert not rows.sum(axis=1).any()


def test_rows_are_linearly_independent():
    for n in range(3, 9):
        basis = build_lattice_basis(n)
        assert exact_rank(basis.rows) == basis.shape[0]


def test_first_block_embeds_the_smaller_basis():
    for n in (4, 5, 6):
        smaller = build_lattice_basis(n - 1)
        rows = build_lattice_basis(n).rows
        k = smaller.shape[0]
        assert np.array_equal(rows[:k, : 1 << (n - 1)], smaller.rows)
        assert not rows[:k, 1 << (n - 1) :].any()


def test_binomials_are_kernel_binomials():
    for n in range(3, 9):
        for b in lattice_binomials(build_lattice_basis(n)):
            assert in_kernel(b)


def test_binomial_word_orientation_matches_the_rows():
    basis = build_lattice_basis(3)
    first = lattice_binomials(basis)[0]
    # row 0 of L_3 has +1 at columns 2, 5 and -1 at columns 3, 4
    expected = Binomial(
        Monomial.of(Word(2, 3), Word(5, 3)), Monomial.of(Word(3, 3), Word(4, 3))
    )
    assert first == expected


def corrupt_third_plus(row):
    row[np.flatnonzero(row == 0)[0]] = 1


def corrupt_entry_of_two(row):
    row[np.flatnonzero(row == 0)[0]] = 2


def corrupt_zero_row(row):
    row[:] = 0


def corrupt_one_plus(row):
    row[np.flatnonzero(row == 1)[0]] = 0


@pytest.mark.parametrize(
    "corrupt", [corrupt_third_plus, corrupt_entry_of_two, corrupt_zero_row, corrupt_one_plus]
)
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_malformed_rows_are_refused_at_the_first_bad_row(corrupt, dtype):
    basis = build_lattice_basis(5)
    rows = basis.rows.astype(dtype)
    for r in (6, 2, 9):
        corrupt(rows[r])
    with pytest.raises(ValueError, match=r"^row 3 is not a two-plus/two-minus vector$"):
        lattice_binomials(LatticeBasis(5, rows, basis.col_labels))


# ---------------------------------------------------------------------------
# the kernel check of the construction
# ---------------------------------------------------------------------------


def dense_first_bad_row(n: int, rows: np.ndarray) -> int | None:
    """1-based first row outside the kernel, from the whole matrix product."""
    products = build_matrix(n).entries.astype(np.int64) @ rows.T.astype(np.int64)
    bad = np.nonzero(products.any(axis=0))[0]
    return int(bad[0]) + 1 if bad.size else None


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_a_corrupted_row_is_reported_like_the_dense_product(n):
    rows = lattice._build(n)
    lattice._validate_rows(n, rows)
    rng = np.random.default_rng(n)
    for trial in range(6):
        bad = rows.copy()
        # corrupt one to three rows: move an entry, flip a sign, or add one
        for r in sorted(rng.choice(len(rows), size=1 + trial % 3, replace=False)):
            support = np.flatnonzero(bad[r])
            c = int(rng.choice(support))
            if trial % 3 == 0:
                free = np.flatnonzero(bad[r] == 0)
                bad[r, int(rng.choice(free))], bad[r, c] = bad[r, c], 0
            elif trial % 3 == 1:
                bad[r, c] = -bad[r, c]
            else:
                bad[r, int(rng.choice(np.flatnonzero(bad[r] == 0)))] = 1
        first = dense_first_bad_row(n, bad)
        assert first is not None
        with pytest.raises(RuntimeError) as info:
            lattice._validate_rows(n, bad)
        assert str(info.value) == f"lattice row {first} for n={n} is not in the kernel"


def test_entries_beyond_one_are_summed_exactly():
    rows = lattice._build(4).copy()
    # the sum of two kernel rows is in the kernel, with entries of -2
    rows[0] = rows[0] + rows[1]
    assert np.abs(rows[0]).max() == 2 and dense_first_bad_row(4, rows) is None
    lattice._validate_rows(4, rows)
    # 2*q_0000 - q_0011 - q_0101 cancels in the column sums of the incidence
    # matrix but not in every row of it
    rows[0] = 0
    rows[0, [0, 3, 5]] = (2, -1, -1)
    assert dense_first_bad_row(4, rows) == 1
    with pytest.raises(RuntimeError, match="lattice row 1 for n=4"):
        lattice._validate_rows(4, rows)
