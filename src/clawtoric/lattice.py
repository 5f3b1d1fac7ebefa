"""Lattice basis for the kernel of the incidence matrix.

Each basis row is a {-1,0,1} vector with two +1 and two -1 entries, read as
a quadratic binomial relation between coordinates.  The basis for n leaves
is built recursively: the full basis for n-1 leaves embeds into the columns
whose word shows 0 at leaf 1, trailing slices of it embed into the columns
showing 0 at each later leaf, and one closing vector right-aligned in the
last eight columns tops the row count up to 2^n - n - 2, the kernel
dimension.  Every constructed row is checked against the incidence matrix;
construction aborts on the first row that fails membership.

The rows become binomials through the same checked edge as the generating
set: the two +1 and two -1 columns of every row are read at once, and the
objects are made by core's trusting constructors from the shared word table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_LEAVES, Binomial, Word, _binomials, _first_row, _word_table
from .matrix import build_matrix


def expected_row_count(n: int) -> int:
    """Kernel dimension of the incidence matrix: 2^n - n - 2."""
    return (1 << n) - n - 2


@dataclass(frozen=True, slots=True, eq=False)
class LatticeBasis:
    """Labeled (2^n - n - 2) x 2^n integer matrix of kernel vectors."""

    n: int
    rows: np.ndarray
    col_labels: tuple[Word, ...]

    def __post_init__(self) -> None:
        self.rows.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeBasis):
            return NotImplemented
        return (
            self.n == other.n
            and self.col_labels == other.col_labels
            and np.array_equal(self.rows, other.rows)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape


_SEED_ROWS = np.array(
    [
        [0, 0, 1, -1, -1, 1, 0, 0],
        [0, 1, 0, -1, -1, 0, 1, 0],
        [1, 0, 0, -1, -1, 0, 0, 1],
    ],
    dtype=np.int8,
)

# closing vector for every lift step, right-aligned in the last 8 columns
_TAIL = np.array([1, 0, 0, -1, -1, 0, 0, 1], dtype=np.int8)


def _validate_rows(k: int, rows: np.ndarray) -> None:
    # rows @ incidence.T, summed over the nonzero entries only (four per row)
    incidence = build_matrix(k).entries
    r, c = np.nonzero(rows)
    products = np.zeros((rows.shape[0], incidence.shape[0]), dtype=np.int64)
    np.add.at(products, r, incidence[:, c].T * rows[r, c].astype(np.int64)[:, None])
    bad = products.any(axis=1)
    if bad.any():
        raise RuntimeError(f"lattice row {int(np.argmax(bad)) + 1} for n={k} is not in the kernel")


def _zero_columns(k: int, i: int) -> np.ndarray:
    values = np.arange(1 << k)
    return np.nonzero(((values >> (k - i)) & 1) == 0)[0]


@lru_cache(maxsize=None)
def _build(k: int) -> np.ndarray:
    if k == 3:
        rows = _SEED_ROWS.copy()
        _validate_rows(3, rows)
        return rows
    prev = _build(k - 1)
    prev_count = prev.shape[0]
    count_k = expected_row_count(k)
    rows = np.zeros((count_k, 1 << k), dtype=np.int8)
    # all rows of the smaller basis, in the columns with 0 at leaf 1
    rows[:prev_count, : 1 << (k - 1)] = prev
    # the last 2^(k-2) - 1 rows, in the columns with 0 at leaf 2
    fill = prev_count
    take = (1 << (k - 2)) - 1
    rows[np.ix_(range(fill, fill + take), _zero_columns(k, 2))] = prev[-take:]
    fill += take
    # the last 2^(k-i) rows, in the columns with 0 at leaf i
    for i in range(3, k + 1):
        take = 1 << (k - i)
        rows[np.ix_(range(fill, fill + take), _zero_columns(k, i))] = prev[-take:]
        fill += take
    rows[fill, (1 << k) - 8 :] = _TAIL
    _validate_rows(k, rows)
    return rows


def build_lattice_basis(n: int, cap: int = MAX_LEAVES) -> LatticeBasis:
    """Kernel lattice basis for n leaves, n >= 3."""
    if not 3 <= n <= cap:
        raise ValueError(f"n must be in 3..{cap}, got {n}")
    words = _word_table(n)
    return LatticeBasis(n, _build(n), tuple([words[v] for v in range(1 << n)]))


def lattice_binomials(basis: LatticeBasis) -> tuple[Binomial, ...]:
    """One quadratic binomial per row: +1 columns minus -1 columns."""
    # one walk over the nonzeros, row by row, so each row's columns ascend
    r, c = np.nonzero(basis.rows)
    value, count = basis.rows[r, c], len(basis.rows)
    bad = np.bincount(r, minlength=count) != 4
    for sign in (1, -1):
        bad |= np.bincount(r[value == sign], minlength=count) != 2
    if bad.any():
        raise ValueError(f"row {_first_row(bad) + 1} is not a two-plus/two-minus vector")
    c, value = c.reshape(-1, 4), value.reshape(-1, 4)
    # the side that holds a row's smallest column is the lex-greater one
    lead = value == value[:, :1]
    rows = np.concatenate([c[lead].reshape(-1, 2), c[~lead].reshape(-1, 2)], axis=1)
    return _binomials(basis.n, rows)
