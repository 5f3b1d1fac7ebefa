"""0/1 incidence matrix of the monomial parametrization.

Rows are indexed by the 2(n+1) parameters a_0^(1), ..., a_0^(n+1),
a_1^(1), ..., a_1^(n+1); columns by the 2^n coordinates q_w in binary
counting order.  Entry is 1 exactly when the parameter divides the image
of the coordinate.  Two independent constructions are provided: a block
fill that marks alternating column blocks row by row, and a direct read-off
from the parametrization; tests assert they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_LEAVES, ParamVariable, Word, _word_table


@dataclass(frozen=True, slots=True, eq=False)
class IncidenceMatrix:
    """Labeled 2(n+1) x 2^n matrix with entries in {0, 1}."""

    n: int
    entries: np.ndarray
    row_labels: tuple[ParamVariable, ...]
    col_labels: tuple[Word, ...]

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and np.array_equal(self.entries, other.entries)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _labels(n: int) -> tuple[tuple[ParamVariable, ...], tuple[Word, ...]]:
    rows = tuple(ParamVariable(g, i) for g in (0, 1) for i in range(1, n + 2))
    words = _word_table(n)
    return rows, tuple([words[v] for v in range(1 << n)])


def _check_n(n: int, cap: int, smallest: int) -> None:
    if not smallest <= n <= cap:
        raise ValueError(f"n must be in {smallest}..{cap}, got {n}")


@lru_cache(maxsize=None)
def _build(n: int) -> IncidenceMatrix:
    entries = np.zeros((2 * (n + 1), 1 << n), dtype=np.int8)
    # leaf rows: row k is 1 on alternating blocks of width 2^(n-k),
    # i.e. on the columns whose word shows 0 at leaf k
    for k in range(1, n + 1):
        width = 1 << (n - k)
        for c in range(0, 1 << k, 2):
            entries[k - 1, c * width : (c + 1) * width] = 1
    # root row: 1 where n and the column sum so far have equal parity,
    # i.e. where the word has an even number of ones
    col_sums = entries[:n].sum(axis=0, dtype=np.int32)
    entries[n] = ((n - col_sums) % 2 == 0).astype(np.int8)
    # bottom half is the complement of the top half
    entries[n + 1 :] = 1 - entries[: n + 1]
    rows, cols = _labels(n)
    return IncidenceMatrix(n, entries, rows, cols)


def build_matrix(n: int, cap: int = MAX_LEAVES) -> IncidenceMatrix:
    """Incidence matrix for n leaves, built by the block fill."""
    _check_n(n, cap, 2)
    return _build(n)


def matrix_from_parametrization(n: int, cap: int = MAX_LEAVES) -> IncidenceMatrix:
    """Same matrix read off the parametrization directly: entry 1 iff
    a_g^(i) divides the image of q_w."""
    _check_n(n, cap, 2)
    values = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros(1 << n, dtype=np.int8)
    entries = np.zeros((2 * (n + 1), 1 << n), dtype=np.int8)
    for i in range(1, n + 1):
        bits = ((values >> (n - i)) & 1).astype(np.int8)
        parity ^= bits
        entries[i - 1] = bits == 0
        entries[(n + 1) + i - 1] = bits
    entries[n] = parity == 0
    entries[2 * n + 1] = parity
    rows, cols = _labels(n)
    return IncidenceMatrix(n, entries, rows, cols)


def extract_submatrix(matrix: IncidenceMatrix, leaf: int) -> IncidenceMatrix:
    """Forget one leaf: drop its two rows, keep the columns observing 0 there.

    The result carries relabeled rows and shortened words and equals the
    matrix built for n-1 leaves.
    """
    n = matrix.n
    if not 1 <= leaf <= n:
        raise ValueError(f"leaf {leaf} out of range 1..{n}")
    if n - 1 < 2:
        raise ValueError("cannot extract below 2 leaves")
    keep_rows = [
        r
        for r, lab in enumerate(matrix.row_labels)
        if lab.i != leaf
    ]
    keep_cols = [c for c, w in enumerate(matrix.col_labels) if w.bit(leaf) == 0]
    entries = matrix.entries[np.ix_(keep_rows, keep_cols)].copy()
    rows = tuple(
        ParamVariable(lab.g, lab.i - 1 if lab.i > leaf else lab.i)
        for lab in (matrix.row_labels[r] for r in keep_rows)
    )
    cols = tuple(matrix.col_labels[c].delete(leaf) for c in keep_cols)
    return IncidenceMatrix(n - 1, entries, rows, cols)


def row_sum_identity(matrix: IncidenceMatrix) -> bool:
    """Every column sums to n+1 (one parameter per leaf plus the root)."""
    return bool(
        (matrix.entries.sum(axis=0, dtype=np.int32) == matrix.n + 1).all()
    )


def complement_identity(matrix: IncidenceMatrix) -> bool:
    """The bottom n+1 rows are the entrywise complement of the top n+1."""
    half = matrix.n + 1
    return bool((matrix.entries[half:] == 1 - matrix.entries[:half]).all())
