"""Independent ground truth: exact linear algebra and brute-force enumeration.

Everything here is deliberately direct.  Ranks are computed over the
rationals with fraction-free elimination (no floating point anywhere),
and the degree-2 kernel is enumerated by grouping all quadratic monomials
by their parameter multiset, so the constructive modules can be checked
against results that share none of their code paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Sequence

import numpy as np

from .core import Binomial, Monomial, Word, param_image_monomial
from .matrix import IncidenceMatrix


def _as_int_rows(matrix) -> list[list[int]]:
    if isinstance(matrix, np.ndarray):  # of a checked integer dtype
        return matrix.tolist()
    rows: list[list[int]] = []
    for row in matrix:
        ints: list[int] = []
        fracs = [x for x in row if isinstance(x, Fraction)]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        for x in row:
            y = x * scale
            if isinstance(y, Fraction):
                if y.denominator != 1:
                    raise ValueError(f"entry {x!r} did not clear to an integer")
                y = y.numerator
            elif not isinstance(y, int):
                raise ValueError(f"entry {x!r} is not an int or Fraction")
            ints.append(y)
        rows.append(ints)
    return rows


def _trailing_echelon_rank(rows: np.ndarray) -> int | None:
    # If every row is nonzero and the trailing-nonzero columns are pairwise
    # distinct, the rows are independent (look at the largest such column in
    # any vanishing combination), so the rank is the row count.  Exact, and
    # O(nonzeros); this is what makes the big lattice bases checkable.
    nonzero = rows != 0
    if not nonzero.any(axis=1).all():
        return None
    last = rows.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return len(rows) if np.unique(last).size == len(rows) else None


def _bareiss_rank(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for pc in range(ncols):
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][pc] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][pc]
        lead = m[rank]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[pc]
            # one-step fraction-free update; division by the previous pivot
            # is exact by the Sylvester determinant identity
            for c in range(pc + 1, ncols):
                row[c] = (row[c] * p - f * lead[c]) // prev
            row[pc] = 0
        prev = p
        rank += 1
    return rank


def exact_rank(matrix) -> int:
    """Rank over the rationals, exactly."""
    if isinstance(matrix, IncidenceMatrix):
        matrix = matrix.entries
    if isinstance(matrix, np.ndarray):
        if not np.issubdtype(matrix.dtype, np.integer):
            raise ValueError(f"expected integer entries, got dtype {matrix.dtype}")
        rows = None
    else:
        # cleared of Fractions once; the trailing test reads the rows as an array
        rows = _as_int_rows(matrix)
        matrix = np.array(rows, dtype=object)
    if not matrix.size:
        return 0
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {matrix.shape}")
    fast = _trailing_echelon_rank(matrix)
    if fast is not None:
        return fast
    return _bareiss_rank(_as_int_rows(matrix) if rows is None else rows)


def nullspace_dimension(matrix) -> int:
    """Dimension of the rational kernel: columns minus rank."""
    if isinstance(matrix, IncidenceMatrix):
        matrix = matrix.entries
    return len(matrix[0]) - exact_rank(matrix) if len(matrix) else 0


def kernel_fibers(n: int) -> dict[tuple, list[Monomial]]:
    """Degree-2 monomials grouped by their image under the parametrization.

    Brute force over all degree-2 monomials, squares included.  Cost grows
    like 2^(2n), hence the hard cap.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"enumeration is capped at n in 2..5, got {n}")
    words = [Word(v, n) for v in range(1 << n)]
    fibers: dict[tuple, list[Monomial]] = {}
    for w1, w2 in combinations_with_replacement(words, 2):
        m = Monomial(n, (w1, w2))
        fibers.setdefault(param_image_monomial(m), []).append(m)
    return fibers


def enumerate_quadratic_kernel(n: int) -> set[Binomial]:
    """Every canonical quadratic binomial whose sides share a parameter multiset."""
    out: set[Binomial] = set()
    for fiber in kernel_fibers(n).values():
        for m1, m2 in combinations(fiber, 2):
            out.add(Binomial(m1, m2))
    return out


def circuit_support_check(vector: Sequence[int] | np.ndarray, matrix) -> bool:
    """True iff no nonzero kernel vector lives on a proper subset of the support.

    The vector must itself be in the kernel.  Every proper subset of the
    support is tested by an exact rank computation on the corresponding
    column submatrix; a rank drop exhibits a smaller-support kernel vector.
    """
    if isinstance(matrix, IncidenceMatrix):
        cols_matrix = matrix.entries
    else:
        cols_matrix = np.asarray(matrix)
    vec = np.asarray(vector, dtype=np.int64)
    if vec.shape[0] != cols_matrix.shape[1]:
        raise ValueError("vector length does not match column count")
    if (cols_matrix.astype(np.int64) @ vec != 0).any():
        raise ValueError("vector is not in the kernel")
    support = [int(c) for c in np.nonzero(vec)[0]]
    for size in range(2, len(support)):
        for subset in combinations(support, size):
            sub = cols_matrix[:, list(subset)]
            if exact_rank(sub) < size:
                return False
    return True
