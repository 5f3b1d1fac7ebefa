"""Quadratic generating set for the kernel ideal.

Every quadratic kernel binomial shows, at each leaf, either the same state
in all four words (a fixed leaf) or complementary states within both word
pairs.  The generating set is built along that dichotomy:

  - fixed-leaf generators arise by inserting a constant state at one leaf
    position into every generator one level down, for every position and
    both states, de-duplicated;
  - complementary generators pair words with their complements directly.
    For odd n every complementary pair goes against the single trailing
    pair q_01..1 * q_10..0.  For even n the two sides must agree on the
    root parity, so pairs whose words have odd bit sum go against
    q_01..1 * q_10..0 and pairs with even bit sum against q_01..10 * q_10..01.

The base case at three leaves is the three quadrics that tie the four
complementary pairs together through q_100 * q_011.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import MAX_LEAVES, Binomial, _binomials

# A group is an (N, 4) int64 array of distinct canonical rows (core._check_rows)
# in ascending row order, which is the lead order (plus.key, minus.key).  A
# column holds words of up to 62 bits.
Rows = np.ndarray


def _sorted_unique_rows(rows: Rows) -> Rows:
    """Distinct rows in ascending lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Quadratic generators split by the fixed-leaf/complementary dichotomy.

    The lead-sorted rows of each group are the source of truth; they are
    copied on construction and kept read-only.  The ``Binomial`` objects
    are built from them on first use, once per set, and shared by the two
    frozensets and ``sorted_generators()``.
    """

    n: int
    fixed_rows: Rows
    complementary_rows: Rows

    def __post_init__(self):
        for name in ("fixed_rows", "complementary_rows"):
            rows = np.array(getattr(self, name), dtype=np.int64).reshape(-1, 4)
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    def _value(self) -> tuple[int, bytes, bytes]:
        return self.n, self.fixed_rows.tobytes(), self.complementary_rows.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @cached_property
    def _groups(self) -> tuple[tuple[Binomial, ...], tuple[Binomial, ...]]:
        return _binomials(self.n, self.fixed_rows), _binomials(self.n, self.complementary_rows)

    @cached_property
    def fixed_leaf(self) -> frozenset[Binomial]:
        return frozenset(self._groups[0])

    @cached_property
    def complementary(self) -> frozenset[Binomial]:
        return frozenset(self._groups[1])

    def __len__(self) -> int:
        return len(self.fixed_rows) + len(self.complementary_rows)

    def __iter__(self):
        """Deterministic order: fixed-leaf then complementary, lead descending."""
        return iter(self.sorted_generators())

    def sorted_generators(self) -> tuple[Binomial, ...]:
        fixed, comp = self._groups
        return fixed + comp


def _rows(values: list[tuple[int, int, int, int]]) -> Rows:
    return np.array(values, dtype=np.int64).reshape(-1, 4)


def base_generators() -> GeneratorSet:
    """The three quadrics at n = 3; all of them are complementary."""
    rows = _rows([(w, 0b111 ^ w, 0b011, 0b100) for w in (0b000, 0b001, 0b010)])
    return GeneratorSet(3, _rows([]), rows)


def _lift_rows(lower: GeneratorSet) -> Rows:
    n = lower.n + 1
    stacked = np.concatenate([lower.fixed_rows, lower.complementary_rows])
    # block (i, j): every lower row with bit j spliced in at 1-based position i
    blocks = np.empty((n, 2, *stacked.shape), dtype=np.int64)
    for i in range(1, n + 1):
        low_width = n - i
        low = stacked & ((1 << low_width) - 1)
        blocks[i - 1, 0] = ((stacked >> low_width) << (low_width + 1)) | low
        blocks[i - 1, 1] = blocks[i - 1, 0] | (1 << low_width)
    return _sorted_unique_rows(blocks.reshape(-1, 4))


def lift_fixed_leaf(lower: GeneratorSet) -> frozenset[Binomial]:
    """Insert a constant state at every position into every lower generator.

    The inserted leaf is fixed in all four words, and deleting it recovers
    the lower generator, so each output projects back into the lower kernel.
    Insertion preserves both the word order inside each monomial and the
    lead/trail orientation, because splicing the same bit at the same place
    is monotone for the binary counting order.
    """
    return frozenset(_binomials(lower.n + 1, _lift_rows(lower)))


def _complementary_rows(n: int) -> Rows:
    if n < 4:
        raise ValueError(f"direct complementary construction needs n >= 4, got {n}")
    full = (1 << n) - 1
    low_odd = (1 << (n - 1)) - 1  # 01..1
    low_even = low_odd - 1        # 01..10
    pair_odd = (low_odd, full ^ low_odd)
    pair_even = (low_even, full ^ low_even)
    if n % 2:
        # odd bit count flips parity under complement, so the root parities
        # of any two complementary pairs agree; one right-hand pair serves all
        return _rows([(w, full ^ w, *pair_odd) for w in range(low_odd)])
    return _rows(
        [(w, full ^ w, *(pair_odd if w.bit_count() & 1 else pair_even)) for w in range(low_even)]
    )


def complementary_generators(n: int) -> frozenset[Binomial]:
    """Generators whose word pairs are complementary at every leaf, n >= 4.

    The trailing complementary pairs supply the right-hand monomials; every
    other pair {w, complement(w)} supplies a left-hand monomial.  For even n
    the right-hand monomial is chosen to match the root parity of the pair.
    """
    return frozenset(_binomials(n, _complementary_rows(n)))


def complementary_count(n: int) -> int:
    """Size of the complementary group: 2^(n-1) - 2 + (n mod 2)."""
    return (1 << (n - 1)) - 2 + (n % 2)


def fixed_leaf_count(n: int) -> int:
    """Size of the fixed-leaf group: (4^n - 3*3^n + 2*2^n + 2 + (-1)^n)/2."""
    return (4**n - 3 * 3**n + 2 * 2**n + 2 + (-1) ** n) // 2


def generator_count(n: int) -> int:
    """Size of G_n: (4^n - 3*3^n + 3*2^n - 1)/2."""
    return (4**n - 3 * 3**n + 3 * 2**n - 1) // 2


@lru_cache(maxsize=None)
def _build(n: int) -> GeneratorSet:
    if n == 3:
        return base_generators()
    return GeneratorSet(n, _lift_rows(_build(n - 1)), _complementary_rows(n))


def build_generators(n: int, cap: int = MAX_LEAVES) -> GeneratorSet:
    """The full generating set for n leaves, n >= 3."""
    if not 3 <= n <= cap:
        raise ValueError(f"n must be in 3..{cap}, got {n}")
    return _build(n)


# ---------------------------------------------------------------------------
# structural predicates used to re-verify the dichotomy
# ---------------------------------------------------------------------------


def _four_values(b: Binomial) -> tuple[int, int, int, int]:
    plus = b.plus.key
    if len(plus) != 2:
        raise ValueError(f"expected a quadratic binomial, got degree {len(plus)}")
    return (*plus, *b.minus.key)


@lru_cache(maxsize=None)
def _agreeing_positions(n: int, varying: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, n + 1) if not (varying >> (n - i)) & 1)


def fixed_positions(b: Binomial) -> tuple[int, ...]:
    """Leaves at which all four words agree, 1-based."""
    a, c, d, e = _four_values(b)
    return _agreeing_positions(b.plus.n, (a ^ c) | (a ^ d) | (a ^ e))


def is_fully_complementary(b: Binomial) -> bool:
    """True iff both word pairs are complementary at every leaf."""
    a, c, d, e = _four_values(b)
    full = (1 << b.plus.n) - 1
    return (a ^ c) == full and (d ^ e) == full
