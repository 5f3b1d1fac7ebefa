"""Words, parameter variables, monomials, and binomials in Fourier coordinates.

The star tree with one internal node and n leaves has, after the discrete
Fourier change of coordinates for the two-state group-based model, one
coordinate q_w per binary word w of length n.  The monomial parametrization
sends q_w to the product of one leaf parameter a_{w_i}^(i) per leaf and one
root parameter a_s^(n+1), where s is the bit sum of w mod 2.  Everything
downstream (incidence matrix, kernel lattice, quadratic generators) is
phrased in terms of these words and their products.

Word values become objects here only: words come from one table per length
that fills on demand, and the quadratic rows of the generating set and of
the lattice basis are checked as whole arrays and then built by private
constructors that trust the check.

Variable orders used throughout:
  - parameter variables: a_0^(1) > ... > a_0^(n+1) > a_1^(1) > ... > a_1^(n+1)
  - coordinates: q_w1 > q_w2 iff w1 precedes w2 in binary counting order
  - monomials: lexicographic, induced by the coordinate order
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

# Guard against accidental 2^n blowups; not a semantic limit.
MAX_LEAVES = 16


def _check_position(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")


def _insert_bit(value: int, n: int, position: int, bit: int) -> int:
    """Insert bit at 1-based position of an n-bit word, giving an (n+1)-bit word."""
    low_width = n - position + 1
    high = value >> low_width
    low = value & ((1 << low_width) - 1)
    return (high << (low_width + 1)) | (bit << low_width) | low


def _delete_bit(value: int, n: int, position: int) -> int:
    """Delete the 1-based position from an n-bit word, giving an (n-1)-bit word."""
    low_width = n - position
    high = value >> (low_width + 1)
    low = value & ((1 << low_width) - 1)
    return (high << low_width) | low


@dataclass(frozen=True, slots=True)
class Word:
    """A length-n binary word; leaf 1 is the leftmost (most significant) bit."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"word length must be at least 2, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    @classmethod
    def from_string(cls, text: str) -> Word:
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a binary word: {text!r}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_bits(cls, bits: tuple[int, ...] | list[int]) -> Word:
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bad bit {b!r}")
            value = (value << 1) | b
        return cls(value, len(bits))

    def bit(self, i: int) -> int:
        """Observed state at leaf i (1-based, leftmost = leaf 1)."""
        _check_position(i, self.n)
        return (self.value >> (self.n - i)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.n - i)) & 1 for i in range(1, self.n + 1))

    @property
    def parity(self) -> int:
        """Bit sum mod 2; selects the root parameter."""
        return self.value.bit_count() & 1

    def complement(self) -> Word:
        return Word(self.value ^ ((1 << self.n) - 1), self.n)

    def delete(self, position: int) -> Word:
        _check_position(position, self.n)
        return Word(_delete_bit(self.value, self.n, position), self.n - 1)

    def insert(self, position: int, bit: int) -> Word:
        """New word of length n+1 with the bit at 1-based position of the result."""
        _check_position(position, self.n + 1)
        if bit not in (0, 1):
            raise ValueError(f"bad bit {bit!r}")
        return Word(_insert_bit(self.value, self.n, position, bit), self.n + 1)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")


class _Table(dict):
    """A dict that computes the entry for a missing key on first lookup."""

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


@lru_cache(maxsize=None)
def _word_table(n: int) -> dict[int, Word]:
    """The interned words of length n by value, each made on first lookup,
    so that objects share their words and a large n costs no 2^n table."""
    return _Table(partial(Word, n=n))


def compare_words(w1: Word, w2: Word) -> int:
    """Sign of the coordinate comparison: +1 iff q_w1 > q_w2.

    Coordinates are ordered against binary counting: q_w1 > q_w2 iff the
    value of w1 is smaller.
    """
    if w1.n != w2.n:
        raise ValueError(f"mixed word lengths {w1.n} and {w2.n}")
    return (w2.value > w1.value) - (w2.value < w1.value)


@dataclass(frozen=True, slots=True)
class ParamVariable:
    """Model parameter a_g^(i): state g at leaf i, or at the root when i = n+1."""

    g: int
    i: int

    def __str__(self) -> str:
        return f"a_{self.g}^({self.i})"


@dataclass(frozen=True, slots=True)
class Monomial:
    """Multiset of words of a fixed length, stored in descending coordinate order."""

    n: int
    words: tuple[Word, ...]
    # ascending word values, set once; smaller key means lex-greater monomial
    key: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        values = []
        for w in self.words:
            if w.n != n:
                raise ValueError(f"word length {w.n} does not match monomial n={n}")
            values.append(w.value)
        if values != sorted(values):
            values.sort()
            object.__setattr__(
                self, "words", tuple(sorted(self.words, key=lambda w: w.value))
            )
        object.__setattr__(self, "key", tuple(values))

    @classmethod
    def of(cls, *words: Word) -> Monomial:
        if not words:
            raise ValueError("cannot infer n for an empty monomial; use Monomial(n, ())")
        return cls(words[0].n, words)

    @property
    def degree(self) -> int:
        return len(self.words)

    def __mul__(self, other: Monomial) -> Monomial:
        if other.n != self.n:
            raise ValueError(f"mixed word lengths {self.n} and {other.n}")
        return Monomial(self.n, self.words + other.words)

    def __str__(self) -> str:
        if not self.words:
            return "1"
        return "*".join(f"q_{w}" for w in self.words)


def compare_monomials_lex(m1: Monomial, m2: Monomial) -> int:
    """Sign of the lex comparison: +1 iff m1 > m2.

    For equal degrees, lex comparison equals comparison of the factor
    sequences sorted in descending variable order, which is the stored order.
    """
    if m1.n != m2.n:
        raise ValueError(f"mixed word lengths {m1.n} and {m2.n}")
    if m1.degree != m2.degree:
        raise ValueError(f"mixed degrees {m1.degree} and {m2.degree}")
    k1, k2 = m1.key, m2.key
    return (k2 > k1) - (k2 < k1)


@dataclass(frozen=True, slots=True)
class Binomial:
    """Difference of two equal-degree monomials, stored with plus lex-greater."""

    plus: Monomial
    minus: Monomial

    def __post_init__(self) -> None:
        plus, minus = self.plus, self.minus
        if plus.n != minus.n:
            raise ValueError(f"mixed word lengths {plus.n} and {minus.n}")
        if len(plus.words) != len(minus.words):
            raise ValueError(f"mixed degrees {plus.degree} and {minus.degree}")
        pk, mk = plus.key, minus.key
        if pk == mk:
            raise ValueError("zero binomial; use make_binomial for a None outcome")
        if pk > mk:
            # larger key = lex-smaller monomial; swap so plus is the lead
            object.__setattr__(self, "plus", minus)
            object.__setattr__(self, "minus", plus)

    @property
    def n(self) -> int:
        return self.plus.n

    @property
    def degree(self) -> int:
        return self.plus.degree

    def __str__(self) -> str:
        return f"{self.plus} - {self.minus}"


def make_binomial(m1: Monomial, m2: Monomial) -> Binomial | None:
    """Canonical binomial m1 - m2, or None when the sides coincide."""
    if m1.n == m2.n and m1.key == m2.key:
        return None
    return Binomial(m1, m2)


def _lead_key(b: Binomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sort key of the lead order: ascending keys put lex-greater leads first."""
    return b.plus.key, b.minus.key


_new = object.__new__
_set = object.__setattr__


def _checked_monomial(table: dict[int, Word], key: tuple[int, ...]) -> Monomial:
    """The Monomial of the words in a word table under key, which the caller
    has already checked to be nonempty and ascending."""
    if len(key) == 2:
        words = (table[key[0]], table[key[1]])
    else:
        words = tuple([table[v] for v in key])
    m = _new(Monomial)
    _set(m, "n", words[0].n)
    _set(m, "words", words)
    _set(m, "key", key)
    return m


def _checked_binomial(plus: Monomial, minus: Monomial) -> Binomial:
    """A Binomial the caller has already checked: both sides have the same
    length and degree, and plus.key < minus.key (plus is the lex-greater
    side, and the sides differ)."""
    b = _new(Binomial)
    _set(b, "plus", plus)
    _set(b, "minus", minus)
    return b


def _first_row(bad: np.ndarray) -> int:
    return int(np.flatnonzero(bad)[0])


def _check_rows(n: int, rows: np.ndarray) -> None:
    """Raise ValueError unless every row (plus_0, plus_1, minus_0, minus_1) of
    word values has each side ascending and plus the lex-greater side."""
    if not len(rows):
        return
    outside = ((rows < 0) | (rows >= 1 << n)).any(axis=1)
    if outside.any():
        raise ValueError(f"row {_first_row(outside)}: word value out of range for {n} bits")
    a, b, c, d = rows.T
    unsorted = (a > b) | (c > d)
    if unsorted.any():
        raise ValueError(f"row {_first_row(unsorted)}: a side is not in ascending word order")
    equal = (a == c) & (b == d)
    if equal.any():
        raise ValueError(f"row {_first_row(equal)}: the two sides are equal")
    reversed_ = (a > c) | ((a == c) & (b > d))
    if reversed_.any():
        raise ValueError(f"row {_first_row(reversed_)}: plus is not the lex-greater side")


def _binomials(n: int, rows: np.ndarray) -> tuple[Binomial, ...]:
    """One Binomial per (N, 4) row, in row order; one check of the whole
    array stands in for the per-object checks."""
    _check_rows(n, rows)
    words = _word_table(n)
    # minus sides repeat (G_9: 16 981 distinct among 102 315), so each is built once
    minus, which = np.unique(rows[:, 2:], axis=0, return_inverse=True)
    sides = [_checked_monomial(words, (c, d)) for c, d in minus.tolist()]
    return tuple(
        _checked_binomial(_checked_monomial(words, (a, b)), sides[k])
        for (a, b), k in zip(rows[:, :2].tolist(), which.ravel().tolist())
    )


# ---------------------------------------------------------------------------
# the parametrization map and its kernel
# ---------------------------------------------------------------------------


def param_image(w: Word) -> tuple[ParamVariable, ...]:
    """Parameters dividing the image of q_w: one per leaf plus the root."""
    leaves = tuple(ParamVariable(w.bit(i), i) for i in range(1, w.n + 1))
    return leaves + (ParamVariable(w.parity, w.n + 1),)


def param_image_monomial(m: Monomial) -> tuple[ParamVariable, ...]:
    """Multiset union of the factor images, sorted by (position, state)."""
    merged: list[ParamVariable] = []
    for w in m.words:
        merged.extend(param_image(w))
    merged.sort(key=lambda v: (v.i, v.g))
    return tuple(merged)


@lru_cache(maxsize=None)
def _image_table(n: int, width: int) -> dict[int, int]:
    # One int per word value, made on first lookup: its bit at each leaf in
    # a lane of `width` bits and its root parity in the lane above.  Summed
    # over a monomial of degree < 2^width, the lanes count the factors that
    # map to a_1 there; the a_0 counts follow from the degree.
    root = n * width

    def lanes(v: int) -> int:
        spread = sum(((v >> k) & 1) << (k * width) for k in range(n))
        return spread | ((v.bit_count() & 1) << root)

    return _Table(lanes)


def in_kernel(b: Binomial) -> bool:
    """True iff both sides have the same parameter multiset."""
    plus, minus = b.plus.key, b.minus.key
    table = _image_table(b.plus.n, len(plus).bit_length())
    if len(plus) == 2:
        return table[plus[0]] + table[plus[1]] == table[minus[0]] + table[minus[1]]
    return sum([table[v] for v in plus]) == sum([table[v] for v in minus])


def project(b: Binomial, position: int) -> Binomial | None:
    """Delete one position from every word; None when the sides collapse."""
    plus, minus = b.plus.key, b.minus.key
    n = b.plus.n
    if n < 3:
        raise ValueError(f"projection needs word length >= 3, got {n}")
    if not 1 <= position <= n:
        _check_position(position, n)
    # v without its bit at the position, as _delete_bit does
    low = (1 << (n - position)) - 1
    high = ~low
    if len(plus) == 2:  # the quadratic case, four ints
        a, c = plus
        d, e = minus
        a, c = ((a >> 1) & high) | (a & low), ((c >> 1) & high) | (c & low)
        d, e = ((d >> 1) & high) | (d & low), ((e >> 1) & high) | (e & low)
        plus = (a, c) if a <= c else (c, a)
        minus = (d, e) if d <= e else (e, d)
    else:
        plus = tuple(sorted([((v >> 1) & high) | (v & low) for v in plus]))
        minus = tuple(sorted([((v >> 1) & high) | (v & low) for v in minus]))
    if plus == minus:
        return None
    if plus > minus:
        plus, minus = minus, plus
    words = _word_table(n - 1)
    return _checked_binomial(_checked_monomial(words, plus), _checked_monomial(words, minus))
