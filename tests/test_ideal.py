"""The quadratic generating set: base case, lifting, and the
complementary construction."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clawtoric import ideal
from clawtoric.cli import sorted_group
from clawtoric.core import Binomial, Monomial, Word, in_kernel
from clawtoric.ideal import (
    GeneratorSet,
    base_generators,
    build_generators,
    complementary_count,
    complementary_generators,
    fixed_leaf_count,
    fixed_positions,
    generator_count,
    is_fully_complementary,
    lift_fixed_leaf,
)


def binom(text: str) -> Binomial:
    plus_text, minus_text = text.split(" - ")
    def side(t: str) -> Monomial:
        return Monomial.of(*(Word.from_string(f[2:]) for f in t.split("*")))
    return Binomial(side(plus_text), side(minus_text))


G3 = {
    "q_000*q_111 - q_011*q_100",
    "q_001*q_110 - q_011*q_100",
    "q_010*q_101 - q_011*q_100",
}

G4_FIXED = {
    # leaf 1 fixed at 0
    "q_0000*q_0111 - q_0100*q_0011",
    "q_0001*q_0110 - q_0100*q_0011",
    "q_0010*q_0101 - q_0100*q_0011",
    # leaf 2 fixed at 0
    "q_0000*q_1011 - q_1000*q_0011",
    "q_0001*q_1010 - q_1000*q_0011",
    "q_0010*q_1001 - q_1000*q_0011",
    # leaf 3 fixed at 0
    "q_0000*q_1101 - q_1000*q_0101",
    "q_0001*q_1100 - q_1000*q_0101",
    "q_0100*q_1001 - q_1000*q_0101",
    # leaf 4 fixed at 0
    "q_0000*q_1110 - q_1000*q_0110",
    "q_0010*q_1100 - q_1000*q_0110",
    "q_0100*q_1010 - q_1000*q_0110",
    # leaf 1 fixed at 1
    "q_1000*q_1111 - q_1100*q_1011",
    "q_1001*q_1110 - q_1100*q_1011",
    "q_1010*q_1101 - q_1100*q_1011",
    # leaf 2 fixed at 1
    "q_0100*q_1111 - q_1100*q_0111",
    "q_0101*q_1110 - q_1100*q_0111",
    "q_0110*q_1101 - q_1100*q_0111",
    # leaf 3 fixed at 1
    "q_0010*q_1111 - q_1010*q_0111",
    "q_0011*q_1110 - q_1010*q_0111",
    "q_0110*q_1011 - q_1010*q_0111",
    # leaf 4 fixed at 1
    "q_0001*q_1111 - q_1001*q_0111",
    "q_0011*q_1101 - q_1001*q_0111",
    "q_0101*q_1011 - q_1001*q_0111",
}

G4_COMPLEMENTARY = {
    "q_0000*q_1111 - q_1001*q_0110",
    "q_0001*q_1110 - q_1000*q_0111",
    "q_0011*q_1100 - q_1001*q_0110",
    "q_0010*q_1101 - q_1000*q_0111",
    "q_0101*q_1010 - q_1001*q_0110",
    "q_0100*q_1011 - q_1000*q_0111",
}


def test_base_generators_golden():
    base = base_generators()
    assert base.n == 3
    assert len(base) == 3
    assert not base.fixed_leaf
    assert base.complementary == frozenset(binom(t) for t in G3)


def test_g4_golden():
    gens = build_generators(4)
    assert len(gens) == 30
    assert gens.fixed_leaf == frozenset(binom(t) for t in G4_FIXED)
    assert gens.complementary == frozenset(binom(t) for t in G4_COMPLEMENTARY)


def test_totals_by_leaf_count():
    assert [len(build_generators(n)) for n in range(3, 9)] == [
        3,
        30,
        195,
        1050,
        5103,
        23310,
    ]


@pytest.mark.parametrize("n", range(3, 11))
def test_closed_forms_match_the_build(n):
    gens = build_generators(n)
    assert len(gens) == generator_count(n)
    assert len(gens.fixed_rows) == fixed_leaf_count(n)
    assert len(gens.complementary_rows) == complementary_count(n)


def test_closed_forms_at_nine_leaves():
    assert (generator_count(9), fixed_leaf_count(9)) == (102_315, 102_060)


def test_group_counts_add_up_to_the_total():
    for n in range(3, 40):
        assert fixed_leaf_count(n) + complementary_count(n) == generator_count(n)


def test_rows_are_in_lead_order():
    for n in range(3, 8):
        gens = build_generators(n)
        assert list(gens.sorted_generators()) == (
            sorted_group(gens.fixed_leaf) + sorted_group(gens.complementary)
        )
        assert not gens.fixed_rows.flags.writeable


def test_complementary_count_formula():
    for n in range(4, 13):
        assert complementary_count(n) == (1 << (n - 1)) - 2 + (n % 2)
        assert len(complementary_generators(n)) == complementary_count(n)
    assert len(build_generators(3).complementary) == 3


def test_bounds():
    with pytest.raises(ValueError):
        build_generators(2)
    with pytest.raises(ValueError):
        build_generators(9, cap=8)
    with pytest.raises(ValueError):
        complementary_generators(3)


def test_every_generator_is_in_the_kernel():
    for n in range(3, 8):
        assert all(in_kernel(b) for b in build_generators(n))


def test_iteration_is_deterministic():
    gens = build_generators(5)
    assert list(gens) == list(build_generators(5))
    assert gens.sorted_generators() == tuple(gens)
    assert len(set(gens)) == len(gens)


# ---------------------------------------------------------------------------
# the fixed-leaf lift
# ---------------------------------------------------------------------------


def test_lifting_the_base_gives_the_printed_fixed_leaf_set():
    assert lift_fixed_leaf(base_generators()) == frozenset(binom(t) for t in G4_FIXED)


def test_lift_preimage_examples():
    lifted = build_generators(5).fixed_leaf
    q = "q_0000*q_1111 - q_1001*q_0110"
    assert binom(q) in build_generators(4).complementary
    # insertions at position 1
    assert binom("q_00000*q_01111 - q_01001*q_00110") in lifted
    assert binom("q_10000*q_11111 - q_11001*q_10110") in lifted
    # insertions at position 2
    assert binom("q_00000*q_10111 - q_10001*q_00110") in lifted
    assert binom("q_01000*q_11111 - q_11001*q_01110") in lifted


def test_lift_deduplicates_repeated_insertions():
    # 195 at n=5 means 300 raw insertions collapse to 180 distinct binomials
    gens = build_generators(5)
    assert len(gens.fixed_leaf) == 180
    assert len(gens.complementary) == 15


def test_every_lifted_generator_has_a_fixed_position():
    for b in build_generators(5).fixed_leaf:
        positions = fixed_positions(b)
        assert positions
        assert not is_fully_complementary(b)


def object_lift(lower: GeneratorSet) -> frozenset[Binomial]:
    """The lift written out word by word with Word.insert."""
    out = set()
    for b in lower:
        for i in range(1, lower.n + 2):
            for j in (0, 1):
                plus, minus = (
                    Monomial(lower.n + 1, tuple(w.insert(i, j) for w in m.words))
                    for m in (b.plus, b.minus)
                )
                out.add(Binomial(plus, minus))
    return frozenset(out)


@pytest.mark.parametrize("n", range(4, 9))
def test_packed_lift_equals_the_object_level_lift(n):
    expected = object_lift(build_generators(n - 1))
    assert lift_fixed_leaf(build_generators(n - 1)) == expected
    assert build_generators(n).fixed_leaf == expected


def random_rows(m: int, count: int, seed: int) -> list[tuple[int, int, int, int]]:
    """Canonical rows of m-bit words, most of them using the top bit."""
    rng = random.Random(seed)
    top = 1 << (m - 1)
    rows = set()
    while len(rows) < count:
        values = [rng.randrange(1 << m) | (top if rng.random() < 0.8 else 0) for _ in range(4)]
        plus, minus = tuple(sorted(values[:2])), tuple(sorted(values[2:]))
        if plus != minus:
            rows.add(min(plus, minus) + max(plus, minus))
    return sorted(rows)


@pytest.mark.parametrize("m", [14, 15])
def test_lift_is_exact_for_words_using_the_top_bit(m):
    # the spliced words of the lifted level use bit 14 or 15, so four of them
    # would not fit one 64-bit key; the rows must stay exact as they are
    rows = np.array(random_rows(m, 60, seed=m), dtype=np.int64)
    lower = GeneratorSet(m, rows, np.empty((0, 4), dtype=np.int64))
    expected = object_lift(lower)
    assert lift_fixed_leaf(lower) == expected
    assert [tuple(r) for r in ideal._lift_rows(lower).tolist()] == sorted(
        b.plus.key + b.minus.key for b in expected
    )
    # a row whose words agree at leaves 1 and 2 lifts to one row twice
    assert len(expected) < 2 * (m + 1) * len(rows)


@pytest.mark.parametrize("n", [15, 16])
def test_sorted_unique_rows_match_python_sorting(n):
    rows = random_rows(n, 200, seed=n)
    doubled = np.array(rows + rows[::3], dtype=np.int64)
    got = ideal._sorted_unique_rows(doubled[::-1])
    assert [tuple(r) for r in got.tolist()] == rows


def test_generator_set_is_an_immutable_value():
    fixed = np.array([(0b0000, 0b1111, 0b0011, 0b1100)], dtype=np.int64)
    comp = np.empty((0, 4), dtype=np.int64)
    a = GeneratorSet(4, fixed, comp)
    b = GeneratorSet(4, fixed.copy(), comp.copy())
    assert a == b and hash(a) == hash(b)
    assert a != GeneratorSet(4, comp, fixed)
    # the caller's arrays are copied, not frozen in place
    assert fixed.flags.writeable
    fixed[0, 0] = 0b0001
    assert a.fixed_rows[0, 0] == 0b0000
    assert not a.fixed_rows.flags.writeable
    with pytest.raises(AttributeError):
        a.n = 5
    assert build_generators(5) == GeneratorSet(
        5, build_generators(5).fixed_rows, build_generators(5).complementary_rows
    )


@given(st.data())
def test_lift_inserts_one_common_bit(data):
    gens = sorted(build_generators(4), key=lambda b: (b.plus.key, b.minus.key))
    b = data.draw(st.sampled_from(gens))
    i = data.draw(st.integers(min_value=1, max_value=5))
    j = data.draw(st.sampled_from((0, 1)))
    words = [w.insert(i, j) for m in (b.plus, b.minus) for w in m.words]
    lifted = Binomial(Monomial.of(*words[:2]), Monomial.of(*words[2:]))
    assert in_kernel(lifted)
    assert i in fixed_positions(lifted)
    assert lifted in build_generators(5).fixed_leaf


# ---------------------------------------------------------------------------
# the complementary construction
# ---------------------------------------------------------------------------


def test_first_complementary_generator_for_odd_leaf_count():
    assert binom("q_00000*q_11111 - q_01111*q_10000") in build_generators(5).complementary


def test_odd_leaf_count_shares_one_trailing_monomial():
    shared = Monomial.of(Word.from_string("01111"), Word.from_string("10000"))
    for b in complementary_generators(5):
        assert b.minus == shared


def test_even_leaf_count_splits_trailing_monomials_by_root_parity():
    low = Monomial.of(Word.from_string("011111"), Word.from_string("100000"))
    high = Monomial.of(Word.from_string("011110"), Word.from_string("100001"))
    for b in complementary_generators(6):
        lead_parity = b.plus.words[0].parity
        assert b.minus == (low if lead_parity == 1 else high)
        # parities of the two sides agree, keeping the binomial in the kernel
        assert {w.parity for w in b.plus.words} == {w.parity for w in b.minus.words}


def test_complementary_generators_are_fully_complementary_kernel_binomials():
    for n in (4, 5, 6, 7):
        for b in complementary_generators(n):
            assert is_fully_complementary(b)
            assert fixed_positions(b) == ()
            assert in_kernel(b)


def test_leading_monomials_are_distinct_within_the_complementary_group():
    for n in (4, 5, 6):
        group = complementary_generators(n)
        assert len({b.plus for b in group}) == len(group)


def test_fixed_positions_examples():
    assert fixed_positions(binom("q_0000*q_0111 - q_0100*q_0011")) == (1,)
    assert fixed_positions(binom("q_00000*q_00111 - q_00011*q_00100")) == (1, 2)
    assert fixed_positions(binom("q_0000*q_1111 - q_1001*q_0110")) == ()
    assert is_fully_complementary(binom("q_0000*q_1111 - q_1001*q_0110"))
    assert not is_fully_complementary(binom("q_0000*q_0111 - q_0100*q_0011"))


# ---------------------------------------------------------------------------
# generator objects built from checked rows
# ---------------------------------------------------------------------------


def public_binomial(n: int, row) -> Binomial:
    a, b, c, d = (Word(v, n) for v in row)
    return Binomial(Monomial(n, (a, b)), Monomial(n, (c, d)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_objects_from_rows_equal_the_public_constructors(n):
    gens = build_generators(n)
    rows = np.concatenate([gens.fixed_rows, gens.complementary_rows])
    built = gens.sorted_generators()
    assert len(built) == len(rows)
    for b, row in zip(built, rows.tolist()):
        want = public_binomial(n, row)
        assert b == want and hash(b) == hash(want)
        assert repr(b) == repr(want) and str(b) == str(want)
        assert (b.plus.key, b.minus.key) == (want.plus.key, want.minus.key)
        assert all(w.n == n for m in (b.plus, b.minus) for w in m.words)
        assert b.degree == 2 and b.n == n


@pytest.mark.parametrize(
    "row, message",
    [
        ((0, 7, 3, 8), "out of range"),
        ((-1, 7, 3, 4), "out of range"),
        ((7, 0, 3, 4), "ascending"),
        ((0, 7, 4, 3), "ascending"),
        ((3, 4, 0, 7), "lex-greater"),
        ((0, 7, 0, 5), "lex-greater"),
        ((0, 7, 0, 7), "equal"),
    ],
)
def test_rows_that_are_not_canonical_binomials_are_refused(row, message):
    good = [(0, 7, 3, 4), (1, 6, 3, 4)]
    rows = np.array(good + [row], dtype=np.int64)
    with pytest.raises(ValueError, match=f"row 2: .*{message}"):
        ideal._binomials(3, rows)
    # the public constructors refuse or rewrite the same rows
    a, b, c, d = row
    if all(0 <= v < 8 for v in row):
        if (a, b) == (c, d):
            with pytest.raises(ValueError):
                public_binomial(3, row)
        else:
            built = public_binomial(3, row)
            assert (*built.plus.key, *built.minus.key) != row
    with pytest.raises(ValueError):
        GeneratorSet(3, np.empty((0, 4), dtype=np.int64), rows).complementary
    assert len(ideal._binomials(3, np.array(good, dtype=np.int64))) == 2
    assert ideal._binomials(3, np.empty((0, 4), dtype=np.int64)) == ()
