"""Words, variables, monomial order, the parameter map, and projections."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from clawtoric.core import (
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


def w(text: str) -> Word:
    return Word.from_string(text)


def mono(*texts: str) -> Monomial:
    return Monomial.of(*(w(t) for t in texts))


def binom(plus: tuple[str, str], minus: tuple[str, str]) -> Binomial:
    return Binomial(mono(*plus), mono(*minus))


words_st = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.builds(Word, st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def test_word_string_round_trip():
    assert str(w("0110")) == "0110"
    assert w("0110").value == 6
    assert w("0110").n == 4
    assert Word(6, 4) == w("0110")


def test_word_bits_are_one_based_from_the_left():
    word = w("0110")
    assert [word.bit(i) for i in (1, 2, 3, 4)] == [0, 1, 1, 0]
    assert word.bits == (0, 1, 1, 0)
    assert Word.from_bits((0, 1, 1, 0)) == word


def test_word_validation():
    with pytest.raises(ValueError):
        Word(4, 2)
    with pytest.raises(ValueError):
        Word(0, 1)
    with pytest.raises(ValueError):
        Word.from_string("01x0")
    with pytest.raises(ValueError):
        Word.from_bits((0, 2))


def test_parity_is_bit_sum_mod_two():
    assert w("00").parity == 0
    assert w("01").parity == 1
    assert w("111").parity == 1
    assert w("1111").parity == 0


def test_insert_and_delete_examples():
    assert w("011").insert(1, 1) == w("1011")
    assert w("011").insert(4, 0) == w("0110")
    assert w("011").insert(2, 0) == w("0011")
    assert w("1011").delete(1) == w("011")
    assert w("0110").delete(4) == w("011")


@given(words_st, st.data())
def test_insert_then_delete_is_identity(word: Word, data):
    position = data.draw(st.integers(min_value=1, max_value=word.n + 1))
    bit = data.draw(st.sampled_from((0, 1)))
    grown = word.insert(position, bit)
    assert grown.n == word.n + 1
    assert grown.bit(position) == bit
    assert grown.delete(position) == word


@given(words_st)
def test_complement_is_an_involution(word: Word):
    assert word.complement().complement() == word
    assert all(a != b for a, b in zip(word.bits, word.complement().bits))


@given(words_st)
def test_complement_parity(word: Word):
    flip = word.n & 1
    assert word.complement().parity == word.parity ^ flip


# ---------------------------------------------------------------------------
# variable and monomial orders
# ---------------------------------------------------------------------------


def test_variable_order_runs_against_binary_counting():
    chain = ["000", "001", "010", "011", "100", "101", "110", "111"]
    for a, b in itertools.combinations(chain, 2):
        assert compare_words(w(a), w(b)) == 1
        assert compare_words(w(b), w(a)) == -1
    assert compare_words(w("010"), w("010")) == 0


def test_compare_words_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        compare_words(w("00"), w("000"))


def test_monomial_sorts_factors():
    m = mono("111", "000")
    assert m.key == (0, 7)
    assert str(m) == "q_000*q_111"
    assert m.degree == 2


def test_lex_comparison_examples():
    assert compare_monomials_lex(mono("000", "111"), mono("100", "011")) == 1
    assert compare_monomials_lex(mono("001", "110"), mono("000", "111")) == -1
    m = mono("010", "101")
    assert compare_monomials_lex(m, m) == 0


def test_lex_comparison_rejects_mismatches():
    with pytest.raises(ValueError):
        compare_monomials_lex(mono("00", "01"), mono("000", "010"))
    with pytest.raises(ValueError):
        compare_monomials_lex(mono("000", "010"), Monomial.of(w("000")))


def _exponent_vector(m: Monomial) -> tuple[int, ...]:
    # variables listed greatest first: q_{00..0}, q_{00..1}, ...
    counts = [0] * (1 << m.n)
    for word in m.words:
        counts[word.value] += 1
    return tuple(counts)


def test_lex_agrees_with_exponent_vector_comparison_for_all_degree_two_monomials():
    all_monomials = [
        Monomial.of(a, b)
        for a, b in itertools.combinations_with_replacement(
            [Word(v, 3) for v in range(8)], 2
        )
    ]
    for m1, m2 in itertools.combinations(all_monomials, 2):
        e1, e2 = _exponent_vector(m1), _exponent_vector(m2)
        expected = 1 if e1 > e2 else -1
        assert compare_monomials_lex(m1, m2) == expected
        assert compare_monomials_lex(m2, m1) == -expected


# ---------------------------------------------------------------------------
# binomials
# ---------------------------------------------------------------------------


def test_binomial_canonical_form_puts_the_lex_greater_side_first():
    b = Binomial(mono("011", "100"), mono("000", "111"))
    assert b.plus == mono("000", "111")
    assert b.minus == mono("011", "100")
    assert str(b) == "q_000*q_111 - q_011*q_100"


def test_binomial_rejects_equal_sides():
    with pytest.raises(ValueError):
        Binomial(mono("000", "111"), mono("111", "000"))


def test_make_binomial_returns_none_for_zero():
    assert make_binomial(mono("000", "111"), mono("111", "000")) is None
    b = make_binomial(mono("011", "100"), mono("000", "111"))
    assert b is not None and b.plus == mono("000", "111")


# ---------------------------------------------------------------------------
# the parameter map
# ---------------------------------------------------------------------------


def test_param_image_examples():
    assert param_image(w("01")) == (
        ParamVariable(0, 1),
        ParamVariable(1, 2),
        ParamVariable(1, 3),
    )
    assert param_image(w("00")) == (
        ParamVariable(0, 1),
        ParamVariable(0, 2),
        ParamVariable(0, 3),
    )
    assert param_image(w("111")) == (
        ParamVariable(1, 1),
        ParamVariable(1, 2),
        ParamVariable(1, 3),
        ParamVariable(1, 4),
    )
    assert str(ParamVariable(0, 1)) == "a_0^(1)"


def test_param_image_monomial_is_a_sorted_multiset():
    m = mono("01", "10")
    image = param_image_monomial(m)
    assert image == (
        ParamVariable(0, 1),
        ParamVariable(1, 1),
        ParamVariable(0, 2),
        ParamVariable(1, 2),
        ParamVariable(1, 3),
        ParamVariable(1, 3),
    )


def test_in_kernel_examples():
    assert in_kernel(binom(("000", "111"), ("011", "100")))
    assert in_kernel(binom(("0000", "1111"), ("0110", "1001")))
    # same leaf observations but mismatched root parities
    assert not in_kernel(binom(("000", "110"), ("010", "100")))
    # mismatched leaf observations
    assert not in_kernel(binom(("000", "111"), ("001", "100")))


@given(st.integers(min_value=2, max_value=7), st.data())
def test_kernel_membership_matches_image_multisets(n: int, data):
    values = data.draw(
        st.tuples(*(st.integers(min_value=0, max_value=(1 << n) - 1) for _ in range(4)))
    )
    a, b, c, d = (Word(v, n) for v in values)
    bi = make_binomial(Monomial.of(a, b), Monomial.of(c, d))
    if bi is None:
        return
    expected = Counter(param_image_monomial(bi.plus)) == Counter(
        param_image_monomial(bi.minus)
    )
    assert in_kernel(bi) == expected


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.data(),
)
def test_in_kernel_agrees_with_the_image_multisets_in_every_degree(
    n: int, degree: int, shuffle_columns: bool, data
):
    side = st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=degree, max_size=degree)
    plus = data.draw(side)
    if shuffle_columns:
        # permuting each leaf's column of bits across the factors keeps every
        # leaf count, so the pair is in the kernel iff the root counts agree
        columns = [data.draw(st.permutations([(v >> (n - i)) & 1 for v in plus])) for i in range(1, n + 1)]
        minus = [sum(col[k] << (n - i) for i, col in enumerate(columns, start=1)) for k in range(degree)]
    else:
        minus = data.draw(side)
    bi = make_binomial(
        Monomial(n, tuple(Word(v, n) for v in plus)), Monomial(n, tuple(Word(v, n) for v in minus))
    )
    assume(bi is not None)
    expected = param_image_monomial(bi.plus) == param_image_monomial(bi.minus)
    assert in_kernel(bi) == expected


@pytest.mark.parametrize("n,degree", [(3, 1), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_in_kernel_agrees_with_the_image_multisets_exhaustively(n, degree):
    monomials = [
        Monomial(n, tuple(Word(v, n) for v in values))
        for values in itertools.combinations_with_replacement(range(1 << n), degree)
    ]
    images = [param_image_monomial(m) for m in monomials]
    verdicts = Counter()
    for (m1, i1), (m2, i2) in itertools.combinations(zip(monomials, images), 2):
        verdict = in_kernel(Binomial(m1, m2))
        assert verdict == (i1 == i2)
        verdicts[verdict] += 1
    assert verdicts[False] > 0
    assert (verdicts[True] > 0) == (degree > 1)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_projection_worked_example():
    b = binom(("0000", "1110"), ("1000", "0110"))
    assert project(b, 4) == binom(("000", "111"), ("100", "011"))


def test_projection_can_degenerate_to_zero():
    b = binom(("000", "111"), ("001", "110"))
    assert project(b, 3) is None


def test_projection_rejects_bad_positions():
    b = binom(("000", "111"), ("011", "100"))
    with pytest.raises(ValueError):
        project(b, 0)
    with pytest.raises(ValueError):
        project(b, 4)


def test_projection_at_a_constant_leaf_stays_in_the_kernel():
    # deleting a leaf whose observation is fixed across all four words of a
    # kernel binomial produces zero or another kernel binomial
    words4 = [Word(v, 4) for v in range(16)]
    seen = 0
    for a, b in itertools.combinations(words4, 2):
        for c, d in itertools.combinations(words4, 2):
            bi = make_binomial(Monomial.of(a, b), Monomial.of(c, d))
            if bi is None or not in_kernel(bi):
                continue
            for i in range(1, 5):
                column = {word.bit(i) for m in (bi.plus, bi.minus) for word in m.words}
                if len(column) == 1:
                    seen += 1
                    image = project(bi, i)
                    assert image is None or in_kernel(image)
    assert seen > 0


def reference_projection(b: Binomial, position: int) -> Binomial | None:
    """Delete the position word by word with Word.delete, then canonicalize."""
    def shrink(m: Monomial) -> Monomial:
        return Monomial(m.n - 1, tuple(word.delete(position) for word in m.words))

    return make_binomial(shrink(b.plus), shrink(b.minus))


def same_object_value(got: Binomial | None, want: Binomial | None) -> None:
    assert got == want
    if want is not None:
        assert hash(got) == hash(want)
        assert repr(got) == repr(want) and str(got) == str(want)
        assert got.plus.key == want.plus.key and got.minus.key == want.minus.key


def test_projection_equals_word_deletion_on_every_g5_generator():
    from clawtoric.ideal import build_generators

    for b in build_generators(5).sorted_generators():
        for position in range(1, 6):
            same_object_value(project(b, position), reference_projection(b, position))


def test_projection_equals_word_deletion_on_cubic_binomials():
    rng = random.Random(5)
    seen_none = 0
    for _ in range(500):
        n = rng.randrange(3, 7)
        plus = mono(*(format(rng.randrange(1 << n), f"0{n}b") for _ in range(3)))
        minus = mono(*(format(rng.randrange(1 << n), f"0{n}b") for _ in range(3)))
        b = make_binomial(plus, minus)
        if b is None:
            continue
        for position in range(1, n + 1):
            want = reference_projection(b, position)
            seen_none += want is None
            same_object_value(project(b, position), want)
    assert seen_none > 0


def test_projection_where_both_sides_collapse():
    # the two sides differ only at leaf 3, so both shrink to q_00*q_10
    b = binom(("000", "101"), ("001", "100"))
    assert reference_projection(b, 3) is None and project(b, 3) is None
    assert project(binom(("000", "111"), ("010", "101")), 2) is None


def test_projection_rejects_short_words():
    with pytest.raises(ValueError, match="word length >= 3"):
        project(binom(("00", "11"), ("01", "10")), 1)


def test_monomial_key_is_stored_but_not_compared_or_shown():
    m = mono("111", "000", "011")
    assert m.key == (0, 3, 7)
    assert repr(m) == f"Monomial(n=3, words={m.words!r})"
    assert m == Monomial(3, (w("000"), w("011"), w("111")))
    assert hash(m) == hash(Monomial(3, (w("011"), w("111"), w("000"))))
    with pytest.raises(TypeError):
        Monomial(3, (w("000"),), key=(0,))


# ---------------------------------------------------------------------------
# one word table, filled on demand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7])
def test_every_construction_hands_out_the_same_word_objects(n):
    from clawtoric.ideal import build_generators
    from clawtoric.lattice import build_lattice_basis, lattice_binomials
    from clawtoric.matrix import build_matrix

    words = build_matrix(n).col_labels
    basis = build_lattice_basis(n)
    assert all(a is b for a, b in zip(basis.col_labels, words, strict=True))
    for b in build_generators(n).sorted_generators() + lattice_binomials(basis):
        for word in b.plus.words + b.minus.words:
            assert word is words[word.value]


def test_one_binomial_at_twenty_leaves_fills_only_its_own_words():
    from clawtoric import core

    n = 20
    b = Binomial(
        Monomial(n, (Word(0, n), Word(7, n))), Monomial(n, (Word(3, n), Word(4, n)))
    )
    assert in_kernel(b)
    shadow = project(b, 1)
    assert shadow == reference_projection(b, 1)
    assert set(core._image_table(n, 2)) <= {0, 3, 4, 7}
    assert set(core._word_table(n - 1)) <= {0, 3, 4, 7}


def reference_s_polynomial(b1: Binomial, b2: Binomial) -> Binomial | None:
    """trail_1 * lcm/lead_1 - trail_2 * lcm/lead_2, word by word."""
    lead1, lead2 = Counter(b1.plus.words), Counter(b2.plus.words)
    lcm = lead1 | lead2
    side1 = Counter(b1.minus.words) + (lcm - lead1)
    side2 = Counter(b2.minus.words) + (lcm - lead2)
    return make_binomial(
        Monomial(b1.n, tuple(side1.elements())), Monomial(b1.n, tuple(side2.elements()))
    )


def reference_normal_form(b: Binomial, basis: list[Binomial]) -> Binomial | None:
    """Rewrite the lead by the first basis element in lead order that divides it."""
    ordered = sorted(basis, key=lambda g: (g.plus.key, g.minus.key))
    current: Binomial | None = b
    while current is not None:
        lead = Counter(current.plus.words)
        divisor = next(
            (g for g in ordered if not Counter(g.plus.words) - lead), None
        )
        if divisor is None:
            return current
        rest = lead - Counter(divisor.plus.words)
        replaced = Monomial(b.n, divisor.minus.words + tuple(rest.elements()))
        current = make_binomial(replaced, current.minus)
    return None


def test_forty_leaves_answer_as_the_word_by_word_references():
    from clawtoric.groebner import normal_form, s_polynomial
    from clawtoric.ideal import build_generators

    n = 40
    rng = random.Random(40)
    prefix = rng.getrandbits(n - 4) << 4
    # G_4 with the same 36 leaves fixed in front of every word
    basis = [
        Binomial(
            Monomial(n, tuple(Word(prefix | x.value, n) for x in g.plus.words)),
            Monomial(n, tuple(Word(prefix | x.value, n) for x in g.minus.words)),
        )
        for g in build_generators(4).sorted_generators()
    ]
    pool = sorted({x for g in basis for x in g.plus.words + g.minus.words}, key=lambda x: x.value)
    queries: list[Binomial] = []
    while len(queries) < 200:
        degree = 2 + len(queries) % 2
        picks = pool if len(queries) % 4 < 2 else [Word(rng.getrandbits(n), n) for _ in range(8)]
        b = make_binomial(
            Monomial(n, tuple(rng.choices(picks, k=degree))),
            Monomial(n, tuple(rng.choices(picks, k=degree))),
        )
        if b is not None:
            queries.append(b)
    kernel = zero = 0
    for b in basis + queries:
        want = param_image_monomial(b.plus) == param_image_monomial(b.minus)
        assert in_kernel(b) == want
        kernel += want
        position = rng.randrange(1, n + 1)
        same_object_value(project(b, position), reference_projection(b, position))
    for b1, b2 in zip(basis + queries, rng.sample(basis + queries, len(basis + queries))):
        assert s_polynomial(b1, b2) == reference_s_polynomial(b1, b2)
    for b in queries:
        want = reference_normal_form(b, basis)
        assert normal_form(b, basis)[0] == want
        zero += want is None
    assert kernel > len(basis) and 0 < zero < len(queries)
