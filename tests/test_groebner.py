"""Division, S-polynomials, and the Buchberger verifier."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from clawtoric import groebner
from clawtoric.core import (
    Binomial,
    Monomial,
    Word,
    compare_monomials_lex,
    in_kernel,
)
from clawtoric.groebner import (
    BinomialReducer,
    PairOutcome,
    ReductionTrace,
    in_ideal,
    is_groebner,
    leading_monomial,
    normal_form,
    s_polynomial,
    verify_groebner,
)
from clawtoric.ideal import build_generators
from clawtoric.lattice import build_lattice_basis, lattice_binomials
from clawtoric.oracle import enumerate_quadratic_kernel, kernel_fibers


def binom(text: str) -> Binomial:
    plus_text, minus_text = text.split(" - ")
    def side(t: str) -> Monomial:
        return Monomial.of(*(Word.from_string(f[2:]) for f in t.split("*")))
    return Binomial(side(plus_text), side(minus_text))


def test_leading_monomial_is_the_canonical_plus_side():
    b = binom("q_0000*q_1111 - q_1001*q_0110")
    assert leading_monomial(b) == Monomial.of(Word(0, 4), Word(15, 4))


# ---------------------------------------------------------------------------
# S-polynomials
# ---------------------------------------------------------------------------


def test_s_polynomial_worked_example():
    f = binom("q_0000*q_0111 - q_0100*q_0011")
    g = binom("q_0000*q_1011 - q_1000*q_0011")
    s = s_polynomial(f, g)
    assert s == binom("q_0011*q_0100*q_1011 - q_0011*q_0111*q_1000")
    assert in_kernel(s)


def test_s_polynomial_of_an_element_with_itself_is_zero():
    f = binom("q_0000*q_0111 - q_0100*q_0011")
    assert s_polynomial(f, f) is None


def test_s_polynomial_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        s_polynomial(binom("q_000*q_111 - q_011*q_100"),
                     binom("q_0000*q_1111 - q_1001*q_0110"))


def test_s_polynomial_with_coprime_leads_multiplies_out():
    f = binom("q_0011*q_1100 - q_1001*q_0110")
    g = binom("q_0000*q_1111 - q_1001*q_0110")
    s = s_polynomial(f, g)
    assert s is not None
    assert s.degree == 4
    assert in_kernel(s)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_self_reduction_is_zero():
    g = binom("q_0000*q_0111 - q_0100*q_0011")
    final, trace = normal_form(g, [g])
    assert final is None
    assert trace.replay() is None
    assert len(trace.steps) == 1


def test_lattice_generator_reduces_to_zero_against_the_generating_set():
    g4 = build_generators(4).sorted_generators()
    final, trace = normal_form(binom("q_0010*q_0101 - q_0011*q_0100"), g4)
    assert final is None
    assert trace.replay() is None


def test_non_kernel_binomial_has_a_nonzero_normal_form():
    g3 = build_generators(3).sorted_generators()
    b = binom("q_000*q_110 - q_010*q_100")
    assert not in_kernel(b)
    final, trace = normal_form(b, g3)
    assert final is not None
    assert trace.replay() == final
    assert not in_ideal(b, g3)


def test_every_lattice_binomial_lies_in_the_generated_ideal():
    for n in (3, 4, 5, 6):
        reducer = BinomialReducer(build_generators(n).sorted_generators())
        for b in lattice_binomials(build_lattice_basis(n)):
            assert reducer.in_ideal(b)


def test_reducer_validates_inputs():
    with pytest.raises(ValueError):
        BinomialReducer(
            [binom("q_000*q_111 - q_011*q_100"), binom("q_0000*q_1111 - q_1001*q_0110")]
        )
    cubic = Binomial(
        Monomial.of(Word(0, 3), Word(7, 3), Word(7, 3)),
        Monomial.of(Word(3, 3), Word(4, 3), Word(7, 3)),
    )
    with pytest.raises(ValueError):
        BinomialReducer([cubic])
    reducer = BinomialReducer(build_generators(3).sorted_generators())
    with pytest.raises(ValueError):
        reducer.normal_form(binom("q_0000*q_1111 - q_1001*q_0110"))


def test_trace_replay_rejects_tampering():
    g = binom("q_0000*q_0111 - q_0100*q_0011")
    other = binom("q_0000*q_1011 - q_1000*q_0011")
    _, trace = normal_form(g, [g])
    bad = ReductionTrace(start=other, steps=trace.steps, final=None)
    with pytest.raises(ValueError):
        bad.replay()


def test_each_step_rewrites_the_current_lead_with_a_smaller_monomial():
    reducer = BinomialReducer(build_generators(4).sorted_generators())
    for b in enumerate_quadratic_kernel(4):
        final, trace = reducer.normal_form_with_trace(b)
        assert final is None
        current = b
        for divisor, multiplier in trace.steps[:-1]:
            assert (divisor.plus * multiplier).key == current.plus.key
            replacement = divisor.minus * multiplier
            assert compare_monomials_lex(replacement, current.plus) == -1
            current = Binomial(
                *sorted((replacement, current.minus), key=lambda m: m.key)
            )


# ---------------------------------------------------------------------------
# the Buchberger check
# ---------------------------------------------------------------------------


def test_base_set_is_groebner():
    cert = verify_groebner(build_generators(3).sorted_generators(), strict=True)
    assert cert.is_groebner
    assert cert.pairs_total == 3
    assert cert.reduced + cert.spoly_zero == 3


def test_four_leaf_set_is_groebner_strict():
    cert = verify_groebner(build_generators(4).sorted_generators(), strict=True)
    assert cert.is_groebner
    assert cert.pairs_total == 435
    assert not cert.failures


def test_five_leaf_set_is_not_groebner():
    # the lift construction stops being a Groebner basis at five leaves:
    # this S-pair reduces to a nonzero normal form
    f = binom("q_00000*q_00111 - q_00011*q_00100")
    g = binom("q_00000*q_11011 - q_01010*q_10001")
    gens = build_generators(5)
    assert f in set(gens) and g in set(gens)
    reducer = BinomialReducer(gens.sorted_generators())
    s = s_polynomial(f, g)
    remainder = reducer.normal_form(s)
    assert remainder == binom("q_00011*q_01111*q_10000 - q_00111*q_01010*q_10001")
    assert in_kernel(remainder)
    # the remainder is fully reduced: no quadratic kernel binomial can
    # rewrite either side, so no quadratic basis resolves this pair
    assert reducer.normal_form(remainder) == remainder
    assert not is_groebner(gens.sorted_generators(), strict=True)


def test_no_quadratic_lead_divides_the_five_leaf_obstruction():
    # the leads of the degree-2 part of the ideal are exactly the leads of its
    # quadratic kernel binomials, and a quadratic lead divides a cubic
    # monomial exactly when its word pair lies in the cubic's word triple;
    # none does, so no quadratic set is a lex Groebner basis at n = 5
    r = binom("q_00011*q_01111*q_10000 - q_00111*q_01010*q_10001")
    assert in_kernel(r)
    leads = {b.plus.key for b in enumerate_quadratic_kernel(5)}
    assert len(leads) == 195
    inside = {pair for side in (r.plus, r.minus) for pair in combinations(side.key, 2)}
    assert len(inside) == 6
    assert not inside & leads


def test_two_element_basis_with_a_stuck_pair_is_reported():
    f = binom("q_00000*q_00111 - q_00011*q_00100")
    g = binom("q_00000*q_11011 - q_01010*q_10001")
    cert = verify_groebner([f, g], strict=True)
    assert not cert.is_groebner
    assert cert.pairs_total == 1
    assert len(cert.failures) == 1
    assert cert.failures[0].rule == "stuck"


def test_strict_and_skip_rule_modes_agree_on_the_verdict():
    for n, expected in ((3, True), (4, True), (5, False)):
        basis = build_generators(n).sorted_generators()
        assert verify_groebner(basis, strict=True).is_groebner is expected
        assert verify_groebner(basis).is_groebner is expected


def test_certificate_bookkeeping_is_complete():
    basis = build_generators(4).sorted_generators()
    cert = verify_groebner(basis, strict=True, record_pairs=True)
    assert cert.size == 30
    assert cert.strict
    assert len(cert.pairs) == cert.pairs_total == 435
    assert cert.reduced + cert.spoly_zero + len(cert.failures) == cert.pairs_total
    assert cert.skipped_coprime == cert.skipped_shared_trailing == 0
    loose = verify_groebner(basis, record_pairs=True)
    assert not loose.strict
    assert loose.is_groebner
    assert (
        loose.reduced
        + loose.spoly_zero
        + loose.skipped_coprime
        + loose.skipped_shared_trailing
        + len(loose.failures)
        == loose.pairs_total
    )


def test_removing_a_generator_shrinks_the_ideal():
    g4 = set(build_generators(4))
    target = binom("q_0000*q_1111 - q_1001*q_0110")
    rest = sorted(g4 - {target}, key=lambda b: (b.plus.key, b.minus.key))
    assert in_ideal(target, build_generators(4).sorted_generators())
    assert not in_ideal(target, rest)


def test_distinct_leads_match_the_fiber_census():
    # within a fiber of m monomials, the m-1 non-minimal ones are exactly
    # the leads that occur among its kernel binomials
    for n in (3, 4):
        fibers = [group for group in kernel_fibers(n).values() if len(group) > 1]
        expected = sum(len(group) - 1 for group in fibers)
        leads = {b.plus for b in enumerate_quadratic_kernel(n)}
        assert len(leads) == expected
        minima = {max(group, key=lambda m: m.key) for group in fibers}
        assert leads.isdisjoint(minima)


# ---------------------------------------------------------------------------
# the batched pair scan against the scalar engine
# ---------------------------------------------------------------------------


def scalar_pair_outcomes(basis, strict: bool) -> list[tuple[int, int, str, int]]:
    """(i, j, rule, steps) of every S-pair, from s_polynomial and the scalar reducer."""
    reducer = BinomialReducer(basis)
    elements = reducer.elements
    out = []
    for i, f in enumerate(elements):
        for j in range(i + 1, len(elements)):
            g = elements[j]
            if not strict and not set(f.plus.key) & set(g.plus.key):
                out.append((i, j, "coprime-skip", 0))
                continue
            s = s_polynomial(f, g)
            if s is None:
                out.append((i, j, "spoly-zero", 0))
                continue
            final, trace = reducer.normal_form_with_trace(s)
            out.append((i, j, "reduced" if final is None else "stuck", len(trace.steps)))
    return out


def outcomes(cert) -> list[tuple[int, int, str, int]]:
    return [(p.i, p.j, p.rule, p.steps) for p in cert.pairs]


@pytest.mark.parametrize(
    "n, strict",
    [(3, True), (3, False), (4, True), (4, False), (5, True), (5, False), (6, False)],
)
def test_every_pair_matches_the_scalar_engine(n, strict):
    basis = build_generators(n).sorted_generators()
    cert = verify_groebner(basis, strict=strict, record_pairs=True)
    expected = scalar_pair_outcomes(basis, strict)
    assert outcomes(cert) == expected
    assert list(cert.failures) == [p for p in cert.pairs if p.rule == "stuck"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_default_mode_is_strict_mode_minus_the_coprime_pairs(n):
    basis = build_generators(n).sorted_generators()
    leads = [set(b.plus.key) for b in BinomialReducer(basis).elements]
    strict = verify_groebner(basis, strict=True, record_pairs=True)
    fast = verify_groebner(basis, record_pairs=True)
    expected = [
        p if leads[p.i] & leads[p.j] else PairOutcome(p.i, p.j, "coprime-skip", 0)
        for p in strict.pairs
    ]
    assert list(fast.pairs) == expected
    assert list(fast.failures) == [p for p in strict.failures if leads[p.i] & leads[p.j]]
    assert fast.is_groebner is strict.is_groebner
    assert fast.skipped_shared_trailing == 0


@pytest.mark.parametrize(
    "n, counts",
    [
        # pairs, coprime skipped, reduced, s-polynomial zero, stuck, max steps
        (5, (18_915, 16_593, 2_087, 0, 235, 7)),
        (6, (550_725, 516_189, 31_246, 0, 3_290, 11)),
    ],
)
def test_default_mode_certificate_is_pinned(n, counts):
    cert = verify_groebner(build_generators(n).sorted_generators())
    assert (
        cert.pairs_total, cert.skipped_coprime, cert.reduced, cert.spoly_zero,
        len(cert.failures), cert.max_steps,
    ) == counts
    assert cert.skipped_shared_trailing == 0


def test_strict_six_leaf_certificate_is_pinned():
    cert = verify_groebner(build_generators(6).sorted_generators(), strict=True)
    counts = (cert.pairs_total, cert.reduced, cert.spoly_zero, len(cert.failures), cert.max_steps)
    assert counts == (550_725, 508_849, 0, 41_876, 20)
    assert cert.skipped_coprime == cert.skipped_shared_trailing == 0


def test_strict_five_leaf_certificate_is_pinned():
    cert = verify_groebner(build_generators(5).sorted_generators(), strict=True)
    assert (len(cert.failures), cert.pairs_total) == (1_598, 18_915)


@pytest.mark.parametrize("n, strict", [(4, True), (5, True), (5, False), (6, True), (6, False)])
def test_step_histogram_counts_the_reduced_and_stuck_pairs(n, strict):
    cert = verify_groebner(build_generators(n).sorted_generators(), strict=strict)
    assert sum(cert.step_histogram) == cert.reduced + len(cert.failures)
    assert len(cert.step_histogram) - 1 == cert.max_steps
    assert cert.step_histogram[-1] > 0


def test_step_histogram_matches_the_recorded_steps():
    cert = verify_groebner(build_generators(5).sorted_generators(), strict=True, record_pairs=True)
    counted = [0] * (cert.max_steps + 1)
    for p in cert.pairs:
        if p.rule in ("reduced", "stuck"):
            counted[p.steps] += 1
    assert cert.step_histogram == tuple(counted)


def test_empty_and_one_element_bases_have_no_pairs():
    for basis in ([], [binom("q_000*q_111 - q_011*q_100")]):
        cert = verify_groebner(basis, strict=True, record_pairs=True)
        assert cert.pairs_total == 0
        assert cert.pairs == cert.failures == cert.step_histogram == ()
        assert cert.is_groebner and cert.max_steps == 0


def test_equal_leads_reduce_by_the_lowest_index_divisor():
    basis = [
        binom("q_000*q_111 - q_001*q_110"),
        binom("q_000*q_111 - q_010*q_101"),
        binom("q_001*q_110 - q_010*q_101"),
        binom("q_001*q_110 - q_011*q_100"),
    ]
    assert BinomialReducer(basis).elements == tuple(basis)
    for strict in (True, False):
        cert = verify_groebner(basis, strict=strict, record_pairs=True)
        assert outcomes(cert) == scalar_pair_outcomes(basis, strict)
    by_pair = {(p.i, p.j): p for p in verify_groebner(basis, strict=True, record_pairs=True).pairs}
    # equal leads: S(0, 1) = q_001*q_110 - q_010*q_101 has degree 2.  Both 2
    # and 3 divide its lead; 2, the lower index, reduces it to zero in one
    # step, where 3 would leave q_010*q_101 - q_011*q_100 stuck.
    assert (by_pair[(0, 1)].rule, by_pair[(0, 1)].steps) == ("reduced", 1)
    assert (by_pair[(2, 3)].rule, by_pair[(2, 3)].steps) == ("stuck", 0)


def test_two_elements_at_sixteen_leaves_finish_at_once():
    f = binom("q_0000000000000000*q_0000000000000111 - q_0000000000000011*q_0000000000000100")
    g = binom("q_0000000000000000*q_1111111111111011 - q_0101010101010101*q_1010101010101010")
    cert = verify_groebner([f, g], strict=True, record_pairs=True)
    assert cert.n == 16 and cert.pairs_total == 1
    assert outcomes(cert) == scalar_pair_outcomes([f, g], True)


def test_verify_rejects_mixed_lengths_and_cubic_elements():
    with pytest.raises(ValueError):
        verify_groebner(
            [binom("q_000*q_111 - q_011*q_100"), binom("q_0000*q_1111 - q_1001*q_0110")]
        )
    cubic = Binomial(
        Monomial.of(Word(0, 3), Word(7, 3), Word(7, 3)),
        Monomial.of(Word(3, 3), Word(4, 3), Word(7, 3)),
    )
    with pytest.raises(ValueError):
        verify_groebner([binom("q_000*q_111 - q_011*q_100"), cubic], strict=True)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("strict", [True, False])
def test_chunk_boundaries_do_not_change_the_certificate(monkeypatch, n, strict):
    basis = build_generators(n).sorted_generators()
    default = verify_groebner(basis, strict=strict, record_pairs=True)
    monkeypatch.setattr(groebner, "_CHUNK_PAIRS", 7)
    batches = []
    reduce = groebner._PairScan.reduce

    def spy(self, plus, minus, rule, steps):
        batches.append(plus.shape[1])
        return reduce(self, plus, minus, rule, steps)

    monkeypatch.setattr(groebner._PairScan, "reduce", spy)
    assert verify_groebner(basis, strict=strict, record_pairs=True) == default
    # S-polynomials are reduced in batches of under two chunks, never all at once
    skipped = default.skipped_coprime + default.skipped_shared_trailing
    assert sum(batches) == default.pairs_total - skipped
    assert max(batches) < 2 * 7


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("strict", [True, False])
def test_binary_search_lookup_matches_the_dense_table(monkeypatch, n, strict):
    basis = build_generators(n).sorted_generators()
    default = verify_groebner(basis, strict=strict, record_pairs=True)
    # no slack: the 4^n cells of G_n exceed four per element, so the scan searches
    monkeypatch.setattr(groebner, "_TABLE_SLACK", 0)
    assert groebner._PairScan(BinomialReducer(basis), strict, False).table is None
    assert verify_groebner(basis, strict=strict, record_pairs=True) == default


# ---------------------------------------------------------------------------
# the lead-word index of the pair scan
# ---------------------------------------------------------------------------


def test_default_seven_leaf_certificate_is_pinned():
    cert = verify_groebner(build_generators(7).sorted_generators())
    assert (
        cert.pairs_total, cert.skipped_coprime, cert.reduced, cert.spoly_zero,
        len(cert.failures), cert.max_steps,
    ) == (13_017_753, 12_607_995, 368_626, 0, 41_132, 15)
    assert cert.step_histogram == (
        7692, 39734, 133330, 125903, 56438, 28805, 9945, 4861, 1753, 881, 141, 230, 7, 36, 0, 2
    )
    # the stuck list, measured with the scan that walked every pair in order
    stuck = repr([(f.i, f.j, f.steps) for f in cert.failures]).encode()
    assert hashlib.sha256(stuck).hexdigest() == (
        "2e4cce391a1e1d2556453adb3e3665077891cc26519e98ca6be0a5bb184576d0"
    )


def words_basis(n: int, rows) -> list[Binomial]:
    return [
        Binomial(Monomial(n, (Word(a, n), Word(b, n))), Monomial(n, (Word(c, n), Word(d, n))))
        for a, b, c, d in rows
    ]


# Hand-made bases for the lead-word index: square leads, three equal leads,
# and words shared at the first position of one lead and the second of another.
HAND_BASES = {
    "square leads": words_basis(3, [
        (0, 0, 1, 2), (0, 3, 1, 6), (3, 3, 4, 7), (0, 7, 3, 4), (7, 7, 5, 6), (3, 7, 5, 5),
    ]),
    "three equal leads": words_basis(3, [
        (0, 3, 1, 6), (0, 3, 2, 5), (0, 3, 4, 4), (1, 3, 2, 7), (0, 1, 2, 2), (3, 5, 6, 6),
    ]),
    "first and second position": words_basis(4, [
        (1, 5, 2, 9), (5, 9, 6, 7), (2, 5, 3, 12), (5, 5, 6, 10), (9, 14, 10, 11),
        (0, 1, 3, 8), (1, 9, 4, 4), (0, 15, 6, 9),
    ]),
}


def random_basis(seed: int, n: int, m: int) -> list[Binomial]:
    """m distinct quadratic binomials on few words, so that leads often meet."""
    rng = random.Random(seed)
    top = 1 << n
    rows = set()
    while len(rows) < m:
        plus = tuple(sorted(rng.randrange(top) for _ in range(2)))
        minus = tuple(sorted(rng.randrange(top) for _ in range(2)))
        if plus != minus:
            rows.add(min(plus, minus) + max(plus, minus))
    return words_basis(n, sorted(rows))


def strict_minus_coprime(basis) -> tuple[list[PairOutcome], list[PairOutcome]]:
    """The strict record and stuck list with the coprime pairs relabelled."""
    leads = [set(b.plus.key) for b in BinomialReducer(basis).elements]
    strict = verify_groebner(basis, strict=True, record_pairs=True)
    pairs = [
        p if leads[p.i] & leads[p.j] else PairOutcome(p.i, p.j, "coprime-skip", 0)
        for p in strict.pairs
    ]
    return pairs, [p for p in strict.failures if leads[p.i] & leads[p.j]]


BASES = [*HAND_BASES, *(f"random {seed}" for seed in range(6))]


def named_basis(name: str) -> list[Binomial]:
    if name in HAND_BASES:
        return HAND_BASES[name]
    seed = int(name.split()[1])
    return random_basis(seed, 3 + seed % 2, 25 + 5 * seed)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", BASES)
def test_lead_word_pairs_are_strict_mode_minus_the_coprime_pairs(monkeypatch, name, chunk):
    basis = named_basis(name)
    if chunk is not None:
        monkeypatch.setattr(groebner, "_CHUNK_PAIRS", chunk)
    pairs, failures = strict_minus_coprime(basis)
    fast = verify_groebner(basis, record_pairs=True)
    assert list(fast.pairs) == pairs
    assert list(fast.failures) == failures
    # every shared pair is reduced once: the counts are those of the record
    rules = Counter(p.rule for p in pairs)
    assert (
        fast.skipped_coprime, fast.spoly_zero, fast.reduced, len(fast.failures)
    ) == (rules["coprime-skip"], rules["spoly-zero"], rules["reduced"], rules["stuck"])
    steps = Counter(p.steps for p in pairs if p.rule in ("reduced", "stuck"))
    assert fast.step_histogram == tuple(steps[k] for k in range(fast.max_steps + 1))
    assert outcomes(fast) == scalar_pair_outcomes(basis, False)
    # without records the counts are the same
    plain = verify_groebner(basis)
    assert plain.failures == fast.failures
    assert (plain.skipped_coprime, plain.reduced, plain.spoly_zero, plain.step_histogram) == (
        fast.skipped_coprime, fast.reduced, fast.spoly_zero, fast.step_histogram
    )


def test_lead_word_index_lists_each_shared_pair_once():
    for name in BASES:
        basis = named_basis(name)
        scan = groebner._PairScan(BinomialReducer(basis), False, False)
        total = int(scan.word_start[-1])
        i, j, word = scan.lead_pairs(0, total)
        lead0, lead1 = scan.basis[0], scan.basis[1]
        equal = (lead0[i] == lead0[j]) & (lead1[i] == lead1[j])
        keep = ~equal | (word == lead0[i])
        found = sorted(zip(i[keep].tolist(), j[keep].tolist()))
        leads = [set(b.plus.key) for b in BinomialReducer(basis).elements]
        expected = [
            (a, b) for a in range(len(leads)) for b in range(a + 1, len(leads))
            if leads[a] & leads[b]
        ]
        assert found == expected, name


def forbid_the_full_walk(monkeypatch):
    def walk(self, start, stop):
        raise AssertionError("default mode walked over every pair")

    monkeypatch.setattr(groebner._PairScan, "pairs", walk)


def test_default_mode_never_walks_every_pair(monkeypatch):
    forbid_the_full_walk(monkeypatch)
    cert = verify_groebner(build_generators(6).sorted_generators())
    assert (
        cert.pairs_total, cert.skipped_coprime, cert.reduced, cert.spoly_zero,
        len(cert.failures), cert.max_steps,
    ) == (550_725, 516_189, 31_246, 0, 3_290, 11)


def test_default_mode_scales_with_the_shared_pairs_not_all_pairs(monkeypatch):
    # 20 010 elements at n = 16, about 2e8 pairs; the leads (k, 65535 - k)
    # are pairwise coprime, and ten more leads (k, 65534 - k) meet two each
    n, m = 16, 20_000
    rows = [(k, 65535 - k, k + 1, 65535 - k) for k in range(m)]
    rows += [(k, 65534 - k, k + 2, 65534 - k) for k in range(10)]
    basis = words_basis(n, rows)
    reducer = BinomialReducer(basis)
    leads = [b.plus.key for b in reducer.elements]
    holders: dict[int, list[int]] = {}
    for index, lead in enumerate(leads):
        for v in set(lead):
            holders.setdefault(v, []).append(index)
    shared = sorted({(a, b) for h in holders.values() for a in h for b in h if a < b})
    assert len(shared) == 20
    expected = []
    for a, b in shared:
        final, trace = reducer.normal_form_with_trace(
            s_polynomial(reducer.elements[a], reducer.elements[b])
        )
        if final is not None:
            expected.append(PairOutcome(a, b, "stuck", len(trace.steps)))
    forbid_the_full_walk(monkeypatch)
    cert = verify_groebner(basis)
    assert cert.pairs_total == len(rows) * (len(rows) - 1) // 2
    assert cert.skipped_coprime == cert.pairs_total - len(shared)
    assert cert.reduced + cert.spoly_zero + len(cert.failures) == len(shared)
    assert list(cert.failures) == expected
