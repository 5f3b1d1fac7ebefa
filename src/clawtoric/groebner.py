"""Binomial division and Buchberger verification for quadratic binomial bases.

Monomials are handled as sorted tuples of word values; the lex-greater side
of a canonical binomial is always its plus monomial, so division only ever
rewrites the current lead.  Reduction of a binomial by a binomial basis
stays binomial (coefficients are always +-1), which keeps the whole engine
in multiset arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import Binomial, Monomial, _lead_key, _word_table, make_binomial

Key = tuple[int, ...]


def leading_monomial(b: Binomial) -> Monomial:
    """The lex-greater side; canonical storage keeps it in plus."""
    return b.plus


def _monomial_from_key(n: int, key: Key) -> Monomial:
    words = _word_table(n)
    return Monomial(n, tuple([words[v] for v in key]))


def _multiset_lcm(a: Key, b: Key) -> Key:
    # entrywise max multiplicity; inputs and output are sorted
    ia, ib, out = 0, 0, []
    while ia < len(a) and ib < len(b):
        if a[ia] == b[ib]:
            out.append(a[ia])
            ia += 1
            ib += 1
        elif a[ia] < b[ib]:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _multiset_sub(a: Key, b: Key) -> Key:
    out = list(a)
    for v in b:
        out.remove(v)
    return tuple(out)


def s_polynomial(b1: Binomial, b2: Binomial) -> Binomial | None:
    """Cross-multiply to cancel the leads; None when the sides coincide."""
    if b1.n != b2.n:
        raise ValueError(f"mixed word lengths {b1.n} and {b2.n}")
    lead_lcm = _multiset_lcm(b1.plus.key, b2.plus.key)
    s1 = tuple(sorted(b1.minus.key + _multiset_sub(lead_lcm, b1.plus.key)))
    s2 = tuple(sorted(b2.minus.key + _multiset_sub(lead_lcm, b2.plus.key)))
    if s1 == s2:
        return None
    return Binomial(_monomial_from_key(b1.n, s1), _monomial_from_key(b1.n, s2))


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """Division record: each step rewrites the lead by one basis element."""

    start: Binomial
    steps: tuple[tuple[Binomial, Monomial], ...]
    final: Binomial | None

    def replay(self) -> Binomial | None:
        """Re-apply the steps to start and check they reproduce final."""
        current: Binomial | None = self.start
        for divisor, multiplier in self.steps:
            if current is None:
                raise ValueError("trace continues past the zero binomial")
            if (divisor.plus * multiplier).key != current.plus.key:
                raise ValueError("step divisor does not match the current lead")
            current = make_binomial(divisor.minus * multiplier, current.minus)
        if current != self.final:
            raise ValueError("replay does not reproduce the recorded final")
        return current


class BinomialReducer:
    """Division against a fixed quadratic basis, with an indexed lead lookup.

    The basis is stored sorted by lead (descending in the monomial order)
    and the divisor picked at each step is the first one in that order whose
    lead divides the current lead.
    """

    def __init__(self, basis: Iterable[Binomial]):
        elements = sorted(basis, key=_lead_key)
        lengths = {b.n for b in elements}
        if len(lengths) > 1:
            raise ValueError(f"mixed word lengths in basis: {sorted(lengths)}")
        for b in elements:
            if b.degree != 2:
                raise ValueError(f"reduction basis must be quadratic, got degree {b.degree}")
        self.elements: tuple[Binomial, ...] = tuple(elements)
        self.n: int | None = elements[0].n if elements else None
        self._plus: list[Key] = [b.plus.key for b in elements]
        self._minus: list[Key] = [b.minus.key for b in elements]
        index: dict[Key, int] = {}
        for pos, key in enumerate(self._plus):
            index.setdefault(key, pos)
        self._index = index

    def _find_divisor(self, lead: Key) -> int | None:
        get = self._index.get
        d = len(lead)
        best: int | None = None
        for x in range(d - 1):
            vx = lead[x]
            for y in range(x + 1, d):
                idx = get((vx, lead[y]))
                if idx is not None and (best is None or idx < best):
                    best = idx
        return best

    def _reduce(
        self, plus: Key, minus: Key, trace: list[tuple[int, Key]] | None = None
    ) -> tuple[Key | None, Key | None, int]:
        """Divide plus - minus; (None, None, steps) when it reduces to zero.

        With a trace list, each step appends (divisor index, multiplier key).
        """
        # the lead strictly decreases each step, so this terminates
        steps = 0
        while True:
            idx = self._find_divisor(plus)
            if idx is None:
                return plus, minus, steps
            steps += 1
            replaced = list(plus)
            for v in self._plus[idx]:
                replaced.remove(v)
            if trace is not None:
                trace.append((idx, tuple(replaced)))
            replaced.extend(self._minus[idx])
            replaced.sort()
            new = tuple(replaced)
            if new == minus:
                return None, None, steps
            if new < minus:
                plus = new
            else:
                plus, minus = minus, new

    def _check_input(self, b: Binomial) -> None:
        if self.n is not None and b.n != self.n:
            raise ValueError(f"word length {b.n} does not match basis length {self.n}")

    def normal_form(self, b: Binomial) -> Binomial | None:
        """Fully reduce; None means b reduced to zero."""
        self._check_input(b)
        plus, minus, _ = self._reduce(b.plus.key, b.minus.key)
        if plus is None:
            return None
        return Binomial(_monomial_from_key(b.n, plus), _monomial_from_key(b.n, minus))

    def normal_form_with_trace(self, b: Binomial) -> tuple[Binomial | None, ReductionTrace]:
        self._check_input(b)
        record: list[tuple[int, Key]] = []
        plus, minus, _ = self._reduce(b.plus.key, b.minus.key, record)
        final = (
            None
            if plus is None
            else Binomial(_monomial_from_key(b.n, plus), _monomial_from_key(b.n, minus))
        )
        steps = tuple(
            (self.elements[idx], _monomial_from_key(b.n, multiplier))
            for idx, multiplier in record
        )
        return final, ReductionTrace(b, steps, final)

    def in_ideal(self, b: Binomial) -> bool:
        self._check_input(b)
        return self._reduce(b.plus.key, b.minus.key)[0] is None


def normal_form(b: Binomial, basis: Iterable[Binomial]) -> tuple[Binomial | None, ReductionTrace]:
    """One-shot division of b by the basis, with the step-by-step trace."""
    return BinomialReducer(basis).normal_form_with_trace(b)


def in_ideal(b: Binomial, basis: Iterable[Binomial] | BinomialReducer) -> bool:
    """Membership by reduction to zero; meaningful when the basis is Groebner."""
    reducer = basis if isinstance(basis, BinomialReducer) else BinomialReducer(basis)
    return reducer.in_ideal(b)


@dataclass(frozen=True, slots=True)
class PairOutcome:
    """What happened to the S-pair (i, j).

    The indices refer to the canonical lead-sorted basis, i.e. positions in
    ``BinomialReducer(basis).elements``, not in the iterable the caller
    passed in.
    """

    i: int
    j: int
    rule: str  # coprime-skip (default mode only) | spoly-zero | reduced | stuck
    steps: int


@dataclass(frozen=True, slots=True)
class GroebnerCertificate:
    n: int | None
    size: int
    strict: bool
    is_groebner: bool
    pairs_total: int
    reduced: int
    spoly_zero: int
    skipped_coprime: int
    skipped_shared_trailing: int  # always 0, no such rule; kept for the output formats
    max_steps: int
    failures: tuple[PairOutcome, ...]
    pairs: tuple[PairOutcome, ...] | None
    # reduced plus stuck pairs by reduction step count; index max_steps last
    step_histogram: tuple[int, ...] = ()


# Rule codes of the batched scan, in the order of _RULES.
_RULES = ("coprime-skip", "spoly-zero", "reduced", "stuck")
_RULE_NAMES = np.array(_RULES, dtype=object)
_COPRIME, _ZERO, _REDUCED, _STUCK = range(len(_RULES))
# Pairs per chunk: the scan takes this many pairs at a time from the
# lead-word index (and, in strict mode, from the walk over all pairs) and
# reduces S-polynomials of one degree once this many are queued, so its
# memory is O(basis + chunk), never O(pairs).
_CHUNK_PAIRS = 4096


def _chunks(total: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of consecutive chunks of _CHUNK_PAIRS numbers below total."""
    return ((k, min(k + _CHUNK_PAIRS, total)) for k in range(0, total, _CHUNK_PAIRS))

# The first-divisor lookup is a dense table over pairs of word ranks when
# that has at most 4 cells per basis element plus this many (always so for
# G_n), and a binary search over the packed leads otherwise.
_TABLE_SLACK = 1 << 16


def _position_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For a sorted row of width d: the position pairs (x, y), x < y, as two
    index rows, and for each pair the positions left once x and y go."""
    pairs = list(itertools.combinations(range(d), 2))
    rest = [[r for r in range(d) if r not in pair] for pair in pairs]
    return (
        np.array(pairs, dtype=np.intp).T,
        np.array(rest, dtype=np.intp).reshape(len(pairs), d - 2),
    )


_POSITIONS = {d: _position_pairs(d) for d in (2, 3, 4)}


def _insert(u: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sorted rows of {u, v, x}, given u <= v."""
    return np.array([np.minimum(u, x), np.maximum(u, np.minimum(v, x)), np.maximum(v, x)])


def _merge(u: np.ndarray, v: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sorted rows of {u, v, x, y}, given u <= v and x <= y."""
    hi_of_lows, lo_of_highs = np.maximum(u, x), np.minimum(v, y)
    return np.array(
        [
            np.minimum(u, x),
            np.minimum(hi_of_lows, lo_of_highs),
            np.maximum(hi_of_lows, lo_of_highs),
            np.maximum(v, y),
        ]
    )


def _order(s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column of two (d, k) monomial arrays: the smaller, the larger, equal."""
    differ = s1 != s2
    first = differ.argmax(axis=0)
    columns = np.arange(s1.shape[1])
    lower = s1[first, columns] < s2[first, columns]
    return np.where(lower, s1, s2), np.where(lower, s2, s1), ~differ.any(axis=0)


class _PairScan:
    """Every S-pair of a lead-sorted quadratic basis, reduced in batches.

    Words are replaced by their ranks among the basis's word values, which
    keeps every comparison and makes the keys independent of n.  A monomial
    of degree d is a sorted column of a (d, k) array.  The pairs whose leads
    share a word come from an index over lead words; in strict mode the
    coprime pairs come from a chunked walk over all pairs.  Pairs are queued
    by S-polynomial degree (2 for equal leads, 3 for one word in common, 4
    for coprime leads), and each reduction step rewrites every column of a
    queued batch at once, with the divisor the scalar engine picks: the
    lowest lead-sorted index whose lead is a pair of words of the current
    lead.
    """

    def __init__(self, reducer: BinomialReducer, strict: bool, record_pairs: bool):
        values = sorted({v for key in reducer._plus + reducer._minus for v in key})
        rank = {v: r for r, v in enumerate(values)}
        self.m = m = len(reducer._plus)
        self.strict = strict
        self.width = width = max(len(values), 1)
        # ranks, packed pairs of ranks and basis indices share the smallest
        # integer type that holds them all
        dtype = next(
            t for t in (np.int16, np.int32, np.int64) if max(width * width, m) <= np.iinfo(t).max
        )
        # (lead0, lead1, trail0, trail1) of each element, one row each
        self.basis = np.array(
            [[rank[v] for v in p + q] for p, q in zip(reducer._plus, reducer._minus)],
            dtype=dtype,
        ).reshape(m, 4).T.copy()
        # packed leads, non-decreasing in basis order
        self.lead_keys = self.basis[0] * width + self.basis[1]
        self.table: np.ndarray | None = None
        if width * width <= 4 * m + _TABLE_SLACK:
            self.table = np.full(width * width, m, dtype)
            keys, first = np.unique(self.lead_keys, return_index=True)
            self.table[keys] = first
        # number of pairs (i, j), i < j, before row i of the scan, and after the last
        rows = np.arange(m + 1, dtype=np.int64)
        self.row_start = rows * (2 * m - rows - 1) // 2
        self.pairs_total = int(self.row_start[-1])
        # the lead-word index: one entry (word, element) per distinct word of
        # each lead, sorted by word and then by element, so that the elements
        # whose leads hold a word form one block; entry p pairs with the later
        # entries of its block, and word_start counts those pairs like row_start
        lead0, lead1 = self.basis[0], self.basis[1]
        two = np.flatnonzero(lead0 != lead1)
        words = np.concatenate([lead0, lead1[two]])
        owners = np.concatenate([np.arange(m, dtype=dtype), two.astype(dtype)])
        order = np.lexsort((owners, words))
        self.words, self.owners = words[order], owners[order]
        block_end = np.searchsorted(self.words, self.words, side="right")
        partners = block_end - np.arange(self.words.size) - 1
        self.word_start = np.concatenate([[0], np.cumsum(partners, dtype=np.int64)])
        # one int object per index, reused by every outcome that names it
        self.index = np.arange(m).astype(object)
        self.queues: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {2: [], 3: [], 4: []}
        self.counts = np.zeros(len(_RULES), np.int64)
        self.histogram = np.zeros(0, np.int64)
        # (i, j, steps) of the stuck pairs, batch by batch
        self.stuck: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # rule code and step count of every pair, kept only to record the pairs;
        # in the default mode every pair the scan never reaches is coprime
        self.recorded: tuple[np.ndarray, np.ndarray] | None = None
        if record_pairs:
            self.recorded = (
                np.full(self.pairs_total, _COPRIME, np.int8), np.zeros(self.pairs_total, np.int64)
            )

    def pairs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of the pairs numbered start..stop-1 in scan order."""
        flat = np.arange(start, stop, dtype=np.int64)
        i = np.searchsorted(self.row_start, flat, side="right") - 1
        return i, flat - self.row_start[i] + i + 1

    def lead_pairs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, shared word) of the lead-word index's pairs numbered start..stop-1."""
        flat = np.arange(start, stop, dtype=np.int64)
        p = np.searchsorted(self.word_start, flat, side="right") - 1
        q = flat - self.word_start[p] + p + 1
        return self.owners[p], self.owners[q], self.words[p]

    def first_divisor(self, lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per column: the divisor index (m when none) and its position-pair code."""
        x, y = _POSITIONS[lead.shape[0]][0]
        keys = lead[x] * self.width + lead[y]
        if self.table is not None:
            candidates = self.table[keys]
        else:
            pos = np.minimum(np.searchsorted(self.lead_keys, keys), self.m - 1)
            candidates = np.where(self.lead_keys[pos] == keys, pos, self.m)
        code = candidates.argmin(axis=0)
        return candidates[code, np.arange(lead.shape[1])], code

    def reduce(
        self, plus: np.ndarray, minus: np.ndarray, rule: np.ndarray, steps: np.ndarray
    ) -> None:
        """Reduce every column plus - minus; record its rule and step count."""
        degree = plus.shape[0]
        where = np.arange(plus.shape[1])
        taken = 0
        while True:
            plus, minus, zero = _order(plus, minus)
            rule[where[zero]] = _REDUCED if taken else _ZERO
            steps[where[zero]] = taken
            if zero.any():
                live = ~zero
                plus, minus, where = plus[:, live], minus[:, live], where[live]
            if not where.size:
                return
            idx, code = self.first_divisor(plus)
            stuck = idx == self.m
            if stuck.any():
                rule[where[stuck]] = _STUCK
                steps[where[stuck]] = taken
                live = ~stuck
                plus, minus, where = plus[:, live], minus[:, live], where[live]
                idx, code = idx[live], code[live]
                if not where.size:
                    return
            taken += 1
            u, v = self.basis[2:, idx]
            if degree == 2:
                plus = np.array([u, v])
            else:
                columns = np.arange(where.size)
                rest = [plus[r, columns] for r in _POSITIONS[degree][1][code].T]
                plus = _insert(u, v, *rest) if degree == 3 else _merge(*rest, u, v)

    def tally(self, i: np.ndarray, j: np.ndarray, rule: np.ndarray, steps: np.ndarray) -> None:
        self.counts += np.bincount(rule, minlength=len(_RULES))
        taken = np.bincount(steps[rule >= _REDUCED])
        if taken.size > self.histogram.size:
            self.histogram = np.pad(self.histogram, (0, taken.size - self.histogram.size))
        self.histogram[: taken.size] += taken
        if self.recorded is not None:
            flat = self.row_start[i] + j - i - 1
            self.recorded[0][flat] = rule
            self.recorded[1][flat] = steps

    def queue(self, degree: int, i: np.ndarray, j: np.ndarray) -> None:
        if i.size:
            queue = self.queues[degree]
            queue.append((i, j))
            if sum(q[0].size for q in queue) >= _CHUNK_PAIRS:
                self.flush(degree)

    def scan(self) -> None:
        for start, stop in _chunks(int(self.word_start[-1])):
            i, j, word = self.lead_pairs(start, stop)
            a1, b1 = self.basis[:2, i]
            equal = (a1 == self.basis[0, j]) & (b1 == self.basis[1, j])
            # equal leads of two words meet in both words' blocks; the
            # smaller word's block keeps the pair
            keep = equal & (word == a1)
            self.queue(2, i[keep], j[keep])
            self.queue(3, i[~equal], j[~equal])
        if self.strict:
            for start, stop in _chunks(self.pairs_total):
                i, j = self.pairs(start, stop)
                a1, b1 = self.basis[:2, i]
                a2, b2 = self.basis[:2, j]
                coprime = ~((a1 == a2) | (a1 == b2) | (b1 == a2) | (b1 == b2))
                self.queue(4, i[coprime], j[coprime])
        for degree in self.queues:
            self.flush(degree)
        if not self.strict:  # product criterion: the pairs never queued need no reduction
            self.counts[_COPRIME] = self.pairs_total - self.counts.sum()

    def s_polynomials(self, degree: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
        """The two sides of the S-polynomial of each pair (i, j) of one degree."""
        a1, b1, c1, d1 = self.basis[:, i]
        a2, b2, c2, d2 = self.basis[:, j]
        # trail_i * lcm/lead_i and trail_j * lcm/lead_j
        if degree == 2:
            return np.array([c1, d1]), np.array([c2, d2])
        if degree == 3:
            return (
                _insert(c1, d1, np.where((a1 == a2) | (b1 == a2), b2, a2)),
                _insert(c2, d2, np.where((a1 == a2) | (a1 == b2), b1, a1)),
            )
        return _merge(c1, d1, a2, b2), _merge(c2, d2, a1, b1)

    def flush(self, degree: int) -> None:
        """Reduce the queued S-polynomials of one degree."""
        queue = self.queues[degree]
        if not queue:
            return
        i, j = np.concatenate([q[0] for q in queue]), np.concatenate([q[1] for q in queue])
        queue.clear()
        rule = np.empty(i.size, np.int8)
        steps = np.empty(i.size, np.int64)
        self.reduce(*self.s_polynomials(degree, i, j), rule, steps)
        self.tally(i, j, rule, steps)
        stuck = rule == _STUCK
        if stuck.any():
            # kept in the smallest types that hold them until failures() builds objects
            index_type = np.min_scalar_type(self.m)
            taken = steps[stuck]
            self.stuck.append((
                i[stuck].astype(index_type),
                j[stuck].astype(index_type),
                taken.astype(np.min_scalar_type(int(taken.max()))),
            ))

    def outcomes(
        self, i: np.ndarray, j: np.ndarray, rules: Iterable[str], steps: np.ndarray
    ) -> Iterator[PairOutcome]:
        return map(PairOutcome, self.index[i], self.index[j], rules, steps.tolist())

    def failures(self) -> tuple[PairOutcome, ...]:
        """The stuck pairs, in scan order; called once, it frees the stuck batches."""
        if not self.stuck:
            return ()
        i, j, steps = (np.concatenate(column) for column in zip(*self.stuck))
        self.stuck.clear()
        order = np.lexsort((j, i))
        i, j, steps = i[order], j[order], steps[order]
        del order
        # built a chunk at a time, so that no full-length list is made on the way
        return tuple(
            itertools.chain.from_iterable(
                self.outcomes(
                    i[start:stop], j[start:stop], itertools.repeat("stuck"), steps[start:stop]
                )
                for start, stop in _chunks(i.size)
            )
        )

    def records(self) -> tuple[PairOutcome, ...]:
        """Every pair's outcome, in scan order; needs record_pairs."""
        rule, steps = self.recorded
        return tuple(
            itertools.chain.from_iterable(
                self.outcomes(
                    *self.pairs(start, stop), _RULE_NAMES[rule[start:stop]], steps[start:stop]
                )
                for start, stop in _chunks(self.pairs_total)
            )
        )


def verify_groebner(
    basis: Iterable[Binomial],
    *,
    strict: bool = False,
    record_pairs: bool = False,
) -> GroebnerCertificate:
    """Run the Buchberger criterion over every S-pair of the basis.

    Strict mode reduces every S-pair.  The default mode skips only the pairs
    with coprime leads, which reduce to zero by Buchberger's product
    criterion; that is sound for every basis, so its verdict is the strict
    verdict, and pair by pair its record is the strict record with each
    coprime pair relabelled coprime-skip (0 steps).  The pairs are scanned
    as integer arrays (see _PairScan), each with the rule and step count
    that the scalar reduction of BinomialReducer gives.
    """
    reducer = BinomialReducer(basis)
    scan = _PairScan(reducer, strict, record_pairs)
    scan.scan()
    failures = scan.failures()
    counts, histogram = scan.counts.tolist(), scan.histogram.tolist()
    return GroebnerCertificate(
        n=reducer.n,
        size=scan.m,
        strict=strict,
        is_groebner=not failures,
        pairs_total=scan.pairs_total,
        reduced=counts[_REDUCED],
        spoly_zero=counts[_ZERO],
        skipped_coprime=counts[_COPRIME],
        skipped_shared_trailing=0,
        max_steps=max(len(histogram) - 1, 0),
        failures=failures,
        pairs=scan.records() if record_pairs else None,
        step_histogram=tuple(histogram),
    )


def is_groebner(basis: Iterable[Binomial], *, strict: bool = False) -> bool:
    """Convenience wrapper around verify_groebner."""
    return verify_groebner(basis, strict=strict).is_groebner
