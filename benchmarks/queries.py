"""Seeded kernel-binomial queries for the membership step of the benchmark.

The generator never asks clawtoric whether a binomial is in the kernel.
A binomial q_u1*...*q_ud - q_v1*...*q_vd lies in the kernel of the
parametrization exactly when, at every leaf, both sides show the same
multiset of states, and both sides show the same multiset of root parities.
Permuting the d bits of each leaf independently keeps the first condition
by construction; the draw is kept when it also keeps the second and the
two monomials differ.
"""

from __future__ import annotations

import random
from collections import defaultdict

Query = tuple[tuple[int, ...], tuple[int, ...]]


def _parities(words: list[int]) -> list[int]:
    return sorted(w.bit_count() & 1 for w in words)


def kernel_queries(n: int, degree: int, count: int, rng: random.Random) -> list[Query]:
    """count kernel binomials of the given degree as pairs of sorted word values."""
    if n < 2 or degree < 2 or count < 0:
        raise ValueError(f"bad query shape n={n} degree={degree} count={count}")
    out: list[Query] = []
    while len(out) < count:
        words = [rng.getrandbits(n) for _ in range(degree)]
        moved = [0] * degree
        for shift in range(n):
            column = [(w >> shift) & 1 for w in words]
            rng.shuffle(column)
            for k, bit in enumerate(column):
                moved[k] |= bit << shift
        if _parities(words) != _parities(moved):
            continue
        plus, minus = tuple(sorted(words)), tuple(sorted(moved))
        if plus != minus:
            out.append((plus, minus))
    return out


def _image(words: tuple[int, ...], n: int) -> tuple:
    ones = tuple(sum((w >> shift) & 1 for w in words) for shift in range(n))
    return ones, tuple(_parities(list(words)))


def fiber_queries(n: int) -> list[Query]:
    """Every degree-2 fiber of the parametrization, as a chain of binomials.

    Degree-2 monomials are grouped by their image, and consecutive members
    of each group are paired, so the queries span the degree-2 part of the
    kernel ideal.  At n = 8 there are 23 310 of them.
    """
    fibers: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for a in range(1 << n):
        for b in range(a, 1 << n):
            fibers[_image((a, b), n)].append((a, b))
    return [
        (members[k], members[k + 1])
        for members in fibers.values()
        for k in range(len(members) - 1)
    ]
