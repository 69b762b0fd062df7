"""Enumerated and sampled ideal corpora for the check sweeps.

The exhaustive two-variable corpus is every monomial ideal whose
minimal generators have degree at most a bound: equivalently, every
antichain (under divisibility) among the monomials up to that degree,
the empty antichain standing for the zero ideal and {1} for the unit
ideal.  Higher-variable corpora are seeded random samples.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .monomial import Monomial, MonomialIdeal, contains, ideal_sum, member, multiply

DEFAULT_DEGREE = 3


def monomials_of_degree_at_most(n: int, d: int) -> list[Monomial]:
    out = [
        Monomial(e)
        for e in itertools.product(*(range(d + 1) for _ in range(n)))
        if sum(e) <= d
    ]
    out.sort(key=lambda m: (m.degree, m.exps))
    return out


def all_ideals(n: int, d: int = DEFAULT_DEGREE) -> list[MonomialIdeal]:
    """Every monomial ideal generated in degree ≤ d, zero and unit included."""
    pool = monomials_of_degree_at_most(n, d)
    ideals = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if any(
                a.divides(b) for a, b in itertools.permutations(combo, 2)
            ):
                continue
            ideals.append(MonomialIdeal(n, combo))
    return ideals


def contained_pairs(ideals: list[MonomialIdeal]) -> list[tuple[MonomialIdeal, MonomialIdeal]]:
    """All pairs (J, I) with J ⊆ I from the given list."""
    return [(j, i) for j in ideals for i in ideals if contains(i, j)]


def sandwich_numerators(
    J: MonomialIdeal, I: MonomialIdeal, d: int = DEFAULT_DEGREE, max_extras: int = 2
) -> Iterator[MonomialIdeal]:
    """Numerators I′ with J ⊆ I′ ⊆ I generated over J by at most
    ``max_extras`` monomials of degree ≤ d, each once, J first."""
    pool = [
        m
        for m in monomials_of_degree_at_most(J.n, d)
        if member(m, I) and not member(m, J)
    ]
    seen = set()
    for size in range(max_extras + 1):
        for combo in itertools.combinations(pool, size):
            ideal = ideal_sum(J, MonomialIdeal(J.n, combo))
            if ideal.gens not in seen:
                seen.add(ideal.gens)
                yield ideal


def artinian_ideals_containing_power(n: int, k: int = 4) -> list[MonomialIdeal]:
    """All monomial ideals containing the k-th power of the maximal ideal.

    Such an ideal is determined by the order ideal of standard monomials
    inside the degree-< k simplex, so enumerate down-closed subsets.
    """
    box = [
        e
        for e in itertools.product(*(range(k) for _ in range(n)))
        if sum(e) < k
    ]
    below = {
        e: [f for f in box if f != e and all(fi <= ei for fi, ei in zip(f, e))]
        for e in box
    }
    power = max_ideal_power(n, k)
    out = []
    for keep in _down_closed_subsets(box, below):
        gens = [Monomial(e) for e in box if e not in keep]
        out.append(ideal_sum(power, MonomialIdeal(n, tuple(gens))))
    return out


def max_ideal_power(n: int, k: int) -> MonomialIdeal:
    """The k-th power of the maximal ideal (x_1, …, x_n)."""
    gens = [Monomial(e) for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    return MonomialIdeal(n, tuple(gens))


def _down_closed_subsets(box, below):
    """All subsets closed under division, via depth-first inclusion in a
    fixed order: an element may be kept only if all its divisors are kept."""
    order = sorted(box, key=lambda e: (sum(e), e))
    results = []

    def extend(i: int, keep: frozenset):
        if i == len(order):
            results.append(keep)
            return
        e = order[i]
        extend(i + 1, keep)
        if all(f in keep for f in below[e]):
            extend(i + 1, keep | {e})

    extend(0, frozenset())
    return results


def random_ideal(rng: random.Random, n: int, d: int, max_gens: int = 4) -> MonomialIdeal:
    pool = monomials_of_degree_at_most(n, d)
    gens = rng.sample(pool, k=rng.randint(0, max_gens))
    return MonomialIdeal(n, tuple(gens))


def random_contained_pairs(
    n: int, count: int, seed: int = 0, d: int = DEFAULT_DEGREE
) -> list[tuple[MonomialIdeal, MonomialIdeal]]:
    """Seeded random pairs (J, I) with J ⊆ I: J is built from multiples
    of I's generators (plus the tail cases zero/unit) so containment is
    by construction."""
    rng = random.Random(seed)
    pool = monomials_of_degree_at_most(n, d)
    pairs = []
    while len(pairs) < count:
        I = random_ideal(rng, n, d)
        if I.is_zero:
            pairs.append((MonomialIdeal.zero(n), I))
            continue
        multipliers = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
        pieces = [
            multiply(I, m) for m in multipliers
        ]
        J = pieces[0]
        for piece in pieces[1:]:
            J = ideal_sum(J, piece)
        if rng.random() < 0.1:
            J = MonomialIdeal.zero(n)
        pairs.append((J, I))
    return pairs
