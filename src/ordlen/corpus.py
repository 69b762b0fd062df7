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


def monomials_of_degree(n: int, k: int) -> list[Monomial]:
    """The monomials of degree k in n variables, by exponent tuple."""
    out = [
        Monomial(tuple(map(vs.count, range(n))))
        for vs in itertools.combinations_with_replacement(range(n), k)
    ]
    out.sort(key=lambda m: m.exps)
    return out


def monomials_of_degree_at_most(n: int, d: int) -> list[Monomial]:
    return [m for k in range(d + 1) for m in monomials_of_degree(n, k)]


def all_ideals(n: int, d: int) -> list[MonomialIdeal]:
    """Every monomial ideal generated in degree ≤ d, zero and unit included,
    by generator count and then by position in the pool of monomials.

    An antichain grows only by later pool monomials that no chosen one
    divides; the pool is sorted by degree, so none divides an earlier one.
    """
    antichains = []

    def grow(chosen: tuple[Monomial, ...], candidates: list[Monomial]) -> None:
        antichains.append(chosen)
        for i, m in enumerate(candidates):
            grow(chosen + (m,), [c for c in candidates[i + 1:] if not m.divides(c)])

    grow((), monomials_of_degree_at_most(n, d))
    antichains.sort(key=len)
    return [MonomialIdeal(n, gens) for gens in antichains]


def contained_pairs(ideals: list[MonomialIdeal]) -> list[tuple[MonomialIdeal, MonomialIdeal]]:
    """All pairs (J, I) with J ⊆ I from the given list."""
    return [(j, i) for j in ideals for i in ideals if contains(i, j)]


def sandwich_monomials(J: MonomialIdeal, I: MonomialIdeal, d: int) -> Iterator[Monomial]:
    """The monomials of degree ≤ d in I and outside J, listed one degree
    at a time, so a caller that stops early never lists the higher ones."""
    for k in range(d + 1):
        for m in monomials_of_degree(J.n, k):
            if member(m, I) and not member(m, J):
                yield m


def sandwich_numerators(J: MonomialIdeal, I: MonomialIdeal, d: int) -> Iterator[MonomialIdeal]:
    """Numerators I′ with J ⊆ I′ ⊆ I generated over J by at most two
    monomials of ``sandwich_monomials``, each once, J first."""
    pool = list(sandwich_monomials(J, I, d))
    seen = set()
    for size in range(3):
        for combo in itertools.combinations(pool, size):
            ideal = MonomialIdeal._trusted(J.n, J.exps + tuple(m.exps for m in combo))
            if ideal.exps not in seen:
                seen.add(ideal.exps)
                yield ideal


def artinian_ideals_containing_power(n: int, k: int) -> list[MonomialIdeal]:
    """All monomial ideals containing the k-th power of the maximal ideal.

    Such an ideal is fixed by its monomials of degree below k, so it is
    the k-th power plus one ideal generated in degree < k.
    """
    power = max_ideal_power(n, k)
    return [ideal_sum(power, ideal) for ideal in all_ideals(n, k - 1)]


def max_ideal_power(n: int, k: int) -> MonomialIdeal:
    """The k-th power of the maximal ideal (x_1, …, x_n)."""
    return MonomialIdeal(n, tuple(monomials_of_degree(n, k)))


def random_ideal(rng: random.Random, n: int, d: int) -> MonomialIdeal:
    """Up to four distinct monomials of degree ≤ d, drawn from ``rng``."""
    pool = monomials_of_degree_at_most(n, d)
    gens = rng.sample(pool, k=rng.randint(0, 4))
    return MonomialIdeal(n, tuple(gens))


def random_contained_pairs(
    n: int, count: int, seed: int, d: int
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
