"""Slow, independent reference computations used only by the tests.

Everything here works from first principles on explicit exponent
boxes — membership is "some generator divides", saturation is "a
bounded power of each variable pushes the monomial in" — so these
routines share no code path with the production ideal calculus.
"""

from __future__ import annotations

import itertools

Exp = tuple[int, ...]


def box(n: int, cap: int) -> list[Exp]:
    return list(itertools.product(*(range(cap + 1) for _ in range(n))))


def divides(a: Exp, b: Exp) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(m: Exp, gens: list[Exp]) -> bool:
    return any(divides(g, m) for g in gens)


def scale(m: Exp, j: int, k: int) -> Exp:
    out = list(m)
    out[j] += k
    return tuple(out)


def power_bound(gens: list[Exp], n: int) -> int:
    return max((e for g in gens for e in g), default=0) + 1


def torsion_member(m: Exp, gens: list[Exp], n: int) -> bool:
    """Whether a power of every variable pushes m into the ideal: such a
    monomial is killed by a power of the maximal ideal in the quotient."""
    if not gens:
        return False
    b = power_bound(gens, n) + max(m)
    return all(member(scale(m, j, b), gens) for j in range(n))


def stable_under_variables(m: Exp, gens: list[Exp], keep: list[int], n: int) -> bool:
    """Whether multiplying by arbitrary powers of the kept variables
    never lands in the ideal (so the kept directions stay free)."""
    if not gens:
        return True
    b = power_bound(gens, n) + max(m, default=0)
    bumped = list(m)
    for j in keep:
        bumped[j] += b
    return not member(tuple(bumped), gens)


def monomial_dim(m: Exp, gens: list[Exp], n: int) -> int:
    """Dimension of the cyclic module generated by m in R/ideal: the
    largest number of variables that can grow without bound."""
    best = -1
    for size in range(n + 1):
        for keep in itertools.combinations(range(n), size):
            if stable_under_variables(m, gens, list(keep), n):
                best = max(best, size)
    return best


def h0_count(i_gens: list[Exp], j_gens: list[Exp], n: int, cap: int) -> int:
    """Count of monomials in the box that lie in I, outside J, and are
    torsion modulo J.  The caller must pass a cap at which the count has
    stabilized."""
    count = 0
    for m in box(n, cap):
        if not member(m, i_gens) or member(m, j_gens):
            continue
        if torsion_member(m, j_gens, n):
            count += 1
    return count


def colon_member(m: Exp, gens: list[Exp], by: Exp) -> bool:
    """Whether m lies in (ideal : by)."""
    return member(tuple(a + b for a, b in zip(m, by)), gens)


def saturation_member(m: Exp, gens: list[Exp], by: Exp, n: int) -> bool:
    """Whether m lies in (ideal : by^∞), via one sufficiently large power."""
    if not gens:
        return False
    b = power_bound(gens, n) + max(m, default=0)
    return member(tuple(a + b * x for a, x in zip(m, by)), gens)


def minimal(gens: list[Exp]) -> list[Exp]:
    """The minimal generators, sorted by degree and then exponents."""
    kept: list[Exp] = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not member(g, kept):
            kept.append(g)
    return kept


def intersection(a: list[Exp], b: list[Exp]) -> list[Exp]:
    return minimal([tuple(map(max, g, h)) for g in a for h in b])


def saturation_iterated(gens: list[Exp], by: list[Exp]) -> list[Exp]:
    """Minimal generators of (ideal : (by)^∞), by colons with the ideal
    ``by`` repeated until the ideal stops growing.  The colon by an
    ideal is the intersection of the colons by its generators."""
    if not by:
        raise ValueError("saturation by the zero ideal")
    cur = minimal(gens)
    while True:
        colons = [minimal([tuple(max(a - b, 0) for a, b in zip(g, m)) for g in cur]) for m in by]
        nxt = colons[0]
        for c in colons[1:]:
            nxt = intersection(nxt, c)
        if nxt == cur:
            return cur
        cur = nxt


def standard_pairs(gens: list[Exp], n: int) -> set[tuple[Exp, tuple[int, ...]]]:
    """The standard pairs (head, free) of the complement of the ideal.

    A pair is admissible when its head is zero on the free variables and
    no free-variable multiple of the head lies in the ideal.  It is
    standard when it is maximal, which it is exactly when zeroing any
    other variable j in the head and freeing j gives an inadmissible
    pair.  A standard head's exponents stay below the largest exponent
    of the ideal's generators, so a box of that size holds every head.
    """
    pairs = set()
    for size in range(n + 1):
        for free in itertools.combinations(range(n), size):
            rest = [j for j in range(n) if j not in free]
            for head in box(n, power_bound(gens, n) - 1):
                if any(head[j] for j in free):
                    continue
                if saturation_member(head, gens, indicator(free, n), n):
                    continue
                if all(
                    saturation_member(scale(head, j, -head[j]), gens, indicator(free + (j,), n), n)
                    for j in rest
                ):
                    pairs.add((head, free))
    return pairs


def indicator(indices, n: int) -> Exp:
    """The squarefree monomial of the listed variables."""
    return tuple(int(i in indices) for i in range(n))


def ass_witness(i_gens: list[Exp], j_gens: list[Exp], n: int, prime: tuple[int, ...]) -> Exp | None:
    """The least monomial, by degree and then exponents, of I outside J
    whose annihilator J : m is generated by the prime's variables; a box
    up to the largest exponent of each variable holds it if it exists."""
    caps = [max((g[j] for g in i_gens + j_gens), default=0) for j in range(n)]
    want = minimal([indicator((i,), n) for i in prime])
    cells = sorted(itertools.product(*(range(c + 1) for c in caps)), key=lambda e: (sum(e), e))
    for m in cells:
        if not member(m, i_gens) or member(m, j_gens):
            continue
        if minimal([tuple(max(a - b, 0) for a, b in zip(g, m)) for g in j_gens]) == want:
            return m
    return None
