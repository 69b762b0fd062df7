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
    monomial is killed by a power of the maximal ideal in the quotient.
    With no variables every monomial is."""
    b = power_bound(gens, n) + max(m, default=0)
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


def h0_lines(i_gens: list[Exp], j_gens: list[Exp], n: int) -> int:
    """The torsion count of I/J from generators of I and J, one line of
    the box at a time: the scan h0_count ran before it visited cells.

    A torsion monomial's exponent of x_j is below J's largest one (the
    cap).  Along a line in the variable v with the largest cap, lying in
    I, in J and in each saturation J : x_i^infinity is a threshold on
    v's exponent, and the line holds max(0, t_J - max(t_I, t_i...))
    counted monomials.  Unlike h0_count this needs no bounding box, so
    it reaches exponents too large for the box count."""
    if n == 0:
        return 1
    caps = [max((e[j] for e in j_gens), default=0) for j in range(n)]
    if not all(caps):
        return 0
    v = caps.index(max(caps))
    others = [j for j in range(n) if j != v]
    num = [(e[v], [e[j] for j in others]) for e in i_gens]
    den = [(e[v], [e[j] for j in others]) for e in j_gens]
    never = caps[v]  # a threshold at or past the cap excludes the whole line
    count = 0
    for point in itertools.product(*(range(caps[j]) for j in others)):
        t_num = min((t for t, rest in num if divides(rest, point)), default=never)
        if t_num >= never:
            continue
        t_den = never + 1  # stays past the cap while no generator of J reaches the line
        t_sat = [never] * len(others)
        for t, rest in den:
            missed = [k for k, (a, p) in enumerate(zip(rest, point)) if a > p]
            if not missed:
                t_den = min(t_den, t)
            elif len(missed) == 1 and t < t_sat[missed[0]]:
                t_sat[missed[0]] = t
        if t_den > never:
            continue
        count += max(0, t_den - max([t_num, *t_sat]))
    return count


def fcyc(i_gens: list[Exp], j_gens: list[Exp], n: int) -> dict[tuple[int, ...], int]:
    """The nonzero weights of the fundamental cycle of I/J, keyed by the
    sorted variables of each prime: at every one of the 2^n primes, the
    torsion count of I/J with the variables outside the prime set to 1.
    A torsion monomial's exponents stay below the largest exponent of
    the localized J, so a box of that size holds them all."""
    weights = {}
    for size in range(n + 1):
        for keep in itertools.combinations(range(n), size):
            li = [tuple(g[i] for i in keep) for g in i_gens]
            lj = [tuple(g[i] for i in keep) for g in j_gens]
            count = h0_count(li, lj, size, power_bound(lj, size) - 1)
            if count:
                weights[keep] = count
    return weights


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


def standard_basis(gens: list[Exp], n: int) -> tuple[list[Exp], list[list[int | None]]]:
    """The standard monomials of an Artinian ideal, sorted by degree and
    then exponents, and each variable's action on them: the index of the
    image, or None when the image lies in the ideal.  Every standard
    monomial lies below the largest exponent of the generators."""
    cells = [m for m in box(n, power_bound(gens, n) - 1) if not member(m, gens)]
    cells.sort(key=lambda e: (sum(e), e))
    index = {m: i for i, m in enumerate(cells)}
    actions = [
        [None if member(scale(m, j, 1), gens) else index[scale(m, j, 1)] for m in cells]
        for j in range(n)
    ]
    return cells, actions


def all_ideals(n: int, d: int) -> list[tuple[Exp, ...]]:
    """The minimal generators of every monomial ideal generated in degree
    ≤ d: every subset of the monomials of degree ≤ d, sorted by degree
    and then exponents, in which no member divides another, by size and
    then in combination order."""
    pool = sorted((e for e in box(n, d) if sum(e) <= d), key=lambda e: (sum(e), e))
    return [
        combo
        for size in range(len(pool) + 1)
        for combo in itertools.combinations(pool, size)
        if not any(divides(a, b) for a, b in itertools.permutations(combo, 2))
    ]


def artinian_ideals(n: int, k: int) -> set[tuple[Exp, ...]]:
    """The minimal generators of every monomial ideal containing all
    monomials of degree k: each set of standard monomials is a subset of
    the degree-< k simplex closed under division."""
    simplex = [e for e in box(n, k) if sum(e) < k]
    power = [e for e in box(n, k) if sum(e) == k]
    out = set()
    for size in range(len(simplex) + 1):
        for keep in itertools.combinations(simplex, size):
            if all(f in keep for e in keep for f in simplex if divides(f, e)):
                out.add(tuple(minimal([e for e in simplex if e not in keep] + power)))
    return out


def span(basis) -> set[int]:
    """Every vector of the F₂ span of the bitmasks."""
    out = {0}
    for b in basis:
        out |= {s ^ b for s in out}
    return out


def apply(table, v: int) -> int:
    """The image of the vector v under the map sending basis vector i to table[i]."""
    out = 0
    for i, image in enumerate(table):
        if v >> i & 1:
            out ^= image
    return out


def is_submodule(actions: tuple[tuple[int, ...], ...], basis: tuple[int, ...]) -> bool:
    """Whether the F₂ span of the basis bitmasks is stable under every
    variable, whose table sends basis vector i to the bitmask at index i."""
    vectors = span(basis)
    return all(apply(table, b) in vectors for table in actions for b in basis)


def kernel_is_essential(table, submodules) -> bool:
    """Whether the kernel of the map meets every nonzero submodule, each
    given by a basis: the sweep over all submodules."""
    return all(any(apply(table, v) == 0 for v in span(b) if v) for b in submodules if b)


def spans_meet_in_zero(a, b) -> bool:
    return span(a) & span(b) == {0}


def ordinal_associative(a, b, c) -> bool:
    """Whether both the ordinal sum and the shuffle sum are associative
    on the triple, every one of the eight sums computed from scratch."""
    ab, bc = a.shuffle_sum(b), b.shuffle_sum(c)
    return (a + b) + c == a + (b + c) and ab.shuffle_sum(c) == a.shuffle_sum(bc)
