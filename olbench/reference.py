"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ordlen.  Ideals are tuples of generator exponent
tuples; an ordinal below w^w is its coefficient tuple, lowest power
first, with no trailing zeros; a cycle is a dict from a prime, given as
the sorted tuple of its variable indices, to its coefficient.
"""

from __future__ import annotations

import itertools

Exp = tuple[int, ...]


def _divides(a: Exp, b: Exp) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _member(m: Exp, gens) -> bool:
    return any(_divides(g, m) for g in gens)


# ----------------------------------------------------------------------
# fundamental cycles by box counting
# ----------------------------------------------------------------------


def local_torsion(keep: tuple[int, ...], i_gens, j_gens) -> int:
    """Classical length of the torsion of (I/J) localized at the prime of
    the ``keep`` variables: the box points that lie in I_P, lie outside
    J_P and are pushed into J_P by a large power of each kept variable.

    A torsion point outside J_P has each kept exponent below the largest
    exponent of that variable in J_P (else the generator that absorbs
    the push already divides it), so the box runs one past that bound.
    """
    ip = [tuple(g[v] for v in keep) for g in i_gens]
    jp = [tuple(g[v] for v in keep) for g in j_gens]
    caps = [max((g[i] for g in jp), default=0) + 1 for i in range(len(keep))]
    push = max((a for g in jp for a in g), default=0) + 1
    count = 0
    for m in itertools.product(*(range(c) for c in caps)):
        if not _member(m, ip) or _member(m, jp):
            continue
        if all(
            _member(m[:i] + (m[i] + push,) + m[i + 1 :], jp) for i in range(len(keep))
        ):
            count += 1
    return count


def fcyc(n: int, i_gens, j_gens) -> dict[tuple[int, ...], int]:
    """The fundamental cycle of I/J over every monomial prime."""
    cycle = {}
    for size in range(n + 1):
        for keep in itertools.combinations(range(n), size):
            c = local_torsion(keep, i_gens, j_gens)
            if c:
                cycle[keep] = c
    return cycle


def trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def binord(n: int, cycle: dict) -> tuple[int, ...]:
    """The ordinal whose w^d coefficient is the cycle's mass in dimension d."""
    coeffs = [0] * (n + 1)
    for prime, c in cycle.items():
        coeffs[n - len(prime)] += c
    return trim(coeffs)


def profile(n: int, i_gens, j_gens) -> dict:
    """The invariants ``ordlen.profile`` reports, from first principles."""
    cycle = fcyc(n, i_gens, j_gens)
    length = binord(n, cycle)
    return {
        "fcyc": cycle,
        "length": length,
        "ass": tuple(sorted(cycle)),
        "valence": sum(cycle.values()),
        "is_binary": all(a <= 1 for a in length),
    }


# ----------------------------------------------------------------------
# ordinal arithmetic on coefficient tuples
# ----------------------------------------------------------------------


def osum(a, b) -> tuple[int, ...]:
    """Ordinal sum a + b: the part of a below b's degree is absorbed."""
    if not b:
        return tuple(a)
    e = len(b) - 1
    top = (a[e] if e < len(a) else 0) + b[e]
    return trim(tuple(b[:e]) + (top,) + tuple(a[e + 1 :]))


def shuffle(a, b) -> tuple[int, ...]:
    """Coefficientwise (natural) sum."""
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ole(a, b) -> bool:
    """a <= b as ordinals."""
    return (len(a), tuple(reversed(a))) <= (len(b), tuple(reversed(b)))


def omega_power(d: int) -> tuple[int, ...]:
    return (0,) * d + (1,)


# ----------------------------------------------------------------------
# closed forms of the exponent ladder
# ----------------------------------------------------------------------


def closed_form(family: str, params: tuple[int, ...]) -> tuple[int, ...]:
    """len R/J for each ladder family, as a coefficient tuple."""
    if family == "corner":  # (x^k, x^a*y^b, y^k)
        k, a, b = params
        return trim((k * k - (k - a) * (k - b),))
    if family == "strip":  # (x^k, x^a*y^b): a*w + (k-a)*b
        k, a, b = params
        return trim(((k - a) * b, a))
    if family == "principal":  # (x^a*y^b*z^c): (a+b+c)*w^2
        return trim((0, 0, sum(params)))
    if family == "cube":  # (x^k, y^k, z^k, x*y*z)
        (k,) = params
        return trim((k**3 - (k - 1) ** 3,))
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# case counts of the exhaustive two-variable corpora
# ----------------------------------------------------------------------


def antichains(n: int, d: int) -> list[tuple[Exp, ...]]:
    """Every antichain under divisibility among the monomials of degree
    <= d: one per monomial ideal generated in degree <= d."""
    pool = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
    out = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if not any(_divides(a, b) for a, b in itertools.permutations(combo, 2)):
                out.append(combo)
    return out


def contained_pair_count(n: int, d: int) -> int:
    """Pairs (J, I) of ideals generated in degree <= d with J inside I."""
    ideals = antichains(n, d)
    return sum(
        all(_member(g, big) for g in small) for small in ideals for big in ideals
    )


def ideals_above_power(n: int, k: int) -> int:
    """Monomial ideals containing the k-th power of the maximal ideal:
    one per divisor-closed set of standard monomials of degree < k."""
    cells = [e for e in itertools.product(range(k), repeat=n) if sum(e) < k]
    count = 0
    for mask in range(2 ** len(cells)):
        kept = {c for i, c in enumerate(cells) if mask >> i & 1}
        if all(
            all(f in kept for f in cells if f != c and _divides(f, c)) for c in kept
        ):
            count += 1
    return count

