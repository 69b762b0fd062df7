"""Monomial ideal combinatorics: membership, colons, saturation,
intersection, localization and torsion counting.

Everything here is exact integer bookkeeping on exponent vectors.  An
ideal holds the exponent vectors of its unique minimal generators (an
antichain under divisibility), so structural equality is ideal equality;
its ``gens`` view them as Monomials for the public API and text forms.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import itemgetter
from typing import Iterable, Sequence

from .cycles import MonomialPrime
from .errors import GuardError, ParseError
from .frozen import Frozen

# Largest number of cells of the exponent grid one h0_count may scan;
# the scan visits one line of the box per cell.
MAX_H0_CELLS = 10**6


class Monomial(Frozen):
    """A monomial stored as its exponent vector."""

    __slots__ = ("exps",)
    exps: tuple[int, ...]

    def __init__(self, exps: tuple[int, ...]):
        object.__setattr__(self, "exps", exps)
        self.__post_init__()

    def __post_init__(self):
        e = tuple(int(a) for a in self.exps)
        if any(a < 0 for a in e):
            raise ValueError(f"negative exponent in {e!r}")
        object.__setattr__(self, "exps", e)

    @classmethod
    def _trusted(cls, exps: tuple[int, ...]) -> "Monomial":
        """Wrap a tuple of naturals, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "exps", exps)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return hash((self.exps,))

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def var(cls, n: int, i: int) -> "Monomial":
        return cls(tuple(1 if j == i else 0 for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def pow(self, k: int) -> "Monomial":
        return Monomial(tuple(a * k for a in self.exps))

    def to_text(self, names: Sequence[str]) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, a in enumerate(self.exps):
            if a == 1:
                parts.append(names[i])
            elif a > 1:
                parts.append(f"{names[i]}^{a}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


def _member(e: tuple[int, ...], exps: Iterable[tuple[int, ...]]) -> bool:
    """x^e lies in the ideal the vectors generate: one is at most e throughout."""
    return any(all(map(int.__le__, g, e)) for g in exps)


def _minimal(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal exponent vectors of the ideal the vectors generate,
    sorted by degree and then exponents: every vector a kept one divides
    is dropped."""
    kept: list[tuple[int, ...]] = []
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        if not _member(e, kept):
            kept.append(e)
    return kept


class MonomialIdeal(Frozen):
    """A monomial ideal held by its minimal exponent vectors ``exps``,
    sorted by degree and then exponents; ``gens`` views them as Monomials.

    The zero ideal has no generators; the unit ideal is generated by 1.
    """

    __slots__ = ("n", "exps")
    n: int
    exps: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, gens: tuple[Monomial, ...] = ()):
        object.__setattr__(self, "n", n)
        self.__post_init__(gens)

    def __post_init__(self, gens: tuple[Monomial, ...]):
        for g in gens:
            if g.n != self.n:
                raise ValueError(f"generator {g!r} does not live in {self.n} variables")
        object.__setattr__(self, "exps", tuple(_minimal(g.exps for g in gens)))

    @classmethod
    def _trusted(cls, n: int, exps: Iterable[tuple[int, ...]]) -> "MonomialIdeal":
        """The ideal generated by exponent vectors of naturals of length n,
        unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exps", tuple(_minimal(exps)))
        return self

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators, as Monomials."""
        return tuple(map(Monomial._trusted, self.exps))

    def __reduce__(self):
        return (self.__class__, (self.n, self.gens))  # rebuilt by the checked constructor

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.exps) == (other.n, other.exps)

    def __hash__(self) -> int:
        return hash((self.n, self.exps))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (Monomial.one(n),))

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def is_unit(self) -> bool:
        return len(self.exps) == 1 and not any(self.exps[0])

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.n}, {list(self.exps)})"


def _same_ambient(n: int, other: int) -> None:
    if n != other:
        raise ValueError(f"ambient mismatch: {n} vs {other}")


def member(m: Monomial, ideal: MonomialIdeal) -> bool:
    """Monomial membership: some generator divides m."""
    return _member(m.exps, ideal.exps)


def contains(big: MonomialIdeal, small: MonomialIdeal) -> bool:
    """Ideal containment small <= big, checked generatorwise."""
    return all(_member(e, big.exps) for e in small.exps)


# The operations below build their results unchecked from exponent
# tuples: a max, a sum, a truncated difference or a zeroing of naturals
# is a natural, so only the ambients need checking.  The trusted
# constructor still minimalizes, so generators stay canonical.


def colon_mono(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal (ideal : m)."""
    _same_ambient(ideal.n, m.n)
    r = m.exps
    return MonomialIdeal._trusted(
        ideal.n, (tuple(a - b if a > b else 0 for a, b in zip(e, r)) for e in ideal.exps)
    )


def colon_ideal(ideal: MonomialIdeal, by: MonomialIdeal) -> MonomialIdeal:
    """The colon (ideal : by), the intersection of the generator colons."""
    if by.is_zero:
        raise ValueError(
            "colon by the zero ideal is the unit ideal by convention; "
            "refusing to produce it silently"
        )
    return reduce(intersect, (colon_mono(ideal, g) for g in by.gens))


def saturate_mono(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The saturation (ideal : m^infinity): the ideal with the exponents
    of m's variables zeroed in every generator."""
    _same_ambient(ideal.n, m.n)
    r = m.exps
    return MonomialIdeal._trusted(
        ideal.n, (tuple(0 if b else a for a, b in zip(e, r)) for e in ideal.exps)
    )


def saturate(ideal: MonomialIdeal, by: MonomialIdeal) -> MonomialIdeal:
    """The saturation (ideal : by^infinity), the intersection of the
    saturations at by's generators (Hosten-Smith, "Monomial ideals")."""
    if by.is_zero:
        raise ValueError(
            "saturation by the zero ideal is the unit ideal by convention; "
            "refusing to produce it silently"
        )
    return reduce(intersect, (saturate_mono(ideal, g) for g in by.gens))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcm of generators."""
    _same_ambient(a.n, b.n)
    return MonomialIdeal._trusted(
        a.n, (tuple(map(max, g, h)) for g in a.exps for h in b.exps)
    )


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The sum ideal, generated by both generator sets."""
    _same_ambient(a.n, b.n)
    return MonomialIdeal._trusted(a.n, a.exps + b.exps)


def multiply(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The product m * ideal."""
    _same_ambient(ideal.n, m.n)
    r = m.exps
    return MonomialIdeal._trusted(ideal.n, (tuple(map(int.__add__, e, r)) for e in ideal.exps))


def ideal_of_prime(p: MonomialPrime) -> MonomialIdeal:
    """The monomial ideal generated by the prime's variables."""
    return MonomialIdeal(p.n, tuple(Monomial.var(p.n, i) for i in p.gens))


# ----------------------------------------------------------------------
# localization and torsion length of a subquotient presentation
# ----------------------------------------------------------------------


def localize_pair(
    numerator: MonomialIdeal, denominator: MonomialIdeal, keep: Sequence[int]
) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Invert the variables outside ``keep`` in both ideals.

    Inverted variables become units, so their exponents are dropped and
    the generators re-minimalized over the kept variables.  Projections
    of valid exponent vectors are valid, so both ideals are built
    unchecked.
    """
    _same_ambient(numerator.n, denominator.n)
    keep = tuple(sorted(keep))
    nn = len(keep)
    num = MonomialIdeal._trusted(nn, (tuple(e[i] for i in keep) for e in numerator.exps))
    den = MonomialIdeal._trusted(nn, (tuple(e[i] for i in keep) for e in denominator.exps))
    return num, den


def h0_count(numerator: MonomialIdeal, denominator: MonomialIdeal) -> int:
    """Number of monomials of numerator/denominator killed by a power of
    every variable: the classical length of the torsion at the fine
    maximal ideal.

    Such a monomial lies in the numerator I, outside the denominator J
    and in every saturation J : x_i^infinity, which is J with x_i's
    exponents zeroed.  In each variable its exponent is strictly below
    that variable's largest exponent among J's generators (its cap), so
    the count runs over a finite box.  Along a line of the box in the
    variable v with the largest cap, membership in J, in I and in each
    saturation is a threshold t on v's exponent, so the line holds
    max(0, t_J - max(t_I, t_i...)) counted monomials.  Each threshold
    compares the line's other coordinates with generator exponents, so
    on each other axis it is constant between consecutive distinct
    exponents of I and J below the cap.  The scan visits one line per
    cell of that grid, weighted by the cell's size.  For
    R/(x^k, y^k, z^k, xyz) the cells on the y and z axes are [0, 1) and
    [1, k), so the grid has 4 cells where the box has k^2 lines.

    Ideals in different ambients raise ValueError.  A grid of more than
    ``MAX_H0_CELLS`` cells raises GuardError before its masks are built.
    """
    _same_ambient(numerator.n, denominator.n)
    if numerator == denominator:
        return 0
    return _h0_scan(numerator.exps, denominator.exps, numerator.n)


def _h0_scan(num: Sequence[tuple[int, ...]], den: Sequence[tuple[int, ...]], n: int) -> int:
    """``h0_count`` on the minimal exponent vectors of two different
    ideals in n variables, the numerator's and the denominator's."""
    if n == 0:
        # the ring is the ground field; the module is it or nothing
        return 1 if num else 0
    caps = list(map(max, zip(*den)))
    if not caps or not all(caps):
        # J is zero, or no generator involves some x_i, so J : x_i^infinity = J
        # and nothing is torsion
        return 0
    v = caps.index(max(caps))
    others = [j for j in range(n) if j != v]
    # On each other axis j a generator reaches the points whose exponent
    # is at least its own, so every comparison is constant on the cells
    # between consecutive distinct exponents below the cap: one line per
    # cell, weighted by the cell's width, stands for all of its lines.
    # (Plain loops here: a comprehension nested in a comprehension builds
    # a function object per axis, a cost the many small scans feel.)
    cuts = []
    cells = 1
    for j in others:
        cuts.append(
            sorted({0, caps[j], *[e[j] for e in num if e[j] < caps[j]], *[e[j] for e in den]})
        )
        cells *= len(cuts[-1]) - 1
    if cells > MAX_H0_CELLS:
        raise GuardError(
            f"torsion count would scan {cells} grid cells, over the bound of "
            f"{MAX_H0_CELLS} (MAX_H0_CELLS)"
        )
    if not num:
        # a zero numerator has nothing to count
        return 0
    # Generators sorted by their exponent of v, so the least threshold
    # among a set of them held as a bitmask m is t[(m & -m).bit_length() - 1],
    # the threshold of its lowest set bit.
    num = sorted(num, key=itemgetter(v))
    den = sorted(den, key=itemgetter(v))
    t_num = [e[v] for e in num]
    t_den = [e[v] for e in den]
    # A cell is (width, the masks of the generators of I and of J that
    # reach it).
    grid = []
    for j, axis_cuts in zip(others, cuts):
        grid.append(
            [
                (
                    hi - lo,
                    sum([1 << k for k, e in enumerate(num) if e[j] <= lo]),
                    sum([1 << k for k, e in enumerate(den) if e[j] <= lo]),
                )
                for lo, hi in zip(axis_cuts, axis_cuts[1:])
            ]
        )
    if not grid:
        # one variable: the box is a single line
        return max(0, t_den[0] - t_num[0])
    # Walk the cells depth first.  A state holds the generators of I and
    # of J that reach the line on the axes so far and, for each of those
    # axes, the generators of J that miss that axis alone: the ones whose
    # saturation sets that axis's threshold.  A cell where any of these
    # sets is empty counts nothing, nor does any cell below it.
    last = len(grid) - 1
    count = 0
    stack = [(0, 1, (1 << len(num)) - 1, (1 << len(den)) - 1, [])]
    while stack:
        axis, weight, num_in, den_in, alone = stack.pop()
        for width, num_at, den_at in grid[axis]:
            num_next = num_in & num_at
            den_next = den_in & den_at
            missed = den_in & ~den_at
            if not (num_next and den_next and missed):
                continue
            alone_next = [m & den_at for m in alone]
            if not all(alone_next):
                continue
            alone_next.append(missed)
            if axis < last:
                stack.append((axis + 1, weight * width, num_next, den_next, alone_next))
                continue
            # the line counts from I's and every saturation's threshold up to J's
            start = max(
                [t_num[(num_next & -num_next).bit_length() - 1]]
                + [t_den[(m & -m).bit_length() - 1] for m in alone_next]
            )
            end = t_den[(den_next & -den_next).bit_length() - 1]
            if end > start:
                count += weight * width * (end - start)
    return count


# ----------------------------------------------------------------------
# text and JSON forms
# ----------------------------------------------------------------------

def default_names(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def parse_monomial(text: str, names: Sequence[str]) -> Monomial:
    """Parse ``x^2*y`` style text against a list of variable names."""
    index = {name: i for i, name in enumerate(names)}
    exps = [0] * len(names)
    s = text.strip()
    if s == "1":
        return Monomial(tuple(exps))
    pos = 0
    for chunk in s.split("*"):
        factor = chunk.strip()
        m = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$", factor)
        if not m:
            raise ParseError(f"bad monomial factor {factor!r}", text, pos)
        name, power = m.group(1), int(m.group(2) or 1)
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", text, pos)
        exps[index[name]] += power
        pos += len(chunk) + 1
    return Monomial(tuple(exps))


def parse_ideal(text: str, names: Sequence[str]) -> MonomialIdeal:
    """Parse a comma-separated generator list; empty text or 0 is the zero ideal."""
    n = len(names)
    s = text.strip()
    if not s or s == "0":
        return MonomialIdeal.zero(n)
    gens = [parse_monomial(chunk, names) for chunk in s.split(",")]
    return MonomialIdeal(n, tuple(gens))


def format_ideal(ideal: MonomialIdeal, names: Sequence[str]) -> str:
    if ideal.is_zero:
        return "0"
    return ", ".join(g.to_text(names) for g in ideal.gens)


def ideal_to_json(ideal: MonomialIdeal, names: Sequence[str]) -> dict:
    return {"vars": list(names), "gens": [list(e) for e in ideal.exps]}
