"""Cycles supported on monomial primes, and their ordinal shadow.

A monomial prime in n variables is the prime ideal generated by a
subset of the variables, recorded by index.  A cycle is a formal sum of
such primes with natural coefficients; ``binord`` collapses a cycle to
the ordinal whose w^d coefficient is the total mass in dimension d.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .frozen import Frozen
from .ordinal import Ordinal


class MonomialPrime(Frozen):
    """The prime generated by the variables ``gens`` inside n variables."""

    __slots__ = ("n", "gens")
    n: int
    gens: frozenset[int]

    def __init__(self, n: int, gens: frozenset[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self):
        gens = frozenset(int(i) for i in self.gens)
        if self.n < 0:
            raise ValueError("ambient variable count must be a natural number")
        if any(i < 0 or i >= self.n for i in gens):
            raise ValueError(f"variable index out of range in {sorted(gens)} (n={self.n})")
        object.__setattr__(self, "gens", gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.gens) == (other.n, other.gens)

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    @classmethod
    def of(cls, n: int, indices: Iterable[int]) -> "MonomialPrime":
        return cls(n, frozenset(indices))

    @property
    def dim(self) -> int:
        """Dimension of the quotient by this prime: n minus the generator count."""
        return self.n - len(self.gens)

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.gens))

    def contains(self, other: "MonomialPrime") -> bool:
        """Ideal containment: self >= other as primes."""
        return other.gens <= self.gens

    def to_text(self, names: Sequence[str]) -> str:
        if not self.gens:
            return "[0]"
        return "[" + ",".join(names[i] for i in self.key) + "]"

    def __repr__(self) -> str:
        return f"MonomialPrime({self.n}, {set(self.key) if self.gens else '{}'})"


class Cycle(Frozen):
    """A formal natural-number combination of monomial primes."""

    __slots__ = ("n", "terms")
    n: int
    terms: tuple[tuple[MonomialPrime, int], ...]

    def __init__(self, n: int, terms: tuple[tuple[MonomialPrime, int], ...] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self):
        acc: dict[MonomialPrime, int] = {}
        for p, c in self.terms:
            if p.n != self.n:
                raise ValueError(f"prime ambient {p.n} != cycle ambient {self.n}")
            if c < 0:
                raise ValueError("cycle coefficients must be natural numbers")
            acc[p] = acc.get(p, 0) + c
        terms = tuple(sorted(((p, c) for p, c in acc.items() if c), key=lambda t: t[0].key))
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __hash__(self) -> int:
        return hash((self.n, self.terms))

    def __repr__(self) -> str:
        return f"Cycle(n={self.n!r}, terms={self.terms!r})"

    @classmethod
    def zero(cls, n: int) -> "Cycle":
        return cls(n, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple[MonomialPrime, ...]:
        return tuple(p for p, _ in self.terms)

    @property
    def is_binary(self) -> bool:
        return all(c <= 1 for _, c in self.terms)

    def to_text(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{p.to_text(names)}" for p, c in self.terms)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"prime": list(p.key), "coeff": c} for p, c in self.terms],
        }


def binord(cycle: Cycle) -> Ordinal:
    """The ordinal with w^d coefficient equal to the cycle's mass in dimension d."""
    return Ordinal.from_pairs((p.dim, c) for p, c in cycle.terms)
