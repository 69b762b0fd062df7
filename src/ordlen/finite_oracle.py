"""Brute-force oracle: finite-length modules over the two-element field.

An Artinian monomial quotient becomes an explicit finite-dimensional
module: the standard monomials are a basis and each variable acts by a
nilpotent multiplication table.  Vectors are bitmasks, subspaces are
reduced echelon bases, and everything is enumerated or solved by
Gaussian elimination, giving an implementation-independent check of the
length theory at finite length.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from .errors import GuardError
from .monomial import Monomial, MonomialIdeal

SUBMODULE_DIM_CAP = 8
ENDO_DIM_CAP = 5
# Largest box of exponents from_quotient may scan for its basis.
MAX_BOX_CELLS = 10**4


# ----------------------------------------------------------------------
# bitmask linear algebra over the two-element field
# ----------------------------------------------------------------------


def echelon(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced echelon basis of the span; canonical per subspace."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # clear every pivot from the rows above it, bottom row first
    for i in range(len(basis) - 1, -1, -1):
        for j in range(i + 1, len(basis)):
            if basis[i] ^ basis[j] < basis[i]:
                basis[i] ^= basis[j]
    return tuple(basis)


def reduce_mod(basis: Sequence[int], v: int) -> int:
    """Canonical representative of v modulo the span of an echelon basis."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def in_span(basis: Sequence[int], v: int) -> bool:
    return reduce_mod(basis, v) == 0


def span_vectors(basis: Sequence[int]) -> list[int]:
    vs = [0]
    for b in basis:
        vs += [v ^ b for v in vs]
    return vs


def solve_homogeneous(equations: Sequence[int], nbits: int) -> tuple[int, ...]:
    """Solution-space basis of a homogeneous system over the two-element
    field, each equation a bitmask functional over nbits unknowns."""
    # in reduced echelon form each row holds its pivot and free bits only,
    # so setting one free bit fixes the pivot of every row that holds it
    rows = echelon(equations)
    pivots = [r.bit_length() - 1 for r in rows]
    return echelon(
        (1 << fb) | sum(1 << p for r, p in zip(rows, pivots) if (r >> fb) & 1)
        for fb in range(nbits)
        if fb not in pivots
    )


def kernel_of_map(images: Sequence[int]) -> tuple[int, ...]:
    """Kernel basis of the linear map sending basis vector i to images[i].

    Kernel elements are combination masks over the domain basis.
    """
    width = max(images, default=0).bit_length()
    equations = [
        sum(((img >> o) & 1) << i for i, img in enumerate(images)) for o in range(width)
    ]
    return solve_homogeneous(equations, len(images))


def _apply(table: Sequence[int], v: int) -> int:
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= table[i]
        v >>= 1
        i += 1
    return out


def _concat(parts: Sequence[int], width: int) -> int:
    out = 0
    for k, p in enumerate(parts):
        out |= p << (k * width)
    return out


# ----------------------------------------------------------------------
# the oracle module
# ----------------------------------------------------------------------


class FiniteModule(NamedTuple):
    """A module over the two-element field with commuting nilpotent
    variable actions, given by the images of each basis vector."""

    nvars: int
    dim: int
    actions: tuple[tuple[int, ...], ...]
    labels: tuple[Monomial, ...] = ()

    @classmethod
    def from_quotient(cls, denominator: MonomialIdeal) -> "FiniteModule":
        """The quotient by an Artinian monomial ideal, on its standard
        monomial basis (sorted by degree)."""
        n = denominator.n
        caps = []
        for j in range(n):
            pure = [g.exps[j] for g in denominator.gens if g.support in ((j,), ())]
            if not pure:
                raise ValueError(
                    f"not Artinian: no pure power of variable {j} among the generators"
                )
            caps.append(min(pure))
        volume = math.prod(caps)
        if volume > MAX_BOX_CELLS:
            raise GuardError(
                f"the standard-monomial box has {volume} cells, over the bound of "
                f"{MAX_BOX_CELLS} (MAX_BOX_CELLS)"
            )
        gens = [g.exps for g in denominator.gens]
        cells = itertools.product(*(range(c) for c in caps))
        basis = sorted(
            (e for e in cells if not any(all(map(int.__le__, g, e)) for g in gens)),
            key=lambda e: (sum(e), e),
        )
        index = {e: i for i, e in enumerate(basis)}
        # the box holds every standard monomial, so an image outside the
        # index lies in the denominator
        actions = []
        for j in range(n):
            images = (e[:j] + (e[j] + 1,) + e[j + 1:] for e in basis)
            actions.append(tuple(1 << index[m] if m in index else 0 for m in images))
        return cls(n, len(basis), tuple(actions), tuple(map(Monomial._trusted, basis)))

    def apply_var(self, j: int, v: int) -> int:
        return _apply(self.actions[j], v)


def closure(module: FiniteModule, vectors: Iterable[int]) -> tuple[int, ...]:
    """Echelon basis of the smallest action-stable subspace containing
    the given vectors."""
    basis = list(echelon(vectors))
    queue = list(basis)
    while queue:
        v = queue.pop()
        for j in range(module.nvars):
            w = reduce_mod(basis, module.apply_var(j, v))
            if w:
                basis = list(echelon(basis + [w]))
                queue.append(w)
    return echelon(basis)


def socle(module: FiniteModule) -> tuple[int, ...]:
    """Echelon basis of the vectors that every variable kills."""
    return kernel_of_map([_concat(images, module.dim) for images in zip(*module.actions)])


def enumerate_submodules(module: FiniteModule) -> list[tuple[int, ...]]:
    """All action-stable subspaces, as echelon bases, zero and the whole
    module included."""
    if module.dim > SUBMODULE_DIM_CAP:
        raise GuardError(
            f"submodule enumeration at dimension {module.dim} exceeds the bound of "
            f"{SUBMODULE_DIM_CAP} (SUBMODULE_DIM_CAP)"
        )
    all_vectors = range(1, 1 << module.dim)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        base = frontier.pop()
        for v in all_vectors:
            if in_span(base, v):
                continue
            grown = closure(module, list(base) + [v])
            if grown not in seen:
                seen[grown] = grown
                frontier.append(grown)
    return sorted(seen.values(), key=lambda b: (len(b), b))


def longest_chain(module: FiniteModule) -> int:
    """Number of steps in the longest strictly increasing chain of
    submodules from zero to the whole module.

    Every step of any chain raises the dimension, so no chain beats one
    that climbs a dimension at a time; such a chain always exists here
    because nilpotent actions leave a socle in every quotient.  It is
    built below one socle vector of the quotient at a time: every
    variable sends that vector into the chain so far, so each step is a
    submodule.  The count equals the dimension.
    """
    basis: list[int] = []
    steps = 0
    while len(basis) < module.dim:
        images = [
            _concat(
                [reduce_mod(basis, module.apply_var(j, 1 << i)) for j in range(module.nvars)],
                module.dim,
            )
            for i in range(module.dim)
        ]
        candidates = [
            v for v in span_vectors(kernel_of_map(images)) if not in_span(basis, v)
        ]
        if not candidates:
            raise RuntimeError("socle ascent stalled; the actions are not nilpotent")
        basis = list(echelon(basis + [min(candidates)]))
        steps += 1
    return steps


def enumerate_endos(module: FiniteModule) -> list[tuple[int, ...]]:
    """All linear maps commuting with every variable action, as image tables."""
    d = module.dim
    if d > ENDO_DIM_CAP:
        raise GuardError(
            f"endomorphism enumeration at dimension {d} exceeds the bound of "
            f"{ENDO_DIM_CAP} (ENDO_DIM_CAP)"
        )
    if d == 0:
        return [()]
    # unknown bits: z[i*d + o] = bit o of the image of basis vector i
    equations = []
    for act in module.actions:
        for i in range(d):
            for o in range(d):
                eq = 0
                w = act[i]
                b = 0
                while w:  # bit o of X(A e_i)
                    if w & 1:
                        eq ^= 1 << (b * d + o)
                    w >>= 1
                    b += 1
                for c in range(d):  # bit o of A(X e_i)
                    if (act[c] >> o) & 1:
                        eq ^= 1 << (i * d + c)
                if eq:
                    equations.append(eq)
    endos = set()
    for combo in span_vectors(solve_homogeneous(equations, d * d)):
        endos.add(tuple((combo >> (i * d)) & ((1 << d) - 1) for i in range(d)))
    return sorted(endos)


def endo_power(module: FiniteModule, table: Sequence[int], k: int) -> tuple[int, ...]:
    out = tuple(1 << i for i in range(module.dim))
    for _ in range(k):
        out = tuple(_apply(table, v) for v in out)
    return out
