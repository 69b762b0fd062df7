"""Symbolic endomorphism ring of the bivalent module (x, y)/(x², xy).

Over K[x, y] with x² = xy = 0, the module M = (x, y)/(x², xy) splits as
a one-dimensional socle K·x plus a polynomial stream y·K[y].  Every
endomorphism is pinned down by a triple (u, v, p):

    f(x) = u·x          f(y) = v·x + p(y)·y

because f(x) must land in the part killed by both variables (the line
K·x) and q(y)·x = q(0)·x collapses polynomial coefficients on x.  The
ring structure is computed exactly on truncated polynomials; every
identity asserted here is degree-bounded, so truncation never lies
as long as the working order is at least the degrees involved.

Composition (apply g, then f):

    u = u_f·u_g,   v = u_f·v_g + v_f·p_g(0),   p = p_f·p_g mod y^N

Classification facts verified by the check suite:
  * nilpotent  ⟺  u = 0 and p = 0   (then f² = 0 outright)
  * bijective  ⟺  u ≠ 0 and p(0) ≠ 0
  * monic      ⟺  u ≠ 0 and p ≠ 0
  * the kernel of a nonzero nilpotent is (x, y²)/(x², xy), an open
    submodule (same transfinite length ω + 1 as M)
  * the nilpotents form a two-sided ideal with square zero, all
    commutators land in it, and the quotient ring is commutative
    (decided on pairs of basis triples, the commutator being bilinear)
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .modules import MonomialModule, length
from .monomial import parse_ideal
from .ordinal import Ordinal
from .reporting import CheckResult, sweep

Scalar = int | Fraction

DEFAULT_TRUNCATION = 8
# the box of the coefficient grid, and the sample count of the cubic laws
GRID_LO, GRID_HI = -2, 2
RING_LAW_SAMPLES = 200


def poly_mul(p: Sequence[Scalar], q: Sequence[Scalar], order: int) -> tuple[Scalar, ...]:
    """p·q mod y^order."""
    out = [0] * order
    for i, a in enumerate(p):
        if a == 0 or i >= order:
            continue
        for j, b in enumerate(q):
            if i + j >= order:
                break
            if b:
                out[i + j] += a * b
    return tuple(out)


def poly_inverse(p: Sequence[Scalar], order: int) -> tuple[Scalar, ...]:
    """Power-series inverse truncated at the given order; p[0] must be a unit."""
    if not p or p[0] == 0:
        raise ValueError("constant term is zero; no power-series inverse")
    inv = [Fraction(1, 1) / p[0]] + [Fraction(0)] * (order - 1)
    for k in range(1, order):
        acc = sum(p[i] * inv[k - i] for i in range(1, min(k, len(p) - 1) + 1))
        inv[k] = -acc / p[0]
    return tuple(inv)


class EndoTriple(NamedTuple):
    """The endomorphism f(x) = u·x, f(y) = v·x + p(y)·y, with p truncated."""

    u: Scalar
    v: Scalar
    p: tuple[Scalar, ...]

    @property
    def order(self) -> int:
        return len(self.p)

    @classmethod
    def identity(cls, order: int) -> "EndoTriple":
        return cls(1, 0, (1,) + (0,) * (order - 1))

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0 and not any(self.p)

    def __str__(self) -> str:
        terms = " + ".join(
            f"{c}*y^{k}" if k else str(c) for k, c in enumerate(self.p) if c
        ) or "0"
        return f"(u={self.u}, v={self.v}, p={terms})"


def _check_orders(f: EndoTriple, g: EndoTriple) -> int:
    order = len(f.p)
    if order != len(g.p):
        raise ValueError(f"truncation mismatch: {order} vs {len(g.p)}")
    return order


def endo_add(f: EndoTriple, g: EndoTriple) -> EndoTriple:
    _check_orders(f, g)
    return EndoTriple(f.u + g.u, f.v + g.v, tuple(map(operator.add, f.p, g.p)))


def endo_sub(f: EndoTriple, g: EndoTriple) -> EndoTriple:
    _check_orders(f, g)
    return EndoTriple(f.u - g.u, f.v - g.v, tuple(map(operator.sub, f.p, g.p)))


def endo_compose(f: EndoTriple, g: EndoTriple) -> EndoTriple:
    """f after g; the v-slot picks up only g's constant term since q(y)·x = q(0)·x."""
    order = _check_orders(f, g)
    return EndoTriple(
        f.u * g.u,
        f.u * g.v + f.v * g.p[0],
        poly_mul(f.p, g.p, order),
    )


def endo_power(f: EndoTriple, k: int) -> EndoTriple:
    out = EndoTriple.identity(f.order)
    for _ in range(k):
        out = endo_compose(out, f)
    return out


def commutator(f: EndoTriple, g: EndoTriple) -> EndoTriple:
    """f∘g − g∘f, slot by slot from the composition formula."""
    order = _check_orders(f, g)
    (uf, vf, pf), (ug, vg, pg) = f, g
    return EndoTriple(
        uf * ug - ug * uf,
        (uf * vg + vf * pg[0]) - (ug * vf + vg * pf[0]),
        tuple(map(operator.sub, poly_mul(pf, pg, order), poly_mul(pg, pf, order))),
    )


def is_nilpotent(f: EndoTriple) -> bool:
    """u = 0 and p = 0; then f² = 0 already.  Exact despite truncation:
    a nonzero p stays nonzero under every power in K[y]."""
    return f.u == 0 and not any(f.p)


def is_bijective(f: EndoTriple) -> bool:
    return f.u != 0 and f.p[0] != 0


def is_monic(f: EndoTriple) -> bool:
    """Injectivity: the kernel {a·x + q·y : p·q = 0, a·u + q(0)·v = 0}
    vanishes exactly when u ≠ 0 and p ≠ 0."""
    return f.u != 0 and any(f.p)


def invert(f: EndoTriple) -> EndoTriple:
    if not is_bijective(f):
        raise ValueError("only bijective triples (u ≠ 0, p(0) ≠ 0) are invertible")
    q = poly_inverse(f.p, f.order)
    u = Fraction(1, 1) / f.u
    return EndoTriple(u, -Fraction(f.v) / (f.u * f.p[0]), q)


# ----------------------------------------------------------------------
# the exhaustive / randomized law suite
# ----------------------------------------------------------------------


def _grid(order: int) -> list[EndoTriple]:
    """Triples with u, v and the two lowest p-coefficients ranging over
    a small box; higher p-coefficients stay zero so the grid stays
    quadratic-law sized."""
    tail = (0,) * (order - 2)
    box = range(GRID_LO, GRID_HI + 1)
    return [
        EndoTriple(u, v, (c0, c1) + tail) for u, v, c0, c1 in itertools.product(box, repeat=4)
    ]


def _basis(order: int) -> list[EndoTriple]:
    """The standard triples e_u = (1, 0, 0), e_v = (0, 1, 0) and
    e_k = (0, 0, y^k) for k < order, a basis of End truncated at order."""
    zeros = (0,) * order
    return [EndoTriple(1, 0, zeros), EndoTriple(0, 1, zeros)] + [
        EndoTriple(0, 0, zeros[:k] + (1,) + zeros[k + 1:]) for k in range(order)
    ]


def _random_triple(rng: random.Random, order: int) -> EndoTriple:
    return EndoTriple(
        rng.randint(-9, 9),
        rng.randint(-9, 9),
        tuple(rng.randint(-9, 9) for _ in range(order)),
    )


def _inverts(f: EndoTriple, ident: EndoTriple) -> bool:
    g = invert(f)
    return endo_compose(f, g) == ident == endo_compose(g, f)


def _absorbed(f: EndoTriple, n: EndoTriple, n0: EndoTriple) -> bool:
    """f·n and n·f are nilpotent, and so is the difference n − n0."""
    return (
        is_nilpotent(endo_compose(f, n))
        and is_nilpotent(endo_compose(n, f))
        and is_nilpotent(endo_sub(n, n0))
    )


def _ring_laws(a: EndoTriple, b: EndoTriple, c: EndoTriple) -> bool:
    """Associativity and both distributive laws."""
    return (
        endo_compose(endo_compose(a, b), c) == endo_compose(a, endo_compose(b, c))
        and endo_compose(a, endo_add(b, c)) == endo_add(endo_compose(a, b), endo_compose(a, c))
        and endo_compose(endo_add(a, b), c) == endo_add(endo_compose(a, c), endo_compose(b, c))
    )


def _commutator_bilinear(a: EndoTriple, b: EndoTriple, c: EndoTriple) -> bool:
    """[a+b, c] = [a, c] + [b, c] and [a, b+c] = [a, b] + [a, c]."""
    return (
        commutator(endo_add(a, b), c) == endo_add(commutator(a, c), commutator(b, c))
        and commutator(a, endo_add(b, c)) == endo_add(commutator(a, b), commutator(a, c))
    )


def _nil_kernel_is_open(kernel: str, module: str, denominator: str) -> bool:
    """The kernel has the length ω + 1 of the whole module."""
    names = ("x", "y")
    J = parse_ideal(denominator, names)
    return (
        length(MonomialModule(2, parse_ideal(kernel, names), J))
        == length(MonomialModule(2, parse_ideal(module, names), J))
        == Ordinal.parse("w + 1")
    )


def check_endo_fixture(order: int = DEFAULT_TRUNCATION, seed: int = 0) -> list[CheckResult]:
    """Every ring-theoretic claim about the (u, v, p) fixture, checked
    exhaustively on the coefficient grid and sampled for the cubic laws.

    The commutator law is decided on the basis pairs: each slot of
    f∘g − g∘f sums products of one coordinate of f with one of g, and
    the nil ideal {u = 0, p = 0} is a subspace, so every commutator of
    End truncated at ``order`` is nilpotent exactly when those of the
    basis pairs are.  The sampled ``endo-commutator-bilinear`` law checks
    the bilinearity this rests on."""
    if order < 4:
        raise ValueError("truncation order must be at least 4")
    grid = _grid(order)
    ident = EndoTriple.identity(order)
    nilpotents = [f for f in grid if is_nilpotent(f)]
    units = [
        EndoTriple(c, 0, (c,) + (0,) * (order - 1)) for c in range(GRID_LO, GRID_HI + 1) if c
    ]
    rng = random.Random(seed)
    samples = (
        tuple(_random_triple(rng, order) for _ in range(3)) for _ in range(RING_LAW_SAMPLES)
    )
    noncommuting = (EndoTriple(0, 1, (0,) * order), EndoTriple(2, 0, (1,) + (0,) * (order - 1)))
    return [
        *sweep(grid, [
            ("endo-identity", "triples: two-sided identity",
             lambda f: endo_compose(f, ident) == f == endo_compose(ident, f)),
            ("endo-nilpotent-square", "triples: nilpotent ⟺ f² = 0",
             lambda f: is_nilpotent(f) == endo_power(f, 2).is_zero()),
            ("endo-bijective-inverse", "triples with u≠0, p(0)≠0: invert two-sidedly",
             lambda f: _inverts(f, ident) if is_bijective(f) else None),
        ]),
        *sweep(((f, n) for n in nilpotents for f in grid), [
            ("endo-nil-ideal", "(triple, nilpotent) pairs: nilpotents absorb composition "
             "both sides and are closed under difference",
             lambda fn: _absorbed(*fn, nilpotents[0])),
        ]),
        *sweep(itertools.product(nilpotents, repeat=2), [
            ("endo-nil-square-zero", "nilpotent pairs: the product vanishes",
             lambda ab: endo_compose(*ab).is_zero()),
        ]),
        *sweep(itertools.product(_basis(order), repeat=2), [
            ("endo-commutators-nil", "basis pairs: the commutator lies in the nil ideal",
             lambda fg: is_nilpotent(commutator(*fg))),
        ]),
        *sweep([noncommuting], [
            ("endo-noncommutative", "witness pair: the commutator is nonzero and nilpotent",
             lambda fg: not commutator(*fg).is_zero() and is_nilpotent(commutator(*fg))),
        ]),
        *sweep(((f, n) for f in grid if is_monic(f) for n in nilpotents), [
            ("endo-monic-plus-nil", "(monic, nilpotent) pairs: the sum stays monic",
             lambda fn: is_monic(endo_add(*fn))),
        ]),
        *sweep(itertools.product(units, nilpotents), [
            ("endo-central-unit-plus-nil", "(central unit, nilpotent) pairs: the sum inverts",
             lambda cn: is_bijective(endo_add(*cn))),
        ]),
        *sweep(samples, [
            ("endo-ring-laws", "random triples: associativity and distributivity",
             lambda abc: _ring_laws(*abc)),
            ("endo-commutator-bilinear", "random triples: the commutator is additive "
             "in each argument", lambda abc: _commutator_bilinear(*abc)),
        ]),
        *sweep([("x, y^2", "x, y", "x^2, x*y")], [
            ("endo-nil-kernel-open", "kernel (x, y²)/(x², xy) of a nonzero nilpotent: "
             "length ω + 1, that of M", lambda t: _nil_kernel_is_open(*t)),
        ]),
    ]
