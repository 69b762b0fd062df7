"""Length theory of monomial subquotient modules.

A module here is a subquotient I/J of a polynomial ring presented by
two monomial ideals J <= I; the full quotient R/J takes I to be the
unit ideal.  The fundamental cycle records, at every monomial prime,
the classical length of the torsion of the localized module, and the
module's (transfinite) length is the ordinal shadow of that cycle.

The dimension filtration implemented by ``dim_filtration`` collects the
elements whose annihilator has small quotient dimension; its piece at
level e carries the low part of the length split at e and the quotient
carries the high part.
"""

from __future__ import annotations

import itertools
import os
import warnings
from functools import lru_cache, reduce
from typing import NamedTuple

from .corpus import sandwich_numerators
from .cycles import Cycle, MonomialPrime, binord
from .errors import GuardError
from .monomial import (
    Monomial,
    MonomialIdeal,
    colon_ideal,
    colon_mono,
    contains,
    h0_count,
    ideal_of_prime,
    ideal_sum,
    intersect,
    localize_pair,
    member,
    multiply,
    saturate,
    saturate_mono,
)
from .ordinal import Ordinal

# Associated-prime enumeration walks all 2^n variable subsets.
DEFAULT_MAX_VARS = 12
MAX_DIM_ENV = "ORDLEN_MAX_DIM"


def _max_vars() -> int:
    value = os.environ.get(MAX_DIM_ENV)
    return int(value) if value else DEFAULT_MAX_VARS


class MonomialModule:
    """The subquotient I/J of a polynomial ring in n variables."""

    __slots__ = ("n", "I", "J")
    n: int
    I: MonomialIdeal
    J: MonomialIdeal

    def __init__(self, n: int, I: MonomialIdeal, J: MonomialIdeal):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        self.__post_init__()

    def __post_init__(self):
        if self.I.n != self.n or self.J.n != self.n:
            raise ValueError("ideal ambient does not match module ambient")
        if not contains(self.I, self.J):
            raise ValueError("the denominator ideal must be contained in the numerator")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.I, self.J) == (other.n, other.I, other.J)

    def __hash__(self) -> int:
        return hash((self.n, self.I, self.J))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, (self.n, self.I, self.J))

    @classmethod
    def quotient_ring(cls, denominator: MonomialIdeal) -> "MonomialModule":
        """The cyclic module R/J."""
        return cls(denominator.n, MonomialIdeal.unit(denominator.n), denominator)

    @classmethod
    def full_ring(cls, n: int) -> "MonomialModule":
        return cls(n, MonomialIdeal.unit(n), MonomialIdeal.zero(n))

    @property
    def is_zero(self) -> bool:
        return self.I == self.J

    def submodule(self, numerator: MonomialIdeal) -> "MonomialModule":
        """The submodule numerator/J; the numerator must sit between J and I."""
        if not contains(self.I, numerator) or not contains(numerator, self.J):
            raise ValueError("submodule numerator must sit between J and I")
        return MonomialModule(self.n, numerator, self.J)

    def quotient_by(self, numerator: MonomialIdeal) -> "MonomialModule":
        """The quotient of this module by the submodule numerator/J."""
        if not contains(self.I, numerator) or not contains(numerator, self.J):
            raise ValueError("submodule numerator must sit between J and I")
        return MonomialModule(self.n, self.I, numerator)

    def __repr__(self) -> str:
        return f"MonomialModule({self.n}, I={self.I!r}, J={self.J!r})"


class ModuleProfile(NamedTuple):
    """Summary invariants of a module; zeros throughout for the zero module."""

    fcyc: Cycle
    length: Ordinal
    ass: tuple[MonomialPrime, ...]
    dim: int
    order: int
    valence: int
    is_binary: bool


def localize(module: MonomialModule, prime: MonomialPrime) -> MonomialModule:
    """Invert every variable outside the prime; the result lives in the
    prime's own variables."""
    if prime.n != module.n:
        raise ValueError("prime ambient does not match module ambient")
    keep = prime.key
    num, den = localize_pair(module.I, module.J, keep)
    return MonomialModule(len(keep), num, den)


def fcyc(module: MonomialModule) -> Cycle:
    """The fundamental cycle: each monomial prime weighted by the
    classical length of the local torsion there.

    The weight at P is one ``h0_count`` of the module localized at P: the
    number of standard pairs of J whose free set F is the variables
    outside P and whose head lies in I : x_F^infinity
    (Sturmfels-Trung-Vogel).
    Only finitely many primes carry weight; they are exactly the
    associated primes of the module.  The variable guard runs before the
    cache, so a cached module is refused like a new one.
    """
    if module.n > _max_vars():
        raise GuardError(
            f"associated-prime enumeration over {module.n} variables exceeds the guard "
            f"({_max_vars()}); set {MAX_DIM_ENV} to raise it"
        )
    return _fcyc(module)


@lru_cache(maxsize=None)
def _fcyc(module: MonomialModule) -> Cycle:
    n = module.n
    if module.is_zero:
        return Cycle.zero(n)
    terms = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            c = h0_count(*localize_pair(module.I, module.J, combo))
            if c:
                terms.append((MonomialPrime.of(n, combo), c))
    return Cycle(n, tuple(terms))


fcyc.cache_clear = _fcyc.cache_clear
fcyc.cache_info = _fcyc.cache_info


def length(module: MonomialModule) -> Ordinal:
    """The transfinite length: the ordinal shadow of the fundamental cycle."""
    return binord(fcyc(module))


def ass(module: MonomialModule) -> tuple[MonomialPrime, ...]:
    """Associated primes, i.e. the support of the fundamental cycle."""
    return fcyc(module).support


def annihilator(module: MonomialModule) -> MonomialIdeal:
    """The annihilator ideal (J : I); a zero numerator raises ValueError."""
    return colon_ideal(module.J, module.I)


def profile(module: MonomialModule) -> ModuleProfile:
    cycle = fcyc(module)
    mu = binord(cycle)
    if mu.is_zero:
        return ModuleProfile(cycle, mu, (), 0, 0, 0, True)
    return ModuleProfile(
        cycle, mu, cycle.support, mu.degree, mu.order, mu.valence, mu.is_binary
    )


def module_dim(module: MonomialModule) -> int:
    return profile(module).dim


def is_binary_module(module: MonomialModule) -> bool:
    return fcyc(module).is_binary


# ----------------------------------------------------------------------
# dimension filtration and localization kernels
# ----------------------------------------------------------------------


def dim_filtration(module: MonomialModule, e: int) -> MonomialModule:
    """The submodule of all elements of dimension at most e.

    An element's dimension is that of the quotient by its annihilator.
    The submodule is carved out by saturating the denominator at the
    intersection of the associated primes of dimension at most e: a
    monomial is killed by a power of that intersection exactly when all
    minimal primes over its annihilator are low-dimensional.  Its
    length is the low part of the module's length split at e, and the
    quotient's length is the high part.
    """
    if e < 0 or e > module.n:
        raise ValueError(f"filtration level {e} outside 0..{module.n}")
    if module.is_zero:
        return module
    primes = ass(module)
    if e >= max(p.dim for p in primes):
        return module
    low = [p for p in primes if p.dim <= e]
    if not low:
        return module.submodule(module.J)
    cut = reduce(intersect, (ideal_of_prime(p) for p in low))
    numerator = intersect(saturate(module.J, cut), module.I)
    return module.submodule(numerator)


def prim_kernel(module: MonomialModule, prime: MonomialPrime) -> MonomialModule:
    """The kernel of the localization map at the prime: everything
    killed by some monomial in the variables outside it."""
    if prime.n != module.n:
        raise ValueError("prime ambient does not match module ambient")
    if prime not in ass(module):
        warnings.warn(
            f"prim kernel at {prime!r}, which is not an associated prime",
            stacklevel=2,
        )
    outside = [i for i in range(module.n) if i not in prime.gens]
    s = Monomial(tuple(1 if i in outside else 0 for i in range(module.n)))
    numerator = intersect(saturate_mono(module.J, s), module.I)
    return module.submodule(numerator)


# ----------------------------------------------------------------------
# open submodules and witnesses
# ----------------------------------------------------------------------


def is_open_submodule(module: MonomialModule, numerator: MonomialIdeal) -> bool:
    """A submodule is open when it has the full length of the module."""
    return length(module.submodule(numerator)) == length(module)


def ass_witnesses(module: MonomialModule) -> dict[MonomialPrime, Monomial]:
    """A monomial of the module whose annihilator is each associated prime.

    m has annihilator P exactly when m lies in I, x_i*m lies in J for every
    i in P, and no monomial in the variables F outside P kills m: m is in
    A = I ∩ (J : P) and outside B = J : x_F^infinity.  Since B's complement
    is closed under division, the least element of A outside B, in
    (degree, exponents) order, is a minimal generator of A.
    """
    if module.is_zero:
        raise ValueError("the zero module has no associated primes")
    I, J = module.I, module.J
    found: dict[MonomialPrime, Monomial] = {}
    for p in ass(module):
        A = intersect(I, colon_ideal(J, ideal_of_prime(p))) if p.gens else I
        B = saturate_mono(J, Monomial(tuple(int(i not in p.gens) for i in range(module.n))))
        found[p] = next(g for g in A.gens if not member(g, B))
    return found


def split_binary_submodule(module: MonomialModule) -> tuple[MonomialModule, tuple[Monomial, ...]]:
    """The submodule generated by one witness monomial per associated
    prime, together with the witnesses (sorted by their prime)."""
    if module.is_zero:
        raise ValueError("the zero module cannot be split")
    witnesses = ass_witnesses(module)
    ordered = tuple(witnesses[p] for p in sorted(witnesses, key=lambda p: p.key))
    numerator = ideal_sum(module.J, MonomialIdeal(module.n, ordered))
    return module.submodule(numerator), ordered


def open_via_witnesses(module: MonomialModule, numerator: MonomialIdeal) -> bool:
    """Openness test for submodules of a binary module: the submodule
    must meet the cyclic module generated by every associated-prime
    witness."""
    if not is_binary_module(module):
        raise ValueError("witness-based openness requires a binary module")
    sub = module.submodule(numerator)  # validates the sandwich
    if module.is_zero:
        return True
    for m in ass_witnesses(module).values():
        generated = ideal_sum(MonomialIdeal(module.n, (m,)), module.J)
        if intersect(sub.I, generated) == module.J:
            return False
    return True


# ----------------------------------------------------------------------
# univalence
# ----------------------------------------------------------------------


class UnivalentData(NamedTuple):
    prime: MonomialPrime
    annihilator: MonomialIdeal
    annihilator_is_the_prime: bool


def is_univalent(module: MonomialModule) -> bool:
    """Valence one: the fundamental cycle is a single reduced prime."""
    return length(module).valence == 1


def univalent_data(module: MonomialModule) -> UnivalentData:
    """The unique associated prime and the annihilator, which must agree."""
    if not is_univalent(module):
        raise ValueError("module is not univalent")
    p = ass(module)[0]
    annm = annihilator(module)
    return UnivalentData(p, annm, annm == ideal_of_prime(p))


# ----------------------------------------------------------------------
# multiplication endomorphisms
# ----------------------------------------------------------------------


class EndoAnalysis(NamedTuple):
    """Everything the length theory says about multiplication by r."""

    r: Monomial
    kernel: MonomialModule
    image: MonomialModule
    mu: Ordinal
    kappa: Ordinal
    theta: Ordinal
    reductive: bool
    satisfies_rank_nullity: bool
    reductive_power: int
    tectonics_length: Ordinal
    nilpotent: bool
    monic: bool
    open_image: bool


def mult_endo(module: MonomialModule, r: Monomial) -> EndoAnalysis:
    """Analyze multiplication by the monomial r on the module."""
    if r.n != module.n:
        raise ValueError("multiplier ambient does not match module ambient")
    I, J = module.I, module.J

    def kernel_numerator(k: int) -> MonomialIdeal:
        return intersect(colon_mono(J, r.pow(k)), I)

    def image_numerator(k: int) -> MonomialIdeal:
        return ideal_sum(multiply(I, r.pow(k)), J)

    kernel = module.submodule(kernel_numerator(1))
    image = module.submodule(image_numerator(1))
    mu = length(module)
    kappa = length(kernel)
    theta = length(image)
    k = 1
    while kernel_numerator(k) != kernel_numerator(k + 1):
        k += 1
    tectonics = module.submodule(ideal_sum(kernel_numerator(k), image_numerator(k)))
    return EndoAnalysis(
        r=r,
        kernel=kernel,
        image=image,
        mu=mu,
        kappa=kappa,
        theta=theta,
        reductive=(k == 1),
        satisfies_rank_nullity=(mu == kappa.shuffle_sum(theta)),
        reductive_power=k,
        tectonics_length=length(tectonics),
        nilpotent=contains(saturate_mono(J, r), I),
        monic=(kernel.is_zero),
        open_image=(theta == mu),
    )


def ass_poset_length(module: MonomialModule) -> int:
    """Length (element count) of the longest chain of associated primes."""
    if module.is_zero:
        raise ValueError("the zero module has no associated primes")
    primes = ass(module)
    best: dict[MonomialPrime, int] = {}
    for p in sorted(primes, key=lambda q: len(q.gens)):
        below = [best[q] for q in primes if q != p and p.contains(q) and q in best]
        best[p] = 1 + max(below, default=0)
    return max(best.values())


def find_submodule_with_length(
    module: MonomialModule, target: Ordinal, max_degree: int = 4, max_extras: int = 2
) -> MonomialIdeal | None:
    """Best-effort search for a submodule of the given length.

    Tries the numerators ``sandwich_numerators`` yields: J itself and J
    plus up to ``max_extras`` monomials of I of degree at most
    ``max_degree``.  Returns a numerator on success and None when the
    search bound is exhausted; exhaustion is not a counterexample.
    """
    for numerator in sandwich_numerators(module.J, module.I, max_degree, max_extras):
        if length(module.submodule(numerator)) == target:
            return numerator
    return None
