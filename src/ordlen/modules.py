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
import warnings
from functools import lru_cache, reduce
from typing import NamedTuple

from .corpus import sandwich_monomials, sandwich_numerators
from .cycles import Cycle, MonomialPrime, binord
from .errors import GuardError
from .frozen import Frozen
from .monomial import (
    Monomial,
    MonomialIdeal,
    _h0_scan,
    _minimal,
    colon_ideal,
    colon_mono,
    contains,
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

# fcyc walks subsets of the variables that occur in the denominator, so
# at most 2^MAX_PRIME_VARS primes.
MAX_PRIME_VARS = 12
# find_submodule_with_length adds monomials of degree at most
# SEARCH_DEGREE, and tries at most MAX_SEARCH_CANDIDATES numerators.
SEARCH_DEGREE = 4
MAX_SEARCH_CANDIDATES = 5000


class MonomialModule(Frozen):
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

    @classmethod
    def _trusted(cls, n: int, I: MonomialIdeal, J: MonomialIdeal) -> "MonomialModule":
        """The module I/J for ideals in n variables with J <= I, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.I, self.J) == (other.n, other.I, other.J)

    def __hash__(self) -> int:
        return hash((self.n, self.I, self.J))

    @classmethod
    def quotient_ring(cls, denominator: MonomialIdeal) -> "MonomialModule":
        """The cyclic module R/J."""
        return cls(denominator.n, MonomialIdeal.unit(denominator.n), denominator)

    @property
    def is_zero(self) -> bool:
        return self.I == self.J

    def _check_numerator(self, numerator: MonomialIdeal) -> None:
        """J <= numerator <= I in this module's ambient, which also gives
        J <= I for either module built from it."""
        if numerator.n != self.n:
            raise ValueError("ideal ambient does not match module ambient")
        if not contains(self.I, numerator) or not contains(numerator, self.J):
            raise ValueError("submodule numerator must sit between J and I")

    def submodule(self, numerator: MonomialIdeal) -> "MonomialModule":
        """The submodule numerator/J; the numerator must sit between J and I."""
        self._check_numerator(numerator)
        return MonomialModule._trusted(self.n, numerator, self.J)

    def quotient_by(self, numerator: MonomialIdeal) -> "MonomialModule":
        """The quotient of this module by the submodule numerator/J."""
        self._check_numerator(numerator)
        return MonomialModule._trusted(self.n, self.I, numerator)

    def __repr__(self) -> str:
        return f"MonomialModule({self.n}, I={self.I!r}, J={self.J!r})"


class ModuleProfile(NamedTuple):
    """Summary invariants of a module; zeros throughout for the zero module.

    ``dim``, ``order``, ``valence`` and ``is_binary`` read the length, not
    the cycle: ``is_binary`` says every w^d coefficient of the length is 0
    or 1.  A binary module, as ``is_binary_module`` tests, has every cycle
    coefficient 0 or 1 instead.  The two differ on R/(xy): its cycle
    [x] + [y] is binary, but its length 2w is not.
    """

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


@lru_cache(maxsize=None)
def fcyc(module: MonomialModule) -> Cycle:
    """The fundamental cycle: each monomial prime weighted by the
    classical length of the local torsion there.

    The weight at P is one ``h0_count`` of the module localized at P: the
    number of standard pairs of J whose free set F is the variables
    outside P and whose head lies in I : x_F^infinity
    (Sturmfels-Trung-Vogel).
    Only finitely many primes carry weight; they are exactly the
    associated primes of the module.  Those lie in Ass(R/J), since
    Ass(I/J) <= Ass(R/J) (Hosten-Smith, "Monomial ideals"), so only
    primes that can be associated to R/J are scanned:
    - P is a set S of variables that occur in J and meet the support of
      every generator of J.  Elsewhere the weight is 0, because a kept
      variable outside J has no torsion, and a generator of J that
      becomes a unit makes I and J agree.
    - J localized at P has at least |S| minimal generators.  An
      associated P has a socle monomial x^c in the localized R/J, and
      for each i in S some minimal generator divides x^c x_i but not
      x^c, so its x_i exponent is c_i + 1 while the others' are at most
      c_i: these generators are distinct.  So the walk stops at |S| =
      the generator count of J.
    - I and J differ once localized at P.
    The scan runs on exponent tuples, with no ideal built per prime.

    A module with more than ``MAX_PRIME_VARS`` variables occurring in J
    raises GuardError.  The guard depends on the module alone and the
    cache stores no exception, so a refused module is refused on every
    call.
    """
    n = module.n
    if module.is_zero:
        return Cycle.zero(n)
    occurring = sorted({i for g in module.J.gens for i in g.support})
    if len(occurring) > MAX_PRIME_VARS:
        raise GuardError(
            f"the prime walk over the {len(occurring)} variables that occur in the "
            f"denominator exceeds the bound of {MAX_PRIME_VARS} (MAX_PRIME_VARS)"
        )
    num_exps = [g.exps for g in module.I.gens]
    den_exps = [g.exps for g in module.J.gens]
    supports = {sum(1 << i for i in g.support) for g in module.J.gens}
    terms = []
    for size in range(min(len(occurring), len(den_exps)) + 1):
        for combo in itertools.combinations(occurring, size):
            mask = sum(1 << i for i in combo)
            if not all(mask & s for s in supports):
                continue
            den = _minimal([tuple(e[i] for i in combo) for e in den_exps])
            if len(den) < size:
                continue
            num = _minimal([tuple(e[i] for i in combo) for e in num_exps])
            if num == den:
                continue
            c = _h0_scan(num, den, size)
            if c:
                terms.append((MonomialPrime.of(n, combo), c))
    return Cycle(n, tuple(terms))


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
    """Analyze multiplication by the monomial r on the module.

    The kernels of r^k, I ∩ (J : r^k), grow with k.  Once two consecutive
    ones agree they never change again: if m in I needs r^(k+2) to reach
    J, then m*r in I needs r^(k+1).  So the reductive power is the least
    k >= 1 at which the kernel is the stable one, I ∩ (J : r^infinity),
    i.e. at which h*r^k lies in J for every generator h of the stable
    kernel.  For one generator g of J that takes k >= (g_i - h_i) / r_i
    in each variable where g exceeds h.
    """
    if r.n != module.n:
        raise ValueError("multiplier ambient does not match module ambient")
    I, J = module.I, module.J

    def least_power(h: tuple[int, ...]) -> int:
        # the least k with h*r^k in J, for h in J : r^infinity; a generator
        # of J that exceeds h in a variable r lacks never divides h*r^k
        steps = (
            [-((h_i - g_i) // r_i) for g_i, h_i, r_i in zip(g.exps, h, r.exps) if g_i > h_i]
            for g in J.gens
            if all(r_i or g_i <= h_i for g_i, h_i, r_i in zip(g.exps, h, r.exps))
        )
        return min(max(s, default=0) for s in steps)

    stable = intersect(saturate_mono(J, r), I)
    k = max([1, *(least_power(h.exps) for h in stable.gens)])
    kernel = module.submodule(intersect(colon_mono(J, r), I))
    image = module.submodule(ideal_sum(multiply(I, r), J))
    mu = length(module)
    kappa = length(kernel)
    theta = length(image)
    tectonics = module.submodule(ideal_sum(stable, multiply(I, r.pow(k))))
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
        nilpotent=(stable == I),
        monic=(kernel.is_zero),
        open_image=(theta == mu),
    )


def find_submodule_with_length(module: MonomialModule, target: Ordinal) -> MonomialIdeal | None:
    """Best-effort search for a submodule of the given length.

    Tries the numerators ``sandwich_numerators`` yields: J itself and J
    plus up to two monomials of I of degree at most ``SEARCH_DEGREE``.
    Returns a numerator on success and None when the search bound is
    exhausted; exhaustion is not a counterexample.

    With p such monomials outside J there are at most 1 + p + p(p-1)/2
    candidates; a search over more than ``MAX_SEARCH_CANDIDATES`` raises
    GuardError before any candidate is tried.  The monomials are counted
    as they are listed, and the count stops at the first p over the bound.
    """
    for p, _ in enumerate(sandwich_monomials(module.J, module.I, SEARCH_DEGREE), 1):
        candidates = 1 + p + p * (p - 1) // 2
        if candidates > MAX_SEARCH_CANDIDATES:
            raise GuardError(
                f"the submodule search over at least {candidates} candidate numerators "
                f"exceeds the bound of {MAX_SEARCH_CANDIDATES} (MAX_SEARCH_CANDIDATES)"
            )
    for numerator in sandwich_numerators(module.J, module.I, SEARCH_DEGREE):
        if length(module.submodule(numerator)) == target:
            return numerator
    return None
