"""Transfinite length of monomial-presented modules.

Ordinals below ω^ω, fundamental cycles over monomial primes, and the
length calculus of subquotients I/J of a polynomial ring, with a
finite-field brute-force oracle and a symbolic endomorphism fixture
for independent verification.
"""

from .cycles import Cycle, MonomialPrime, binord
from .errors import GuardError, ParseError
from .modules import (
    EndoAnalysis,
    ModuleProfile,
    MonomialModule,
    ass,
    dim_filtration,
    fcyc,
    is_binary_module,
    is_open_submodule,
    length,
    localize,
    mult_endo,
    open_via_witnesses,
    prim_kernel,
    profile,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    colon_ideal,
    colon_mono,
    contains,
    format_ideal,
    h0_count,
    ideal_sum,
    intersect,
    member,
    parse_ideal,
    parse_monomial,
    saturate,
    saturate_mono,
)
from .ordinal import OMEGA, ONE, ZERO, Ordinal

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "EndoAnalysis",
    "GuardError",
    "ModuleProfile",
    "Monomial",
    "MonomialIdeal",
    "MonomialModule",
    "MonomialPrime",
    "OMEGA",
    "ONE",
    "Ordinal",
    "ParseError",
    "ZERO",
    "ass",
    "binord",
    "colon_ideal",
    "colon_mono",
    "contains",
    "dim_filtration",
    "fcyc",
    "format_ideal",
    "h0_count",
    "ideal_sum",
    "intersect",
    "is_binary_module",
    "is_open_submodule",
    "length",
    "localize",
    "member",
    "mult_endo",
    "open_via_witnesses",
    "parse_ideal",
    "parse_monomial",
    "prim_kernel",
    "profile",
    "saturate",
    "saturate_mono",
]
