"""Seeded inputs of each workload, their text form, and parsing that text.

Generation works on plain exponent tuples and needs no ordlen import, so
the inputs exist before the program under test is loaded.  Every input
is rendered as the text a command-line user would type, one line per
operation, and ``parse`` turns that text into ordlen objects with
``parse_ideal``; ``setup_child.py`` times exactly that parse in a fresh
interpreter.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

# profiles: modules per variable count, fixed so that every seed draws a
# batch of the same make-up (mostly 2-4 variables).
PROFILE_STRATA = ((2, 24), (3, 20), (4, 16), (5, 8), (6, 6), (7, 4), (8, 2))
PROFILE_MAX_DEG = 3

# exponents: the ladder of each family.  Each family stops a step below
# the rung that takes about a second today.
CORNER_KS = tuple(range(4, 33, 4))  # (x^k, x^a*y^b, y^k)
STRIP_KS = tuple(range(4, 33, 4))  # (x^k, x^a*y^b)
PRINCIPAL_MS = tuple(range(3, 31, 3))  # (x^a*y^b*z^c), a+b+c = 3m
CUBE_KS = tuple(range(2, 13))  # (x^k, y^k, z^k, x*y*z)

# checks: every suite, at bounds that keep one round to a few seconds.
CHECK_SUITES = (
    "ordinal",
    "semiadd",
    "submod",
    "latt",
    "dimfil",
    "primmin",
    "maxassopen",
    "multendo",
    "oracle-artinian",
    "endo-fixture",
)
# Two variables only: the seeded three-variable samples made the light
# suites' times, and so the median operation, depend on the seed.
CHECK_OPTIONS = {"max_vars": 2, "max_deg": 2, "truncation": 4}

Exp = tuple[int, ...]


class Module(NamedTuple):
    """One subquotient I/J as generator exponent tuples, with the family
    and parameters it was drawn from (empty for ``profiles``)."""

    n: int
    i_gens: tuple[Exp, ...]
    j_gens: tuple[Exp, ...]
    family: str = ""
    params: tuple[int, ...] = ()


def _divides(a: Exp, b: Exp) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal(gens) -> tuple[Exp, ...]:
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    kept: list[Exp] = []
    for g in gens:
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


def _monomials(n: int, lo: int, hi: int) -> list[Exp]:
    return [
        e
        for e in itertools.product(range(hi + 1), repeat=n)
        if lo <= sum(e) <= hi
    ]


def _random_module(rng: random.Random, n: int) -> Module:
    """A nonzero I/J with J inside I, every generator of degree <= 3."""
    while True:
        if rng.random() < 1 / 3:
            i_gens: tuple[Exp, ...] = ((0,) * n,)
        else:
            i_gens = _minimal(rng.sample(_monomials(n, 1, 2), rng.randint(1, 3)))
        j_gens = []
        for _ in range(rng.randint(1, 4)):
            g = rng.choice(i_gens)
            m = rng.choice(_monomials(n, 1, PROFILE_MAX_DEG - sum(g)))
            j_gens.append(tuple(a + b for a, b in zip(g, m)))
        j_gens = _minimal(j_gens)
        if not all(any(_divides(h, g) for h in j_gens) for g in i_gens):
            return Module(n, i_gens, j_gens)


def _shape(gens) -> tuple:
    """The generators up to a renaming of the variables."""
    return tuple(sorted(tuple(sorted(g)) for g in gens))


def profile_modules(seed: int) -> list[Module]:
    """A fixed batch of pairwise non-isomorphic modules, each with its
    variables renamed by a seeded permutation.  Every seed gets new
    inputs of the same make-up and cost; drawing a fresh batch per seed
    moved a round's cost by up to a third between seeds."""
    base = random.Random("profiles")
    rng = random.Random(f"profiles-{seed}")
    out: list[Module] = []
    for n, count in PROFILE_STRATA:
        shapes = set()
        while len(shapes) < count:
            m = _random_module(base, n)
            shape = (_shape(m.i_gens), _shape(m.j_gens))
            if shape in shapes:
                continue
            shapes.add(shape)
            perm = rng.sample(range(n), n)
            out.append(Module(n, _renamed(m.i_gens, perm), _renamed(m.j_gens, perm)))
    return out


def _renamed(gens, perm) -> tuple[Exp, ...]:
    return _minimal(tuple(g[p] for p in perm) for g in gens)


def exponent_modules(seed: int) -> list[Module]:
    """Quotients R/J on the ladder, with the variables of each rung
    renamed by a seeded permutation.  The exponents are fixed: letting
    the seed pick them moved a rung's cost up to fifteenfold (strip,
    k = 32: 10 ms at a = 30, 149 ms at a = 13)."""
    rng = random.Random(f"exponents-{seed}")
    rungs = [(2, "corner", (k, k // 4, 3 * k // 4)) for k in CORNER_KS]
    rungs += [(2, "strip", (k, k // 2, k)) for k in STRIP_KS]
    rungs += [(3, "principal", (m - 1, m, m + 1)) for m in PRINCIPAL_MS]
    rungs += [(3, "cube", (k,)) for k in CUBE_KS]
    out = []
    for n, family, params in rungs:
        if family == "corner":
            k, a, b = params
            gens = ((k, 0), (a, b), (0, k))
        elif family == "strip":
            k, a, b = params
            gens = ((k, 0), (a, b))
        elif family == "principal":
            gens = (params,)
        else:
            k = params[0]
            gens = ((k, 0, 0), (0, k, 0), (0, 0, k), (1, 1, 1))
        perm = rng.sample(range(n), n)
        out.append(Module(n, ((0,) * n,), _renamed(gens, perm), family, params))
    return out


def check_options(seed: int) -> dict:
    return {**CHECK_OPTIONS, "seed": seed}


# ----------------------------------------------------------------------
# text form
# ----------------------------------------------------------------------


def names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _mono_text(e: Exp, vs: tuple[str, ...]) -> str:
    parts = [v if a == 1 else f"{v}^{a}" for v, a in zip(vs, e) if a]
    return "*".join(parts) or "1"


def module_text(m: Module) -> str:
    vs = names(m.n)
    i_text = ", ".join(_mono_text(g, vs) for g in m.i_gens)
    j_text = ", ".join(_mono_text(g, vs) for g in m.j_gens)
    return f"vars: {','.join(vs)} ; I: {i_text} ; J: {j_text}"


def inputs_text(workload: str, seed: int) -> str:
    if workload == "checks":
        opts = check_options(seed)
        return "suites: " + ",".join(CHECK_SUITES) + "\n" + " ".join(
            f"{k}={v}" for k, v in opts.items()
        )
    mods = profile_modules(seed) if workload == "profiles" else exponent_modules(seed)
    return "\n".join(module_text(m) for m in mods)


def parse(workload: str, text: str):
    """The operations' inputs from their text: MonomialModules for the
    module workloads, (suite names, options) for ``checks``."""
    if workload == "checks":
        import ordlen.checks  # noqa: F401  (what `ordlen check` loads)

        suites_line, opts_line = text.splitlines()
        suites = suites_line.partition(":")[2].strip().split(",")
        opts = {k: int(v) for k, v in (kv.split("=") for kv in opts_line.split())}
        return suites, opts
    from ordlen import MonomialModule, parse_ideal

    out = []
    for line in text.splitlines():
        fields = dict(
            (key.strip(), value.strip())
            for key, _, value in (part.partition(":") for part in line.split(";"))
        )
        vs = tuple(fields["vars"].split(","))
        out.append(
            MonomialModule(len(vs), parse_ideal(fields["I"], vs), parse_ideal(fields["J"], vs))
        )
    return out
