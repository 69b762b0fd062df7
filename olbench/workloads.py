"""The workloads: their operations and the checks on every output.

Each workload is built from its seed and the text form of its inputs.
``ops`` lists (span name, call) pairs; one round calls each once, in
order, with ``fcyc``'s cache cleared before the round.  ``check`` takes
one round's outputs and returns a line per wrong output; ``check_run``
checks properties that need more than one output.  The expected values
come from ``reference`` and never from a stored copy of ordlen's output.
"""

from __future__ import annotations

import random
import re
from functools import partial

import inputs
import reference
from ordlen import MonomialIdeal, MonomialModule, MonomialPrime, Monomial, length, profile
from ordlen.modules import fcyc

# record name -> (suite, the case count its detail must report), so a
# suite cannot get faster by silently sweeping a smaller corpus
CORPUS_COUNTS = {
    "semiadd-lower-2var": ("semiadd", lambda o: reference.contained_pair_count(2, o["max_deg"])),
    "semiadd-upper-2var": ("semiadd", lambda o: reference.contained_pair_count(2, o["max_deg"])),
    "oracle-chain-2var": ("oracle-artinian", lambda o: reference.ideals_above_power(2, 4)),
}


def plain_profile(p) -> dict:
    """The fields of a ModuleProfile that are checked, as plain values."""
    return {
        "fcyc": {prime.key: c for prime, c in p.fcyc.terms},
        "length": p.length.coeffs,
        "ass": tuple(prime.key for prime in p.ass),
        "valence": p.valence,
        "is_binary": p.is_binary,
    }


class Workload:
    ops: list

    def clear_cache(self) -> None:
        fcyc.cache_clear()

    def cache_info(self):
        return fcyc.cache_info()

    def check_run(self, outputs) -> list[str]:
        return []


class Profiles(Workload):
    """profile(I/J) of each module of a seeded batch."""

    def __init__(self, seed: int, text: str):
        self.seed = seed
        self.records = inputs.profile_modules(seed)
        self.modules = inputs.parse("profiles", text)
        self.expected = [reference.profile(m.n, m.i_gens, m.j_gens) for m in self.records]
        self.ops = [("op.profile", partial(profile, M)) for M in self.modules]

    def check(self, outputs) -> list[str]:
        bad = []
        for i, (p, want) in enumerate(zip(outputs, self.expected)):
            if isinstance(p, Exception):
                continue
            got = plain_profile(p)
            for key, value in want.items():
                if got[key] != value:
                    line = inputs.module_text(self.records[i])
                    bad.append(f"profile {key} of [{line}]: got {got[key]}, want {value}")
        return bad

    def check_run(self, outputs) -> list[str]:
        """Semi-additivity on the batch's pairs, and len R/P = w^dim P."""
        bad = []
        for M, p in zip(self.modules, outputs):
            if isinstance(p, Exception) or M.I.is_unit:
                continue
            quo = length(MonomialModule.quotient_ring(M.I)).coeffs
            whole = length(MonomialModule.quotient_ring(M.J)).coeffs
            sub = p.length.coeffs
            if not reference.ole(reference.osum(quo, sub), whole):
                bad.append(f"len R/I + len I/J > len R/J for {M!r}")
            if not reference.ole(whole, reference.shuffle(quo, sub)):
                bad.append(f"len R/J > len R/I (+) len I/J for {M!r}")
        rng = random.Random(f"primes-{self.seed}")
        for n, _ in inputs.PROFILE_STRATA:
            subsets = [(), tuple(range(n))]
            subsets += [tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))) for _ in range(4)]
            for gens in subsets:
                P = MonomialPrime.of(n, gens)
                ideal = MonomialIdeal(n, tuple(Monomial.var(n, i) for i in gens))
                got = length(MonomialModule.quotient_ring(ideal)).coeffs
                if got != reference.omega_power(P.dim):
                    bad.append(f"len R/P = {got} for P={P!r}, want w^{P.dim}")
        return bad


class Exponents(Workload):
    """length(R/J) on each rung of the exponent ladder."""

    SAMPLE_RUNGS = 2  # smallest rungs per family checked against the box count

    def __init__(self, seed: int, text: str):
        self.records = inputs.exponent_modules(seed)
        self.modules = inputs.parse("exponents", text)
        self.expected = [reference.closed_form(r.family, r.params) for r in self.records]
        self.ops = [("op.length", partial(length, M)) for M in self.modules]

    def check(self, outputs) -> list[str]:
        return [
            f"len of [{inputs.module_text(r)}]: got {mu.coeffs}, want {want}"
            for r, mu, want in zip(self.records, outputs, self.expected)
            if not isinstance(mu, Exception) and mu.coeffs != want
        ]

    def check_run(self, outputs) -> list[str]:
        """Each closed form agrees with the box count on sample rungs."""
        bad = []
        seen: dict[str, int] = {}
        for r, want in zip(self.records, self.expected):
            seen[r.family] = seen.get(r.family, 0) + 1
            if seen[r.family] > self.SAMPLE_RUNGS:
                continue
            counted = reference.binord(r.n, reference.fcyc(r.n, r.i_gens, r.j_gens))
            if counted != want:
                bad.append(f"{r.family}{r.params}: closed form {want}, box count {counted}")
        return bad


class Checks(Workload):
    """One check suite of ordlen.checks.run_suites per operation."""

    def __init__(self, seed: int, text: str):
        from ordlen.checks import run_suites

        self.suites, self.options = inputs.parse("checks", text)
        self.counts = {
            name: (suite, count(self.options)) for name, (suite, count) in CORPUS_COUNTS.items()
        }
        self.ops = [
            (f"checks.{suite}", partial(run_suites, [suite], **self.options))
            for suite in self.suites
        ]

    def check(self, outputs) -> list[str]:
        bad = []
        reported = {}
        ran = set()
        for suite, results in zip(self.suites, outputs):
            if isinstance(results, Exception):
                continue
            ran.add(suite)
            if not results:
                bad.append(f"suite {suite} returned no records")
            for r in results:
                if not r.passed:
                    bad.append(f"{r.name} failed: {r.detail}")
                if r.name in self.counts:
                    found = re.search(r"\d+", r.detail)
                    reported[r.name] = int(found.group()) if found else None
        for name, (suite, want) in self.counts.items():
            if suite in ran and reported.get(name) != want:
                bad.append(f"{name} reports {reported.get(name)} cases, want {want}")
        return bad


WORKLOADS = {"profiles": Profiles, "exponents": Exponents, "checks": Checks}
