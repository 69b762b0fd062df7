"""The twelve acceptance gates, one test per criterion.

Under ``pytest -v`` each criterion contributes exactly one PASSED or
FAILED line.  Criteria with a stated time budget assert it; the rest
are exact-value or property sweeps over the fixed corpora.
"""

import itertools
import time

import numpy as np

from ordlen.checks import _sum_tables, run_suites
from ordlen.corpus import artinian_ideals_containing_power
from ordlen.cycles import Cycle, MonomialPrime
from ordlen.endo_fixture import check_endo_fixture
from ordlen.finite_oracle import FiniteModule, longest_chain
from ordlen.modules import (
    MonomialModule,
    ass,
    fcyc,
    is_binary_module,
    length,
)
from ordlen.monomial import MonomialIdeal, ideal_of_prime, parse_ideal
from ordlen.ordinal import OMEGA, ONE, Ordinal

NAMES = ("x", "y")


def I2(text):
    return parse_ideal(text, NAMES)


def assert_all_pass(results):
    bad = [r.line() for r in results if not r.passed]
    assert not bad, "\n".join(bad)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"took {elapsed:.2f}s, budget {self.seconds}s"
            )


def test_c01_worked_example_exactness():
    with Budget(1.0):
        R_mod = MonomialModule.quotient_ring(I2("x^2, x*y"))
        assert length(R_mod) == Ordinal.parse("w + 1")
        assert length(MonomialModule(2, I2("y, x^2"), I2("x^2, x*y"))) == OMEGA
        assert length(MonomialModule(2, I2("x, y"), I2("x^2, x*y"))) == Ordinal.parse(
            "w + 1"
        )
        cycle = fcyc(R_mod)
        assert cycle == Cycle(
            2, ((MonomialPrime.of(2, (0,)), 1), (MonomialPrime.of(2, (0, 1)), 1))
        )
        assert cycle.is_binary and is_binary_module(R_mod)


def test_c02_domain_lengths():
    with Budget(1.0):
        for n in (1, 2, 3):
            assert length(MonomialModule.quotient_ring(MonomialIdeal.zero(n))) == Ordinal.omega_power(n)
            for size in range(n + 1):
                for combo in itertools.combinations(range(n), size):
                    P = MonomialPrime.of(n, combo)
                    quotient = MonomialModule.quotient_ring(ideal_of_prime(P))
                    assert length(quotient) == Ordinal.omega_power(P.dim)


def test_c03_oracle_agreement_at_finite_length():
    with Budget(60.0):
        ideals = artinian_ideals_containing_power(2, 4)
        assert len(ideals) > 1
        for J in ideals:
            M = FiniteModule.from_quotient(J)
            mu = length(MonomialModule.quotient_ring(J))
            assert len(mu.coeffs) <= 1
            assert longest_chain(M) == M.dim == mu.coeff(0)


def test_c04_semi_additivity_sweep():
    with Budget(120.0):
        results = run_suites(["semiadd"], max_vars=3, max_deg=3, sample=500, seed=0)
        assert {r.name for r in results} == {
            "semiadd-lower-2var",
            "semiadd-upper-2var",
            "semiadd-lower-3var",
            "semiadd-upper-3var",
        }
        assert_all_pass(results)


def test_c05_submodule_monotonicity_sweep():
    results = run_suites(["submod"], max_vars=3, max_deg=3, sample=500, seed=0)
    assert "submod-monotone-2var" in {r.name for r in results}
    assert_all_pass(results)


def test_c06_lattice_law_and_strict_join():
    results = run_suites(["latt"], max_deg=3)
    assert "latt-join-strict" in {r.name for r in results}
    assert_all_pass(results)
    # the documented equality instance on R/(x^2, x*y)
    M = MonomialModule.quotient_ring(I2("x^2, x*y"))
    len_y = length(M.submodule(I2("y, x^2")))
    len_x = length(M.submodule(I2("x")))
    joined = length(M.submodule(I2("x, y")))
    assert len_y.join(len_x) == joined == Ordinal.parse("w + 1")


def test_c07_dimension_filtration():
    assert_all_pass(run_suites(["dimfil"], max_vars=3, max_deg=3, sample=500, seed=0))


def test_c08_prim_kernel_identity():
    assert_all_pass(run_suites(["primmin"], max_vars=3, max_deg=3, sample=500, seed=0))


def test_c09_maximal_embedded_prime_is_open():
    assert_all_pass(run_suites(["maxassopen"], max_deg=3))


def test_c10_multiplication_endomorphism_laws():
    assert_all_pass(run_suites(["multendo"], max_deg=3))


def test_c11_endomorphism_fixture_suite():
    with Budget(30.0):
        assert_all_pass(check_endo_fixture(order=8, seed=0))
    # nilpotents square to zero: the exponent matches the longest chain
    # of associated primes of the underlying module, (x) ⊂ (x, y)
    primes = ass(MonomialModule.quotient_ring(I2("x^2, x*y")))
    assert primes == (MonomialPrime.of(2, (0,)), MonomialPrime.of(2, (0, 1)))
    assert primes[1].contains(primes[0])


def test_c12_ordinal_algebra_exhaustive():
    with Budget(10.0):
        assert_all_pass(run_suites(["ordinal"], max_deg=3))

        # associativity over every triple from the full pool, for both
        # sums, by comparing the composed tables of interned sums
        pool = [Ordinal(c) for c in itertools.product(range(4), repeat=4)]
        for op in (Ordinal.__add__, Ordinal.shuffle_sum):
            pair, left, right = _sum_tables(pool, op)
            pair_t = np.array(pair, dtype=np.int32)
            left_t = np.array(left, dtype=np.int32)
            right_t = np.array(right, dtype=np.int32)
            assert (left_t[pair_t, :] == right_t[:, pair_t]).all()
