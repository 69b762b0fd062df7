"""Length calculus of monomial subquotients."""

import itertools
import random

import pytest

import brute
from test_acceptance import Budget
from ordlen.corpus import all_ideals, random_contained_pairs
from ordlen.cycles import Cycle, MonomialPrime
from ordlen.errors import GuardError
from ordlen.modules import (
    MonomialModule,
    ass,
    ass_poset_length,
    ass_witnesses,
    annihilator,
    dim_filtration,
    fcyc,
    find_submodule_with_length,
    is_binary_module,
    is_open_submodule,
    is_univalent,
    length,
    localize,
    module_dim,
    mult_endo,
    open_via_witnesses,
    prim_kernel,
    profile,
    split_binary_submodule,
    univalent_data,
)
from ordlen.monomial import (
    MonomialIdeal,
    Monomial,
    colon_mono,
    contains,
    h0_count,
    ideal_of_prime,
    member,
    parse_ideal,
    parse_monomial,
)
from ordlen.ordinal import OMEGA, ONE, ZERO, Ordinal

NAMES = ("x", "y")


def I2(text):
    return parse_ideal(text, NAMES)


def quotient(text):
    return MonomialModule.quotient_ring(I2(text))


def sub(numer, denom):
    return MonomialModule(2, I2(numer), I2(denom))


def P(*gens, n=2):
    return MonomialPrime.of(n, gens)


# -- construction --------------------------------------------------------


def test_module_validation():
    with pytest.raises(ValueError):
        MonomialModule(2, I2("x^2"), I2("x"))  # J not inside I
    with pytest.raises(ValueError):
        MonomialModule(2, I2("x"), MonomialIdeal.zero(3))


def test_submodule_and_quotient_validation():
    M = quotient("x^2, x*y")
    with pytest.raises(ValueError):
        M.submodule(I2("y^2"))  # does not contain J
    N = M.submodule(I2("y, x^2"))
    assert N.I == I2("y, x^2")
    Q = M.quotient_by(I2("x, y"))
    assert Q.J == I2("x, y")


def test_zero_module_conventions():
    Z = sub("x", "x")
    assert Z.is_zero
    assert length(Z) == ZERO
    assert fcyc(Z).is_zero
    p = profile(Z)
    assert p.dim == 0 and p.valence == 0 and p.is_binary


# -- the worked example ---------------------------------------------------


def test_worked_example_lengths():
    assert length(quotient("x^2, x*y")) == Ordinal.parse("w + 1")
    assert length(sub("y, x^2", "x^2, x*y")) == OMEGA
    assert length(sub("x, y", "x^2, x*y")) == Ordinal.parse("w + 1")
    assert length(sub("x", "x^2, x*y")) == ONE


def test_worked_example_cycle():
    c = fcyc(quotient("x^2, x*y"))
    assert c == Cycle.of(2, {P(0): 1, P(0, 1): 1})
    assert c.is_binary
    assert ass(quotient("x^2, x*y")) == (P(0), P(0, 1))


def test_full_ring_and_primes():
    for n in (1, 2, 3):
        assert length(MonomialModule.full_ring(n)) == Ordinal.omega_power(n)
    assert length(quotient("x")) == OMEGA
    assert length(quotient("x, y")) == ONE


def test_profile_worked_example():
    p = profile(quotient("x^2, x*y"))
    assert (p.dim, p.order, p.valence, p.is_binary) == (1, 0, 2, True)
    q = profile(quotient("x^2"))
    assert q.valence == 2 and not q.is_binary
    assert q.fcyc == Cycle.of(2, {P(0): 2})


def test_localize_drops_outside_variables():
    M = quotient("x^2, x*y")
    at_x = localize(M, P(0))
    assert at_x.n == 1
    assert h0_count(at_x.I, at_x.J) == 1


# -- fcyc against the standard-pair decomposition -------------------------


def test_fcyc_counts_standard_pairs_by_free_set():
    """The coefficient of the prime P in fcyc(I/J) is the number of
    standard pairs of J whose free set F is the variables outside P and
    whose head lies in I : x_F^∞ (Sturmfels-Trung-Vogel for I = R)."""
    rng = random.Random(21)
    modules = [(J, MonomialIdeal.unit(2)) for J in rng.sample(all_ideals(2, 3), k=20)]
    for n, count in ((2, 120), (3, 80), (4, 40)):
        modules += random_contained_pairs(n, count, seed=21 + n, d=2)
    for J, I in modules:
        n = J.n
        cycle = fcyc(MonomialModule(n, I, J))
        ig, jg = [g.exps for g in I.gens], [g.exps for g in J.gens]
        pairs = brute.standard_pairs(jg, n)
        for size in range(n + 1):
            for free in itertools.combinations(range(n), size):
                prime = MonomialPrime.of(n, set(range(n)) - set(free))
                by = brute.indicator(free, n)
                expected = sum(
                    1 for head, f in pairs
                    if f == free and brute.saturation_member(head, ig, by, n)
                )
                assert cycle.coeff(prime) == expected, (J, I, free)


# -- dimension filtration --------------------------------------------------


def test_dim_filtration_worked_example():
    M = quotient("x^2, x*y")
    D0 = dim_filtration(M, 0)
    assert D0.I == I2("x")
    assert length(D0) == ONE
    assert dim_filtration(M, 1) == M
    assert dim_filtration(M, 2) == M


def test_dim_filtration_domain_has_no_torsion():
    M = quotient("x")
    assert dim_filtration(M, 0).is_zero


def test_dim_filtration_bounds():
    M = quotient("x")
    with pytest.raises(ValueError):
        dim_filtration(M, -1)
    with pytest.raises(ValueError):
        dim_filtration(M, 3)


def test_dim_filtration_matches_brute_element_dimension():
    """A monomial class lies in D_e exactly when the dimension of the
    cyclic module it generates is at most e."""
    rng = random.Random(22)
    ideals = all_ideals(2, 3)
    for J in rng.sample(ideals, k=15):
        if J.is_unit:
            continue
        M = MonomialModule.quotient_ring(J)
        jg = [g.exps for g in J.gens]
        for e in range(3):
            D = dim_filtration(M, e)
            for m in brute.box(2, 4):
                if brute.member(m, jg):
                    continue
                in_d = member(Monomial(m), D.I)
                assert in_d == (brute.monomial_dim(m, jg, 2) <= e), (J, e, m)


def test_dim_filtration_is_increasing():
    for J in all_ideals(2, 2):
        if J.is_unit:
            continue
        M = MonomialModule.quotient_ring(J)
        prev = dim_filtration(M, 0)
        for e in range(1, 3):
            cur = dim_filtration(M, e)
            assert contains(cur.I, prev.I)
            prev = cur


# -- localization kernels ---------------------------------------------------


def test_prim_kernel_worked_example():
    M = quotient("x^2, x*y")
    K = prim_kernel(M, P(0))
    assert K.I == I2("x")
    assert length(K) == ONE
    quotient_mod = M.quotient_by(K.I)
    assert length(quotient_mod) == OMEGA
    assert length(K).shuffle_sum(length(quotient_mod)) == length(M)


def test_prim_kernel_at_containing_prime_is_zero():
    M = quotient("x^2, x*y")
    assert prim_kernel(M, P(0, 1)).is_zero  # localization inverts nothing new


def test_prim_kernel_regular_case():
    M = quotient("x^2")
    assert prim_kernel(M, P(0)).is_zero  # y is regular on R/(x^2)


def test_prim_kernel_warns_off_ass():
    M = quotient("x")
    with pytest.warns(UserWarning):
        prim_kernel(M, P(0, 1))


# -- openness ----------------------------------------------------------------


def test_open_submodules_worked_examples():
    M = quotient("x^2, x*y")
    assert is_open_submodule(M, I2("x, y^2"))
    assert not is_open_submodule(M, I2("y, x^2"))
    assert is_open_submodule(M, MonomialIdeal.unit(2))


def test_open_via_witnesses_agrees_on_binary():
    M = quotient("x^2, x*y")
    for numer in ("x, y^2", "y, x^2", "x, y", "x^2, x*y", "1"):
        assert open_via_witnesses(M, I2(numer)) == is_open_submodule(M, I2(numer))


def test_open_via_witnesses_requires_binary():
    M = quotient("x^2")  # fcyc = 2[(x)]
    with pytest.raises(ValueError):
        open_via_witnesses(M, MonomialIdeal.unit(2))


# -- witnesses and splitting --------------------------------------------------


def test_ass_witnesses_worked_example():
    M = quotient("x^2, x*y")
    w = ass_witnesses(M)
    assert w[P(0)] == parse_monomial("y", NAMES)
    assert w[P(0, 1)] == parse_monomial("x", NAMES)


def witness_modules():
    """Seeded nonzero modules in 2-5 variables, J = 0 and I ≠ R included."""
    for n, count, d in ((2, 500, 3), (3, 500, 3), (4, 300, 2), (5, 300, 2)):
        for J, I in random_contained_pairs(n, count, seed=40 + n, d=d):
            if I != J:
                yield MonomialModule(n, I, J)


def test_ass_witnesses_match_the_box_search():
    seen = zero_denominator = proper_numerator = 0
    for M in witness_modules():
        ig, jg = [g.exps for g in M.I.gens], [g.exps for g in M.J.gens]
        witnesses = ass_witnesses(M)
        assert list(witnesses) == list(ass(M))
        for p, w in witnesses.items():
            assert w.exps == brute.ass_witness(ig, jg, M.n, p.key), (M, p)
            assert colon_mono(M.J, w) == ideal_of_prime(p), (M, p)
        seen += 1
        zero_denominator += M.J.is_zero
        proper_numerator += not M.I.is_unit
    assert seen >= 1000 and zero_denominator and proper_numerator


def test_split_binary_submodule_examples():
    M = quotient("x^2, x*y")
    S, witnesses = split_binary_submodule(M)
    assert S.I == I2("x, y")
    assert set(witnesses) == {parse_monomial("x", NAMES), parse_monomial("y", NAMES)}
    assert ass(S) == ass(M)

    whole = quotient("x")
    S, witnesses = split_binary_submodule(whole)
    assert witnesses == (Monomial.one(2),)
    assert S.I.is_unit

    double = quotient("x^2")
    S, witnesses = split_binary_submodule(double)
    assert len(witnesses) == 1
    assert ass(S) == ass(double)
    assert length(S).valence == 1


def test_split_preserves_ass_across_corpus():
    rng = random.Random(23)
    for J in rng.sample(all_ideals(2, 3), k=20):
        M = MonomialModule.quotient_ring(J)
        if M.is_zero:
            continue
        S, _ = split_binary_submodule(M)
        assert ass(S) == ass(M)
        assert is_binary_module(S)


# -- univalence ----------------------------------------------------------------


def test_univalent_examples():
    assert is_univalent(quotient("x"))
    data = univalent_data(quotient("x"))
    assert data.prime == P(0) and data.annihilator_is_the_prime

    N = sub("y, x^2", "x^2, x*y")
    assert is_univalent(N)
    data = univalent_data(N)
    assert data.prime == P(0)
    assert data.annihilator == I2("x")
    assert data.annihilator_is_the_prime

    assert not is_univalent(quotient("x^2, x*y"))
    with pytest.raises(ValueError):
        univalent_data(quotient("x^2, x*y"))


def test_annihilator():
    assert annihilator(quotient("x^2, x*y")) == I2("x^2, x*y")
    assert annihilator(sub("y, x^2", "x^2, x*y")) == I2("x")


# -- multiplication endomorphisms ----------------------------------------------


def test_mult_endo_nilpotent_example():
    M = quotient("x^2, x*y")
    a = mult_endo(M, parse_monomial("x", NAMES))
    assert a.kernel.I == I2("x, y")
    assert a.kappa == Ordinal.parse("w + 1")
    assert a.nilpotent
    assert a.kappa == a.mu  # kernel open
    assert a.image.I == I2("x")
    assert a.theta == ONE
    assert not a.monic and not a.open_image


def test_mult_endo_regular_direction_example():
    M = quotient("x^2, x*y")
    a = mult_endo(M, parse_monomial("y", NAMES))
    assert a.kernel.I == I2("x")
    assert a.kappa == ONE
    assert a.theta == OMEGA
    assert a.satisfies_rank_nullity
    assert not a.nilpotent
    assert a.reductive and a.reductive_power == 1


def test_mult_endo_monic_on_domain():
    M = quotient("x")
    a = mult_endo(M, parse_monomial("y", NAMES))
    assert a.monic and a.open_image and not a.nilpotent
    assert a.kappa == ZERO and a.theta == a.mu


def test_mult_endo_reductive_power_stabilizes():
    # on R/(x^3) multiplication by x needs two steps before the kernel
    # chain (x^2) ⊂ (x) stabilizes
    M = quotient("x^3")
    a = mult_endo(M, parse_monomial("x", NAMES))
    assert not a.reductive
    assert a.reductive_power == 3
    assert a.nilpotent


def test_mult_endo_rank_nullity_bounds_hold():
    rng = random.Random(24)
    for J in rng.sample(all_ideals(2, 3), k=15):
        M = MonomialModule.quotient_ring(J)
        if M.is_zero:
            continue
        for r_text in ("x", "y", "x*y"):
            a = mult_endo(M, parse_monomial(r_text, NAMES))
            assert (a.theta + a.kappa) <= a.mu <= a.theta.shuffle_sum(a.kappa)
            assert a.kappa.weaker(a.mu) and a.theta.weaker(a.mu)


def test_ass_poset_length():
    assert ass_poset_length(quotient("x^2, x*y")) == 2
    assert ass_poset_length(quotient("x")) == 1
    assert ass_poset_length(quotient("x^2")) == 1
    with pytest.raises(ValueError):
        ass_poset_length(sub("x", "x"))


# -- submodule search ------------------------------------------------------------


def test_find_submodule_with_length():
    M = quotient("x^2, x*y")
    numerator = find_submodule_with_length(M, OMEGA)
    assert numerator is not None
    assert length(M.submodule(numerator)) == OMEGA
    assert find_submodule_with_length(M, ZERO) == M.J
    # w^2 is not weaker than w + 1, so nothing can realize it
    assert find_submodule_with_length(M, Ordinal.omega_power(2)) is None


# -- guards ------------------------------------------------------------------------


def test_many_variable_guard(monkeypatch):
    big = MonomialModule.full_ring(13)
    with pytest.raises(GuardError):
        fcyc(big)
    monkeypatch.setenv("ORDLEN_MAX_DIM", "13")
    assert length(big) == Ordinal.omega_power(13)


def test_guard_runs_before_the_cache(monkeypatch):
    names = ("a", "b", "c", "d")
    M = MonomialModule.quotient_ring(parse_ideal("a^2, a*b, c*d", names))
    assert length(M) == Ordinal.parse("2w^2 + 2w")
    monkeypatch.setenv("ORDLEN_MAX_DIM", "3")
    with pytest.raises(GuardError):
        length(M)


def test_large_exponent_lengths_stay_fast():
    with Budget(1.0):
        xy = parse_ideal("x^200, y^200", ("x", "y"))
        assert length(MonomialModule.quotient_ring(xy)) == Ordinal.finite(40000)
        xyz = parse_ideal("x^50, y^50, z^50, x*y*z", ("x", "y", "z"))
        assert length(MonomialModule.quotient_ring(xyz)) == Ordinal.finite(7351)


def test_module_dim():
    assert module_dim(quotient("x^2, x*y")) == 1
    assert module_dim(MonomialModule.full_ring(2)) == 2
