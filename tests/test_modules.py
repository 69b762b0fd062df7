"""Length calculus of monomial subquotients."""

import copy
import itertools
import pickle
import random

import pytest

import brute
from test_acceptance import Budget
from ordlen.checks import CONVERSE_PROBES
from ordlen.corpus import all_ideals, monomials_of_degree_at_most, random_contained_pairs, sandwich_monomials
from ordlen.cycles import Cycle, MonomialPrime
from ordlen import modules
from ordlen.errors import GuardError
from ordlen.modules import (
    MonomialModule,
    ass,
    ass_witnesses,
    annihilator,
    dim_filtration,
    fcyc,
    find_submodule_with_length,
    is_binary_module,
    is_open_submodule,
    length,
    localize,
    mult_endo,
    open_via_witnesses,
    prim_kernel,
    profile,
)
from ordlen.monomial import (
    MonomialIdeal,
    Monomial,
    colon_mono,
    contains,
    h0_count,
    ideal_of_prime,
    ideal_sum,
    localize_pair,
    member,
    parse_ideal,
    parse_monomial,
    _h0_scan,
    _minimal,
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


def test_sandwich_is_checked_once_and_trusted_modules_round_trip():
    """submodule and quotient_by check J <= N <= I and the ambient
    themselves, then build their result unchecked; pickling and copying
    rebuild it through the validating constructor."""
    M = sub("x, y^2", "x^2, x*y, y^3")
    outside = (I2("x^2"), I2("y"), parse_ideal("x, y^3", ("x", "y", "z")))
    for numerator in outside:
        with pytest.raises(ValueError):
            M.submodule(numerator)
        with pytest.raises(ValueError):
            M.quotient_by(numerator)
    N = I2("x, y^3")
    for built, checked in ((M.submodule(N), sub("x, y^3", "x^2, x*y, y^3")),
                           (M.quotient_by(N), sub("x, y^2", "x, y^3"))):
        assert built == checked and hash(built) == hash(checked)
        for twin in (pickle.loads(pickle.dumps(built)), copy.copy(built)):
            assert twin == built and hash(twin) == hash(built)
    with pytest.raises(ValueError):
        copy.copy(MonomialModule._trusted(2, I2("x^2"), I2("x")))


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
    assert c == Cycle(2, ((P(0), 1), (P(0, 1), 1)))
    assert c.is_binary
    assert ass(quotient("x^2, x*y")) == (P(0), P(0, 1))


def test_full_ring_and_primes():
    for n in (1, 2, 3):
        assert length(MonomialModule.quotient_ring(MonomialIdeal.zero(n))) == Ordinal.omega_power(n)
    assert length(quotient("x")) == OMEGA
    assert length(quotient("x, y")) == ONE


def test_profile_worked_example():
    p = profile(quotient("x^2, x*y"))
    assert (p.dim, p.order, p.valence, p.is_binary) == (1, 0, 2, True)
    q = profile(quotient("x^2"))
    assert q.valence == 2 and not q.is_binary
    assert q.fcyc == Cycle(2, ((P(0), 2),))


def test_binary_length_and_binary_cycle_differ_on_xy():
    """profile().is_binary reads the length, is_binary_module the cycle."""
    M = quotient("x*y")
    assert length(M) == Ordinal.parse("2w")
    assert fcyc(M) == Cycle(2, ((P(0), 1), (P(1), 1)))
    assert profile(M).is_binary is False
    assert is_binary_module(M) is True


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
                assert dict(cycle.terms).get(prime, 0) == expected, (J, I, free)


def test_fcyc_matches_the_full_prime_loop():
    """fcyc visits only the candidate primes; brute.fcyc visits all 2^n
    and must find the same weights."""
    names = ("a", "b", "c", "d", "e", "f")

    def ideal(text, n=6):
        return parse_ideal(text, names[:n])

    cases = [
        # J = 0, with I = R and with a proper I
        MonomialModule.quotient_ring(MonomialIdeal.zero(5)),
        MonomialModule(5, ideal("a*b, c^2", 5), ideal("0", 5)),
        # I = R; e and f occur in no generator of J, a^2 is in one variable
        MonomialModule.quotient_ring(ideal("a^2, a*b, c^3*d")),
        MonomialModule.quotient_ring(ideal("b, a^2*c, a*d^2", 5)),
        MonomialModule(6, ideal("a, c*d"), ideal("a^2, a*c*d, c^2*d, a*f^2")),
        MonomialModule(6, ideal("1"), ideal("1")),
    ]
    for n, count in ((5, 40), (6, 25)):
        cases += [
            MonomialModule(n, I, J) for J, I in random_contained_pairs(n, count, seed=40 + n, d=2)
        ]
    for M in cases:
        ig, jg = [g.exps for g in M.I.gens], [g.exps for g in M.J.gens]
        assert {p.key: c for p, c in fcyc(M).terms} == brute.fcyc(ig, jg, M.n), M


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


def split_binary(M):
    """The submodule generated over J by one witness of each associated
    prime, and the witnesses."""
    witnesses = ass_witnesses(M)
    S = M.submodule(ideal_sum(M.J, MonomialIdeal(M.n, tuple(witnesses.values()))))
    return S, witnesses


def test_split_binary_submodule_examples():
    M = quotient("x^2, x*y")
    S, witnesses = split_binary(M)
    assert S.I == I2("x, y")
    assert set(witnesses.values()) == {parse_monomial("x", NAMES), parse_monomial("y", NAMES)}
    assert ass(S) == ass(M)

    whole = quotient("x")
    S, witnesses = split_binary(whole)
    assert list(witnesses.values()) == [Monomial.one(2)]
    assert S.I.is_unit

    double = quotient("x^2")
    S, witnesses = split_binary(double)
    assert len(witnesses) == 1
    assert ass(S) == ass(double)
    assert length(S).valence == 1


def test_split_preserves_ass_across_corpus():
    rng = random.Random(23)
    for J in rng.sample(all_ideals(2, 3), k=20):
        M = MonomialModule.quotient_ring(J)
        if M.is_zero:
            continue
        S, _ = split_binary(M)
        assert ass(S) == ass(M)
        assert is_binary_module(S)


# -- univalence ----------------------------------------------------------------


def test_univalent_examples():
    """A univalent module, one of length valence one, is annihilated by
    exactly its associated prime."""
    for M in (quotient("x"), sub("y, x^2", "x^2, x*y")):
        assert length(M).valence == 1
        assert ass(M) == (P(0),)
        assert annihilator(M) == ideal_of_prime(ass(M)[0]) == I2("x")
    assert length(quotient("x^2, x*y")).valence == 2


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


def iterated_reductive_power(ig, jg, r):
    """The first k >= 1 at which the kernel I ∩ (J : r^k) stops growing,
    by iterated colons on exponent tuples."""

    def kernel(k):
        colon = brute.minimal([tuple(max(a - k * b, 0) for a, b in zip(g, r)) for g in jg])
        return brute.intersection(ig, colon)

    k = 1
    while kernel(k + 1) != kernel(k):
        k += 1
    return k


def test_reductive_power_matches_the_iterated_colons():
    cases = 0
    with Budget(3.0):
        for n, count in ((1, 40), (2, 60), (3, 60)):
            pool = monomials_of_degree_at_most(n, 2)
            for J, I in random_contained_pairs(n, count, seed=70 + n, d=3):
                for M in (MonomialModule(n, I, J), MonomialModule.quotient_ring(J)):
                    ig, jg = [g.exps for g in M.I.gens], [g.exps for g in M.J.gens]
                    for r in pool:
                        expected = iterated_reductive_power(ig, jg, r.exps)
                        assert mult_endo(M, r).reductive_power == expected, (M, r)
                        cases += 1
    assert cases >= 2000


def test_reductive_power_of_a_huge_exponent_is_closed_form():
    M = MonomialModule.quotient_ring(parse_ideal("x^1000000", ("x",)))
    with Budget(1.0):
        a = mult_endo(M, parse_monomial("x", ("x",)))
    assert a.reductive_power == 1000000
    assert a.nilpotent and a.kappa == Ordinal.finite(1)


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


# -- submodule search ------------------------------------------------------------


def test_find_submodule_with_length():
    M = quotient("x^2, x*y")
    numerator = find_submodule_with_length(M, OMEGA)
    assert numerator is not None
    assert length(M.submodule(numerator)) == OMEGA
    assert find_submodule_with_length(M, ZERO) == M.J
    # w^2 is not weaker than w + 1, so nothing can realize it
    assert find_submodule_with_length(M, Ordinal.omega_power(2)) is None


def test_submodule_search_guards_its_candidates():
    # R/(x1*...*x6): all 210 monomials of degree <= 4 lie outside J
    names = tuple(f"x{i + 1}" for i in range(6))
    M = MonomialModule.quotient_ring(parse_ideal("*".join(names), names))
    with Budget(1.0), pytest.raises(
        GuardError,
        match="at least 5051 candidate numerators .* bound of 5000 .MAX_SEARCH_CANDIDATES",
    ):
        find_submodule_with_length(M, Ordinal.omega_power(6))
    # the check suite's probes stay far below the bound
    for text in CONVERSE_PROBES:
        probe = quotient(text)
        p = len(list(sandwich_monomials(probe.J, probe.I, modules.SEARCH_DEGREE)))
        assert 1 + p + p * (p - 1) // 2 <= 121 < modules.MAX_SEARCH_CANDIDATES


def test_submodule_search_refuses_before_listing_its_pool():
    # R/(x1) in 40 variables has 123,410 monomials of degree <= 4 outside
    # J; the count stops at the 100th, among those of degree 2
    names = tuple(f"x{i + 1}" for i in range(40))
    M = MonomialModule.quotient_ring(parse_ideal("x1", names))
    with Budget(0.2), pytest.raises(GuardError, match="at least 5051 candidate numerators"):
        find_submodule_with_length(M, Ordinal.omega_power(39))


# -- guards ------------------------------------------------------------------------


def test_many_variable_guard():
    names = tuple(f"x{i + 1}" for i in range(13))
    with pytest.raises(GuardError, match="13 variables .* bound of 12 .MAX_PRIME_VARS"):
        fcyc(MonomialModule.quotient_ring(parse_ideal("*".join(names), names)))
    # the bound counts the variables of J, not of the ring
    assert length(MonomialModule.quotient_ring(MonomialIdeal.zero(13))) == Ordinal.omega_power(13)


def test_one_occurring_variable_in_twenty():
    names = tuple(f"x{i + 1}" for i in range(20))
    M = MonomialModule.quotient_ring(parse_ideal("x1", names))
    assert length(M) == Ordinal.omega_power(19)


def test_the_cache_never_bypasses_the_guard():
    names = tuple(f"x{i + 1}" for i in range(13))
    refused = MonomialModule.quotient_ring(parse_ideal(", ".join(names), names))
    before = fcyc.cache_info().currsize
    for _ in range(2):
        with pytest.raises(GuardError):
            fcyc(refused)
    assert fcyc.cache_info().currsize == before
    M = MonomialModule.quotient_ring(parse_ideal("a^2, a*b, c*d", ("a", "b", "c", "d")))
    first = length(M)
    fcyc.cache_clear()
    assert length(M) == first == Ordinal.parse("2w^2 + 2w")


def test_fcyc_visits_only_candidate_primes(monkeypatch):
    """fcyc scans a prime only when J localized there has at least as
    many minimal generators as the prime has variables."""
    scans = []

    def counting(num, den, n):
        scans.append(n)
        return _h0_scan(num, den, n)

    monkeypatch.setattr(modules, "_h0_scan", counting)
    fcyc.cache_clear()
    names = tuple(f"x{i + 1}" for i in range(12))
    M = MonomialModule.quotient_ring(parse_ideal("x1^2, x1*x2", names))
    assert length(M) == Ordinal.parse("w^11 + w^10")
    assert len(scans) <= 2
    scans.clear()
    assert length(MonomialModule.quotient_ring(MonomialIdeal.zero(13))) == Ordinal.omega_power(13)
    assert scans == [0]
    # one generator: the 12 primes (x_i), not the 4,095 candidates
    scans.clear()
    product = MonomialModule.quotient_ring(parse_ideal("*".join(names), names))
    assert length(product) == Ordinal.parse("12w^11")
    assert scans == [1] * 12
    # the scan at (x, y, z), a box of 1001^2 lines, is never made; it
    # would find no torsion
    scans.clear()
    xyz = parse_ideal("x^1001*y^1001*z^1001", ("x", "y", "z"))
    assert length(MonomialModule.quotient_ring(xyz)) == Ordinal.parse("3003w^2")
    assert scans == [1] * 3
    assert h0_count(MonomialIdeal.unit(3), xyz) == 0


def few_generator_modules():
    """Modules where J has fewer minimal generators than occurring
    variables, so the generator count skips primes: principal ideals in
    3-6 variables, the n-cycles (x_i^2 x_{i+1}^2) for n <= 6, and seeded
    pairs."""
    rng = random.Random(20)
    cases = []
    for n in range(3, 7):
        for _ in range(4):
            g = tuple(rng.randint(0, 3) for _ in range(n))
            J = MonomialIdeal(n, (Monomial(g),))
            cases.append(MonomialModule.quotient_ring(J))
            divisor = Monomial(tuple(rng.randint(0, a) for a in g))
            cases.append(MonomialModule(n, MonomialIdeal(n, (divisor,)), J))
    for n in range(3, 7):
        cycle = [tuple(2 if j in (i, (i + 1) % n) else 0 for j in range(n)) for i in range(n)]
        cases.append(MonomialModule.quotient_ring(MonomialIdeal(n, tuple(map(Monomial, cycle)))))
    while len(cases) < 120:
        n = rng.randint(3, 6)
        J = MonomialIdeal(n, tuple(
            Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(rng.randint(1, n - 1))
        ))
        if J.is_unit or len(J.exps) >= len({i for e in J.exps for i, a in enumerate(e) if a}):
            continue
        extra = MonomialIdeal(n, (Monomial(tuple(rng.randint(0, 2) for _ in range(n))),))
        I = rng.choice([MonomialIdeal.unit(n), ideal_sum(J, extra)])
        cases.append(MonomialModule(n, I, J))
    return cases


def test_generator_count_skips_only_weightless_primes():
    """Where J has fewer generators than variables, fcyc still finds
    brute.fcyc's weights over all 2^n primes, and its scans of exponent
    tuples agree with h0_count on the localized ideals."""
    for M in few_generator_modules():
        ig, jg = [g.exps for g in M.I.gens], [g.exps for g in M.J.gens]
        assert {p.key: c for p, c in fcyc(M).terms} == brute.fcyc(ig, jg, M.n), M
        for size in range(M.n + 1):
            for keep in itertools.combinations(range(M.n), size):
                num, den = localize_pair(M.I, M.J, keep)
                num_t = _minimal([tuple(e[i] for i in keep) for e in ig])
                den_t = _minimal([tuple(e[i] for i in keep) for e in jg])
                assert [g.exps for g in den.gens] == den_t
                if num != den:
                    assert h0_count(num, den) == _h0_scan(num_t, den_t, size), (M, keep)


def test_large_exponent_lengths_stay_fast():
    """The closed forms of the benchmark's exponent ladder, far past its
    rungs: the scan's cost follows the distinct exponents, not their size."""
    with Budget(1.0):
        xy = parse_ideal("x^200, y^200", ("x", "y"))
        assert length(MonomialModule.quotient_ring(xy)) == Ordinal.finite(40000)
        xyz = parse_ideal("x^50, y^50, z^50, x*y*z", ("x", "y", "z"))
        assert length(MonomialModule.quotient_ring(xyz)) == Ordinal.finite(7351)
        # cube (x^k, y^k, z^k, xyz): k^3 - (k-1)^3
        cube = parse_ideal("x^900, y^900, z^900, x*y*z", ("x", "y", "z"))
        assert length(MonomialModule.quotient_ring(cube)) == Ordinal.finite(2427301)
        # corner (x^k, x^a y^b, y^k), a = k/4, b = 3k/4: k^2 - (k-a)(k-b)
        corner = parse_ideal("x^400, x^100*y^300, y^400", ("x", "y"))
        assert length(MonomialModule.quotient_ring(corner)) == Ordinal.finite(130000)
        # strip (x^k, x^a y^b), a = k/2, b = k: a w + (k-a) b
        strip = parse_ideal("x^400, x^200*y^400", ("x", "y"))
        assert length(MonomialModule.quotient_ring(strip)) == Ordinal.parse("200w + 80000")

