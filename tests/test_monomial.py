"""Monomial ideal calculus, cross-checked against box-membership brutes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from ordlen.cycles import MonomialPrime
from ordlen.monomial import (
    Monomial,
    MonomialIdeal,
    colon_ideal,
    colon_mono,
    contains,
    default_names,
    format_ideal,
    h0_count,
    ideal_from_json,
    ideal_of_prime,
    ideal_sum,
    ideal_to_json,
    intersect,
    localize_pair,
    member,
    multiply,
    parse_ideal,
    parse_monomial,
    saturate,
    saturate_mono,
    variable_ideal,
)
from ordlen.errors import GuardError, ParseError

NAMES = ("x", "y")


def I2(text):
    return parse_ideal(text, NAMES)


def M2(text):
    return parse_monomial(text, NAMES)


# -- monomials ---------------------------------------------------------


def test_monomial_operations():
    a, b = M2("x^2*y"), M2("x*y^3")
    assert a * b == Monomial((3, 4))
    assert a.lcm(b) == Monomial((2, 3))
    assert not a.divides(b) and a.divides(a * b)
    assert a.colon_by(b) == Monomial((1, 0))
    assert b.colon_by(a) == Monomial((0, 2))
    assert a.pow(3) == Monomial((6, 3))
    assert Monomial.one(2).divides(a)
    assert a.degree == 3 and a.support == (0, 1)


def test_monomial_zeroed_and_restricted():
    a = M2("x^2*y")
    assert a.zeroed(0) == Monomial((0, 1))
    assert a.restricted((1,)) == Monomial((1,))


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((-1, 0))


# -- canonical generators ----------------------------------------------


def test_ideal_minimalizes_generators():
    ideal = MonomialIdeal(2, (M2("x^2"), M2("x^3"), M2("x^2*y"), M2("y")))
    assert ideal.gens == (M2("y"), M2("x^2"))
    assert MonomialIdeal(2, (Monomial.one(2), M2("x"))).is_unit
    assert MonomialIdeal.zero(2).gens == ()


def test_ideal_equality_is_canonical():
    assert I2("x^2, x*y, x^2*y") == I2("x*y, x^2")


# -- membership / containment vs brute ---------------------------------


def random_ideal(rng, n=2, d=3, k=3):
    pool = [
        Monomial(e)
        for e in itertools.product(*(range(d + 1) for _ in range(n)))
        if 0 < sum(e) <= d
    ]
    return MonomialIdeal(n, tuple(rng.sample(pool, k=rng.randint(0, k))))


def test_membership_matches_brute():
    rng = random.Random(7)
    for _ in range(50):
        ideal = random_ideal(rng)
        gens = [g.exps for g in ideal.gens]
        for m in brute.box(2, 4):
            assert member(Monomial(m), ideal) == brute.member(m, gens)


def test_containment_matches_brute():
    rng = random.Random(8)
    for _ in range(100):
        a, b = random_ideal(rng), random_ideal(rng)
        expected = all(
            brute.member(g.exps, [h.exps for h in a.gens]) for g in b.gens
        )
        assert contains(a, b) == expected


# -- colon, saturation, intersection, sum vs brute ----------------------


def assert_same_ideal_on_box(ideal, predicate, cap=5):
    gens = [g.exps for g in ideal.gens]
    for m in brute.box(2, cap):
        assert brute.member(m, gens) == predicate(m), (ideal, m)


def test_colon_mono_matches_brute():
    rng = random.Random(9)
    for _ in range(40):
        ideal = random_ideal(rng)
        by = Monomial(tuple(rng.randint(0, 2) for _ in range(2)))
        got = colon_mono(ideal, by)
        jg = [g.exps for g in ideal.gens]
        assert_same_ideal_on_box(got, lambda m: brute.colon_member(m, jg, by.exps))


def test_colon_ideal_matches_membership():
    rng = random.Random(10)
    for _ in range(40):
        ideal, by = random_ideal(rng), random_ideal(rng)
        if by.is_zero:
            continue
        got = colon_ideal(ideal, by)
        jg = [g.exps for g in ideal.gens]
        assert_same_ideal_on_box(
            got,
            lambda m: all(brute.colon_member(m, jg, b.exps) for b in by.gens),
        )


def test_colon_by_zero_ideal_raises():
    with pytest.raises(ValueError):
        colon_ideal(I2("x"), MonomialIdeal.zero(2))
    # colon of the zero ideal by a monomial is fine and stays zero
    assert colon_mono(MonomialIdeal.zero(2), M2("x")).is_zero


def test_saturation_matches_brute():
    rng = random.Random(11)
    for _ in range(40):
        ideal = random_ideal(rng)
        by = Monomial(tuple(rng.randint(0, 2) for _ in range(2)))
        if by == Monomial.one(2):
            continue
        got = saturate_mono(ideal, by)
        jg = [g.exps for g in ideal.gens]
        assert_same_ideal_on_box(
            got, lambda m: brute.saturation_member(m, jg, by.exps, 2)
        )


def random_exps_ideal(rng, n, gens=4, deg=4):
    return [tuple(rng.randint(0, deg) for _ in range(n)) for _ in range(rng.randint(0, gens))]


def test_closed_form_saturation_matches_iterated_colons():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 4)
        jg = random_exps_ideal(rng, n)
        ideal = MonomialIdeal.of(n, jg)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        got = saturate_mono(ideal, Monomial(m))
        assert [g.exps for g in got.gens] == brute.saturation_iterated(jg, [m]), (jg, m)
        for cell in brute.box(n, 5 if n < 4 else 3):
            assert brute.member(cell, [g.exps for g in got.gens]) == brute.saturation_member(
                cell, jg, m, n
            ), (jg, m, cell)
        by = random_exps_ideal(rng, n, deg=2) or [m]
        got = saturate(ideal, MonomialIdeal.of(n, by))
        assert [g.exps for g in got.gens] == brute.saturation_iterated(jg, by), (jg, by)


def test_saturate_by_zero_ideal_raises():
    with pytest.raises(ValueError):
        saturate(I2("x^2, x*y"), MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        saturate(MonomialIdeal.zero(2), MonomialIdeal.zero(2))


def test_saturate_by_maximal_ideal_keeps_nontorsion():
    assert saturate(I2("x^2, x*y"), variable_ideal(2)) == I2("x")
    assert saturate(I2("x^2, y^2"), variable_ideal(2)).is_unit
    assert saturate(MonomialIdeal.zero(2), variable_ideal(2)).is_zero


def test_intersect_and_sum_match_brute():
    rng = random.Random(12)
    for _ in range(40):
        a, b = random_ideal(rng), random_ideal(rng)
        ag = [g.exps for g in a.gens]
        bg = [g.exps for g in b.gens]
        got_i = intersect(a, b)
        got_s = ideal_sum(a, b)
        for m in brute.box(2, 4):
            assert member(Monomial(m), got_i) == (
                brute.member(m, ag) and brute.member(m, bg)
            )
            assert member(Monomial(m), got_s) == (
                brute.member(m, ag) or brute.member(m, bg)
            )


def test_multiply():
    assert multiply(I2("x, y"), M2("x*y")) == I2("x^2*y, x*y^2")
    assert multiply(MonomialIdeal.zero(2), M2("x")).is_zero


def test_prime_ideals():
    assert ideal_of_prime(MonomialPrime.of(2, (0,))) == I2("x")
    assert ideal_of_prime(MonomialPrime.of(2, ())).is_zero
    assert variable_ideal(2) == I2("x, y")


# -- standard pairs ------------------------------------------------------


def pairs_as_set(ideal):
    return brute.standard_pairs([g.exps for g in ideal.gens], ideal.n)


def test_standard_pairs_known_cases():
    assert pairs_as_set(I2("x^2, x*y")) == {((0, 0), (1,)), ((1, 0), ())}
    assert pairs_as_set(I2("x^2")) == {((0, 0), (1,)), ((1, 0), (1,))}
    assert pairs_as_set(MonomialIdeal.zero(2)) == {((0, 0), (0, 1))}
    assert pairs_as_set(MonomialIdeal.unit(2)) == set()
    assert pairs_as_set(I2("x, y")) == {((0, 0), ())}


def test_standard_pairs_cover_exactly_the_standard_monomials():
    """Every monomial outside the ideal is head·(free variables), with
    the head exponents matching off the free set."""
    rng = random.Random(13)
    for _ in range(30):
        ideal = random_ideal(rng)
        if ideal.is_unit:
            continue
        pairs = pairs_as_set(ideal)
        for m in brute.box(2, 4):
            outside = not brute.member(m, [g.exps for g in ideal.gens])
            covered = any(
                all(m[j] == head[j] for j in range(2) if j not in free)
                and all(m[j] >= head[j] for j in range(2))
                for head, free in pairs
            )
            assert covered == outside, (ideal, m)


# -- localization and torsion counts -------------------------------------


def test_localize_pair_projects_and_minimalizes():
    # y becomes a unit, so x*y collapses to x, which swallows x^2
    num, den = localize_pair(I2("1"), I2("x^2, x*y"), (0,))
    assert den == parse_ideal("x", ("x",))
    assert num.is_unit
    num, den = localize_pair(I2("1"), I2("x^2, x*y"), (0, 1))
    assert den == I2("x^2, x*y")


def test_h0_count_known_values():
    # torsion of R/(x^2, xy): the class of x only
    assert h0_count(MonomialIdeal.unit(2), I2("x^2, x*y")) == 1
    # Artinian: everything
    assert h0_count(MonomialIdeal.unit(2), I2("x^2, x*y, y^2")) == 3
    # domain: nothing
    assert h0_count(MonomialIdeal.unit(2), MonomialIdeal.zero(2)) == 0
    # submodule numerator restricts the count
    assert h0_count(I2("x"), I2("x^2, x*y")) == 1
    assert h0_count(I2("y"), I2("x^2, x*y")) == 0


def test_h0_count_zero_variables():
    # after inverting every variable the ring is a field
    unit0 = MonomialIdeal.unit(0)
    zero0 = MonomialIdeal.zero(0)
    assert h0_count(unit0, zero0) == 1
    assert h0_count(unit0, unit0) == 0


def test_h0_count_matches_brute_at_growing_caps():
    rng = random.Random(14)
    for _ in range(30):
        J = random_ideal(rng)
        I = MonomialIdeal.unit(2)
        got = h0_count(I, J)
        jg = [g.exps for g in J.gens]
        ig = [g.exps for g in I.gens]
        c1 = brute.h0_count(ig, jg, 2, 6)
        c2 = brute.h0_count(ig, jg, 2, 7)
        assert c1 == c2, "brute cap did not stabilize"
        assert got == c1, (J, got, c1)


def test_h0_count_uses_per_variable_caps():
    # the torsion classes of (x^2)/(x^3, x^2 y^3) are x^2, x^2 y, x^2 y^2:
    # the y-exponent reaches 2 even though no bound on the total degree of
    # a single generator would suggest it
    got = h0_count(I2("x^2"), I2("x^3, x^2*y^3"))
    assert got == 3
    assert got == brute.h0_count([(2, 0)], [(3, 0), (2, 3)], 2, 8)


def test_h0_count_matches_brute_in_one_to_four_variables():
    # the scan runs along the variable with the largest cap; the
    # permuted copies put that variable first, in the middle and last
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 4)
        jg = random_exps_ideal(rng, n, gens=5, deg=3 if n < 4 else 2)
        ig = [tuple(rng.randint(0, 2) for _ in range(n))] + jg if rng.random() < 0.7 else [(0,) * n]
        order = list(range(n))
        rng.shuffle(order)
        for perm in (list(range(n)), order):
            pj = [tuple(e[i] for i in perm) for e in jg]
            pi = [tuple(e[i] for i in perm) for e in ig]
            cap = max((a for e in pj for a in e), default=0)
            want = brute.h0_count(brute.minimal(pi), pj, n, cap)
            assert h0_count(MonomialIdeal.of(n, pi), MonomialIdeal.of(n, pj)) == want, (pi, pj)


def test_h0_count_largest_cap_not_last():
    # caps (4, 1): the scan runs along x
    assert h0_count(MonomialIdeal.unit(2), I2("x^4, y")) == 4
    # R/(x^4, x^2 y): x^2 and x^3 are killed by powers of both variables
    assert h0_count(MonomialIdeal.unit(2), I2("x^4, x^2*y")) == 2
    assert h0_count(I2("x"), I2("x^4, x^3*y, y^2")) == brute.h0_count(
        [(1, 0)], [(4, 0), (3, 1), (0, 2)], 2, 4
    )
    J3 = MonomialIdeal.of(3, [(1, 5, 0), (0, 2, 1), (0, 0, 2), (2, 0, 0)])
    assert h0_count(MonomialIdeal.unit(3), J3) == brute.h0_count(
        [(0, 0, 0)], [g.exps for g in J3.gens], 3, 5
    )


def test_h0_count_guards_its_scan():
    # caps (3000, 2000, 2000): the scan along x would visit 2000 * 2000 lines
    J = MonomialIdeal.of(3, [(3000, 0, 0), (0, 2000, 0), (0, 0, 2000)])
    with pytest.raises(GuardError, match="4000000 box lines"):
        h0_count(MonomialIdeal.unit(3), J)


# -- parsing and formatting ----------------------------------------------


def test_parse_ideal_forms():
    assert I2("").is_zero and I2("0").is_zero
    assert I2("1").is_unit
    assert I2("x^2, x*y") == MonomialIdeal(2, (M2("x^2"), M2("x*y")))


def test_parse_monomial_errors():
    with pytest.raises(ParseError):
        M2("x^")
    with pytest.raises(ParseError):
        M2("z")
    with pytest.raises(ParseError):
        M2("x**y")


def test_default_names():
    assert default_names(2) == ("x", "y")
    assert default_names(3) == ("x", "y", "z")
    assert default_names(4) == ("x1", "x2", "x3", "x4")


def test_format_and_json_round_trip():
    ideal = I2("x^2, x*y")
    assert format_ideal(ideal, NAMES) == "x*y, x^2"  # canonical (degree, exps) order
    assert format_ideal(MonomialIdeal.zero(2), NAMES) == "0"
    assert format_ideal(MonomialIdeal.unit(2), NAMES) == "1"
    data = ideal_to_json(ideal, NAMES)
    back, names = ideal_from_json(data)
    assert back == ideal and names == NAMES


# -- algebraic properties -------------------------------------------------

small_ideals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3
).map(lambda exps: MonomialIdeal(2, tuple(Monomial(e) for e in exps)))


@given(small_ideals, small_ideals)
@settings(max_examples=60)
def test_intersection_and_sum_bracket_the_inputs(a, b):
    inter, total = intersect(a, b), ideal_sum(a, b)
    assert contains(a, inter) and contains(b, inter)
    assert contains(total, a) and contains(total, b)


@given(small_ideals, st.tuples(st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=60)
def test_colon_then_multiply(a, exps):
    by = Monomial(exps)
    quot = colon_mono(a, by)
    assert contains(quot, a)
    for g in quot.gens:
        assert member(g * by, a)
