"""Monomial ideal calculus, cross-checked against box-membership brutes."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from ordlen.corpus import random_contained_pairs
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
    A, B = MonomialIdeal(2, (a,)), MonomialIdeal(2, (b,))
    assert multiply(A, b) == MonomialIdeal(2, (Monomial((3, 4)),))
    assert intersect(A, B) == MonomialIdeal(2, (Monomial((2, 3)),))
    assert not a.divides(b) and a.divides(Monomial((3, 4)))
    assert colon_mono(A, b) == MonomialIdeal(2, (Monomial((1, 0)),))
    assert colon_mono(B, a) == MonomialIdeal(2, (Monomial((0, 2)),))
    assert a.pow(3) == Monomial((6, 3))
    assert Monomial.one(2).divides(a)
    assert a.degree == 3


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


def test_ideal_holds_its_minimal_exponent_vectors():
    """Every ideal, built checked or by a kernel operation, holds the
    sorted minimal vectors of its generators as a tuple of int tuples,
    which ``gens`` views as Monomials; order is irrelevant to equality
    and hashing, and pickling and copying give an equal ideal."""
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 4)
        ag, bg = random_exps_ideal(rng, n), random_exps_ideal(rng, n)
        a, b = exps_ideal(n, ag), exps_ideal(n, bg)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        keep = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        num, den = localize_pair(a, b, keep)
        built = [
            (a, ag),
            (colon_mono(a, Monomial(m)), [tuple(max(x - y, 0) for x, y in zip(g, m)) for g in ag]),
            (saturate_mono(a, Monomial(m)), [tuple(0 if y else x for x, y in zip(g, m)) for g in ag]),
            (intersect(a, b), [tuple(map(max, g, h)) for g in ag for h in bg]),
            (ideal_sum(a, b), ag + bg),
            (multiply(a, Monomial(m)), [tuple(x + y for x, y in zip(g, m)) for g in ag]),
            (num, [tuple(g[i] for i in keep) for g in ag]),
            (den, [tuple(g[i] for i in keep) for g in bg]),
        ]
        for ideal, naive in built:
            exps = ideal.exps
            assert type(exps) is tuple and all(type(e) is tuple for e in exps)
            assert all(type(x) is int for e in exps for x in e)
            assert exps == tuple(g.exps for g in ideal.gens) == tuple(brute.minimal(naive))
            shuffled = naive[:]
            rng.shuffle(shuffled)
            other = exps_ideal(ideal.n, shuffled)
            assert other == ideal and hash(other) == hash(ideal), (naive, shuffled)
            for twin in (pickle.loads(pickle.dumps(ideal)), copy.copy(ideal), copy.deepcopy(ideal)):
                assert twin == ideal and hash(twin) == hash(ideal)
    assert MonomialIdeal._trusted(2, [(1, 0), (2, 0)]).exps == ((1, 0),)


def test_ideal_fields_are_frozen_and_validated_once(monkeypatch):
    assert MonomialIdeal.__slots__ == ("n", "exps")
    ideal = I2("x^2, y")
    for name in ("n", "exps", "gens"):
        with pytest.raises(AttributeError):
            setattr(ideal, name, ())
        with pytest.raises(AttributeError):
            delattr(ideal, name)
    checked = []
    original = MonomialIdeal.__post_init__

    def counting(self, *args):
        checked.append(self)
        return original(self, *args)

    monkeypatch.setattr(MonomialIdeal, "__post_init__", counting)
    assert MonomialIdeal(2, (M2("x"), M2("x^2"))).exps == ((1, 0),)
    assert len(checked) == 1
    colon_mono(ideal, M2("x"))
    intersect(ideal, ideal)
    ideal_sum(ideal, ideal)
    assert len(checked) == 1
    # a copy rebuilds through the checked constructor, so a bad field is caught
    assert pickle.loads(pickle.dumps(ideal)) == ideal and len(checked) == 2
    with pytest.raises(ValueError):
        copy.copy(MonomialIdeal._trusted(2, [(1,)]))


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


def exps_ideal(n, exps):
    return MonomialIdeal(n, tuple(map(Monomial, exps)))


def random_exps_ideal(rng, n, gens=4, deg=4):
    return [tuple(rng.randint(0, deg) for _ in range(n)) for _ in range(rng.randint(0, gens))]


def test_closed_form_saturation_matches_iterated_colons():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 4)
        jg = random_exps_ideal(rng, n)
        ideal = exps_ideal(n, jg)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        got = saturate_mono(ideal, Monomial(m))
        assert [g.exps for g in got.gens] == brute.saturation_iterated(jg, [m]), (jg, m)
        for cell in brute.box(n, 5 if n < 4 else 3):
            assert brute.member(cell, [g.exps for g in got.gens]) == brute.saturation_member(
                cell, jg, m, n
            ), (jg, m, cell)
        by = random_exps_ideal(rng, n, deg=2) or [m]
        got = saturate(ideal, exps_ideal(n, by))
        assert [g.exps for g in got.gens] == brute.saturation_iterated(jg, by), (jg, by)


def test_saturate_by_zero_ideal_raises():
    with pytest.raises(ValueError):
        saturate(I2("x^2, x*y"), MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        saturate(MonomialIdeal.zero(2), MonomialIdeal.zero(2))


def test_saturate_by_maximal_ideal_keeps_nontorsion():
    assert saturate(I2("x^2, x*y"), I2("x, y")) == I2("x")
    assert saturate(I2("x^2, y^2"), I2("x, y")).is_unit
    assert saturate(MonomialIdeal.zero(2), I2("x, y")).is_zero


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


def test_kernel_matches_brute_in_one_to_four_variables():
    """colon_mono, intersect, ideal_sum and multiply build their results
    unchecked from exponent tuples: the generators are still the minimal
    ones of the naive generator set, and membership agrees with the box
    brutes."""
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 4)
        ag, bg = random_exps_ideal(rng, n), random_exps_ideal(rng, n)
        a, b = exps_ideal(n, ag), exps_ideal(n, bg)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        cases = {
            "colon": (
                colon_mono(a, Monomial(m)),
                [tuple(max(x - y, 0) for x, y in zip(g, m)) for g in ag],
                lambda c: brute.colon_member(c, ag, m),
            ),
            "intersect": (
                intersect(a, b),
                [tuple(max(x, y) for x, y in zip(g, h)) for g in ag for h in bg],
                lambda c: brute.member(c, ag) and brute.member(c, bg),
            ),
            "sum": (
                ideal_sum(a, b),
                ag + bg,
                lambda c: brute.member(c, ag) or brute.member(c, bg),
            ),
            "multiply": (
                multiply(a, Monomial(m)),
                [tuple(x + y for x, y in zip(g, m)) for g in ag],
                lambda c: brute.divides(m, c)
                and brute.member(tuple(x - y for x, y in zip(c, m)), ag),
            ),
        }
        for op, (got, naive, predicate) in cases.items():
            gens = [g.exps for g in got.gens]
            assert gens == brute.minimal(naive), (op, ag, bg, m)
            for cell in brute.box(n, 5 if n < 4 else 3):
                assert brute.member(cell, gens) == predicate(cell), (op, ag, bg, m, cell)


def _over_its_ideal(op, *rest):
    """op on an ideal and the principal ideal of a monomial."""
    return lambda ideal, m: op(ideal, MonomialIdeal(m.n, (m,)), *rest)


@pytest.mark.parametrize(
    "op",
    [
        colon_mono,
        saturate_mono,
        multiply,
        pytest.param(_over_its_ideal(h0_count), id="h0_count"),
        pytest.param(_over_its_ideal(localize_pair, (0,)), id="localize_pair"),
    ],
)
def test_monomial_operations_refuse_an_ambient_mismatch(op):
    # zip alone would drop the extra variable, making (x) : (1, 0, 5) the unit ideal
    for m in (Monomial((1, 0, 5)), Monomial((1,))):
        with pytest.raises(ValueError, match="ambient mismatch"):
            op(I2("x"), m)


def test_multiply():
    assert multiply(I2("x, y"), M2("x*y")) == I2("x^2*y, x*y^2")
    assert multiply(MonomialIdeal.zero(2), M2("x")).is_zero


def test_prime_ideals():
    assert ideal_of_prime(MonomialPrime.of(2, (0,))) == I2("x")
    assert ideal_of_prime(MonomialPrime.of(2, ())).is_zero
    assert ideal_of_prime(MonomialPrime.of(2, (0, 1))) == I2("x, y")


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


def test_localize_pair_matches_the_checked_construction():
    """The unchecked ideals localize_pair builds equal, hash like and
    order their generators like the validated constructor's, and the
    validated paths still refuse a negative exponent."""
    for n in range(1, 7):
        for J, I in random_contained_pairs(n, 12, seed=60 + n, d=3):
            for size in range(n + 1):
                for keep in itertools.combinations(range(n), size):
                    got = localize_pair(I, J, keep)
                    for ideal, built in zip((I, J), got):
                        checked = MonomialIdeal(
                            size, tuple(Monomial(tuple(g.exps[i] for i in keep)) for g in ideal.gens)
                        )
                        assert built == checked and hash(built) == hash(checked), (ideal, keep)
                        assert built.gens == checked.gens, (ideal, keep)
    with pytest.raises(ParseError):
        I2("x^-1, y")
    with pytest.raises(ValueError):
        MonomialIdeal(2, (Monomial((-1, 0)),))


def test_h0_count_known_values():
    # torsion of R/(x^2, xy): the class of x only
    assert h0_count(MonomialIdeal.unit(2), I2("x^2, x*y")) == 1
    # Artinian: everything
    assert h0_count(MonomialIdeal.unit(2), I2("x^2, x*y, y^2")) == 3
    # domain: nothing
    assert h0_count(MonomialIdeal.unit(2), MonomialIdeal.zero(2)) == 0
    # a zero numerator has nothing to count, in any number of variables
    assert h0_count(MonomialIdeal.zero(2), I2("x^2, y")) == 0
    assert h0_count(MonomialIdeal.zero(1), MonomialIdeal(1, (Monomial((2,)),))) == 0
    assert h0_count(MonomialIdeal.zero(0), MonomialIdeal.unit(0)) == 0
    # on some lines of R/(z^2, yz, xy^2) a generator that misses one axis
    # alone has a higher threshold than J's: they count 0, not less
    assert h0_count(MonomialIdeal.unit(3), exps_ideal(3, [(0, 0, 2), (0, 1, 1), (1, 2, 0)])) == 0
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
            assert h0_count(exps_ideal(n, pi), exps_ideal(n, pj)) == want, (pi, pj)


def test_h0_count_largest_cap_not_last():
    # caps (4, 1): the scan runs along x
    assert h0_count(MonomialIdeal.unit(2), I2("x^4, y")) == 4
    # R/(x^4, x^2 y): x^2 and x^3 are killed by powers of both variables
    assert h0_count(MonomialIdeal.unit(2), I2("x^4, x^2*y")) == 2
    assert h0_count(I2("x"), I2("x^4, x^3*y, y^2")) == brute.h0_count(
        [(1, 0)], [(4, 0), (3, 1), (0, 2)], 2, 4
    )
    J3 = exps_ideal(3, [(1, 5, 0), (0, 2, 1), (0, 0, 2), (2, 0, 0)])
    assert h0_count(MonomialIdeal.unit(3), J3) == brute.h0_count(
        [(0, 0, 0)], [g.exps for g in J3.gens], 3, 5
    )


def test_h0_count_matches_the_line_scan_at_sparse_large_exponents():
    """The cell scan equals the line-by-line scan it replaced, and the
    box count where the box is small, on exponents drawn from
    {0, 1, k-1, k, 2k}: few distinct values, but large ones."""
    rng = random.Random(22)

    def draw(n, sparse, count):
        return [tuple(rng.choice(sparse) for _ in range(n)) for _ in range(count)]

    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(2, (60, 60, 16, 5)[n - 1])
        sparse = (0, 1, k - 1, k, 2 * k)
        jg = [e for e in draw(n, sparse, rng.randint(1, 5)) if any(e)]
        # pure powers of most variables, so that most cases have torsion
        jg += [tuple(rng.choice(sparse[1:]) if j == i else 0 for j in range(n))
               for i in range(n) if rng.random() < 0.8]
        if not jg:
            continue
        ig = draw(n, sparse, rng.randint(1, 2)) + jg if rng.random() < 0.5 else [(0,) * n]
        I, J = exps_ideal(n, ig), exps_ideal(n, jg)
        got = h0_count(I, J)
        assert got == brute.h0_lines(ig, jg, n), (ig, jg)
        cap = max(a for e in jg for a in e)
        if cap ** n <= 1000:
            assert got == brute.h0_count(brute.minimal(ig), jg, n, cap), (ig, jg)


def test_h0_count_guards_its_scan():
    # caps (3000, 2000, 2000): the box along x has 2000 * 2000 lines but
    # its exponent grid has one cell, so the guard lets the scan run
    box = exps_ideal(3, [(3000, 0, 0), (0, 2000, 0), (0, 0, 2000)])
    assert h0_count(MonomialIdeal.unit(3), box) == 3000 * 2000 * 2000
    # a staircase in y and z: 1001 distinct exponents on each axis but
    # the scanned x, so 1001 * 1001 grid cells
    stair = exps_ideal(3, [(3000, 0, 0)] + [(0, k, 1002 - k) for k in range(1, 1002)])
    with pytest.raises(GuardError) as refused:
        h0_count(MonomialIdeal.unit(3), stair)
    assert str(refused.value) == (
        "torsion count would scan 1002001 grid cells, over the bound of 1000000 (MAX_H0_CELLS)"
    )


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
    assert ideal_to_json(ideal, NAMES) == {"vars": ["x", "y"], "gens": [[1, 1], [2, 0]]}


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
    assert contains(a, multiply(quot, by))
