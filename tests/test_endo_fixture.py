"""Endomorphism ring of K[x, y]/(x^2, x*y): triples, laws, kernels."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

import ordlen.endo_fixture
from ordlen.endo_fixture import (
    EndoTriple,
    _grid,
    _random_triple,
    check_endo_fixture,
    commutator,
    endo_add,
    endo_compose,
    endo_power,
    endo_sub,
    invert,
    is_bijective,
    is_monic,
    is_nilpotent,
    poly_inverse,
    poly_mul,
)


def T(u, v, *p):
    return EndoTriple(u, v, tuple(p) + (0,) * (4 - len(p)))


# -- truncated polynomial arithmetic ------------------------------------------


def test_poly_ops():
    assert poly_mul((1, 1), (1, 1), 2) == (1, 2)
    assert poly_mul((0, 1), (0, 1), 4) == (0, 0, 1, 0)
    inv = poly_inverse((1, 1, 0, 0), 4)
    assert poly_mul((1, 1, 0, 0), inv, 4) == (1, 0, 0, 0)
    inv = poly_inverse((2, 3), 2)
    assert inv[0] == Fraction(1, 2)
    assert poly_mul((2, 3), inv, 2) == (1, 0)
    with pytest.raises(ValueError):
        poly_inverse((0, 1), 2)


def naive_mul(p, q, order):
    return tuple(
        sum(p[i] * q[k - i] for i in range(k + 1) if i < len(p) and k - i < len(q))
        for k in range(order)
    )


def test_poly_mul_matches_naive_convolution():
    rng = random.Random(7)
    for order in range(1, 9):
        for _ in range(25):
            p, q = (
                [rng.randint(-5, 5) for _ in range(rng.randint(0, order + 3))] for _ in range(2)
            )
            assert poly_mul(p, q, order) == naive_mul(p, q, order)
            p, q = [Fraction(a, rng.randint(1, 4)) for a in p], [Fraction(b, 3) for b in q]
            assert poly_mul(p, q, order) == naive_mul(p, q, order)


# -- triple basics -------------------------------------------------------------


def test_triple_validation_and_constants():
    assert T(0, 0).is_zero()
    assert EndoTriple.identity(4) == EndoTriple(1, 0, (1, 0, 0, 0))
    assert EndoTriple.identity(4).order == 4
    assert "u=1" in str(EndoTriple.identity(4))
    assert "0" in str(EndoTriple(0, 0, (0, 0)))


def test_compose_examples():
    f, g = T(2, 1, 1, 1), T(1, 3, 2)
    fg = endo_compose(f, g)
    # u multiplies, the v-slot sees only g's constant coefficient
    assert fg.u == 2
    assert fg.v == 2 * 3 + 1 * 2
    assert fg.p == poly_mul(f.p, g.p, 4)
    identity = EndoTriple.identity(4)
    assert endo_compose(identity, f) == f
    assert endo_compose(f, identity) == f
    assert endo_compose(T(0, 0), f).is_zero()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        endo_compose(EndoTriple.identity(4), EndoTriple.identity(8))
    with pytest.raises(ValueError):
        endo_add(T(0, 0), EndoTriple(0, 0, (0,) * 8))


def test_ring_laws_small():
    f, g, h = T(1, 2, 0, 1), T(0, 1, 2), T(-1, 0, 1, 1)
    assert endo_compose(endo_compose(f, g), h) == endo_compose(f, endo_compose(g, h))
    assert endo_compose(f, endo_add(g, h)) == endo_add(
        endo_compose(f, g), endo_compose(f, h)
    )
    assert endo_sub(f, f).is_zero()


def formula_compose(f, g):
    (uf, vf, pf), (ug, vg, pg) = f, g
    return (uf * ug, uf * vg + vf * pg[0], naive_mul(pf, pg, len(pf)))


def formula_add(f, g, sign=1):
    """f + g, or f − g with sign −1, slot by slot."""
    (uf, vf, pf), (ug, vg, pg) = f, g
    return (uf + sign * ug, vf + sign * vg, tuple(a + sign * b for a, b in zip(pf, pg)))


def triple_pairs():
    """Grid pairs, seeded random pairs, and pairs of inverted triples."""
    rng = random.Random(3)
    grid = _grid(4)
    yield from zip(grid, reversed(grid))
    randoms = [_random_triple(rng, 4) for _ in range(200)]
    yield from zip(randoms, rng.sample(randoms, len(randoms)))
    inverted = [invert(f) for f in randoms if is_bijective(f)]
    yield from zip(inverted, reversed(inverted))
    yield from zip(inverted, randoms)


def test_triple_arithmetic_matches_the_formulas():
    for f, g in triple_pairs():
        plain_f, plain_g = tuple(f), tuple(g)
        fg, gf = formula_compose(plain_f, plain_g), formula_compose(plain_g, plain_f)
        assert tuple(endo_compose(f, g)) == fg
        assert tuple(endo_add(f, g)) == formula_add(plain_f, plain_g)
        assert tuple(endo_sub(f, g)) == formula_add(plain_f, plain_g, -1)
        assert tuple(commutator(f, g)) == formula_add(fg, gf, -1)


# -- classification -------------------------------------------------------------


def test_classification_examples():
    nil = T(0, 3)
    assert is_nilpotent(nil) and not is_monic(nil)
    assert endo_power(nil, 2).is_zero()

    bij = T(2, 5, 1, 1)
    assert is_bijective(bij) and is_monic(bij)

    half = T(0, 0, 0, 1)  # kills x, multiplies the y-stream by y
    assert not is_monic(half)


def test_nilpotents_square_to_zero_exactly():
    for v in range(-3, 4):
        f = T(0, v)
        assert endo_compose(f, f).is_zero()


def test_invert_roundtrip():
    identity = EndoTriple.identity(4)
    for f in (T(2, 5, 1, 1), T(1, -1, 2, 0, 0), T(-2, 0, -1, 2)):
        g = invert(f)
        assert endo_compose(f, g) == identity
        assert endo_compose(g, f) == identity
    with pytest.raises(ValueError):
        invert(T(0, 1, 1))
    with pytest.raises(ValueError):
        invert(T(1, 1, 0, 1))


def test_commutators_land_in_the_nil_ideal():
    f, g = T(0, 1), T(2, 0, 1)
    c = commutator(f, g)
    assert c == T(0, -1)
    assert not c.is_zero()  # the ring is noncommutative
    assert is_nilpotent(c)


# -- the law suite ----------------------------------------------------------------


def test_check_endo_fixture_passes():
    results = check_endo_fixture(order=4)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "endo-noncommutative" in names
    assert "endo-nil-kernel-open" in names


def test_check_endo_fixture_rejects_tiny_order():
    with pytest.raises(ValueError):
        check_endo_fixture(order=3)


def test_check_endo_fixture_is_repeatable():
    first = check_endo_fixture(4, seed=1)
    assert check_endo_fixture(4, seed=1) == first


def count_calls(monkeypatch, *names):
    """Rebind each named function, as a profiler would, in every ordlen
    namespace that holds it, to a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(ordlen.endo_fixture, name)

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for modname, mod in list(sys.modules.items()):
            if modname == "ordlen" or modname.startswith("ordlen."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_check_endo_fixture_survives_rebound_arithmetic(monkeypatch):
    """A profiler may rebind the arithmetic in every ordlen namespace that
    holds it; the fixture must still pass with the same records."""
    expected = check_endo_fixture(4)
    calls = count_calls(monkeypatch, "poly_mul", "endo_compose", "commutator")
    assert check_endo_fixture(4) == expected
    assert all(calls.values()), calls


@pytest.mark.parametrize("order, commutators", [(4, 1238), (8, 1302)])
def test_commutator_work_is_pinned(monkeypatch, order, commutators):
    """(order + 2)² basis pairs, six commutators for each of the 200
    bilinearity samples and two for the noncommuting witness; the sweep
    over the 195,000 grid pairs made 195,002."""
    calls = count_calls(monkeypatch, "commutator")
    check_endo_fixture(order)
    assert calls == {"commutator": commutators}


def grid_commutators_are_nil(order):
    """The sweep over every pair of grid triples that the basis law
    replaced, kept as its oracle."""
    return all(
        is_nilpotent(commutator(f, g)) for f, g in itertools.combinations(_grid(order), 2)
    )


def test_grid_commutators_are_nil():
    assert grid_commutators_are_nil(4)


def test_commutator_law_reaches_beyond_the_grid(monkeypatch):
    """A product that fails to commute only through a y² coefficient
    passes the grid sweep, whose triples stop at degree 1, and fails
    the basis law."""

    def skewed(p, q, order):
        out = list(poly_mul(p, q, order))
        out[-1] += p[2] * q[0]
        return tuple(out)

    monkeypatch.setattr(ordlen.endo_fixture, "poly_mul", skewed)
    assert grid_commutators_are_nil(4)
    records = {r.name: r for r in check_endo_fixture(4)}
    assert not records["endo-commutators-nil"].passed


def test_bilinearity_law_fails_a_nonadditive_commutator(monkeypatch):
    """A commutator that stays nilpotent but is not additive in its first
    argument passes the basis law; only the bilinearity law sees it."""

    def nonadditive(f, g):
        c = commutator(f, g)
        return c._replace(v=c.v + f.v * f.v)

    monkeypatch.setattr(ordlen.endo_fixture, "commutator", nonadditive)
    records = {r.name: r for r in check_endo_fixture(4)}
    assert records["endo-commutators-nil"].passed
    assert not records["endo-commutator-bilinear"].passed
