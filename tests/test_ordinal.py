"""Ordinal arithmetic below w^w."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlen.errors import ParseError
from ordlen.ordinal import OMEGA, ONE, ZERO, Ordinal

coeff_tuples = st.lists(st.integers(0, 5), max_size=5).map(tuple)
ordinals = coeff_tuples.map(Ordinal)


def test_normalization_strips_trailing_zeros():
    assert Ordinal((1, 0, 0)) == ONE
    assert Ordinal((0, 0)) == ZERO
    assert Ordinal((0, 1)).coeffs == (0, 1)


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        Ordinal((1, -1))


def test_basic_invariants():
    a = Ordinal.parse("w^2 + 3w + 1")
    assert a.degree == 2 and a.order == 0 and a.valence == 5
    assert a.support == (0, 1, 2)
    assert not a.is_binary
    assert OMEGA.is_binary and OMEGA.order == 1


def test_zero_has_no_degree():
    assert ZERO.is_zero
    with pytest.raises(ValueError):
        ZERO.degree
    with pytest.raises(ValueError):
        ZERO.order


def test_ordinal_sum_absorbs_left_low_part():
    assert ONE + OMEGA == OMEGA
    assert OMEGA + ONE == Ordinal((1, 1))
    assert (OMEGA + ONE) + OMEGA == Ordinal((0, 2))
    assert Ordinal.parse("w^2") + Ordinal.parse("w + 1") == Ordinal.parse("w^2 + w + 1")
    assert Ordinal.parse("w + 5") + Ordinal.parse("w") == Ordinal.parse("2w")


def test_shuffle_sum_is_coefficientwise():
    a, b = Ordinal.parse("w^2 + 1"), Ordinal.parse("w + 2")
    assert a.shuffle_sum(b) == Ordinal.parse("w^2 + w + 3")
    assert ONE.shuffle_sum(OMEGA) == Ordinal.parse("w + 1")


def test_scaling():
    assert Ordinal.parse("w + 1") * 3 == Ordinal.parse("3w + 3")
    assert 2 * OMEGA == Ordinal.parse("2w")
    assert OMEGA * 0 == ZERO


def test_total_order_sorts_by_degree_then_lexicographic():
    chain = [
        ZERO,
        ONE,
        Ordinal.finite(10),
        OMEGA,
        Ordinal.parse("w + 3"),
        Ordinal.parse("2w"),
        Ordinal.parse("w^2"),
        Ordinal.parse("w^2 + w"),
    ]
    assert sorted(chain) == chain
    assert all(a < b for a, b in zip(chain, chain[1:]))


def test_greater_reflects_to_less():
    # Ordinal defines only < and <=; Python answers > and >= by reflection
    pool = [Ordinal(c) for c in itertools.product(range(3), repeat=3)]
    for a in pool:
        for b in pool:
            assert (a > b) == (b < a) and (a >= b) == (b <= a), (a, b)


def test_weaker_and_lattice():
    a, b = Ordinal.parse("w + 1"), Ordinal.parse("w^2 + 1")
    assert not a.weaker(OMEGA)
    assert OMEGA.weaker(a)
    assert not a.weaker(b) and not b.weaker(a)  # incomparable: b lacks the w term
    assert a.meet(b) == ONE
    assert a.join(b) == Ordinal.parse("w^2 + w + 1")


def test_meet_join_exact_values():
    a, b = Ordinal.parse("2w + 1"), Ordinal.parse("w + 3")
    assert a.meet(b) == Ordinal.parse("w + 1")
    assert a.join(b) == Ordinal.parse("2w + 3")


def test_shuffle_difference():
    a, b = Ordinal.parse("w + 1"), Ordinal.parse("w^2 + w + 1")
    assert a.weaker(b)
    assert b.shuffle_difference(a) == Ordinal.parse("w^2")
    assert a.shuffle_difference(b) is None


def test_split():
    a = Ordinal.parse("w^3 + 2w^2 + w + 4")
    high, low = a.split(1)
    assert high == Ordinal.parse("w^3 + 2w^2")
    assert low == Ordinal.parse("w + 4")
    assert high + low == a and high.shuffle_sum(low) == a
    high, low = a.split(5)
    assert high == ZERO and low == a


def test_parse_and_str_round_trip():
    for text in ("0", "1", "w", "w + 1", "2w", "w^2 + 3w + 1", "w^4 + w^2"):
        assert str(Ordinal.parse(text)) == text


def test_parse_flexible_forms():
    assert Ordinal.parse("3*w^2+w") == Ordinal((0, 1, 3))
    assert Ordinal.parse(" w ^ 2 ".replace(" ", "")) == Ordinal.omega_power(2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        Ordinal.parse("w^2 + q")
    with pytest.raises(ParseError):
        Ordinal.parse("w^")
    with pytest.raises(ParseError):
        Ordinal.parse("++")


def test_pairs_round_trip():
    a = Ordinal.parse("w^3 + 2w")
    assert a.to_pairs() == [[3, 1], [1, 2]]
    assert Ordinal.from_pairs(a.to_pairs()) == a


@given(ordinals, ordinals, ordinals)
def test_ordinal_sum_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals, ordinals, ordinals)
def test_shuffle_sum_associative_commutative(a, b, c):
    assert a.shuffle_sum(b) == b.shuffle_sum(a)
    assert a.shuffle_sum(b).shuffle_sum(c) == a.shuffle_sum(b.shuffle_sum(c))


@given(ordinals, ordinals)
def test_sum_dominated_by_shuffle(a, b):
    assert a + b <= a.shuffle_sum(b)
    assert a <= a + b and b <= a + b


@given(ordinals, ordinals)
def test_weaker_embeds_in_total_order(a, b):
    if a.weaker(b):
        assert a <= b
    diff = b.shuffle_difference(a)
    assert (diff is not None) == a.weaker(b)
    if diff is not None:
        assert a.shuffle_sum(diff) == b


@given(ordinals, ordinals)
def test_lattice_laws(a, b):
    assert a.meet(b) == b.meet(a) and a.join(b) == b.join(a)
    assert a.meet(b).weaker(a) and a.weaker(a.join(b))
    assert a.meet(a.join(b)) == a and a.join(a.meet(b)) == a


@given(ordinals, st.integers(0, 6))
def test_split_reconstruction(a, e):
    high, low = a.split(e)
    assert all(exp > e for exp in high.support)
    assert all(exp <= e for exp in low.support)
    assert high + low == a
    assert high.shuffle_sum(low) == a


@given(ordinals)
def test_zero_is_identity(a):
    assert a + ZERO == a and ZERO + a == a
    assert a.shuffle_sum(ZERO) == a


@given(ordinals, ordinals)
def test_unchecked_results_are_normal_forms(a, b):
    # the operators build their results without re-validating, so each
    # result must already equal the validated construction of its tuple
    for result in (a + b, a.shuffle_sum(b), a.meet(b), a.join(b)):
        assert result == Ordinal(result.coeffs)
        assert not result.coeffs or result.coeffs[-1] > 0
    assert a.weaker(b) == all(a.coeff(i) <= b.coeff(i) for i in range(len(a.coeffs)))


def test_comparison_with_other_types():
    with pytest.raises(TypeError):
        Ordinal((1,)) < 3
    with pytest.raises(TypeError):
        Ordinal((1,)) >= "w"
    assert Ordinal((1,)) != (1,)
    with pytest.raises(AttributeError):
        ONE.coeffs = (2,)
