"""Monomial primes and cycles over them."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlen.cycles import Cycle, MonomialPrime, binord
from ordlen.endo_fixture import EndoTriple
from ordlen.finite_oracle import FiniteModule
from ordlen.modules import MonomialModule
from ordlen.monomial import Monomial, MonomialIdeal
from ordlen.ordinal import Ordinal
from ordlen.reporting import CheckResult


def P(*gens, n=2):
    return MonomialPrime.of(n, gens)


def test_prime_basics():
    p = P(0, n=2)
    assert p.dim == 1 and p.key == (0,)
    assert P(0, 1).dim == 0
    assert P(n=2).dim == 2  # the zero prime
    assert p.to_text(("x", "y")) == "[x]"
    assert P(n=2).to_text(("x", "y")) == "[0]"


def test_prime_validation():
    with pytest.raises(ValueError):
        MonomialPrime.of(2, (2,))
    with pytest.raises(ValueError):
        MonomialPrime.of(2, (-1,))


def test_prime_containment_is_ideal_containment():
    assert P(0, 1).contains(P(0))
    assert not P(0).contains(P(0, 1))
    assert P(0).contains(P(0))
    assert not P(0).contains(P(1))


def test_cycle_merges_and_sorts_terms():
    c = Cycle(2, ((P(1), 1), (P(0), 2), (P(1), 3)))
    assert dict(c.terms) == {P(0): 2, P(1): 4}
    assert [p.key for p, _ in c.terms] == [(0,), (1,)]


def test_cycle_drops_zero_terms():
    c = Cycle(2, ((P(0), 0),))
    assert c.is_zero and c.terms == ()


def test_cycle_rejects_negative_and_foreign_terms():
    with pytest.raises(ValueError):
        Cycle(2, ((P(0), -1),))
    with pytest.raises(ValueError):
        Cycle(2, ((MonomialPrime.of(3, (0,)), 1),))


def test_cycle_addition_and_ambient_check():
    """Cycles add by concatenating their terms; the ambients must agree."""
    a = Cycle(2, ((P(0), 1),))
    b = Cycle(2, ((P(0), 1), (P(0, 1), 2)))
    assert Cycle(2, a.terms + b.terms) == Cycle(2, ((P(0), 2), (P(0, 1), 2)))
    with pytest.raises(ValueError):
        Cycle(3, a.terms)


def test_cycle_weaker_and_binary():
    a = Cycle(2, ((P(0), 1),))
    b = Cycle(2, ((P(0), 2), (P(1), 1)))
    assert binord(a).weaker(binord(b)) and not binord(b).weaker(binord(a))
    assert a.is_binary and not b.is_binary
    assert binord(b).valence == 3
    assert a.support == (P(0),)


def test_cycle_text_and_json_round_trip():
    c = Cycle(2, ((P(0), 1), (P(0, 1), 1)))
    assert c.to_text(("x", "y")) == "1*[x] + 1*[x,y]"
    assert c.to_json() == {
        "n": 2,
        "terms": [{"prime": [0], "coeff": 1}, {"prime": [0, 1], "coeff": 1}],
    }
    assert Cycle.zero(2).to_text(("x", "y")) == "0"


def test_binord_known_values():
    c = Cycle(2, ((P(0), 1), (P(0, 1), 1)))  # dims 1 and 0
    assert binord(c) == Ordinal.parse("w + 1")
    assert binord(Cycle.zero(2)) == Ordinal.zero()
    assert binord(Cycle(2, ((P(n=2), 1),))) == Ordinal.parse("w^2")
    assert binord(Cycle(2, ((P(0), 2),))) == Ordinal.parse("2w")


subsets = st.lists(st.integers(0, 2), unique=True).map(tuple)


@given(st.dictionaries(subsets, st.integers(0, 3), max_size=5))
def test_binord_is_additive_on_cycles(d):
    terms = {MonomialPrime.of(3, k): v for k, v in d.items()}
    c = Cycle(3, tuple(terms.items()))
    total = Ordinal.zero()
    for p, v in terms.items():
        total = total.shuffle_sum(Ordinal.omega_power(p.dim) * v)
    assert binord(c) == total
    assert sum(dict(c.terms).values()) == binord(c).valence


def test_value_types_pickle_and_copy():
    J = MonomialIdeal(2, (Monomial((2, 0)), Monomial((1, 1))))
    frozen = [
        Ordinal((1, 2)),
        Monomial((2, 0)),
        J,
        P(0),
        Cycle(2, ((P(0), 3),)),
        MonomialModule.quotient_ring(J),
    ]
    records = [
        EndoTriple.identity(4),
        FiniteModule.from_quotient(MonomialIdeal(2, (Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))))),
        CheckResult("law", False, "1 case", {"witnesses": ["w"]}, 1),
    ]
    for v in frozen + records:
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.deepcopy(v) == v
        assert copy.copy(v) == v
    for v in frozen:
        assert hash(copy.copy(v)) == hash(v)
        field = v.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(v, field, getattr(v, field))
        with pytest.raises(AttributeError):
            delattr(v, field)
