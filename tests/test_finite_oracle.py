"""Exhaustive finite-dimensional checks over the two-element field."""

import itertools
import random

import pytest

import brute
from ordlen.corpus import artinian_ideals_containing_power
from ordlen.errors import GuardError
from ordlen.finite_oracle import (
    MAX_BOX_CELLS,
    FiniteModule,
    closure,
    echelon,
    endo_power,
    enumerate_endos,
    enumerate_submodules,
    in_span,
    kernel_of_map,
    longest_chain,
    reduce_mod,
    socle,
    solve_homogeneous,
    span_vectors,
)
from ordlen.monomial import parse_ideal

NAMES = ("x", "y")


def I2(text):
    return parse_ideal(text, NAMES)


def I1(text):
    return parse_ideal(text, ("x",))


brute_span, apply_table = brute.span, brute.apply


# -- linear algebra primitives ----------------------------------------------


def test_echelon_span_and_canonical_form():
    rng = random.Random(31)
    for _ in range(200):
        vectors = [rng.randrange(64) for _ in range(rng.randrange(6))]
        basis = echelon(vectors)
        assert brute_span(basis) == brute_span(vectors)
        assert list(basis) == sorted(basis, reverse=True)
        # reduced: no basis vector's leading bit appears in another
        for i, b in enumerate(basis):
            lead = 1 << (b.bit_length() - 1)
            assert all(not (other & lead) for j, other in enumerate(basis) if j != i)
        # canonical: any spanning set of the same span echelons identically
        sample = list(brute_span(vectors) - {0})
        rng.shuffle(sample)
        assert echelon(sample) == basis


def test_reduce_mod_is_a_linear_projection():
    rng = random.Random(32)
    for _ in range(100):
        basis = echelon(rng.randrange(256) for _ in range(3))
        u, v = rng.randrange(256), rng.randrange(256)
        assert reduce_mod(basis, u) ^ u in brute_span(basis)
        assert reduce_mod(basis, reduce_mod(basis, u)) == reduce_mod(basis, u)
        assert reduce_mod(basis, u ^ v) == reduce_mod(basis, u) ^ reduce_mod(basis, v)
        assert (reduce_mod(basis, u) == 0) == (u in brute_span(basis))
        assert in_span(basis, u) == (u in brute_span(basis))


def test_span_vectors_lists_the_whole_span():
    basis = echelon([0b101, 0b011])
    assert set(span_vectors(basis)) == brute_span([0b101, 0b011])


def test_kernel_of_map_against_brute_force():
    rng = random.Random(33)
    for _ in range(100):
        d = rng.randrange(1, 6)
        images = [rng.randrange(1 << d) for _ in range(d)]
        kernel = kernel_of_map(images)
        expect = {v for v in range(1 << d) if apply_table(images, v) == 0}
        assert brute_span(kernel) == expect
        rank = len(echelon(images))
        assert len(kernel) + rank == d


def test_solve_homogeneous_against_brute_force():
    rng = random.Random(34)
    for _ in range(100):
        nbits = rng.randrange(1, 7)
        eqs = [rng.randrange(1 << nbits) for _ in range(rng.randrange(4))]
        sols = solve_homogeneous(eqs, nbits)
        expect = {
            v
            for v in range(1 << nbits)
            if all((eq & v).bit_count() % 2 == 0 for eq in eqs)
        }
        assert brute_span(sols) == expect


# -- module construction ------------------------------------------------------


def test_from_quotient_basis_and_actions():
    M = FiniteModule.from_quotient(I2("x^2, x*y, y^2"))
    assert M.dim == 3
    assert [m.to_text(NAMES) for m in M.labels] == ["1", "y", "x"]
    # each variable sends 1 to itself and kills x, y
    assert M.actions[0] == (0b100, 0, 0)
    assert M.actions[1] == (0b010, 0, 0)


def test_from_quotient_matches_a_per_cell_construction():
    ideals = artinian_ideals_containing_power(2, 4) + artinian_ideals_containing_power(3, 3)
    for J in ideals:
        cells, actions = brute.standard_basis([g.exps for g in J.gens], J.n)
        M = FiniteModule.from_quotient(J)
        assert (M.nvars, M.dim) == (J.n, len(cells)), J
        assert [m.exps for m in M.labels] == cells, J
        assert M.actions == tuple(
            tuple(0 if i is None else 1 << i for i in row) for row in actions
        ), J


def test_from_quotient_guards_the_box():
    with pytest.raises(
        GuardError, match=f"4000000 cells, over the bound of {MAX_BOX_CELLS} .MAX_BOX_CELLS"
    ):
        FiniteModule.from_quotient(I2("x^2000, y^2000"))


def test_from_quotient_rejects_non_artinian():
    with pytest.raises(ValueError):
        FiniteModule.from_quotient(I2("x"))
    with pytest.raises(ValueError):
        FiniteModule.from_quotient(I2("x^2, x*y"))


def test_closure_generates_stable_subspaces():
    M = FiniteModule.from_quotient(I1("x^3"))
    one, x, x2 = 0b001, 0b010, 0b100
    assert brute_span(closure(M, [x2])) == {0, x2}
    assert brute_span(closure(M, [x])) == brute_span([x, x2])
    assert len(closure(M, [one])) == 3


# -- submodules ----------------------------------------------------------------


def test_submodule_enumeration_small_quotient():
    M = FiniteModule.from_quotient(I2("x^2, x*y, y^2"))
    subs = enumerate_submodules(M)
    assert len(subs) == 6
    assert all(brute.is_submodule(M.actions, b) for b in subs)
    assert sorted(len(b) for b in subs) == [0, 1, 1, 1, 2, 3]


def test_submodule_enumeration_is_stable_and_complete():
    M = FiniteModule.from_quotient(I2("x^3, y^2"))
    subs = set(enumerate_submodules(M))
    # brute force: every subset-span, kept when action-stable
    stable = set()
    for vectors in itertools.combinations(range(1 << M.dim), 2):
        basis = echelon(vectors)
        if brute.is_submodule(M.actions, basis):
            stable.add(basis)
    assert stable <= subs


def test_longest_chain_examples():
    assert longest_chain(FiniteModule.from_quotient(I2("x, y"))) == 1
    assert longest_chain(FiniteModule.from_quotient(I2("x^2, x*y, y^2"))) == 3
    assert longest_chain(FiniteModule.from_quotient(I2("x^2, x*y, y^3"))) == 4


def test_longest_chain_equals_dimension_above_the_submodule_guard():
    quartics = I2("x^4, x^3*y, x^2*y^2, x*y^3, y^4")
    M = FiniteModule.from_quotient(quartics)
    assert M.dim == 10
    assert longest_chain(M) == 10
    with pytest.raises(GuardError):
        enumerate_submodules(M)


def test_trailing_basis_runs_are_submodules():
    # the degree order makes the span of each trailing run of basis
    # vectors action-stable: the chain longest_chain counts
    ideals = artinian_ideals_containing_power(2, 4) + artinian_ideals_containing_power(3, 3)
    for J in ideals:
        M = FiniteModule.from_quotient(J)
        for k in range(M.dim + 1):
            run = echelon(1 << i for i in range(M.dim - k, M.dim))
            assert closure(M, run) == run, (J, k)


def test_longest_chain_refuses_a_basis_out_of_degree_order():
    M = FiniteModule.from_quotient(I2("x^2, x*y, y^3"))

    def flip(v):
        return sum(1 << (M.dim - 1 - i) for i in range(M.dim) if (v >> i) & 1)

    reversed_module = M._replace(
        actions=tuple(tuple(flip(w) for w in reversed(act)) for act in M.actions),
        labels=M.labels[::-1],
    )
    with pytest.raises(RuntimeError, match="not in degree order"):
        longest_chain(reversed_module)


def test_submodule_guard_fires():
    M = FiniteModule.from_quotient(I1("x^9"))
    with pytest.raises(GuardError, match="dimension 9 exceeds the bound of 8 .SUBMODULE_DIM_CAP"):
        enumerate_submodules(M)
    assert longest_chain(M) == 9


# -- endomorphisms ---------------------------------------------------------------


def brute_endos(module):
    d = module.dim
    found = []
    for images in itertools.product(range(1 << d), repeat=d):
        ok = all(
            apply_table(images, module.apply_var(j, 1 << i))
            == module.apply_var(j, apply_table(images, 1 << i))
            for j in range(module.nvars)
            for i in range(d)
        )
        if ok:
            found.append(tuple(images))
    return sorted(found)


def test_enumerate_endos_against_brute_force():
    for text, names in (
        ("x^2", ("x",)),
        ("x^3", ("x",)),
        ("x, y", NAMES),
        ("x^2, x*y, y^2", NAMES),
    ):
        M = FiniteModule.from_quotient(parse_ideal(text, names))
        got = enumerate_endos(M)
        assert got == brute_endos(M)
        identity = tuple(1 << i for i in range(M.dim))
        zero = tuple(0 for _ in range(M.dim))
        assert identity in got and zero in got


def test_endo_guard_fires():
    M = FiniteModule.from_quotient(I1("x^6"))
    with pytest.raises(GuardError, match="dimension 6 exceeds the bound of 5 .ENDO_DIM_CAP"):
        enumerate_endos(M)


def test_endo_kernel_image_power():
    M = FiniteModule.from_quotient(I1("x^3"))
    shift = M.actions[0]  # multiplication by x as an endomorphism
    assert brute_span(kernel_of_map(shift)) == {0, 0b100}
    assert brute_span(echelon(shift)) == brute_span([0b010, 0b100])
    assert endo_power(M, shift, 2) == (0b100, 0, 0)
    assert endo_power(M, shift, 3) == (0, 0, 0)
    identity = (0b001, 0b010, 0b100)
    assert endo_power(M, identity, 5) == identity
    assert kernel_of_map(identity) == ()


def test_socle_is_what_every_variable_kills():
    assert socle(FiniteModule.from_quotient(I2("x^2, x*y, y^2"))) == (0b100, 0b010)
    assert socle(FiniteModule.from_quotient(I2("x, y"))) == (0b1,)
    for J in artinian_ideals_containing_power(2, 4):
        M = FiniteModule.from_quotient(J)
        killed = {
            v for v in range(1 << M.dim) if not any(apply_table(a, v) for a in M.actions)
        }
        assert brute_span(socle(M)) == killed


def test_endo_theorem_closed_forms_agree_with_the_submodule_sweep():
    """A kernel is essential when it holds the socle, and a kernel and an
    image meet in zero when their bases stay independent together."""
    ideals = artinian_ideals_containing_power(2, 4) + artinian_ideals_containing_power(3, 3)
    essential_seen, meet_zero_seen, cases = set(), set(), 0
    for J in ideals:
        M = FiniteModule.from_quotient(J)
        if not 1 <= M.dim <= 5:
            continue
        subs, soc = enumerate_submodules(M), socle(M)
        for table in enumerate_endos(M):
            ker, img = kernel_of_map(table), echelon(table)
            essential = all(in_span(ker, v) for v in soc)
            assert essential == brute.kernel_is_essential(table, subs), (J, table)
            meet_zero = len(echelon(ker + img)) == len(ker) + len(img)
            assert meet_zero == brute.spans_meet_in_zero(ker, img), (J, table)
            essential_seen.add(essential)
            meet_zero_seen.add(meet_zero)
            cases += 1
    assert cases == 976
    assert essential_seen == meet_zero_seen == {True, False}
