"""Exhaustive ideal corpora, cross-checked against subset-scan brutes."""

import brute
from test_acceptance import Budget
from ordlen.corpus import all_ideals, artinian_ideals_containing_power


def test_all_ideals_matches_the_subset_scan_in_order():
    for n, top in ((1, 5), (2, 4), (3, 2)):
        for d in range(top + 1):
            got = [tuple(g.exps for g in ideal.gens) for ideal in all_ideals(n, d)]
            assert got == brute.all_ideals(n, d), (n, d)


def test_artinian_ideals_match_the_down_closed_subsets():
    for n, top in ((2, 5), (3, 3)):
        for k in range(1, top + 1):
            got = [tuple(g.exps for g in ideal.gens) for ideal in artinian_ideals_containing_power(n, k)]
            assert len(got) == len(set(got)), (n, k)
            assert set(got) == brute.artinian_ideals(n, k), (n, k)


def test_all_ideals_three_variables_degree_three():
    # 2,498 antichains among the 20 monomials of degree <= 3
    with Budget(1.0):
        assert len(all_ideals(3, 3)) == 2498
