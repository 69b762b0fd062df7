"""The named check suites and their reporting."""

import itertools
import json

import pytest

import brute
import ordlen.checks
from ordlen.checks import SUITES, Corpus, _ordinals_up_to, run_suites
from ordlen.ordinal import Ordinal
from ordlen.reporting import CheckResult, render_results, sweep


def test_every_suite_passes_at_small_bounds():
    results = run_suites(
        ["all"], max_vars=2, max_deg=2, sample=40, seed=1, truncation=4
    )
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
    assert len(results) >= len(SUITES)


def test_single_suite_selection():
    results = run_suites(["ordinal"], max_deg=2)
    assert results and all(r.passed for r in results)
    assert all(r.name.startswith("ord") for r in results)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown check suite"):
        run_suites(["ordinal", "nonsense"])


def test_unknown_option_rejected():
    with pytest.raises(ValueError, match="unknown check option.*samplez"):
        run_suites(["semiadd"], samplez=3)


def test_sample_is_not_capped():
    def cases(sample):
        results = run_suites(["dimfil", "primmin"], max_vars=3, max_deg=2, sample=sample)
        return {r.name: r.cases for r in results}

    small, large = cases(100), cases(300)
    assert all(large[name] > small[name] for name in small), (small, large)


def test_three_variable_pairs_obey_max_deg():
    pairs = Corpus(max_vars=3, max_deg=2, sample=200, seed=5).pairs["3var"]
    assert len(pairs) == 200
    assert all(g.degree <= 2 for _, I in pairs for g in I.gens)
    assert all(g.degree <= 4 for J, _ in pairs for g in J.gens)


def test_converse_search_fails_when_a_length_is_not_found(monkeypatch):
    monkeypatch.setattr(ordlen.checks, "find_submodule_with_length", lambda M, nu: None)
    results = run_suites(["submod"], max_vars=2, max_deg=1)
    (converse,) = [r for r in results if r.name == "submod-converse-search"]
    assert not converse.passed and converse.cases == 14


def test_strict_join_below_degree_two_is_decided_on_degree_two_pairs():
    results = run_suites(["latt"], max_vars=2, max_deg=1)
    assert all(r.passed for r in results)
    (strict,) = [r for r in results if r.name == "latt-join-strict"]
    assert strict.evidence["witnesses"][0].startswith("J=(x*y), N=(y), N'=(x):")


def test_strict_join_fails_when_no_join_is_strictly_weaker(monkeypatch):
    pairs = ordlen.checks._submodule_pairs
    monkeypatch.setattr(
        ordlen.checks, "_submodule_pairs",
        lambda *args: (c for c in pairs(*args) if c.join == c.joined),
    )
    for max_deg in (1, 2):
        results = run_suites(["latt"], max_vars=2, max_deg=max_deg)
        (strict,) = [r for r in results if r.name == "latt-join-strict"]
        assert not strict.passed and "no strictly weaker join" in strict.detail


def _assoc_records():
    """The ``ordinal-assoc`` record of the suite, and the same law swept
    triple by triple with every sum computed from scratch."""
    (suite,) = [r for r in run_suites(["ordinal"], max_deg=2) if r.name == "ordinal-assoc"]
    triples = itertools.product(_ordinals_up_to(2, 2), repeat=3)
    (oracle,) = sweep(triples, [("ordinal-assoc", "triples: both sums associative",
                                 lambda abc: brute.ordinal_associative(*abc))])
    return suite, oracle


def test_assoc_tables_agree_with_the_per_triple_law():
    suite, oracle = _assoc_records()
    assert suite == oracle
    assert suite.passed and suite.cases == 19683


@pytest.mark.parametrize("op, failures", [("__add__", 2754), ("shuffle_sum", 13122)])
def test_assoc_fails_with_a_nonassociative_sum(monkeypatch, op, failures):
    summed = getattr(Ordinal, op)

    def left_constant_doubled(a, b):
        s = summed(a, b)
        return Ordinal((s.coeff(0) + a.coeff(0),) + s.coeffs[1:])

    monkeypatch.setattr(Ordinal, op, left_constant_doubled)
    suite, oracle = _assoc_records()
    assert suite == oracle
    assert not suite.passed and suite.cases == 19683
    first = (Ordinal((1,)), Ordinal(()), Ordinal(()))
    assert suite.detail.endswith(f"; {failures} failures, first: {first}")


ORACLE_COUNTS = [
    ("oracle-chain-2var", 42),
    ("oracle-submodule-realization", 5),
    ("oracle-endo-theorems", 42),
    ("oracle-schur", 1),
]
# None stands for the (N + 2)² pairs of basis triples at truncation N
FIXTURE_COUNTS = [
    ("endo-identity", 625),
    ("endo-nilpotent-square", 625),
    ("endo-bijective-inverse", 400),
    ("endo-nil-ideal", 3125),
    ("endo-nil-square-zero", 25),
    ("endo-commutators-nil", None),
    ("endo-noncommutative", 1),
    ("endo-monic-plus-nil", 2400),
    ("endo-central-unit-plus-nil", 20),
    ("endo-ring-laws", 200),
    ("endo-commutator-bilinear", 200),
    ("endo-nil-kernel-open", 1),
]


@pytest.mark.parametrize("truncation", [4, 8])
def test_oracle_and_fixture_records_are_pinned(truncation):
    results = run_suites(
        ["oracle-artinian", "endo-fixture"], max_vars=2, max_deg=2, seed=1, truncation=truncation
    )
    fixture = [
        (f"{name}-N{truncation}", (truncation + 2) ** 2 if cases is None else cases)
        for name, cases in FIXTURE_COUNTS
    ]
    assert [(r.name, r.cases) for r in results] == ORACLE_COUNTS + fixture
    assert all(r.passed for r in results)


def test_sweep_counts_cases_and_keeps_witnesses():
    low, odd = sweep(
        range(10),
        [
            ("low", "numbers below 5", lambda k: k < 5),
            ("odd", "odd numbers are not 7", lambda k: k != 7 if k % 2 else None),
        ],
        lambda k: f"k={k}",
    )
    assert (low.passed, low.cases) == (False, 10)
    assert low.detail == "10 numbers below 5; 5 failures, first: k=5"
    assert low.evidence == {"witnesses": ["k=5", "k=6", "k=7", "k=8", "k=9"]}
    assert (odd.passed, odd.cases) == (False, 5)
    assert odd.evidence == {"witnesses": ["k=7"]}
    (good,) = sweep(iter([1, 2]), [("good", "positives", lambda k: k > 0)])
    assert good == CheckResult("good", True, "2 positives", {}, 2)


def test_render_text():
    results = [
        CheckResult("good", True, "everything fine"),
        CheckResult("bad", False, "broke", {"witnesses": ["w"]}),
    ]
    text = render_results(results, "text")
    assert "CHECK good PASS everything fine" in text
    assert "CHECK bad FAIL broke" in text
    assert "1/2 checks passed" in text


def test_render_json():
    results = [CheckResult("good", True, "3 fine", cases=3)]
    blob = json.loads(render_results(results, "json"))
    assert blob["passed"] == 1 and blob["failed"] == 0
    assert blob["checks"][0]["name"] == "good"
    assert blob["checks"][0]["passed"] is True
    assert blob["checks"][0]["cases"] == 3
