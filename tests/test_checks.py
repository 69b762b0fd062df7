"""The named check suites and their reporting."""

import json

import pytest

from ordlen.checks import SUITES, run_suites
from ordlen.reporting import CheckResult, all_passed, render_results, sweep


def test_every_suite_passes_at_small_bounds():
    results = run_suites(
        ["all"], max_vars=2, max_deg=2, sample=40, seed=1, truncation=4
    )
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
    assert len(results) >= len(SUITES)


def test_single_suite_selection():
    results = run_suites(["ordinal"], max_deg=2)
    assert results and all_passed(results)
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
