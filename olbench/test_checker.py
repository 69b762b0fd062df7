"""The benchmark's correctness checks catch deliberately wrong values.

    python3 -m pytest olbench/test_checker.py

Each test feeds a check real ordlen outputs, which must pass, and then
the same outputs with one value broken, which must not.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from ordlen import ONE, Cycle, Ordinal  # noqa: E402
from ordlen.reporting import CheckResult  # noqa: E402

SEED = 3


def build(name):
    return workloads.WORKLOADS[name](SEED, inputs.inputs_text(name, SEED))


def one_round(workload):
    return [op() for _, op in workload.ops]


@pytest.fixture(scope="module")
def profiles():
    wl = build("profiles")
    return wl, one_round(wl)


@pytest.fixture(scope="module")
def exponents():
    wl = build("exponents")
    return wl, one_round(wl)


def first_with(outputs, pred):
    return next(i for i, p in enumerate(outputs) if pred(p))


def test_profiles_pass_on_real_outputs(profiles):
    wl, outs = profiles
    assert wl.check(outs) == []
    assert wl.check_run(outs) == []


@pytest.mark.parametrize(
    "broken",
    [
        lambda p: p._replace(length=p.length + ONE),  # length off by one
        lambda p: p._replace(fcyc=Cycle(p.fcyc.n, p.fcyc.terms[1:])),  # dropped prime
        lambda p: p._replace(ass=p.ass[1:]),
        lambda p: p._replace(valence=p.valence + 1),
        lambda p: p._replace(is_binary=not p.is_binary),
    ],
)
def test_profiles_check_catches(profiles, broken):
    wl, outs = profiles
    i = first_with(outs, lambda p: len(p.ass) >= 2)
    tampered = list(outs)
    tampered[i] = broken(outs[i])
    assert wl.check(tampered)


def test_semi_additivity_catches_a_length_too_long(profiles):
    wl, outs = profiles
    i = first_with(wl.modules, lambda M: not M.I.is_unit)
    tampered = list(outs)
    tampered[i] = outs[i]._replace(length=Ordinal.omega_power(wl.modules[i].n + 1))
    assert any("len R/I + len I/J > len R/J" in line for line in wl.check_run(tampered))


def test_semi_additivity_catches_a_length_too_short(profiles):
    wl, outs = profiles
    i = first_with(wl.modules, lambda M: not M.I.is_unit)
    tampered = list(outs)
    tampered[i] = outs[i]._replace(length=Ordinal.zero())
    assert any("len R/J > len R/I (+) len I/J" in line for line in wl.check_run(tampered))


def test_prime_length_check_catches_off_by_one(profiles, monkeypatch):
    wl, outs = profiles
    true_length = workloads.length
    monkeypatch.setattr(workloads, "length", lambda M: true_length(M) + ONE)
    assert any("len R/P" in line for line in wl.check_run(outs))


def test_exponents_pass_on_real_outputs(exponents):
    wl, outs = exponents
    assert wl.check(outs) == [] and wl.check_run(outs) == []


def test_exponents_check_catches_off_by_one(exponents):
    wl, outs = exponents
    tampered = list(outs)
    tampered[-1] = outs[-1] + ONE
    assert len(wl.check(tampered)) == 1


def test_closed_forms_are_checked_against_the_box_count(exponents, monkeypatch):
    wl, outs = exponents
    wrong = reference.shuffle(wl.expected[0], (1,))  # the smallest corner rung, plus one
    monkeypatch.setattr(wl, "expected", [wrong] + wl.expected[1:])
    assert wl.check_run(outs)


@pytest.fixture(scope="module")
def checks():
    wl = build("checks")
    suites = ("checks.semiadd", "checks.oracle-artinian")
    outs = [op() if name in suites else [CheckResult("not-run", True)] for name, op in wl.ops]
    return wl, outs


def test_checks_pass_on_real_outputs(checks):
    wl, outs = checks
    assert wl.check(outs) == []


def test_checks_catch_a_failing_record(checks):
    wl, outs = checks
    tampered = list(outs)
    tampered[0] = [CheckResult("ordinal-split", False, "witness")]
    assert wl.check(tampered) == ["ordinal-split failed: witness"]


@pytest.mark.parametrize("name", ["semiadd-lower-2var", "oracle-chain-2var"])
def test_checks_catch_a_shrunk_corpus(checks, name):
    wl, outs = checks
    suite = wl.counts[name][0]
    i = wl.suites.index(suite)
    want = wl.counts[name][1]
    tampered = list(outs)
    tampered[i] = [
        CheckResult(r.name, r.passed, r.detail.replace(str(want), str(want - 1)))
        for r in outs[i]
    ]
    assert any(name in line for line in wl.check(tampered))


def test_reference_fcyc_of_a_worked_example():
    # R/(x^2, xy) has fundamental cycle [x] + [x,y] and length w + 1
    cycle = reference.fcyc(2, [(0, 0)], [(2, 0), (1, 1)])
    assert cycle == {(0,): 1, (0, 1): 1}
    assert reference.binord(2, cycle) == (1, 1)
