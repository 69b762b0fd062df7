"""End-to-end command-line behaviour via main(argv)."""

import json

import pytest

from ordlen import cli
from ordlen.reporting import CheckResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_len_quotient(capsys):
    code, out, _ = run(capsys, "len", "--vars", "x,y", "--ideal", "x^2,x*y")
    assert code == 0
    assert out.strip() == "w + 1"


def test_len_full_ring(capsys):
    code, out, _ = run(capsys, "len", "--vars", "x,y", "--ideal", "0")
    assert code == 0
    assert out.strip() == "w^2"


def test_len_json_parity(capsys):
    code, out, _ = run(
        capsys, "len", "--vars", "x,y", "--ideal", "x^2,x*y", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob == {"length": "w + 1", "cnf": [[1, 1], [0, 1]]}


def test_module_grammar_subquotient(capsys):
    code, out, _ = run(
        capsys, "len", "--module", "vars: x,y ; I: y,x^2 ; J: x^2,x*y"
    )
    assert code == 0
    assert out.strip() == "w"


def test_fcyc_text(capsys):
    code, out, _ = run(capsys, "fcyc", "--vars", "x,y", "--ideal", "x^2,x*y")
    assert code == 0
    assert out.strip() == "1*[x] + 1*[x,y]"


def test_ass_lists_primes(capsys):
    code, out, _ = run(capsys, "ass", "--vars", "x,y", "--ideal", "x^2,x*y")
    assert code == 0
    assert out.splitlines() == ["[x]", "[x,y]"]


def test_profile_fields(capsys):
    code, out, _ = run(
        capsys, "profile", "--vars", "x,y", "--ideal", "x^2,x*y", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["length"] == "w + 1"
    assert blob["dim"] == 1 and blob["valence"] == 2 and blob["binary"] is True


def test_filtration_rows(capsys):
    code, out, _ = run(capsys, "filtration", "--vars", "x,y", "--ideal", "x^2,x*y")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D_0: numerator = (x) ; length = 1"
    assert lines[1].startswith("D_1:") and lines[1].endswith("length = w + 1")


def test_prim_kernel_report(capsys):
    code, out, _ = run(
        capsys, "prim", "--vars", "x,y", "--ideal", "x^2,x*y", "--prime", "x"
    )
    assert code == 0
    assert "kernel numerator: (x)" in out
    assert "kernel length: 1" in out
    assert "quotient length: w" in out
    assert "length identity: True" in out


def test_endo_report(capsys):
    code, out, _ = run(
        capsys,
        "endo", "--vars", "x,y", "--ideal", "x^2,x*y", "--r", "y",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["kappa"] == "1" and blob["theta"] == "w"
    assert blob["rank_nullity"] is True and blob["nilpotent"] is False


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "len", "--vars", "x,y", "--ideal", "x^^2")
    assert code == 2
    assert not out and "parse error" in err


def test_missing_module_args_exit_2(capsys):
    code, _, err = run(capsys, "len", "--vars", "x,y")
    assert code == 2
    assert "parse error" in err


def test_guard_exit_3(capsys):
    names = [f"x{i}" for i in range(13)]
    code, _, err = run(capsys, "len", "--vars", ",".join(names), "--ideal", ",".join(names))
    assert code == 3
    assert "guard violation" in err


def test_len_one_occurring_variable_in_twenty(capsys):
    names = ",".join(f"x{i}" for i in range(20))
    code, out, _ = run(capsys, "len", "--vars", names, "--ideal", "x0")
    assert code == 0
    assert out.strip() == "w^19"


def test_exponent_guard_exit_3(capsys):
    code, _, err = run(capsys, "len", "--vars", "x,y,z", "--ideal", "x^3000,y^2000,z^2000")
    assert code == 3
    assert "4000000 box lines" in err


def test_check_passing_suite_exit_0(capsys):
    code, out, _ = run(
        capsys, "check", "ordinal", "--max-deg", "2"
    )
    assert code == 0
    assert "CHECK" in out and "FAIL" not in out


def test_check_failing_suite_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_suites", lambda *a, **k: [CheckResult("stub", False, "boom")]
    )
    code, out, _ = run(capsys, "check", "ordinal")
    assert code == 1
    assert "CHECK stub FAIL boom" in out
