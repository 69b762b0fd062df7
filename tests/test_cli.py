"""End-to-end command-line behaviour via main(argv)."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ordlen.checks
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


def test_prim_off_ass_is_a_field_not_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "prim", "--vars", "x,y", "--ideal", "x^2,x*y", "--prime", "y"
        )
    assert code == 0 and err == ""
    assert "associated: False" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--vars", "x,y", "--ideal", "x ; J: y"),
        ("--vars", "x,y", "--ideal", "x;y"),
        ("--module", "vars: x ; I: 1 ; J: x ; K: 1"),
    ],
)
def test_module_text_takes_exactly_three_fields(capsys, argv):
    code, out, err = run(capsys, "len", *argv)
    assert code == 2
    assert not out and "fields other than vars, I and J" in err


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
    # 1001 distinct exponents on each of y and z: 1001^2 grid cells
    stair = ",".join(["x^3000"] + [f"y^{k}*z^{1002 - k}" for k in range(1, 1002)])
    code, _, err = run(capsys, "len", "--vars", "x,y,z", "--ideal", stair)
    assert code == 3
    assert "1002001 grid cells" in err
    # a box of 2000^2 lines is a single cell of the grid
    code, out, _ = run(capsys, "len", "--vars", "x,y,z", "--ideal", "x^3000,y^2000,z^2000")
    assert (code, out.strip()) == (0, "12000000000")


def test_check_passing_suite_exit_0(capsys):
    code, out, _ = run(
        capsys, "check", "ordinal", "--max-deg", "2"
    )
    assert code == 0
    assert "CHECK" in out and "FAIL" not in out


def test_check_failing_suite_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        ordlen.checks, "run_suites", lambda *a, **k: [CheckResult("stub", False, "boom")]
    )
    code, out, _ = run(capsys, "check", "ordinal")
    assert code == 1
    assert "CHECK stub FAIL boom" in out


def test_module_commands_do_not_load_the_check_layer():
    src = str(Path(ordlen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, ordlen.cli; "
        "print([m for m in ('ordlen.checks', 'ordlen.endo_fixture', 'ordlen.finite_oracle') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"


# -- golden outputs -----------------------------------------------------------
#
# Every module command on three inputs: the quotient R/(x^2, xy), the
# subquotient (y, x^2)/(x^2, xy) and the zero module R/(1).  ``prim`` runs at
# the prime (x) and ``endo`` multiplies by y.

INPUTS = {
    "quotient": ("--vars", "x,y", "--ideal", "x^2,x*y"),
    "subquotient": ("--module", "vars: x,y ; I: y,x^2 ; J: x^2,x*y"),
    "zero": ("--vars", "x,y", "--ideal", "1"),
}
EXTRA = {"prim": ("--prime", "x"), "endo": ("--r", "y")}


def _ideal(*gens):
    return {"vars": ["x", "y"], "gens": [list(g) for g in gens]}


GOLDEN_TEXT = {
    ("len", "quotient"): ("w + 1",),
    ("fcyc", "quotient"): ("1*[x] + 1*[x,y]",),
    ("ass", "quotient"): (
        "[x]",
        "[x,y]",
    ),
    ("profile", "quotient"): (
        "length: w + 1",
        "fcyc: 1*[x] + 1*[x,y]",
        "ass: [x], [x,y]",
        "dim: 1",
        "order: 0",
        "valence: 2",
        "binary: True",
    ),
    ("filtration", "quotient"): (
        "D_0: numerator = (x) ; length = 1",
        "D_1: numerator = (1) ; length = w + 1",
        "D_2: numerator = (1) ; length = w + 1",
    ),
    ("prim", "quotient"): (
        "prime: [x]",
        "associated: True",
        "kernel numerator: (x)",
        "kernel length: 1",
        "quotient length: w",
        "length identity: True",
    ),
    ("len", "subquotient"): ("w",),
    ("fcyc", "subquotient"): ("1*[x]",),
    ("ass", "subquotient"): ("[x]",),
    ("profile", "subquotient"): (
        "length: w",
        "fcyc: 1*[x]",
        "ass: [x]",
        "dim: 1",
        "order: 1",
        "valence: 1",
        "binary: True",
    ),
    ("filtration", "subquotient"): (
        "D_0: numerator = (x*y, x^2) ; length = 0",
        "D_1: numerator = (y, x^2) ; length = w",
        "D_2: numerator = (y, x^2) ; length = w",
    ),
    ("prim", "subquotient"): (
        "prime: [x]",
        "associated: True",
        "kernel numerator: (x*y, x^2)",
        "kernel length: 0",
        "quotient length: w",
        "length identity: True",
    ),
    ("len", "zero"): ("0",),
    ("fcyc", "zero"): ("0",),
    ("ass", "zero"): ("(none)",),
    ("profile", "zero"): (
        "length: 0",
        "fcyc: 0",
        "ass: (none)",
        "dim: 0",
        "order: 0",
        "valence: 0",
        "binary: True",
    ),
    ("filtration", "zero"): (
        "D_0: numerator = (1) ; length = 0",
        "D_1: numerator = (1) ; length = 0",
        "D_2: numerator = (1) ; length = 0",
    ),
    ("prim", "zero"): (
        "prime: [x]",
        "associated: False",
        "kernel numerator: (1)",
        "kernel length: 0",
        "quotient length: 0",
        "length identity: True",
    ),
}
GOLDEN_JSON = {
    ("len", "quotient"): {"length": "w + 1", "cnf": [[1, 1], [0, 1]]},
    ("fcyc", "quotient"): {
        "fcyc": {"n": 2, "terms": [{"prime": [0], "coeff": 1}, {"prime": [0, 1], "coeff": 1}]},
        "text": "1*[x] + 1*[x,y]",
    },
    ("ass", "quotient"): {"ass": ["[x]", "[x,y]"]},
    ("profile", "quotient"): {
        "length": "w + 1",
        "fcyc": {"n": 2, "terms": [{"prime": [0], "coeff": 1}, {"prime": [0, 1], "coeff": 1}]},
        "ass": ["[x]", "[x,y]"],
        "dim": 1,
        "order": 0,
        "valence": 2,
        "binary": True,
    },
    ("filtration", "quotient"): {
        "length": "w + 1",
        "levels": [
            {"e": 0, "numerator": _ideal((1, 0)), "length": "1"},
            {"e": 1, "numerator": _ideal((0, 0)), "length": "w + 1"},
            {"e": 2, "numerator": _ideal((0, 0)), "length": "w + 1"},
        ],
    },
    ("prim", "quotient"): {
        "prime": "[x]",
        "associated": True,
        "kernel_numerator": _ideal((1, 0)),
        "kernel_length": "1",
        "quotient_length": "w",
        "length_identity": True,
    },
    ("endo", "quotient"): {
        "r": "y",
        "mu": "w + 1",
        "kappa": "1",
        "theta": "w",
        "kernel_numerator": _ideal((1, 0)),
        "image_numerator": _ideal((0, 1), (2, 0)),
        "reductive": True,
        "reductive_power": 1,
        "rank_nullity": True,
        "tectonics_length": "w + 1",
        "nilpotent": False,
        "monic": False,
        "open_image": False,
    },
    ("len", "subquotient"): {"length": "w", "cnf": [[1, 1]]},
    ("fcyc", "subquotient"): {
        "fcyc": {"n": 2, "terms": [{"prime": [0], "coeff": 1}]},
        "text": "1*[x]",
    },
    ("ass", "subquotient"): {"ass": ["[x]"]},
    ("profile", "subquotient"): {
        "length": "w",
        "fcyc": {"n": 2, "terms": [{"prime": [0], "coeff": 1}]},
        "ass": ["[x]"],
        "dim": 1,
        "order": 1,
        "valence": 1,
        "binary": True,
    },
    ("filtration", "subquotient"): {
        "length": "w",
        "levels": [
            {"e": 0, "numerator": _ideal((1, 1), (2, 0)), "length": "0"},
            {"e": 1, "numerator": _ideal((0, 1), (2, 0)), "length": "w"},
            {"e": 2, "numerator": _ideal((0, 1), (2, 0)), "length": "w"},
        ],
    },
    ("prim", "subquotient"): {
        "prime": "[x]",
        "associated": True,
        "kernel_numerator": _ideal((1, 1), (2, 0)),
        "kernel_length": "0",
        "quotient_length": "w",
        "length_identity": True,
    },
    ("endo", "subquotient"): {
        "r": "y",
        "mu": "w",
        "kappa": "0",
        "theta": "w",
        "kernel_numerator": _ideal((1, 1), (2, 0)),
        "image_numerator": _ideal((0, 2), (1, 1), (2, 0)),
        "reductive": True,
        "reductive_power": 1,
        "rank_nullity": True,
        "tectonics_length": "w",
        "nilpotent": False,
        "monic": True,
        "open_image": True,
    },
    ("len", "zero"): {"length": "0", "cnf": []},
    ("fcyc", "zero"): {"fcyc": {"n": 2, "terms": []}, "text": "0"},
    ("ass", "zero"): {"ass": []},
    ("profile", "zero"): {
        "length": "0",
        "fcyc": {"n": 2, "terms": []},
        "ass": [],
        "dim": 0,
        "order": 0,
        "valence": 0,
        "binary": True,
    },
    ("filtration", "zero"): {
        "length": "0",
        "levels": [
            {"e": 0, "numerator": _ideal((0, 0)), "length": "0"},
            {"e": 1, "numerator": _ideal((0, 0)), "length": "0"},
            {"e": 2, "numerator": _ideal((0, 0)), "length": "0"},
        ],
    },
    ("prim", "zero"): {
        "prime": "[x]",
        "associated": False,
        "kernel_numerator": _ideal((0, 0)),
        "kernel_length": "0",
        "quotient_length": "0",
        "length_identity": True,
    },
    ("endo", "zero"): {
        "r": "y",
        "mu": "0",
        "kappa": "0",
        "theta": "0",
        "kernel_numerator": _ideal((0, 0)),
        "image_numerator": _ideal((0, 0)),
        "reductive": True,
        "reductive_power": 1,
        "rank_nullity": True,
        "tectonics_length": "0",
        "nilpotent": True,
        "monic": True,
        "open_image": True,
    },
}


def run_golden(capsys, command, given, *fmt):
    return run(capsys, command, *INPUTS[given], *EXTRA.get(command, ()), *fmt)


@pytest.mark.parametrize("command, given", list(GOLDEN_TEXT))
def test_text_matches_golden(capsys, command, given):
    code, out, _ = run_golden(capsys, command, given)
    assert code == 0
    assert out == "\n".join(GOLDEN_TEXT[command, given]) + "\n"


@pytest.mark.parametrize("command, given", list(GOLDEN_JSON))
def test_json_matches_golden(capsys, command, given):
    code, out, _ = run_golden(capsys, command, given, "--format", "json")
    assert code == 0
    assert out == json.dumps(GOLDEN_JSON[command, given], indent=2) + "\n"


@pytest.mark.parametrize("given", list(INPUTS))
def test_endo_text_labels_are_its_json_keys(capsys, given):
    _, text, _ = run_golden(capsys, "endo", given)
    _, blob, _ = run_golden(capsys, "endo", given, "--format", "json")
    labels = [line.partition(": ")[0] for line in text.splitlines()]
    assert labels == [key.replace("_", " ") for key in json.loads(blob)]
