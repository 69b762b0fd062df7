"""Command-line interface.

Inputs are inline: ``--module "vars: x,y ; I: x,y ; J: x^2,x*y"`` names a
subquotient I/J, and ``--vars x,y --ideal "x^2,x*y"`` is shorthand for the
quotient ``vars: x,y ; I: 1 ; J: x^2,x*y``.  Each module command builds one
record of named values and prints it as a JSON object, or as one
``name: value`` line per field; ``len``, ``fcyc``, ``ass`` and
``filtration`` print their own shorter text instead.

Exit codes: 0 success, 1 check failure, 2 parse/usage error, 3 guard
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .checks import OPTIONS, run_suites
from .cycles import Cycle, MonomialPrime
from .errors import GuardError, ParseError
from .modules import (
    MonomialModule, ass, dim_filtration, fcyc, length, mult_endo, prim_kernel, profile,
)
from .monomial import (
    Monomial, MonomialIdeal, format_ideal, ideal_to_json, parse_ideal, parse_monomial,
)
from .ordinal import Ordinal
from .reporting import render_results


def parse_module(text: str) -> tuple[MonomialModule, tuple[str, ...]]:
    """Parse ``vars: x,y ; I: x,y ; J: x^2,x*y`` into a module."""
    parts = [part.partition(":") for part in text.split(";") if part.strip()]
    fields = {key.strip().lower(): value.strip() for key, _, value in parts}
    missing = {"vars", "i", "j"} - set(fields)
    if missing:
        raise ParseError(f"module text missing fields: {sorted(missing)}", text, 0)
    if len(parts) != 3:
        raise ParseError("module text has fields other than vars, I and J", text, 0)
    names = tuple(v.strip() for v in fields["vars"].split(",") if v.strip())
    if not names:
        raise ParseError("empty variable list", text, 0)
    I = parse_ideal(fields["i"], names)
    J = parse_ideal(fields["j"], names)
    return MonomialModule(len(names), I, J), names


def _module_from_args(args) -> tuple[MonomialModule, tuple[str, ...]]:
    if args.module:
        return parse_module(args.module)
    if args.vars is None or args.ideal is None:
        raise ParseError("provide either --module or both --vars and --ideal", "", 0)
    return parse_module(f"vars: {args.vars} ; I: 1 ; J: {args.ideal}")


def _render(value, names: tuple[str, ...], as_json: bool):
    """One value of a record, rendered by its type for JSON or for text."""
    if isinstance(value, Ordinal):
        return str(value)
    if isinstance(value, MonomialIdeal):
        return ideal_to_json(value, names) if as_json else f"({format_ideal(value, names)})"
    if isinstance(value, Cycle):
        return value.to_json() if as_json else value.to_text(names)
    if isinstance(value, (Monomial, MonomialPrime)):
        return value.to_text(names)
    if isinstance(value, tuple):  # of primes
        texts = [p.to_text(names) for p in value]
        return texts if as_json else ", ".join(texts) or "(none)"
    if isinstance(value, list):
        return [_render(v, names, as_json) for v in value]
    if isinstance(value, dict):
        return {k: _render(v, names, as_json) for k, v in value.items()}
    return value


# Each module command returns its record and its own text, or None for the
# record's ``name: value`` lines.


def _len(module, names, args):
    mu = length(module)
    return {"length": mu, "cnf": mu.to_pairs()}, str(mu)


def _fcyc(module, names, args):
    cycle = fcyc(module)
    text = cycle.to_text(names)
    return {"fcyc": cycle, "text": text}, text


def _ass(module, names, args):
    primes = ass(module)
    return {"ass": primes}, "\n".join(p.to_text(names) for p in primes) or "(none)"


def _profile(module, names, args):
    p = profile(module)
    record = dict(length=p.length, fcyc=p.fcyc, ass=p.ass, dim=p.dim, order=p.order,
                  valence=p.valence, binary=p.is_binary)
    return record, None


def _filtration(module, names, args):
    levels = [dim_filtration(module, e) for e in range(module.n + 1)]
    text = "\n".join(
        f"D_{e}: numerator = {_render(D.I, names, False)} ; length = {length(D)}"
        for e, D in enumerate(levels)
    )
    rows = [{"e": e, "numerator": D.I, "length": length(D)} for e, D in enumerate(levels)]
    return {"length": length(module), "levels": rows}, text


def _prim(module, names, args):
    gens = [v.strip() for v in (args.prime or "").split(",") if v.strip()]
    index = {name: i for i, name in enumerate(names)}
    unknown = [g for g in gens if g not in index]
    if unknown:
        raise ParseError(f"unknown prime variables: {unknown}", args.prime or "", 0)
    P = MonomialPrime.of(module.n, tuple(index[g] for g in gens))
    associated = P in ass(module)
    with warnings.catch_warnings():
        # the record's ``associated`` field reports what prim_kernel warns of
        warnings.simplefilter("ignore", UserWarning)
        K = prim_kernel(module, P)
    quotient = module.quotient_by(K.I)
    identity = length(K).shuffle_sum(length(quotient)) == length(module)
    record = dict(prime=P, associated=associated, kernel_numerator=K.I,
                  kernel_length=length(K), quotient_length=length(quotient),
                  length_identity=identity)
    return record, None


def _endo(module, names, args):
    r = parse_monomial(args.r, names)
    a = mult_endo(module, r)
    record = dict(r=r, mu=a.mu, kappa=a.kappa, theta=a.theta, kernel_numerator=a.kernel.I,
                  image_numerator=a.image.I, reductive=a.reductive,
                  reductive_power=a.reductive_power, rank_nullity=a.satisfies_rank_nullity,
                  tectonics_length=a.tectonics_length, nilpotent=a.nilpotent, monic=a.monic,
                  open_image=a.open_image)
    return record, None


def _cmd_module(args) -> int:
    module, names = _module_from_args(args)
    record, text = args.build(module, names, args)
    if args.format == "json":
        print(json.dumps(_render(record, names, True), indent=2))
    elif text is not None:
        print(text)
    else:
        for key, value in record.items():
            print(f"{key.replace('_', ' ')}: {_render(value, names, False)}")
    return 0


def _cmd_check(args) -> int:
    results = run_suites(args.suites, **{k: getattr(args, k) for k in OPTIONS})
    print(render_results(results, args.format))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlen",
        description="Transfinite length of monomial-presented modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, build in (
        ("len", _len),
        ("fcyc", _fcyc),
        ("profile", _profile),
        ("ass", _ass),
        ("filtration", _filtration),
        ("prim", _prim),
        ("endo", _endo),
    ):
        p = sub.add_parser(name)
        p.add_argument("--vars", help="comma-separated variable names, e.g. x,y")
        p.add_argument("--ideal", help="generators of J, for R/J; empty or 0 = zero ideal")
        p.add_argument("--module", help='subquotient text "vars: x,y ; I: x,y ; J: x^2,x*y"')
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name == "prim":
            p.add_argument("--prime", help="comma-separated variables of the prime; empty = zero")
        if name == "endo":
            p.add_argument("--r", required=True, help="multiplier monomial, e.g. x^2*y")
        p.set_defaults(fn=_cmd_module, build=build)

    p = sub.add_parser("check")
    p.add_argument("suites", nargs="+", help="suite names or 'all'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    for name, default in OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
