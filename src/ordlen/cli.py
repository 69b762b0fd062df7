"""Command-line interface.

Inputs are inline: ``--vars x,y --ideal "x^2,x*y"`` names the quotient
R/J, and ``--module "vars: x,y ; I: x,y ; J: x^2,x*y"`` names a
subquotient I/J.  Every command prints either text or a JSON document
carrying the same data.

Exit codes: 0 success, 1 check failure, 2 parse/usage error, 3 guard
violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import OPTIONS, Corpus, run_suites
from .cycles import MonomialPrime
from .errors import GuardError, ParseError
from .modules import (
    MonomialModule,
    ass,
    dim_filtration,
    fcyc,
    length,
    mult_endo,
    prim_kernel,
    profile,
)
from .monomial import (
    format_ideal,
    ideal_to_json,
    parse_ideal,
    parse_monomial,
)
from .reporting import all_passed, render_results


def parse_module(text: str) -> tuple[MonomialModule, tuple[str, ...]]:
    """Parse ``vars: x,y ; I: x,y ; J: x^2,x*y`` into a module."""
    fields = {}
    for part in text.split(";"):
        if not part.strip():
            continue
        key, _, value = part.partition(":")
        fields[key.strip().lower()] = value.strip()
    missing = {"vars", "i", "j"} - set(fields)
    if missing:
        raise ParseError(f"module text missing fields: {sorted(missing)}", text, 0)
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
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not names:
        raise ParseError("empty variable list", args.vars, 0)
    J = parse_ideal(args.ideal, names)
    return MonomialModule.quotient_ring(J), names


def _emit(args, text: str, data: dict) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, default=str))
    else:
        print(text)


def _cmd_len(args) -> int:
    module, names = _module_from_args(args)
    mu = length(module)
    _emit(args, str(mu), {"length": str(mu), "cnf": [list(p) for p in mu.to_pairs()]})
    return 0


def _cmd_fcyc(args) -> int:
    module, names = _module_from_args(args)
    cycle = fcyc(module)
    _emit(args, cycle.to_text(names), {"fcyc": cycle.to_json(), "text": cycle.to_text(names)})
    return 0


def _cmd_ass(args) -> int:
    module, names = _module_from_args(args)
    primes = ass(module)
    _emit(
        args,
        "\n".join(p.to_text(names) for p in primes) or "(none)",
        {"ass": [p.to_text(names) for p in primes]},
    )
    return 0


def _cmd_profile(args) -> int:
    module, names = _module_from_args(args)
    p = profile(module)
    lines = [
        f"length: {p.length}",
        f"fcyc: {p.fcyc.to_text(names)}",
        f"ass: {', '.join(q.to_text(names) for q in p.ass) or '(none)'}",
        f"dim: {p.dim}",
        f"order: {p.order}",
        f"valence: {p.valence}",
        f"binary: {p.is_binary}",
    ]
    _emit(
        args,
        "\n".join(lines),
        {
            "length": str(p.length),
            "fcyc": p.fcyc.to_json(),
            "ass": [q.to_text(names) for q in p.ass],
            "dim": p.dim,
            "order": p.order,
            "valence": p.valence,
            "binary": p.is_binary,
        },
    )
    return 0


def _cmd_filtration(args) -> int:
    module, names = _module_from_args(args)
    rows = []
    for e in range(module.n + 1):
        D = dim_filtration(module, e)
        rows.append((e, D, length(D)))
    text = "\n".join(
        f"D_{e}: numerator = ({format_ideal(D.I, names)}) ; length = {mu}"
        for e, D, mu in rows
    )
    data = {
        "length": str(length(module)),
        "levels": [
            {"e": e, "numerator": ideal_to_json(D.I, names), "length": str(mu)}
            for e, D, mu in rows
        ],
    }
    _emit(args, text, data)
    return 0


def _cmd_prim(args) -> int:
    module, names = _module_from_args(args)
    gens = [v.strip() for v in (args.prime or "").split(",") if v.strip()]
    index = {name: i for i, name in enumerate(names)}
    unknown = [g for g in gens if g not in index]
    if unknown:
        raise ParseError(f"unknown prime variables: {unknown}", args.prime or "", 0)
    P = MonomialPrime.of(module.n, tuple(index[g] for g in gens))
    K = prim_kernel(module, P)
    quotient = module.quotient_by(K.I)
    identity = length(K).shuffle_sum(length(quotient)) == length(module)
    text = "\n".join(
        [
            f"prime: {P.to_text(names)}",
            f"kernel numerator: ({format_ideal(K.I, names)})",
            f"kernel length: {length(K)}",
            f"quotient length: {length(quotient)}",
            f"length identity: {identity}",
        ]
    )
    _emit(
        args,
        text,
        {
            "prime": P.to_text(names),
            "kernel_numerator": ideal_to_json(K.I, names),
            "kernel_length": str(length(K)),
            "quotient_length": str(length(quotient)),
            "length_identity": identity,
        },
    )
    return 0


def _cmd_endo(args) -> int:
    module, names = _module_from_args(args)
    r = parse_monomial(args.r, names)
    a = mult_endo(module, r)
    text = "\n".join(
        [
            f"r: {r.to_text(names)}",
            f"mu: {a.mu}",
            f"kappa: {a.kappa} (kernel ({format_ideal(a.kernel.I, names)}))",
            f"theta: {a.theta} (image ({format_ideal(a.image.I, names)}))",
            f"reductive: {a.reductive} (power {a.reductive_power})",
            f"rank-nullity: {a.satisfies_rank_nullity}",
            f"tectonics length: {a.tectonics_length}",
            f"nilpotent: {a.nilpotent}",
            f"monic: {a.monic}",
            f"open image: {a.open_image}",
        ]
    )
    _emit(
        args,
        text,
        {
            "r": r.to_text(names),
            "mu": str(a.mu),
            "kappa": str(a.kappa),
            "theta": str(a.theta),
            "kernel_numerator": ideal_to_json(a.kernel.I, names),
            "image_numerator": ideal_to_json(a.image.I, names),
            "reductive": a.reductive,
            "reductive_power": a.reductive_power,
            "rank_nullity": a.satisfies_rank_nullity,
            "tectonics_length": str(a.tectonics_length),
            "nilpotent": a.nilpotent,
            "monic": a.monic,
            "open_image": a.open_image,
        },
    )
    return 0


def _cmd_check(args) -> int:
    results = run_suites(args.suites, **{k: getattr(args, k) for k in OPTIONS})
    print(render_results(results, args.format))
    return 0 if all_passed(results) else 1


def _add_module_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vars", help="comma-separated variable names, e.g. x,y")
    p.add_argument("--ideal", help="generators of J for the quotient R/J; empty or 0 = zero ideal")
    p.add_argument("--module", help='subquotient text "vars: x,y ; I: x,y ; J: x^2,x*y"')
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlen",
        description="Transfinite length of monomial-presented modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("len", _cmd_len, None),
        ("fcyc", _cmd_fcyc, None),
        ("profile", _cmd_profile, None),
        ("ass", _cmd_ass, None),
        ("filtration", _cmd_filtration, None),
        ("prim", _cmd_prim, "prime"),
        ("endo", _cmd_endo, "r"),
    ):
        p = sub.add_parser(name)
        _add_module_args(p)
        if extra == "prime":
            p.add_argument("--prime", help="comma-separated variables generating the prime; empty = zero prime")
        if extra == "r":
            p.add_argument("--r", required=True, help="multiplier monomial, e.g. x^2*y")
        p.set_defaults(fn=fn)

    p = sub.add_parser("check")
    p.add_argument("suites", nargs="+", help="suite names or 'all'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    for name in OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(Corpus, name))
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
