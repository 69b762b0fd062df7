"""Named check suites sweeping the length theory over ideal corpora.

Each suite declares a stream of cases, drawn from one ``Corpus`` built
from the run's options, and the laws every case must satisfy;
``reporting.sweep`` turns that into CheckResult records.  A record
counts the cases it covered, and a failing one carries the offending
inputs as witnesses.  Suites are deterministic given the options.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from types import SimpleNamespace as Case

from .corpus import (
    all_ideals,
    artinian_ideals_containing_power,
    contained_pairs,
    max_ideal_power,
    monomials_of_degree_at_most,
    random_contained_pairs,
    random_ideal,
    sandwich_numerators,
)
from .endo_fixture import DEFAULT_TRUNCATION, check_endo_fixture
from .finite_oracle import (
    FiniteModule,
    echelon,
    endo_power,
    enumerate_endos,
    enumerate_submodules,
    in_span,
    kernel_of_map,
    longest_chain,
    socle,
)
from .modules import (
    MonomialModule,
    ass,
    dim_filtration,
    find_submodule_with_length,
    is_binary_module,
    is_open_submodule,
    length,
    mult_endo,
    open_via_witnesses,
    prim_kernel,
)
from .monomial import (
    MonomialIdeal,
    colon_mono,
    contains,
    default_names,
    format_ideal,
    ideal_of_prime,
    ideal_sum,
    intersect,
    parse_ideal,
)
from .ordinal import Ordinal
from .reporting import CheckResult, sweep

# the coefficient bound of the ordinal pool
MAX_COEFF = 3
# the options of ``ordlen check`` and their defaults
OPTIONS = {"max_vars": 3, "max_deg": 3, "seed": 0, "sample": 500, "truncation": DEFAULT_TRUNCATION}


class Corpus:
    """The options of a run and the corpora they determine, each built
    once per run and shared by the suites that sweep it.  Each option is
    an attribute, defaulting as in ``OPTIONS``; an unknown one raises
    ValueError."""

    def __init__(self, **options):
        unknown = [k for k in options if k not in OPTIONS]
        if unknown:
            raise ValueError(f"unknown check option(s): {', '.join(unknown)}")
        vars(self).update(OPTIONS, **options)

    @cached_property
    def ideals(self) -> list[MonomialIdeal]:
        """Every two-variable ideal generated in degree ≤ max_deg."""
        return all_ideals(2, self.max_deg)

    @cached_property
    def pairs(self) -> dict[str, list[tuple[MonomialIdeal, MonomialIdeal]]]:
        """Contained pairs J ⊆ I by tag: every pair of ``ideals``, and with
        max_vars ≥ 3 also ``sample`` seeded pairs in three variables, I
        generated in degree ≤ max_deg."""
        out = {"2var": contained_pairs(self.ideals)}
        if self.max_vars >= 3:
            out["3var"] = random_contained_pairs(3, self.sample, self.seed, d=self.max_deg)
        return out

    @cached_property
    def binary_modules(self) -> list[MonomialModule]:
        """The nonzero binary modules I/J over all of ``pairs``."""
        modules = (
            MonomialModule(J.n, I, J) for pairs in self.pairs.values() for J, I in pairs
        )
        return [M for M in modules if not M.is_zero and is_binary_module(M)]


def _fmt(ideal: MonomialIdeal) -> str:
    return f"({format_ideal(ideal, default_names(ideal.n))})"


def _pair_text(x) -> str:
    """The ideals J ⊆ I of a module, or of a case that names them."""
    return f"J={_fmt(x.J)}, I={_fmt(x.I)}"


# ----------------------------------------------------------------------
# ordinal algebra
# ----------------------------------------------------------------------


def _ordinals_up_to(max_deg: int, max_coeff: int) -> list[Ordinal]:
    return [Ordinal(c) for c in itertools.product(range(max_coeff + 1), repeat=max_deg + 1)]


def _pair_laws(a: Ordinal, b: Ordinal) -> bool:
    """Order extension, shuffle difference and sum domination."""
    weaker = a.weaker(b)
    diff = b.shuffle_difference(a)
    return (
        (not weaker or a <= b)
        and (diff is None or a.shuffle_sum(diff) == b)
        and (a + b) <= a.shuffle_sum(b)
    )


def _split_reconstructs(a: Ordinal, e: int) -> bool:
    high, low = a.split(e)
    return high + low == a and high.shuffle_sum(low) == a


def _sum_tables(pool: list[Ordinal], op):
    """Every sum of ``op`` that a triple of the pool needs, each computed
    once and interned as an index: ``pair[i][j]`` is a∘b, and for m the
    index of such a sum, ``left[m][k]`` is (a∘b)∘c and ``right[i][m]``
    is a∘(b∘c).  Equal sums share an index, so a triple is associative
    exactly when ``left[pair[i][j]][k] == right[i][pair[j][k]]``."""
    mid: dict[Ordinal, int] = {}
    pair = [[mid.setdefault(op(a, b), len(mid)) for b in pool] for a in pool]
    final: dict[Ordinal, int] = {}
    left = [[final.setdefault(op(s, c), len(final)) for c in pool] for s in mid]
    right = [[final.setdefault(op(a, s), len(final)) for s in mid] for a in pool]
    return pair, left, right


def _assoc(pool: list[Ordinal]) -> list[CheckResult]:
    """Associativity of both sums on every triple of the pool, decided on
    the interned sum tables, so each distinct sum is computed once and
    not 8 times per triple; a failing triple is shown as its ordinals."""
    (pa, la, ra), (ps, ls, rs) = (
        _sum_tables(pool, op) for op in (Ordinal.__add__, Ordinal.shuffle_sum)
    )

    def associative(ijk) -> bool:
        i, j, k = ijk
        return la[pa[i][j]][k] == ra[i][pa[j][k]] and ls[ps[i][j]][k] == rs[i][ps[j][k]]

    return sweep(itertools.product(range(len(pool)), repeat=3),
        [("ordinal-assoc", "triples: both sums associative", associative)],
        witness=lambda ijk: tuple(pool[i] for i in ijk))


def _ordinal(corpus: Corpus) -> list[CheckResult]:
    pool = _ordinals_up_to(corpus.max_deg, MAX_COEFF)
    splits = ((a, e) for a in pool for e in range(corpus.max_deg + 2))
    return [
        *sweep(itertools.product(pool, repeat=2), [("ordinal-pair-laws",
            "pairs: weaker ⇒ ≤, difference, sum domination", lambda ab: _pair_laws(*ab))]),
        *sweep(splits, [("ordinal-split",
            "splits: reconstructed under both sums", lambda ae: _split_reconstructs(*ae))]),
        *_assoc(_ordinals_up_to(2, 2)),
    ]


# ----------------------------------------------------------------------
# semi-additivity and submodule monotonicity
# ----------------------------------------------------------------------


def _exact_sequences(pairs):
    """0 → I/J → R/J → R/I → 0 with its three lengths."""
    for J, I in pairs:
        mu, quo = (length(MonomialModule.quotient_ring(K)) for K in (J, I))
        yield Case(J=J, I=I, mu=mu, sub=length(MonomialModule(J.n, I, J)), quo=quo)


def _semiadd(corpus: Corpus) -> list[CheckResult]:
    return [
        record
        for tag, pairs in corpus.pairs.items()
        for record in sweep(
            _exact_sequences(pairs),
            [
                (f"semiadd-lower-{tag}", "exact sequences: len R/I + len I/J ≤ len R/J",
                 lambda c: (c.quo + c.sub) <= c.mu),
                (f"semiadd-upper-{tag}", "exact sequences: len R/J ≤ len R/I ⊕ len I/J",
                 lambda c: c.mu <= c.quo.shuffle_sum(c.sub)),
            ],
            _pair_text,
        )
    ]


def _sandwiches(pairs, max_deg: int):
    """Submodules N/J of I/J with N generated over J by up to two monomials."""
    for J, I in pairs:
        M = MonomialModule(J.n, I, J)
        for N in sandwich_numerators(J, I, max_deg):
            yield Case(J=J, I=N, M=M)


# Every length weaker than a probe's is realized by a submodule that the
# bounded search finds; the search itself checks the length it returns.
CONVERSE_PROBES = ("x^2, x*y", "x*y", "x^2, x*y, y^3", "x")


def _weaker_lengths():
    for text in CONVERSE_PROBES:
        M = MonomialModule.quotient_ring(parse_ideal(text, ("x", "y")))
        for coeffs in itertools.product(*(range(v + 1) for v in length(M).coeffs)):
            nu = Ordinal(coeffs)
            yield Case(M=M, nu=nu, N=find_submodule_with_length(M, nu))


def _submod(corpus: Corpus) -> list[CheckResult]:
    results = [
        record
        for tag, pairs in corpus.pairs.items()
        for record in sweep(
            _sandwiches(pairs, corpus.max_deg),
            [(f"submod-monotone-{tag}", "sandwiched submodules N/J: len N/J ≼ len I/J",
              lambda c: length(c.M.submodule(c.I)).weaker(length(c.M)))],
            _pair_text,
        )
    ]
    return results + sweep(
        _weaker_lengths(),
        [("submod-converse-search", "weaker lengths realized by a submodule found at the bound",
          lambda c: c.N is not None)],
        lambda c: f"{_pair_text(c.M)}, length {c.nu}",
    )


# ----------------------------------------------------------------------
# lattice laws
# ----------------------------------------------------------------------


def _submodule_pairs(pairs, max_deg: int):
    """Pairs of sandwiched submodules N, N' of each I/J, with their lengths."""
    for J, I in pairs:
        M = MonomialModule(J.n, I, J)
        binary = length(M).is_binary
        family = list(sandwich_numerators(J, I, max_deg))
        lengths = {N: length(M.submodule(N)) for N in family}
        for A, B in itertools.combinations_with_replacement(family, 2):
            la, lb = lengths[A], lengths[B]
            joined = length(M.submodule(ideal_sum(A, B)))
            yield Case(M=M, A=A, B=B, binary=binary, la=la, lb=lb, join=la.join(lb), joined=joined)


# The least degree whose pairs hold a strictly weaker join: J=(x*y), N=(y), N'=(x).
STRICT_JOIN_DEG = 2
JOIN_EQUAL = ("latt-join-equal", "pairs: len N ∨ len N' = len(N + N')",
              lambda c: c.join == c.joined)


def _join_text(c) -> str:
    return (
        f"J={_fmt(c.M.J)}, N={_fmt(c.A)}, N'={_fmt(c.B)}: "
        f"{c.la} v {c.lb} = {c.join}, len(N + N') = {c.joined}"
    )


def _latt(corpus: Corpus) -> list[CheckResult]:
    meet, join, equal = sweep(
        _submodule_pairs(corpus.pairs["2var"], corpus.max_deg),
        [
            ("latt-meet", "pairs in binary-length modules: len(N ∩ N') = len N ∧ len N'",
             lambda c: length(c.M.submodule(intersect(c.A, c.B))) == c.la.meet(c.lb)
             if c.binary else None),
            ("latt-join-weaker", "pairs: len N ∨ len N' ≼ len(N + N')",
             lambda c: c.join.weaker(c.joined)),
            JOIN_EQUAL,
        ],
        _join_text,
    )
    if corpus.max_deg < STRICT_JOIN_DEG:
        # Below that degree no pair can show a strictly weaker join.
        pairs = contained_pairs(all_ideals(2, STRICT_JOIN_DEG))
        (equal,) = sweep(_submodule_pairs(pairs, STRICT_JOIN_DEG), [JOIN_EQUAL], _join_text)
    # An existence claim: some join is strictly weaker, so equality fails.
    shown = equal.evidence.get("witnesses")
    found = f"strictly weaker join {shown[0]}" if shown else "no strictly weaker join"
    strict = CheckResult("latt-join-strict", bool(shown), f"{equal.cases} pairs; {found}",
                         equal.evidence, equal.cases)
    return [meet, join, strict]


# ----------------------------------------------------------------------
# dimension filtration and localization kernels
# ----------------------------------------------------------------------


def _filtrations(modules):
    """Each module with its levels (e, D_e, numerator of D_(e-1))."""
    for M in modules:
        filtration = [dim_filtration(M, e) for e in range(M.n + 1)]
        below = [M.J] + [D.I for D in filtration]
        yield Case(M=M, mu=length(M), levels=list(zip(itertools.count(), filtration, below)))


def _dimfil(corpus: Corpus) -> list[CheckResult]:
    return sweep(
        _filtrations(corpus.binary_modules),
        [
            ("dimfil-low", "binary modules: len D_e is the low part of len M split at e",
             lambda c: all(length(D) == c.mu.split(e)[1] for e, D, _ in c.levels)),
            ("dimfil-high", "binary modules: len M/D_e is the high part of len M split at e",
             lambda c: all(length(c.M.quotient_by(D.I)) == c.mu.split(e)[0]
                           for e, D, _ in c.levels)),
            ("dimfil-step", "binary modules: len D_e/D_(e-1) = v_e·ω^e",
             lambda c: all(length(MonomialModule(c.M.n, D.I, K))
                           == Ordinal.omega_power(e) * c.mu.coeff(e) for e, D, K in c.levels)),
            ("dimfil-order", "binary modules: the first nonzero D_e is at the order of len M",
             lambda c: next((e for e, D, _ in c.levels if not D.is_zero), None) == c.mu.order),
        ],
        lambda c: _pair_text(c.M),
    )


def _prim_kernels(modules):
    for M in modules:
        primes = ass(M)
        for P in primes:
            K = prim_kernel(M, P)
            yield Case(M=M, P=P, primes=primes, K=K, quotient=M.quotient_by(K.I))


def _primmin(corpus: Corpus) -> list[CheckResult]:
    return sweep(
        _prim_kernels(corpus.binary_modules),
        [
            ("primmin-ass", "(module, associated prime P) cases: Ass(M/prim) = primes under P",
             lambda c: set(ass(c.quotient)) == {q for q in c.primes if c.P.contains(q)}),
            ("primmin-sum", "(module, associated prime P) cases: len prim ⊕ len M/prim = len M",
             lambda c: length(c.K).shuffle_sum(length(c.quotient)) == length(c.M)),
        ],
        lambda c: f"{_pair_text(c.M)}, P={c.P.to_text(default_names(c.M.n))}",
    )


def _maximal_embedded_primes(ideals):
    """Each binary R/J with a prime P maximal among its embedded primes."""
    for J in ideals:
        if J.is_unit:
            continue
        M = MonomialModule.quotient_ring(J)
        if not is_binary_module(M):
            continue
        primes = ass(M)
        embedded = [p for p in primes if any(q != p and p.contains(q) for q in primes)]
        for P in embedded:
            if not any(q != P and q.contains(P) for q in embedded):
                yield Case(J=J, P=P, M=M, numerator=ideal_sum(ideal_of_prime(P), J))


def _maxassopen(corpus: Corpus) -> list[CheckResult]:
    return sweep(
        _maximal_embedded_primes(corpus.ideals),
        [
            ("maxassopen-open", "maximal embedded primes P of R/J: (P + J)/J is open",
             lambda c: is_open_submodule(c.M, c.numerator)),
            ("maxassopen-witness-agree", "maximal embedded primes: witness and length tests agree",
             lambda c: open_via_witnesses(c.M, c.numerator) == is_open_submodule(c.M, c.numerator)),
        ],
        lambda c: f"J={_fmt(c.J)}, P={c.P.to_text(default_names(c.J.n))}",
    )


# ----------------------------------------------------------------------
# multiplication endomorphisms
# ----------------------------------------------------------------------


def _multiplications(pairs):
    """Multiplication by each monomial of degree 1 or 2 on each nonzero I/J."""
    multipliers = [m for m in monomials_of_degree_at_most(2, 2) if m.degree >= 1]
    for J, I in pairs:
        M = MonomialModule(J.n, I, J)
        if M.is_zero:
            continue
        mu = length(M)
        binary = is_binary_module(M)
        unmixed = len({p.dim for p in ass(M)}) == 1
        for r in multipliers:
            a = mult_endo(M, r)
            yield Case(J=J, I=I, M=M, r=r, mu=mu, binary=binary, unmixed=unmixed, a=a,
                       kernel_open=a.kappa == mu)


def _multendo(corpus: Corpus) -> list[CheckResult]:
    return sweep(
        _multiplications(corpus.pairs["2var"]),
        [
            ("multendo-weaker", "maps: kernel and image lengths ≼ μ",
             lambda c: c.a.kappa.weaker(c.mu) and c.a.theta.weaker(c.mu)),
            ("multendo-rank-nullity-bounds", "maps: θ+κ ≤ μ ≤ θ⊕κ",
             lambda c: (c.a.theta + c.a.kappa) <= c.mu <= c.a.theta.shuffle_sum(c.a.kappa)),
            ("multendo-monic-open", "maps: monic exactly when the image is open",
             lambda c: c.a.monic == c.a.open_image),
            ("multendo-kernel-open-nil", "maps: kernel open ⇒ nilpotent, ⟺ on binary modules",
             lambda c: c.a.nilpotent == c.kernel_open if c.binary
             else c.a.nilpotent or not c.kernel_open),
            ("multendo-binary-nil-power", "maps on binary modules: nilpotent ⇒ r^valence kills",
             lambda c: not c.a.nilpotent or contains(colon_mono(c.J, c.r.pow(c.mu.valence)), c.I)
             if c.binary else None),
            ("multendo-reductive-bound", "maps: reductive power ≤ valence",
             lambda c: c.a.reductive_power <= c.mu.valence),
            ("multendo-reductive-rank-nullity", "maps: rank-nullity at the reductive power",
             lambda c: (c.a if c.a.reductive else mult_endo(c.M, c.r.pow(c.a.reductive_power)))
             .satisfies_rank_nullity),
            ("multendo-unmixed-rank-nullity", "maps on unmixed modules: rank-nullity for all r",
             lambda c: c.a.satisfies_rank_nullity if c.unmixed else None),
        ],
        lambda c: f"{_pair_text(c)}, r={c.r.to_text(default_names(c.J.n))}",
    )


# ----------------------------------------------------------------------
# the finite oracle
# ----------------------------------------------------------------------

ORACLE_QUOTIENTS = ("x, y", "x^2, x*y, y^2", "x^2, y^2", "x^2, x*y, y^3", "x^3, x*y, y^3")
# R/(x^2, x*y, y^2) has 6 submodules over F₂: zero, the three lines of
# its socle (x, y), the socle itself and the whole module.
SUBMODULE_COUNTS = {"x^2, x*y, y^2": 6}


def _sampled_artinian(seed: int):
    rng = random.Random(seed)
    for _ in range(10):
        yield ideal_sum(random_ideal(rng, 3, 2), max_ideal_power(3, 3))


def _chain_agrees(J: MonomialIdeal) -> bool:
    """The F₂ longest chain, the dimension and the symbolic length agree."""
    fm = FiniteModule.from_quotient(J)
    mu = length(MonomialModule.quotient_ring(J))
    return longest_chain(fm) == fm.dim and mu == Ordinal.finite(fm.dim)


def _realizes_every_dimension(text: str) -> bool:
    fm = FiniteModule.from_quotient(parse_ideal(text, ("x", "y")))
    subs = enumerate_submodules(fm)
    return {len(b) for b in subs} == set(range(fm.dim + 1)) and SUBMODULE_COUNTS.get(
        text, len(subs)
    ) == len(subs)


def _small_endos():
    for text in ORACLE_QUOTIENTS:
        fm = FiniteModule.from_quotient(parse_ideal(text, ("x", "y")))
        if fm.dim > 4:
            continue
        for table in enumerate_endos(fm):
            yield Case(text=text, fm=fm, table=table)


def _endo_theorems(c) -> bool:
    """Reductive powers, rank-nullity there, and essential kernels nilpotent."""
    fm, table = c.fm, c.table
    # kernels and images of the powers stop changing by the dimension (Fitting)
    stable = endo_power(fm, table, fm.dim)
    ker, img = kernel_of_map(stable), echelon(stable)
    # every nonzero submodule holds a nonzero socle vector, and each socle
    # vector spans a submodule: a kernel is essential when it holds the socle
    kernel1 = kernel_of_map(table)
    essential = all(in_span(kernel1, v) for v in socle(fm))
    nilpotent = not any(stable)
    # ker ∩ img = 0 exactly when their bases stay independent together
    return (
        len(echelon(ker + img)) == len(ker) + len(img) == fm.dim
        and (nilpotent or not essential)
    )


def _oracle_artinian(corpus: Corpus) -> list[CheckResult]:
    chain_what = "ideals above the 4th power: F₂ longest chain = dimension = length"
    results = sweep(
        artinian_ideals_containing_power(2, 4), [("oracle-chain-2var", chain_what, _chain_agrees)],
        _fmt,
    )
    if corpus.max_vars >= 3:
        results += sweep(
            _sampled_artinian(corpus.seed),
            [("oracle-chain-3var", "sampled Artinian ideals in 3 variables: "
              "F₂ longest chain = dimension = length", _chain_agrees)],
            _fmt,
        )
    return results + [
        *sweep(
            ORACLE_QUOTIENTS,
            [("oracle-submodule-realization", "small quotients R/J: "
              "every dimension up to the length realized", _realizes_every_dimension)],
        ),
        *sweep(
            _small_endos(),
            [("oracle-endo-theorems", "F₂ endomorphisms: reductive powers, rank-nullity, "
              "essential kernels nilpotent", _endo_theorems)],
            lambda c: f"J=({c.text}), table={c.table}",
        ),
        *sweep(
            [FiniteModule.from_quotient(parse_ideal("x, y", ("x", "y")))],
            [("oracle-schur", "simple module R/(x, y): its endomorphisms are the scalars",
              lambda fm: set(enumerate_endos(fm)) == {(0,), (1,)})],
        ),
    ]


def _endo_fixture(corpus: Corpus) -> list[CheckResult]:
    N = corpus.truncation
    return [r._replace(name=f"{r.name}-N{N}") for r in check_endo_fixture(N, seed=corpus.seed)]


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

SUITES = {
    "ordinal": _ordinal,
    "semiadd": _semiadd,
    "submod": _submod,
    "latt": _latt,
    "dimfil": _dimfil,
    "primmin": _primmin,
    "maxassopen": _maxassopen,
    "multendo": _multendo,
    "oracle-artinian": _oracle_artinian,
    "endo-fixture": _endo_fixture,
}


def run_suites(names: list[str], **options) -> list[CheckResult]:
    """Run the named suites, or every suite for "all", over one corpus.

    The options are those of ``ordlen check``, named in ``OPTIONS``.  An
    unknown suite or option raises ValueError.
    """
    if "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown check suite(s): {', '.join(unknown)}")
    corpus = Corpus(**options)
    return [r for name in names for r in SUITES[name](corpus)]
