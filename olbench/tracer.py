"""Spans and counters around calls into ordlen's layers, for the traced run.

Every wrapper is installed from here; nothing under ``src`` changes.  A
function imported by name into another module (``from .monomial import
saturate``) is bound in several namespaces, so the wrapper replaces the
binding in every ``ordlen`` module that holds it.  Methods are wrapped
on their class.

Spans are kept in memory as parallel arrays (name, start, end, parent)
and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# layer -> module path and the functions of it that get a span
SPANNED = {
    "monomial": ("ordlen.monomial", (
        "saturate", "saturate_mono", "colon_mono", "intersect", "h0_count", "localize_pair",
    )),
    "modules": ("ordlen.modules", (
        "fcyc", "localize", "mult_endo", "dim_filtration", "prim_kernel",
        "find_submodule_with_length",
    )),
    "cycles": ("ordlen.cycles", ("binord",)),
    "finite_oracle": ("ordlen.finite_oracle", (
        "from_quotient", "enumerate_submodules", "enumerate_endos", "longest_chain",
    )),
    "endo_fixture": ("ordlen.endo_fixture", (
        "check_endo_fixture", "endo_compose", "commutator", "poly_mul",
    )),
    "corpus": ("ordlen.corpus", (
        "all_ideals", "contained_pairs", "sandwich_numerators", "random_contained_pairs",
    )),
}
ORDINAL_METHODS = ("__add__", "shuffle_sum", "weaker", "meet", "join")
# constructions counted without a span: metric name -> (module, class)
CONSTRUCTIONS = {
    "monomial.ideals_built": ("ordlen.monomial", "MonomialIdeal"),
    "cycles.Cycle.constructed": ("ordlen.cycles", "Cycle"),
    "ordinal.constructed": ("ordlen.ordinal", "Ordinal"),
}


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, (_, fns) in SPANNED.items() for fn in fns]
    return names + [f"ordinal.{m}" for m in ORDINAL_METHODS]


def per_layer_names(suites) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in CONSTRUCTIONS]
    out += [("monomial.h0_box_cells", "count")]
    out += [
        ("modules.fcyc.cache_hits", "count"),
        ("modules.fcyc.cache_misses", "count"),
        ("modules.fcyc.hit_ratio", "ratio"),
    ]
    for suite in suites:
        out += [(f"checks.{suite}.wall_s", "s"), (f"checks.{suite}.records", "count")]
    out += [("trace.overhead_pct", "%")]
    return out


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(CONSTRUCTIONS, 0)
        self.counts["monomial.h0_box_cells"] = 0

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span."""
        sid = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for layer, (modname, fns) in SPANNED.items():
            mod = importlib.import_module(modname)
            for fn_name in fns:
                if fn_name == "from_quotient":
                    cls = mod.FiniteModule
                    cls.from_quotient = staticmethod(
                        self.wrap(f"{layer}.{fn_name}", cls.from_quotient)
                    )
                    continue
                original = getattr(mod, fn_name)
                _rebind(original, self.wrap(f"{layer}.{fn_name}", original))
        ordinal_cls = importlib.import_module("ordlen.ordinal").Ordinal
        for method in ORDINAL_METHODS:
            setattr(
                ordinal_cls, method, self.wrap(f"ordinal.{method}", getattr(ordinal_cls, method))
            )
        for metric, (modname, clsname) in CONSTRUCTIONS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            cls.__post_init__ = self._counting(metric, cls.__post_init__)
        self._count_box_cells()

    def _counting(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_box_cells(self) -> None:
        """Add the cells of each h0_count box scan, the product of the
        per-variable caps of the denominator, to a counter."""
        monomial = sys.modules["ordlen.monomial"]
        spanned = monomial.h0_count  # already wrapped in a span
        counts = self.counts

        def wrapper(numerator, denominator):
            if numerator != denominator and numerator.n:
                cells = 1
                for j in range(numerator.n):
                    cells *= max(max((g.exps[j] for g in denominator.gens), default=0), 1)
                counts["monomial.h0_box_cells"] += cells
            return spanned(numerator, denominator)

        _rebind(spanned, wrapper)

    def self_times(self):
        """Self time, total time and span count, summed per name."""
        child = array("d", bytes(8 * len(self.start)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        self_s = dict.fromkeys(self.names, 0.0)
        total_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for sid, nid in enumerate(self.name_of):
            name = self.names[nid]
            duration = self.end[sid] - self.start[sid]
            self_s[name] += duration - child[sid]
            total_s[name] += duration
            calls[name] += 1
        return self_s, total_s, calls

    def write(self, path) -> None:
        """Write the spans as one JSON object of columns, a chunk at a time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.name_of, "parent": self.parent, "start": self.start, "end": self.end}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write('{"names": ' + json.dumps(self.names))
            for key, column in columns.items():
                f.write(f', "{key}": [')
                for i in range(0, len(column), 1 << 16):
                    f.write((", " if i else "") + json.dumps(column[i : i + (1 << 16)].tolist())[1:-1])
                f.write("]")
            f.write("}\n")


def _rebind(original, replacement) -> None:
    """Point every ordlen namespace that binds ``original`` at the replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname != "ordlen" and not modname.startswith("ordlen."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
