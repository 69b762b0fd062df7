"""Every name the benchmark's tracer wraps still resolves in ordlen."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "olbench"))

import tracer  # noqa: E402


def test_spanned_names_resolve():
    for modname, names in tracer.SPANNED.values():
        module = importlib.import_module(modname)
        for name in names:
            # from_quotient is a static method, wrapped on its class
            owner = module.FiniteModule if name == "from_quotient" else module
            assert callable(getattr(owner, name, None)), f"{modname}.{name}"
    ordinal = importlib.import_module("ordlen.ordinal").Ordinal
    assert all(callable(getattr(ordinal, name, None)) for name in tracer.ORDINAL_METHODS)
    for modname, clsname in tracer.CONSTRUCTIONS.values():
        assert hasattr(getattr(importlib.import_module(modname), clsname), "__post_init__")
