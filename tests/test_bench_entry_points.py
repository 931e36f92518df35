"""The benchmark in `bench/` reaches the library through fixed names: the
entry points that `bench/layers.py` wraps in spans, and the calls of
`bench/child.py`.  A refactor that renames one of them breaks the
benchmark while every other test stays green."""

import importlib
import importlib.util
import inspect
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(BENCH, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)   # defines names only, patches nothing
    return layers


def _module(name):
    return importlib.import_module("qschur." + name)


def test_every_span_entry_point_resolves():
    layers = _layers()
    for name in layers.MODULES:
        _module(name)
    for modname, clsname, attr, _ in layers.SPANS:
        owner = _module(modname)
        if clsname:
            owner = getattr(owner, clsname)
        assert callable(getattr(owner, attr)), (modname, clsname, attr)


def test_counted_and_called_names_resolve():
    schur, ulimit = _module("schur"), _module("ulimit")
    intspec, weylmod = _module("intspec"), _module("weylmod")
    assert callable(schur.SchurElement.__mul__)
    assert callable(ulimit.LimitElement.at)
    assert callable(ulimit.separation_probe)
    assert callable(intspec.r_truncation_map)
    assert inspect.isclass(weylmod.TensorModule)


def test_specialized_truncation_has_its_own_span():
    # without its own `verify`, the specialized map would run the wrapped
    # `TruncationMap.verify` and record its time as `schur.truncation`
    assert "verify" in _module("intspec").RTruncationMap.__dict__


def test_generic_and_specialized_basis_have_separate_spans():
    # `basis` is defined once, on `BlockAlgebra`, and the spans wrap it per
    # subclass: wrapping it on one must leave the other's alone, or the
    # specialized closure would be recorded as `schur.closure`
    layers = _layers()
    schur, intspec = _module("schur"), _module("intspec")
    generic, specialized = schur.SchurAlgebra, intspec.SpecializedSchur
    shared = schur.BlockAlgebra.basis
    try:
        layers._set(generic, "basis", lambda self: "schur.closure")
        assert specialized.basis is shared
        layers._set(specialized, "basis", lambda self: "intspec.spec_closure")
        assert generic.basis(None) == "schur.closure"
        assert specialized.basis(None) == "intspec.spec_closure"
    finally:
        for cls in (generic, specialized):
            if "basis" in vars(cls):
                delattr(cls, "basis")
    assert generic.basis is specialized.basis is shared
