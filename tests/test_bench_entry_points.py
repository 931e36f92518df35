"""The benchmark in `bench/` reaches the library through fixed names: the
entry points that `bench/layers.py` wraps in spans, and the calls of
`bench/child.py`.  A refactor that renames one of them breaks the
benchmark while every other test stays green."""

import importlib
import importlib.util
import inspect
import io
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


def test_every_library_name_the_child_calls_resolves():
    schur, intspec, rootdata = (_module("schur"), _module("intspec"),
                                _module("rootdata"))
    weylmod, words, jobspec = (_module("weylmod"), _module("words"),
                               _module("jobspec"))
    for owner, attr in [
            (schur, "build_schur"), (intspec, "specialize_schur"),
            (intspec, "r_truncation_map"), (intspec, "kernel_probe_RU"),
            (weylmod, "weyl_dim_oracle"),
            (rootdata, "dominant_weights_up_to_height"),
            (words.WordExpr, "idem"), (words.WordExpr, "divided"),
            (jobspec, "parse_spec"),
            (intspec.SpecializedSchur, "verify_relations")]:
        assert callable(getattr(owner, attr)), (owner, attr)
    # the datum members the child reads; rank and simple_roots are
    # instance attributes, so only a built datum has them
    a1 = rootdata.preset("A1")
    for attr in ("height", "dominant_representative", "saturate", "key"):
        assert callable(getattr(a1, attr)), attr
    assert a1.rank == 1 and a1.simple_roots == ((2,),)
    lattice = intspec.lattice_basis(weylmod.weyl_module(a1, (1,)))
    assert callable(lattice.check_integrality)
    # an instance attribute, so only a built algebra has it
    S = intspec.specialize_schur(a1.saturate([(1,)]),
                                 _module("rings").RingPoint.rational(1))
    assert S.generic_dim == S.expected_dim


def test_qsl_accepts_a_cache_dir(tmp_path):
    spec = os.path.join(os.path.dirname(BENCH), "tests", "data", "a1_dims.qs")
    out, err = io.StringIO(), io.StringIO()
    code = _module("cli").run(["dims", "--spec", spec, "--cache-dir",
                               str(tmp_path), "--format", "json"],
                              out=out, err=err)
    assert code == 0, err.getvalue()
