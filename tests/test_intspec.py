"""Integral lattice bases, specialization at rational points and roots of
unity, the specialized inverse system, and kernel probes."""

import copy
import functools
import hashlib
import itertools
import json

import pytest

from qschur import cli, intspec, schur, weylmod
from qschur.intspec import (SpecializedSchur, kernel_probe_RU, lattice_basis,
                            r_truncation_map, specialize_schur)
from qschur.laurent import (R_ONE, LaurentPoly, LaurentRing, RatFunc,
                            RatFuncField, is_integral, qint)
from qschur.linalg import SparseEchelon, sparse_map, sparse_mul
from qschur.jobspec import parse_spec
from qschur.rings import CycloField, PoleError, RingPoint
from qschur.rootdata import (PRESET_NAMES, CartanDatum,
                             dominant_weights_up_to_height, preset,
                             simply_connected)
from qschur.schur import (BlockAlgebra, SchurAlgebra, SchurElement,
                          build_schur, integral_report)
from qschur.ulimit import (LimitElement, cofinal_consistency, theta_dot,
                           verify_coherence)
from qschur.weylmod import ModuleCheckError, WeylModule, weyl_module
from qschur.words import WordExpr

import reference_eval

XI_ONE = RingPoint.rational(1)
XI_I = RingPoint.cyclotomic(4)
POINTS = [XI_ONE, RingPoint.rational(2), XI_I, RingPoint.cyclotomic(3)]
POINT_IDS = ["1", "2", "i", "w3"]


class TestLatticeBases:
    @pytest.mark.parametrize("name", list(PRESET_NAMES))
    def test_divided_power_integrality_height_4(self, name):
        datum = preset(name)
        for lam in dominant_weights_up_to_height(datum, 4):
            lb = lattice_basis(weyl_module(datum, lam))
            checked = lb.check_integrality()
            # at least the first divided power in each direction was seen
            if any(lam):
                assert checked, (name, lam)

    def test_a1_lattice_monomials(self):
        a1 = preset("A1")
        lb = lattice_basis(weyl_module(a1, (2,)))
        assert lb.monomials == [(), ((0, 1),), ((0, 2),)]

    def test_nilpotency_matches_string_lengths(self):
        a1 = preset("A1")
        m = lattice_basis(weyl_module(a1, (3,))).module
        assert m.nilpotency(1, 0) == 3
        assert m.nilpotency(-1, 0) == 3

    def test_integral_entries_really_are_integral(self):
        a2 = preset("A2")
        lb = lattice_basis(weyl_module(a2, (1, 1)))
        for sign in (1, -1):
            for i in range(2):
                mat = lb.module.divided_power(sign, i, 1)
                # entries are Laurent polynomials by construction
                for row in mat.values():
                    for x in row.values():
                        assert isinstance(x, LaurentPoly)
                        assert x.coeffs == {} or min(x.coeffs) > -100

    def test_integrality_sweep(self):
        # every preset to height 8, and small weights of rank-3 types and G2
        # (symmetrized Cartan forms, simply connected data)
        data = [(preset(name), 8) for name in PRESET_NAMES]
        for form, bound in [
                (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 10),     # A3
                (((4, -2, 0), (-2, 4, -2), (0, -2, 2)), 10),     # B3
                (((2, -1, 0), (-1, 2, -2), (0, -2, 4)), 10),     # C3
                (((6, -3), (-3, 2)), 12)]:                      # G2
            data.append((simply_connected(CartanDatum(form)), bound))
        for datum, bound in data:
            for lam in dominant_weights_up_to_height(datum, bound):
                m = weyl_module(datum, lam)
                mats = m.e + m.f + [
                    m.divided_power(sign, i, k)
                    for sign, i, k in lattice_basis(m).check_integrality()]
                assert all(isinstance(x, LaurentPoly)
                           for mat in mats for row in mat.values()
                           for x in row.values()), (datum.name, lam)

    def test_each_module_record_gets_its_own_proof(self):
        # a copy of L(2) with every entry of E_0 set to 1: E_0^2 / [2] is
        # not Laurent, and the lattice basis of the honest record, built
        # first, must not stand in for the copy's
        honest = weyl_module(preset("A1"), (2,))
        assert lattice_basis(honest).check_integrality()
        forged = copy.copy(honest)
        forged.e = [{r: dict.fromkeys(row, LaurentPoly.const(1))
                     for r, row in honest.e[0].items()}]
        forged._dp_cache = {}
        lb = lattice_basis(forged)
        assert lb.module is forged
        with pytest.raises(ModuleCheckError, match=r"E_0\^\(2\)"):
            lb.check_integrality()

    def test_plain_word_order_is_refused(self, monkeypatch):
        # in plain word order the construction picks, at weight (0, -2) of
        # A2 (2,0), a vector outside the lattice: a coordinate of another
        # candidate is v/(v^2+1)
        assert WeylModule(preset("A2"), (2, 0)).e
        monkeypatch.setattr(weylmod, "_word_order", lambda word: word)
        with pytest.raises(ModuleCheckError, match=r"\(0, -2\).*\(2, 0\)"):
            WeylModule(preset("A2"), (2, 0)).e


class TestSpecializedDimensions:
    @pytest.mark.parametrize("name,gens,expect", [
        ("A1", [(2,)], 10),
        ("A1", [(1,)], 4),
        ("A1", [(1,), (2,)], 14),
        ("A2", [(1, 0)], 9),
        ("A2", [(0, 0), (1, 1)], 65),
    ])
    def test_xi_one_realizes_generic_dimension(self, name, gens, expect):
        datum = preset(name)
        S = specialize_schur(datum.saturate(gens), XI_ONE)
        assert S.generic_dim == expect
        assert S.dimension() == expect

    def test_root_of_unity_collapse(self):
        a1 = preset("A1")
        S = specialize_schur(a1.saturate([(1,), (2,)]), XI_I)
        assert S.dimension() == 11
        assert S.dimension() <= S.generic_dim == 14

    def test_root_of_unity_rank_oracle(self):
        # exhaustive word-image rank, independent of the greedy closure
        a1 = preset("A1")
        S = specialize_schur(a1.saturate([(1,), (2,)]), XI_I)
        syms = [("Ed", s, 0, k) for s in (1, -1) for k in (1, 2, 3)]
        ech = SparseEchelon(XI_I.field)
        for lam in sorted(S.orbit):
            idem = S.idempotent(lam)
            for length in range(0, 5):
                for word in itertools.product(syms, repeat=length):
                    el = idem
                    for sym in word:
                        el = reference_eval.symbol(S, sym) * el
                        if el.is_zero():
                            break
                    if not el.is_zero():
                        ech.insert(el.flatten())
        assert ech.rank == S.dimension()

    def test_equal_points_share_one_algebra(self):
        pi = preset("A1").saturate([(2,)])
        first = specialize_schur(pi, RingPoint.cyclotomic(4))
        assert specialize_schur(pi, RingPoint.cyclotomic(4)) is first
        # xi = -1 lives in the same field but is a different point
        q_i = CycloField(4)
        minus_one = specialize_schur(pi, RingPoint(q_i, q_i.from_int(-1)))
        assert minus_one is not first
        assert minus_one.point.xi == -1

    def test_equal_data_built_anew_share_modules_and_algebras(self):
        form = ((2, -1), (-1, 2))
        a, b = (simply_connected(CartanDatum(form)) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert weyl_module(a, (1, 1)) is weyl_module(b, (1, 1))
        pi_a, pi_b = a.saturate([(1, 1)]), b.saturate([(1, 1)])
        assert pi_a == pi_b and hash(pi_a) == hash(pi_b)
        assert build_schur(pi_a) is build_schur(pi_b)

    def test_an_algebra_built_anew_mixes_exactly_with_its_memo(self):
        # the memo key and the key of an algebra are one identity
        pi = preset("A1").saturate([(1,)])
        q_i = CycloField(4)
        points = [RingPoint.cyclotomic(4), RingPoint(q_i, q_i.from_int(-1)),
                  RingPoint.cyclotomic(3), RingPoint.cyclotomic(2),
                  RingPoint.rational(1), RingPoint.rational(-1)]
        for p in points:
            anew = SpecializedSchur(pi, p)
            for q in points:
                memo = specialize_schur(pi, q)
                same = specialize_schur(pi, p) is memo
                assert anew.same_algebra(memo) is same, (p, q)

    def test_elements_of_different_rings_do_not_mix(self):
        pi = preset("A1").saturate([(2,)])
        at_i = specialize_schur(pi, XI_I).one()
        others = [specialize_schur(pi, RingPoint.cyclotomic(3)).one(),
                  specialize_schur(pi, XI_ONE).one(),
                  build_schur(pi).one()]
        for other in others:
            for x, y in ((at_i, other), (other, at_i)):
                with pytest.raises(ValueError):
                    x + y
                with pytest.raises(ValueError):
                    x * y
                assert x != y
        # xi = 1 and xi = 2 share the field Q but not the algebra
        with pytest.raises(ValueError):
            specialize_schur(pi, RingPoint.rational(2)).one() + others[1]
        # an equal point built anew gives the same algebra
        assert specialize_schur(pi, RingPoint.cyclotomic(4)).one() + at_i \
            == at_i.scale(2)

    def test_quantum_two_vanishes_at_fourth_root(self):
        assert qint(2).evaluate(XI_I.xi_pow) == XI_I.field.zero


class TestRelationsOverR:
    @pytest.mark.parametrize("point", [XI_ONE, XI_I],
                             ids=["xi=1", "xi=i"])
    @pytest.mark.parametrize("name", ["A1", "A2", "B2"])
    def test_defining_relations_hold(self, name, point):
        datum = preset(name)
        for mu in dominant_weights_up_to_height(datum, 3):
            S = specialize_schur(datum.saturate([mu]), point)
            report = S.verify_relations()
            assert all(r["ok"] for r in report), (name, mu)


def sat(name, gens):
    return preset(name).saturate([tuple(g) for g in gens])


def all_ok(report):
    return all(row["ok"] for row in report)


def tampered(pi, factor):
    """A copy of the one module of pi with the first entry of E_0 times
    `factor`; the copy skips the module's commutator tripwire."""
    module = copy.copy(build_schur(pi).modules[0])
    e0 = module.e[0]
    r = min(e0)
    c = min(e0[r])
    module.e = [{**e0, r: {**e0[r], c: e0[r][c] * factor}}] + module.e[1:]
    module._dp_cache = {}
    return module


class TestIntegralReport:
    """The defining relations are checked once over Z[v,v^-1]; a
    specialization returns that report when every row passes and runs the
    direct check over its field otherwise."""

    @pytest.mark.parametrize("point", POINTS, ids=POINT_IDS)
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_the_report_is_the_direct_check(self, name, point):
        datum = preset(name)
        for pi in {datum.saturate([mu])
                   for mu in dominant_weights_up_to_height(datum, 3)}:
            S = specialize_schur(pi, point)
            assert S.verify_relations() \
                == S.direct_presentation(), (pi, point)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_the_report_over_q_v_is_the_direct_check(self, name):
        datum = preset(name)
        for mu in dominant_weights_up_to_height(datum, 3):
            S = build_schur(datum.saturate([mu]))
            assert S.verify_presentation() \
                == S.direct_presentation(), mu

    def test_the_fallback_decides_where_the_integral_report_fails(
            self, monkeypatch):
        # [2] = v + v^-1 vanishes at i, so the tampered entry x (1 + [2])
        # is x again there, and 3x at 1
        pi = sat("A2", [(1, 0)])
        bad = tampered(pi, LaurentPoly.const(1) + qint(2))
        monkeypatch.setattr(schur, "weyl_module", lambda datum, lam: bad)
        commutator = [{"relation": "c:commutator", "ok": False,
                       "witness": {"i": 0, "j": 0}}]
        report = integral_report(pi, (bad,))
        assert [row for row in report if not row["ok"]] == commutator
        S = SchurAlgebra(pi)
        assert S.modules == [bad]
        assert S.verify_presentation() == report \
            == S.direct_presentation()

        at_i = SpecializedSchur(pi, XI_I)
        assert at_i.modules == [bad]
        direct = at_i.direct_presentation()
        assert all_ok(direct) and at_i.verify_relations() == direct

        at_one = SpecializedSchur(pi, XI_ONE)
        report = at_one.verify_relations()
        assert report == at_one.direct_presentation()
        assert [row for row in report if not row["ok"]] == commutator

    def test_four_points_share_one_check_and_multiply_nothing_over_r(
            self, monkeypatch):
        pi = sat("A2", [(1, 1)])
        algebras = [SpecializedSchur(pi, point) for point in POINTS]
        integral_report.cache_clear()
        checks, fields = [], []
        check = BlockAlgebra.direct_presentation
        monkeypatch.setattr(BlockAlgebra, "direct_presentation",
                            lambda self: checks.append(self) or check(self))
        for name in ("__mul__", "scale"):
            def spy(self, other, _method=getattr(SchurElement, name)):
                fields.append(self.algebra.field)
                return _method(self, other)
            monkeypatch.setattr(SchurElement, name, spy)
        cyclo = CycloField._mul
        monkeypatch.setattr(CycloField, "_mul", lambda *args: fields.append(
            "cyclotomic") or cyclo(*args))
        for S in algebras:
            assert all_ok(S.verify_relations())
        assert len(checks) == 1 and fields
        assert set(fields) == {LaurentRing}
        # the warm round makes no product at all
        fields.clear()
        assert all_ok(build_schur(pi).verify_presentation())
        assert all(all_ok(S.verify_relations()) for S in algebras)
        assert (len(checks), fields) == (1, [])

    def test_callers_may_change_what_they_get(self, monkeypatch):
        pi = sat("A2", [(1, 0)])
        bad = SchurAlgebra(pi, [tampered(pi, LaurentPoly.const(2))])
        for get in (build_schur(pi).verify_presentation,
                    specialize_schur(pi, XI_I).verify_relations,
                    bad.verify_presentation):
            got = get()
            want = copy.deepcopy(got)
            for row in got:
                row["ok"] = not row["ok"]
                if row["witness"] is not None:
                    row["witness"]["i"] = 7
            got.append(got.pop(0))
            assert get() == want

    def test_a_caller_that_drops_passing_rows_leaves_the_memo_whole(self):
        # flipped rows fail the memoized report, and the direct check
        # answers in its place; dropped rows would still all pass
        pi = sat("A2", [(1, 0)])
        for get in (build_schur(pi).verify_presentation,
                    specialize_schur(pi, XI_I).verify_relations):
            got = get()
            want = copy.deepcopy(got)
            del got[1:]
            assert get() == want

    def test_a_tampered_module_list_never_reuses_the_honest_verdict(self):
        pi = sat("A2", [(1, 0)])
        assert all_ok(build_schur(pi).verify_presentation())
        misses = integral_report.cache_info().misses
        # a copy of the honest record is another key, with its own check
        honest_copy = tampered(pi, LaurentPoly.const(1))
        assert all_ok(SchurAlgebra(pi, [honest_copy]).verify_presentation())
        assert integral_report.cache_info().misses == misses + 1
        bad = tampered(pi, LaurentPoly.const(2))
        assert not all_ok(SchurAlgebra(pi, [bad]).verify_presentation())
        assert integral_report.cache_info().misses == misses + 2
        assert all_ok(build_schur(pi).verify_presentation())
        assert all_ok(specialize_schur(pi, XI_ONE).verify_relations())


def retouched(pi, lam, i, r, c, entry):
    """The modules of pi with entry (r, c) of E_i on L(lam) set to `entry`;
    the copy skips the module's commutator tripwire."""
    modules = list(build_schur(pi).modules)
    k = list(pi).index(lam)
    module = copy.copy(modules[k])
    module.e = list(module.e)
    module.e[i] = {**module.e[i], r: {**module.e[i].get(r, {}), c: entry}}
    module._dp_cache = {}
    modules[k] = module
    return modules


def failing(report):
    return [(row["relation"], row["witness"]) for row in report
            if not row["ok"]]


INTERTWINE = [("b:intertwine", {"i": 0, "sign": 1, "lam": (-1, 1)}),
              ("c:commutator", {"i": 0, "j": 0}),
              ("d:serre", {"i": 0, "j": 1, "sign": 1}),
              ("d:serre", {"i": 1, "j": 0, "sign": 1})]
SERRE = [("c:commutator", {"i": 0, "j": 0}),
         ("d:serre", {"i": 0, "j": 1, "sign": 1})]


class TestTamperedRows:
    """Exact failing rows of the intertwining and Serre relations on a
    tampered module record, over Z[v,v^-1], Q(v) and every point."""

    @pytest.mark.parametrize("gen,lam,entry,rows,rows_at_i", [
        # E_0 also maps the (0,-1) weight space of L(1,0) into (-1,1)
        ((1, 0), (1, 0), (0, 2, 1, LaurentPoly.const(1)), INTERTWINE,
         INTERTWINE),
        # an entry [2] of E_0 on the adjoint module doubled: [2] vanishes at
        # i, so the commutator holds there, but E_0^(2) = E_0^2/[2] still
        # breaks the Serre row
        ((1, 1), (1, 1), (0, 2, 3, qint(2) * 2), SERRE, SERRE[1:]),
    ], ids=["b:intertwine", "d:serre"])
    def test_rows_of_a_tampered_record(self, gen, lam, entry, rows,
                                       rows_at_i):
        pi = sat("A2", [gen])
        modules = retouched(pi, lam, *entry)
        report = integral_report(pi, tuple(modules))
        assert failing(report) == rows
        generic = SchurAlgebra(pi, modules)
        assert generic.verify_presentation() == report \
            == generic.direct_presentation()
        for point in POINTS:
            S = BlockAlgebra(pi, point, modules)
            assert S.verify_presentation() == S.direct_presentation(), point
        assert failing(BlockAlgebra(pi, XI_I, modules).verify_presentation()) \
            == rows_at_i


class TestOrbitWeightedDimension:
    """dim A = sum over the dominant lam in pi of |W lam| dim A 1_lam, by
    the braid symmetries, where the relations and the divided powers of
    the records hold (`BlockAlgebra._realized_dim`)."""

    def test_a_failing_relation_row_runs_the_whole_closure(self):
        # L(2) on A1 with F zero from weight 0 to -2: the commutator fails
        # at v = 1, while F^(2) = F F / [2] = 0 keeps the divided powers
        pi = sat("A1", [(2,)])
        honest = build_schur(pi).modules
        module = copy.copy(honest[1])
        assert module.lam == (2,)
        r, c = module.offsets[(-2,)], module.offsets[(0,)]
        f0 = {k: dict(row) for k, row in module.f[0].items()}
        del f0[r][c]
        module.f = [{k: row for k, row in f0.items() if row}]
        module._dp_cache, module._diag_cache = {}, {}
        modules = [honest[0], module]
        assert not all_ok(integral_report(pi, tuple(modules)))
        assert all(map(schur.divided_powers_agree, modules))
        S = BlockAlgebra(pi, XI_ONE, modules)
        gens = S._generators(1) + S._generators(-1)
        sizes = {lam: len(S._closure(gens, [lam])) for lam in S.orbit}
        assert sizes == {(-2,): 3, (0,): 3, (2,): 2}
        assert sum(len(pi.datum.weyl_orbit(lam)) * sizes[lam]
                   for lam in pi) == 7
        assert S._density_defect is not None
        assert S.dimension() == 8 == len(S._closure(gens))

    def test_a_zero_divided_power_past_a_nonzero_square_is_caught(self):
        # L(2) on A1 with F^(2) = 0 in its cache while F F is not: F looks
        # nilpotent of order 1, every relation row passes, and at i, where
        # F^(2) is a generator, the orbit-weighted sum is 5, not 6
        pi = sat("A1", [(2,)])
        honest = build_schur(pi).modules
        module = copy.copy(honest[1])
        module._dp_cache, module._diag_cache = {(False, 0, 2): {}}, {}
        modules = [honest[0], module]
        assert module.nilpotency(-1, 0) == 1
        assert sparse_mul(module.f[0], module.f[0])
        assert all_ok(integral_report(pi, tuple(modules)))
        assert not schur.divided_powers_agree(module)
        S = BlockAlgebra(pi, XI_I, modules)
        gens = S._generators(1) + S._generators(-1)
        assert sum(len(pi.datum.weyl_orbit(lam))
                   * len(S._closure(gens, [lam])) for lam in pi) == 5
        assert S.dimension() == 6 == len(S._closure(gens))

    def test_one_closure_per_dominant_weight(self, monkeypatch):
        pi = sat("A2", [(2, 1)])
        S = SpecializedSchur(pi, XI_I)
        starts = []
        closure = BlockAlgebra._closure
        monkeypatch.setattr(BlockAlgebra, "_closure",
                            lambda self, gens, start=None:
                            starts.append(start) or closure(self, gens, start))
        assert S.dimension() == 162
        assert starts == [[lam] for lam in pi]
        assert len(pi) < len(S.orbit)

    @pytest.mark.parametrize("name,mu,n", [
        ("A2", (2, 2), 5), ("B2", (1, 1), 5), ("B2", (2, 0), 5),
        ("A2", (1, 1), 6), ("A2", (0, 3), 6), ("B2", (0, 3), 6)])
    def test_closures_are_constant_on_orbits_off_the_spin_points(
            self, name, mu, n):
        datum = preset(name)
        S = SpecializedSchur(datum.saturate([mu]), RingPoint.cyclotomic(n))
        assert S._density_defect is not None
        gens = S._generators(1) + S._generators(-1)
        sizes = {lam: len(S._closure(gens, [lam])) for lam in S.orbit}
        assert all(sizes[lam] == sizes[datum.dominant_representative(lam)]
                   for lam in sizes)
        dim = S.dimension()
        assert dim == sum(sizes.values()) == len(S.basis()) < S.expected_dim


class TestProjectionCommutes:
    def test_a_wrong_generating_power_of_the_larger_algebra_is_caught(
            self, monkeypatch):
        # fresh algebras, so the memoized ones never see the wrong power
        monkeypatch.setattr(intspec, "specialize_schur",
                            functools.cache(SpecializedSchur))
        spec = parse_spec("datum preset A1\npi gens [2]\n"
                          "ring cyclotomic 3\ntask specialize\n")
        pi, point = spec.pi(), spec.ring_point()
        result, _, passed = cli.task_specialize(spec, pi, None, {}, [])
        assert result["projection_commutes"] and passed
        _, pi1, _ = cli._chain(pi)
        big = intspec.specialize_schur(pi1, point)
        small = intspec.specialize_schur(pi, point)
        # [3] vanishes at w3, so E^(3) generates the larger algebra
        assert big._powers == [(0, 1), (0, 3)]
        big._lifts[("Ed", 1, 0, 3)] = (big.divided_power(1, 0, 3)
                                    + big.idempotent((0,)))
        f = intspec.r_truncation_map(pi, pi1, point)
        assert all(f.apply(big.divided_power(sign, 0, k))
                   == small.divided_power(sign, 0, k)
                   for sign in (1, -1) for k in (1, 2))
        result, _, passed = cli.task_specialize(spec, pi, None, {}, [])
        assert not result["projection_commutes"] and not passed


class TestSpecializedTruncation:
    @pytest.mark.parametrize("point", [XI_ONE, XI_I],
                             ids=["xi=1", "xi=i"])
    def test_projection_commutes_with_specialization(self, point):
        a1 = preset("A1")
        pi0 = a1.saturate([(2,)])
        pi1 = pi0.union(a1.saturate([(4,)]))
        f = r_truncation_map(pi0, pi1, point)
        assert all(r["ok"] for r in f.verify())
        big = specialize_schur(pi1, point)
        small = specialize_schur(pi0, point)
        # project the specialization vs specialize the projection: both
        # routes end at the same divided-power matrices over R
        for sign in (1, -1):
            for k in (1, 2):
                assert f.apply(big.divided_power(sign, 0, k)) \
                    == small.divided_power(sign, 0, k)
        with pytest.raises(ValueError):
            f.apply(build_schur(pi1).one())

    def test_r_coherence_of_modified_elements(self):
        a1 = preset("A1")
        chain = [a1.saturate([(2,)])]
        chain.append(chain[0].union(a1.saturate([(3,)])))
        chain.append(chain[1].union(a1.saturate([(4,)])))
        for point in (XI_ONE, XI_I):
            expr = WordExpr.E(0) * WordExpr.idem((0,)) \
                + WordExpr.idem((2,))
            el = theta_dot(a1, expr, point)
            assert verify_coherence(el, chain)["ok"]
            assert verify_coherence(el * point.xi, chain)["ok"]

    def test_cofinal_consistency_of_a_specialized_family(self):
        a1 = preset("A1")
        chain = [a1.saturate([(2,)])]
        chain.append(chain[0].union(a1.saturate([(3,)])))
        chain.append(chain[1].union(a1.saturate([(4,)])))
        other = [a1.saturate([(0,)]), chain[1]]
        w3 = RingPoint.cyclotomic(3)
        el = theta_dot(a1, WordExpr.E(0) * WordExpr.idem((0,)), w3)
        report = cofinal_consistency(el, chain, other)
        assert report["ok"] and len(report["comparisons"]) == 6

        def perturbed(pi):     # wrong on the largest set only
            out = el.at(pi)
            return out + out.algebra.one() if len(pi) == 5 else out
        report = cofinal_consistency(LimitElement(a1, perturbed), chain,
                                     other)
        assert [c["ok"] for c in report["comparisons"]] \
            == [True, True, True, True, False, False]
        # 1_2 at 1 on the smallest set and at 2 above it: equal blocks
        # whose scalars lie in different rings
        at_1, at_2 = (theta_dot(a1, WordExpr.idem((2,)),
                                RingPoint.rational(xi)) for xi in (1, 2))
        assert at_1.at(chain[0]).blocks == at_2.at(chain[1]).blocks[::2]
        report = verify_coherence(LimitElement(
            a1, lambda pi: (at_1 if len(pi) == 2 else at_2).at(pi)), chain)
        assert [link["ok"] for link in report["links"]] == [False, True]

    @pytest.mark.parametrize("point", [RingPoint.rational(2),
                                       RingPoint.cyclotomic(3)],
                             ids=["2", "w3"])
    def test_a_specialized_family_times_a_q_v_scalar(self, point):
        a1 = preset("A1")
        expr = WordExpr.E(0) * WordExpr.idem((0,))
        fam = theta_dot(a1, expr, point)
        pi = a1.saturate([(4,)])
        v = RatFunc.from_poly(LaurentPoly.monomial(1, 1))
        for c in (v, R_ONE / (v + R_ONE), RatFunc(3)):
            want = theta_dot(a1, expr.scale(c), point).at(pi)
            assert (fam * c).at(pi) == want
            assert not want.is_zero()
        # v^2 + v + 1 vanishes at w3: a pole there, a scalar at 2
        c = R_ONE / (v * v + v + R_ONE)
        if point.xi == 2:
            assert (fam * c).at(pi) == theta_dot(
                a1, expr.scale(c), point).at(pi)
        else:
            with pytest.raises(PoleError):
                (fam * c).at(pi)

    def test_specialized_theta_dot_requires_modified(self):
        with pytest.raises(ValueError):
            theta_dot(preset("A1"), WordExpr.E(0), XI_ONE)


def kernel_probe_per_set(datum, degree_bound, height_bound, point):
    """The kernel probe set by set: the specialized algebra of each set of
    the schedule, and every word as the product of its symbols there."""
    alphabet = [("Ed", sign, i, k) for sign in (1, -1)
                for i in range(datum.rank)
                for k in range(1, degree_bound + 1)]
    alphabet += [("K", tuple(h)) for h in datum.simple_coroots]
    words, layer = [()], [()]
    for _ in range(degree_bound):
        layer = [w + (sym,) for w in layer for sym in alphabet]
        words.extend(layer)
    history = []
    ech = SparseEchelon(point.field)
    for mu in dominant_weights_up_to_height(datum, height_bound):
        pi = datum.saturate([mu])
        S = specialize_schur(pi, point)
        rows = {}
        for j, w in enumerate(words):
            for ent, x in reference_eval.word(S, w).flatten().items():
                rows.setdefault(ent, {})[j] = x
        for ent in sorted(rows):
            ech.insert(rows[ent])
        history.append({"pi": list(pi),
                        "kernel_dim": len(words) - ech.rank})
    return {"word_count": len(words), "history": history,
            "final_kernel_dim": history[-1]["kernel_dim"]}


class TestKernelProbe:
    def test_kernel_sequence_is_monotone(self):
        a1 = preset("A1")
        for point in (XI_ONE, XI_I):
            report = kernel_probe_RU(a1, 2, 4, point)
            dims = [h["kernel_dim"] for h in report["history"]]
            assert dims == sorted(dims, reverse=True)
            assert report["final_kernel_dim"] == dims[-1]
            assert report["word_count"] == 31   # 1 + 5 + 25

    def test_known_relations_stay_in_the_kernel_at_xi_one(self):
        # at xi = 1 every K_h acts as the identity, so the word (K) can
        # never be separated from the empty word; the terminal kernel is
        # therefore provably nonzero at any probe depth
        a1 = preset("A1")
        report = kernel_probe_RU(a1, 2, 6, XI_ONE)
        assert report["final_kernel_dim"] > 0

    @pytest.mark.parametrize("name,degree,height,point,final", [
        ("A1", 2, 3, XI_I, 11), ("A1", 2, 4, XI_I, 8),
        ("A1", 2, 3, RingPoint.cyclotomic(3), 13),
        ("A1", 2, 4, RingPoint.cyclotomic(3), 13),
        ("A2", 1, 3, XI_I, None), ("A2", 1, 3, RingPoint.rational(2), None),
    ], ids=["A1-3-i", "A1-4-i", "A1-3-w3", "A1-4-w3", "A2-i", "A2-2"])
    def test_history_matches_the_per_set_reference(
            self, name, degree, height, point, final, monkeypatch):
        datum = preset(name)
        want = kernel_probe_per_set(datum, degree, height, point)
        built = []
        init = BlockAlgebra.__init__

        def spy(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)
        monkeypatch.setattr(BlockAlgebra, "__init__", spy)
        assert kernel_probe_RU(datum, degree, height, point) == want
        assert built == []
        if final is not None:
            assert (want["word_count"], want["final_kernel_dim"]) \
                == (31, final)

    def test_frozen_kernel_history(self):
        a1 = preset("A1")
        r1 = kernel_probe_RU(a1, 2, 4, XI_ONE)
        assert [h["kernel_dim"] for h in r1["history"]] \
            == [30, 26, 18, 16, 14]
        r2 = kernel_probe_RU(a1, 2, 4, XI_I)
        assert [h["kernel_dim"] for h in r2["history"]] \
            == [30, 26, 20, 11, 8]


# SHA-256 of the compact JSON of the monomials and of every integral matrix
# that `check_integrality()` checks, taken from the module's own basis once
# the lowering with divided powers made it the lattice basis (A1adj kept its
# digest: its word basis was already the lattice)
LATTICE_DIGESTS = [
    ("A2", (2, 1),
     "7fe666a7930b3ce19949739beaa7ca4d1aff5231f678e08a60a0b883b4e32b05"),
    ("B2", (1, 1),
     "822f3a085b3042c2d5eef0e6107d8d2cf96dcb65070df54c2577f3ca57ac7dca"),
    ("A1adj", (2,),
     "0b3cb963bf7841701dbba692a42112fdcb97e3c74aabe42c246f2a719939fe35"),
    ("A1xA1", (1, 1),
     "e5fc83eb44eef0fff6395f3309bfdfdc725e7d75fef343bbc24d1478647bf9e7"),
]


@pytest.mark.parametrize("name,lam,digest", LATTICE_DIGESTS,
                         ids=[f"{n}-{lam}" for n, lam, _ in LATTICE_DIGESTS])
def test_lattice_matrices_are_pinned(name, lam, digest):
    lb = lattice_basis(weyl_module(preset(name), lam))
    mats = [[sign, i, k,
             sorted([r, c, sorted(x.coeffs.items())]
                    for r, row in lb.module.divided_power(sign, i, k).items()
                    for c, x in row.items())]
            for sign, i, k in lb.check_integrality()]
    text = json.dumps({"monomials": lb.monomials, "matrices": mats},
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the greedy lattice selection, kept as an oracle -------------------------
#
# Before the construction lowered with divided powers, the lattice was found
# after the fact: two greedy selections of divided-power monomial images,
# each expressed in the other with Laurent entries.  Both selections must
# still express in the module basis, and it in them, with Laurent entries.
# The oracle works over Q(v), so it lifts the module matrices there.

_F = RatFuncField


class LatticeError(ValueError):
    """Raised when a selection is not a basis of the module."""


def _greedy_select(module, reverse=False):
    """Greedy rank-extending selection of divided-power monomial images
    (sparse vectors), grouped by weight.  `reverse` flips the generator
    enumeration order to produce an independent second selection."""
    datum = module.datum
    r = datum.rank
    chosen = {nu: [] for nu in module.weights}
    picked = 0
    echelons = {nu: SparseEchelon(_F) for nu in module.weights}

    hw = {module.offsets[module.lam]: _F.one}
    frontier = [((), hw, module.lam)]
    echelons[module.lam].insert(hw)
    chosen[module.lam].append(((), hw))
    picked += 1
    indices = list(range(r))
    if reverse:
        indices.reverse()
    while frontier:
        nxt = []
        for mono, vec, nu in sorted(frontier, key=lambda t: t[0]):
            for i in indices:
                if mono and mono[0][0] == i:
                    continue
                alpha = datum.simple_roots[i]
                steps = []
                a = 1
                while True:
                    target = tuple(x - a * al for x, al in zip(nu, alpha))
                    if target not in module.offsets:
                        break
                    nv = _apply(sparse_map(RatFunc.from_poly,
                                           module.divided_power(-1, i, a)),
                                vec)
                    if not nv:
                        break
                    steps.append((a, target, nv))
                    a += 1
                if reverse:
                    steps.reverse()
                for a, target, nv in steps:
                    nm = ((i, a),) + mono
                    nxt.append((nm, nv, target))
                    if echelons[target].insert(nv):
                        chosen[target].append((nm, nv))
                        picked += 1
        frontier = nxt
    if picked != module.dim:
        raise LatticeError(
            f"monomial images span rank {picked} < dim {module.dim} "
            f"for highest weight {module.lam}")
    return chosen


def _apply(mat, vec):
    """A sparse matrix times a sparse vector."""
    col = sparse_mul(mat, {c_: {0: x} for c_, x in vec.items()})
    return {r_: row[0] for r_, row in col.items()}


def _flatten(module, chosen):
    """The chosen vectors in module weight order."""
    return [vec for nu in module.weights for _, vec in chosen[nu]]


def _coordinates(module, vectors, what):
    """The coordinates of every module basis vector e_p in `vectors`, as
    sparse rows {p: {n: x}}; the coordinates of w are sum_p w[p] * row p.
    Raises LatticeError, prefixed by `what`, unless `vectors` is a basis.

    Vector n enters one echelon with the unit tag dim + n, past every module
    index (weight spaces have disjoint supports, so one echelon serves every
    weight).  For a basis every module index is a pivot, and its fully
    reduced row is e_p plus the coordinates of e_p on the tags."""
    off = module.dim
    ech = SparseEchelon(_F)
    for n, vec in enumerate(vectors):
        ech.insert({**vec, off + n: _F.one})
    if set(ech.pivots) != set(range(off)):
        raise LatticeError(f"{what}: the selected vectors are not a basis")
    return {p: {k - off: x for k, x in row.items() if k >= off}
            for p, row in ech.pivots.items()}


GREEDY_SETS = [(name, lam) for name, lam, _ in LATTICE_DIGESTS]


@pytest.mark.parametrize("name,lam", GREEDY_SETS,
                         ids=[f"{n}-{lam}" for n, lam in GREEDY_SETS])
def test_greedy_selections_span_the_module_lattice(name, lam):
    datum = preset(name)
    # lam and every dominant weight below it
    for mu in datum.saturate([lam]):
        module = weyl_module(datum, mu)
        for reverse in (False, True):
            vectors = _flatten(module, _greedy_select(module, reverse))
            # the selection in the module basis, and the module basis in it
            for vec in vectors:
                assert all(is_integral(x) is not None
                           for x in vec.values()), (name, mu, reverse)
            coords = _coordinates(module, vectors, "oracle")
            assert all(is_integral(x) is not None
                       for row in coords.values() for x in row.values()), \
                (name, mu, reverse)
