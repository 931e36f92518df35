"""Coherent families, the two embeddings, limit-level identity checks and
separation probes."""

import copy
import itertools
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import schur, ulimit, weylmod
from qschur.jobspec import parse_spec
from qschur.laurent import R_ONE, LaurentPoly, RatFunc, RatFuncField, qint
from qschur.rootdata import (PRESET_NAMES, RootDatum,
                             dominant_weights_up_to_height, preset)
from qschur.schur import BlockAlgebra, SchurAlgebra, build_schur
from qschur.ulimit import (LimitElement, check_Kh_identity, check_u_relations,
                           cofinal_consistency, coherent_basis_check, hat_E,
                           hat_K, hat_divided, hat_one, probe_schedule,
                           separation_probe, theta, theta_dot,
                           verify_coherence)
from qschur.weylmod import weyl_module
from qschur.words import WordExpr

import reference_eval

EXPECTED_PROBE = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                              "bench", "expected_probe.json")


# G2 in its `datum matrix` form, next to the presets
G2 = parse_spec("datum matrix 2,-3;-3,6").datum()


def datum_of(name):
    return G2 if name == "G2" else preset(name)


def a1_chain():
    a1 = preset("A1")
    pi0 = a1.saturate([(2,)])
    pi1 = pi0.union(a1.saturate([(3,)]))
    pi2 = pi1.union(a1.saturate([(4,)]))
    return a1, [pi0, pi1, pi2]


class TestCoherence:
    def test_hat_generators_are_coherent(self):
        datum, chain = a1_chain()
        for el in (hat_E(datum, 1, 0), hat_E(datum, -1, 0),
                   hat_K(datum, (1,)), hat_one(datum, (2,)),
                   hat_divided(datum, 1, 0, 2)):
            assert verify_coherence(el, chain)["ok"]

    def test_sums_and_products_stay_coherent(self):
        datum, chain = a1_chain()
        e, f = hat_E(datum, 1, 0), hat_E(datum, -1, 0)
        assert verify_coherence(e + f, chain)["ok"]
        assert verify_coherence(e * f - f * e, chain)["ok"]

    def test_corrupted_evaluator_is_caught(self):
        datum, chain = a1_chain()

        def broken(pi):
            S = build_schur(pi)
            if len(list(pi)) > 2:
                return S.one()
            return S.generator(1, 0)

        report = verify_coherence(LimitElement(datum, broken), chain)
        assert not report["ok"]
        assert any(link["witness"] for link in report["links"])

    def test_chain_must_be_nested(self):
        datum, chain = a1_chain()
        with pytest.raises(ValueError):
            verify_coherence(hat_K(datum, (1,)), [chain[2], chain[0]])

    def test_a_chain_across_root_data_is_not_nested(self):
        a2, b2 = preset("A2"), preset("B2")
        chain = [a2.saturate([(1, 0)]), b2.saturate([(1, 0)])]
        with pytest.raises(ValueError, match="chain is not nested"):
            verify_coherence(hat_K(a2, (1, 0)), chain)

    def test_cofinal_consistency_across_two_chains(self):
        datum, chain = a1_chain()
        other = [datum.saturate([(0,)]), chain[1]]
        el = hat_E(datum, 1, 0) * hat_K(datum, (1,))
        report = cofinal_consistency(el, chain, other)
        assert report["ok"]
        assert report["comparisons"]

    def test_memoization_is_transparent(self):
        datum, chain = a1_chain()
        memo = hat_E(datum, 1, 0)
        for pi in chain:
            assert memo.at(pi) == build_schur(pi).generator(1, 0)
            assert memo.at(pi) == build_schur(pi).generator(1, 0)  # memo hit


class TestEmbeddings:
    def test_theta_is_multiplicative_on_words(self):
        datum, chain = a1_chain()
        x = WordExpr.E(0) * WordExpr.K((1,))
        y = WordExpr.F(0) + WordExpr.divided(0, 2)
        for pi in chain:
            lhs = theta(datum, x * y).at(pi)
            rhs = theta(datum, x).at(pi) * theta(datum, y).at(pi)
            assert lhs == rhs

    def test_theta_is_additive(self):
        datum, chain = a1_chain()
        x, y = WordExpr.E(0), WordExpr.divided(0, 2, -1)
        for pi in chain:
            assert theta(datum, x + y).at(pi) \
                == theta(datum, x).at(pi) + theta(datum, y).at(pi)

    def test_theta_dot_requires_modified_expression(self):
        datum, _ = a1_chain()
        with pytest.raises(ValueError):
            theta_dot(datum, WordExpr.E(0))
        el = theta_dot(datum, WordExpr.E(0) * WordExpr.idem((0,)))
        assert el is not None

    def test_theta_dot_multiplicative(self):
        a2 = preset("A2")
        x = WordExpr.E(0) * WordExpr.idem((1, 1))
        y = WordExpr.idem((1, 1)) * WordExpr.F(1)
        pi = a2.saturate([(1, 1)])
        lhs = theta_dot(a2, x * y).at(pi)
        rhs = theta_dot(a2, x).at(pi) * theta_dot(a2, y).at(pi)
        assert lhs == rhs


class TestLimitIdentities:
    @pytest.mark.parametrize("name", ["A1", "A1adj", "A1xA1", "A2", "B2"])
    def test_k_is_weighted_idempotent_sum(self, name):
        datum = preset(name)
        for mu in dominant_weights_up_to_height(datum, 4):
            report = check_Kh_identity(datum.saturate([mu]))
            assert all(r["ok"] for r in report), (name, mu)

    @pytest.mark.parametrize("name", ["A1", "A2", "B2"])
    def test_unmodified_relations_project_correctly(self, name):
        datum = preset(name)
        for mu in dominant_weights_up_to_height(datum, 3):
            report = check_u_relations(datum.saturate([mu]))
            assert all(r["ok"] for r in report), (name, mu)

    @staticmethod
    def _commutator_and_serre(report):
        return [row for row in report
                if row["relation"] in ("c:commutator", "d:serre")]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_commutator_and_serre_rows_are_the_presentation_rows(self, name):
        datum = preset(name)
        for pi in {datum.saturate([mu])
                   for mu in dominant_weights_up_to_height(datum, 4)}:
            assert self._commutator_and_serre(check_u_relations(pi)) \
                == self._commutator_and_serre(
                    build_schur(pi).verify_presentation()), pi

    def test_a_failing_commutator_row_is_the_presentation_row(
            self, monkeypatch):
        # the first entry of E_0 on A2 L(1,0) times 1 + [2] breaks (c)
        pi = preset("A2").saturate([(1, 0)])
        module = copy.copy(build_schur(pi).modules[0])
        e0 = module.e[0]
        r = min(e0)
        c = min(e0[r])
        factor = LaurentPoly.const(1) + qint(2)
        module.e = [{**e0, r: {**e0[r], c: e0[r][c] * factor}}] + module.e[1:]
        module._dp_cache = {}
        monkeypatch.setattr(schur, "weyl_module", lambda datum, lam: module)
        S = SchurAlgebra(pi)
        monkeypatch.setattr(ulimit, "build_schur", lambda pi: S)
        rows = self._commutator_and_serre(check_u_relations(pi))
        assert rows == self._commutator_and_serre(S.verify_presentation())
        assert [row for row in rows if not row["ok"]] == [
            {"relation": "c:commutator", "ok": False,
             "witness": {"i": 0, "j": 0}}]

    def test_truncated_presentation_alias(self):
        a1 = preset("A1")
        report = build_schur(a1.saturate([(2,)])).verify_presentation()
        assert all(r["ok"] for r in report)


def unfiltered_probe(datum, expr, height_bound):
    """The probe with no weight filter: it evaluates every scheduled set."""
    el = theta_dot(datum, expr)
    for pi in probe_schedule(datum, height_bound):
        if not el.at(pi).is_zero():
            return pi
    return None


def criterion_six(datum, max_height):
    """1_lam, E_i^(a) 1_lam and F_i^(a) 1_lam for a <= 2 and lam up to the
    height, each with a probe height that reaches the weight it needs."""
    for lam in dominant_weights_up_to_height(datum, max_height):
        yield WordExpr.idem(lam), max(6, datum.height(lam))
        for a in (1, 2):
            for i in range(datum.rank):
                for sign in (1, -1):
                    shifted = tuple(x + sign * a * y for x, y
                                    in zip(lam, datum.simple_roots[i]))
                    need = datum.dominant_representative(shifted)
                    yield (WordExpr.divided(i, a, sign) * WordExpr.idem(lam),
                           max(6, datum.height(need)))


def two_index(datum, max_height):
    """F_j F_i^(a) 1_lam for i != j, a <= 2 and lam up to the height, each
    with a probe height that reaches every weight of its path."""
    for lam in dominant_weights_up_to_height(datum, max_height):
        for a in (1, 2):
            for i in range(datum.rank):
                for j in set(range(datum.rank)) - {i}:
                    expr = (WordExpr.F(j) * WordExpr.divided(i, a, -1)
                            * WordExpr.idem(lam))
                    (word,) = expr.terms
                    yield expr, max(6, *(
                        datum.height(datum.dominant_representative(nu))
                        for nu in ulimit._weight_path(datum, word)))


@st.composite
def words_on_sets(draw):
    """A datum, a word of at most 4 symbols with at least one idempotent,
    and a principal saturated set up to height 4; the idempotents are
    often weights of the set."""
    datum = preset(draw(st.sampled_from(("A1", "A2", "B2"))))
    pi = datum.saturate([draw(st.sampled_from(
        dominant_weights_up_to_height(datum, 4)))])
    return datum, draw_word(draw, datum, pi.orbit_weights()), pi


@st.composite
def one_index_words(draw):
    """A preset or G2, a principal set up to height 4 (10 on G2, whose
    fundamental weights have heights 6 and 10), and a word of at most 4
    symbols whose E and Ed symbols all carry one index."""
    name = draw(st.sampled_from(PRESET_NAMES + ("G2",)))
    datum = datum_of(name)
    pi = datum.saturate([draw(st.sampled_from(dominant_weights_up_to_height(
        datum, 10 if name == "G2" else 4)))])
    index = draw(st.integers(0, datum.rank - 1))
    return datum, draw_word(draw, datum, pi.orbit_weights(), index), pi


def draw_word(draw, datum, weights, index=None):
    """A word of at most 4 symbols with at least one idempotent, whose
    idempotents are often among `weights`, and whose E and Ed symbols
    carry `index` where one is given."""
    weight = st.one_of(st.sampled_from(sorted(weights)),
                       st.tuples(*[st.integers(-4, 4)] * datum.rank_x))
    sign = st.sampled_from((1, -1))
    i = st.integers(0, datum.rank - 1) if index is None else st.just(index)
    coweight = st.sampled_from(
        [(0,) * datum.rank_x] + list(datum.simple_coroots))
    symbol = st.one_of(st.tuples(st.just("E"), sign, i),
                       st.tuples(st.just("Ed"), sign, i, st.integers(1, 3)),
                       st.tuples(st.just("K"), coweight),
                       st.tuples(st.just("1"), weight))
    word = draw(st.lists(symbol, min_size=1, max_size=4))
    if not any(sym[0] == "1" for sym in word):
        word[draw(st.integers(0, len(word) - 1))] = ("1", draw(weight))
    return tuple(word)


@st.composite
def modified_exprs(draw):
    """A preset, and one word or a sum of two words of the modified form
    with coefficients among 1, -1, v and 1/[2], whose idempotents are
    often weights of the sets of the probe schedule up to height 4."""
    datum = preset(draw(st.sampled_from(PRESET_NAMES)))
    weights = frozenset().union(
        *(pi.orbit_weights() for pi in probe_schedule(datum, 4)))
    coeff = st.sampled_from((R_ONE, RatFunc(-1), RatFunc.from_poly(
        LaurentPoly.monomial(1, 1)), R_ONE / RatFunc.from_poly(qint(2))))
    expr = WordExpr()
    for _ in range(draw(st.integers(1, 2))):
        expr = expr + WordExpr({draw_word(draw, datum, weights):
                                draw(coeff)})
    return datum, expr


class TestProbes:
    def test_schedule_is_cofinal_over_window(self):
        a1 = preset("A1")
        sched = probe_schedule(a1, 4)
        for mu in dominant_weights_up_to_height(a1, 4):
            assert any(mu in pi for pi in sched)

    @pytest.mark.parametrize("name", ["A1xA1", "A2", "B2"])
    def test_a_lower_schedule_is_a_prefix_of_the_same_sets(self, name):
        datum = preset.__wrapped__(name)  # fresh, empty tables
        heights = [6, 2, 8, 0, 4, 7]      # neither rising nor falling
        scheds = {h: probe_schedule(datum, h) for h in heights}
        for lo, hi in itertools.combinations(sorted(heights), 2):
            low, high = scheds[lo], scheds[hi]
            assert len(low) <= len(high)
            assert all(a is b for a, b in zip(low, high)), (lo, hi)
        assert [pi.elements[-1] for pi in scheds[8]] \
            == dominant_weights_up_to_height(datum, 8)

    @pytest.mark.parametrize("name", ["A1xA1", "A2", "B2"])
    def test_each_scheduled_set_belongs_to_the_datum_asked(self, name):
        # an equal datum built anew gets its own sets, not the preset's
        probe_schedule(preset(name), 6)
        datum = preset.__wrapped__(name)
        assert datum == preset(name) and datum is not preset(name)
        for bound in (6, 4):
            for pi in probe_schedule(datum, bound):
                assert pi.datum is datum
                assert datum.saturate([pi.elements[-1]]) is pi

    def test_separation_finds_idempotents(self):
        a1 = preset("A1")
        pi = separation_probe(a1, WordExpr.idem((4,)), 4)
        assert pi is not None
        assert (4,) in pi
        pi = separation_probe(a1, WordExpr.idem((1,)), 4)
        assert list(pi) == [(1,)]

    def test_separation_family_height_4(self):
        # every element of {1_lam, E^(a)1_lam, F^(b)1_lam} is nonzero in
        # the modified form, and a schedule tall enough to contain the
        # shifted weight must separate it
        for name in ("A1", "A2"):
            datum = preset(name)
            for expr, bound in criterion_six(datum, 4):
                found = separation_probe(datum, expr, bound)
                assert found is not None, (name, expr)

    def test_coherent_family_spans_small_algebra(self):
        a1 = preset("A1")
        pi = a1.saturate([(1,)])
        exprs = [WordExpr.idem((1,)), WordExpr.idem((-1,))]
        exprs += [WordExpr.E(0) * WordExpr.idem((-1,)),
                  WordExpr.F(0) * WordExpr.idem((1,)),
                  WordExpr.E(0) * WordExpr.idem((3,))]
        report = coherent_basis_check(a1, exprs, pi)
        assert report["dimension"] == 4
        assert report["rank"] == 4
        assert report["spanning"]


class TestWeightFilter:
    def test_weight_path(self):
        a2 = preset("A2")
        path = ulimit._weight_path
        # E_0^(2) acts after 1_0: 0 + 2 alpha_0
        assert path(a2, (("Ed", 1, 0, 2), ("1", (0, 0)))) \
            == {(0, 0), (4, -2)}
        # F_1 acts before 1_lam, from lam + alpha_1; K keeps the weight
        assert path(a2, (("1", (1, 0)), ("K", (1, 0)), ("E", -1, 1))) \
            == {(1, 0), (0, 2)}
        assert path(a2, (("1", (0, 2)), ("E", 1, 1), ("1", (1, 0)))) \
            == {(0, 2), (1, 0)}
        assert path(a2, (("1", (1, 0)), ("E", 1, 1), ("1", (1, 0)))) is None

    @settings(max_examples=150, deadline=None)
    @given(words_on_sets())
    def test_a_word_zero_by_weights_is_zero(self, case):
        datum, word, pi = case
        path = ulimit._weight_path(datum, word)
        if path is None or not path <= pi.orbit_weights():
            expr = WordExpr({word: 1})
            assert build_schur(pi).evaluate_expr(expr).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(one_index_words())
    def test_a_one_index_word_is_nonzero_exactly_on_its_weights(self, case):
        # the proof that lets a probe of such a word build nothing, against
        # the word's exact block on the top module
        datum, word, pi = case
        path = ulimit._weight_path(datum, word)
        block = schur.expr_block(weyl_module(datum, pi.elements[-1]),
                                 WordExpr({word: 1}), RatFuncField)
        assert bool(block) == (path is not None
                               and path <= pi.orbit_weights()), (pi, word)

    @pytest.mark.parametrize("name", PRESET_NAMES + ("G2",))
    def test_hits_match_the_unfiltered_probe(self, name):
        datum = datum_of(name)
        for expr, bound in criterion_six(datum, 3):
            found = separation_probe(datum, expr, bound)
            assert found is not None, (name, expr)
            assert found == unfiltered_probe(datum, expr, bound), expr

    @pytest.mark.parametrize("expr,hit", [
        # a sum of two words: the second is nonzero first
        (WordExpr.divided(0, 2) * WordExpr.idem((0, 0))
         + WordExpr.F(1) * WordExpr.idem((1, 1)), [(0, 0), (1, 1)]),
        # two idempotents that agree: 1_(0,2) E_1 1_(1,0)
        (WordExpr.idem((0, 2)) * WordExpr.E(1) * WordExpr.idem((1, 0)),
         [(1, 0), (0, 2)]),
        # two that disagree: zero in the modified form
        (WordExpr.idem((1, 0)) * WordExpr.E(1) * WordExpr.idem((1, 0)),
         None),
        # one-index words that cancel: E_0 F_0 - F_0 E_0 = [2] on 1_(2,0)
        ((WordExpr.E(0) * WordExpr.F(0) - WordExpr.F(0) * WordExpr.E(0)
          - WordExpr({(): RatFunc.from_poly(qint(2))}))
         * WordExpr.idem((2, 0)), None),
    ], ids=["sum", "agree", "disagree", "commutator"])
    def test_words_and_sums_match_the_unfiltered_probe(self, expr, hit):
        a2 = preset("A2")
        found = separation_probe(a2, expr, 6)
        assert found == unfiltered_probe(a2, expr, 6)
        assert (None if found is None else list(found)) == hit

    def test_unmodified_expression_is_refused_first(self):
        with pytest.raises(ValueError, match="modified"):
            separation_probe(preset("A1"), WordExpr.E(0), 4)

    @pytest.mark.parametrize("name", ["A2", "B2"])
    def test_each_probe_evaluates_only_its_hit(self, name, monkeypatch):
        calls = []
        at = LimitElement.at

        def spy(self, pi):
            calls.append(pi)
            return at(self, pi)
        monkeypatch.setattr(LimitElement, "at", spy)
        datum = preset(name)
        # a word with two indices is evaluated; the weights skip every set
        # before its hit
        for expr, bound in two_index(datum, 4):
            calls.clear()
            found = separation_probe(datum, expr, bound)
            assert found is not None and calls == [found], expr


class TestTopBlock:
    """A probe evaluates each set it does not skip on the module of its
    top weight only (`schur.expr_block`), and a probe of a one-index word
    evaluates none."""

    @settings(max_examples=100, deadline=None)
    @given(modified_exprs())
    def test_top_block_matches_the_full_algebra(self, case):
        datum, expr = case
        found = separation_probe(datum, expr, 4)
        assert found == unfiltered_probe(datum, expr, 4)
        for pi in probe_schedule(datum, 4):
            top = schur.expr_block(weyl_module(datum, pi.elements[-1]),
                                   expr, RatFuncField)
            block = reference_eval.expr(build_schur(pi), expr).blocks[-1]
            assert top == block, (pi, expr)

    @staticmethod
    def spy_on_building(monkeypatch):
        """Clear the module and algebra memos and record each evaluation,
        lowered vector and block algebra from here on."""
        seen = {"at": [], "lowered": [], "built": []}
        at, init, lower = (LimitElement.at, BlockAlgebra.__init__,
                           weylmod._lower)

        def at_spy(self, pi):
            seen["at"].append(pi)
            return at(self, pi)

        def init_spy(self, *args, **kwargs):
            seen["built"].append(args[0])
            init(self, *args, **kwargs)

        def lower_spy(*args):
            basis = lower(*args)
            seen["lowered"].extend(basis)
            return basis
        monkeypatch.setattr(LimitElement, "at", at_spy)
        monkeypatch.setattr(BlockAlgebra, "__init__", init_spy)
        monkeypatch.setattr(weylmod, "_lower", lower_spy)
        weyl_module.cache_clear()
        build_schur.cache_clear()
        return seen

    def test_a_one_index_round_builds_nothing(self, monkeypatch):
        seen = self.spy_on_building(monkeypatch)
        with open(EXPECTED_PROBE) as fh:
            hits = json.load(fh)
        names = set()
        for name in ("A2", "B2"):
            datum = preset(name)
            for expr, bound in criterion_six(datum, 4):
                found = separation_probe(datum, expr, bound)
                names.add(probe_name(name, expr))
                assert [list(w) for w in found] \
                    == hits[probe_name(name, expr)], expr
        assert names == hits.keys()
        assert seen == {"at": [], "lowered": [], "built": []}
        assert weyl_module.cache_info().currsize == 0

    def test_a_round_builds_the_top_modules_and_no_algebra(
            self, monkeypatch):
        # a round of reads of each hit's top block, as a probe that
        # evaluated its hit would make
        seen = self.spy_on_building(monkeypatch)
        with open(EXPECTED_PROBE) as fh:
            hits = json.load(fh)
        for name in ("A2", "B2"):
            datum = preset(name)
            for expr, _ in criterion_six(datum, 4):
                top = tuple(hits[probe_name(name, expr)][-1])
                assert schur.expr_block(weyl_module(datum, top), expr,
                                        RatFuncField), expr
        # the whole algebras of the hit sets hold 37 modules; the words
        # read E or F on each of the 32 top modules, which is lowered whole:
        # 785 basis vectors, the 32 highest vectors among them
        assert weyl_module.cache_info().currsize == 32
        assert 32 + len(seen["lowered"]) == 785
        assert seen["built"] == []

    def test_a_round_saturates_each_principal_set_once(self, monkeypatch):
        # the schedule of each probe height repeats the principal sets of
        # the lower ones, and each module asks for its own for its weights
        calls = []
        body = RootDatum._saturate

        def spy(self, gens):
            calls.append((self.key(), gens))
            return body(self, gens)
        monkeypatch.setattr(RootDatum, "_saturate", spy)
        weyl_module.cache_clear()
        tops = set()
        for name in ("A2", "B2"):
            datum = preset.__wrapped__(name)  # fresh, empty tables
            for expr, bound in criterion_six(datum, 4):
                separation_probe(datum, expr, bound)
                tops |= {(datum.key(), pi.elements[-1])
                         for pi in probe_schedule(datum, bound)}
        assert len(calls) == len(set(calls))
        assert tops <= {(key, top) for key, (top,) in calls}


def probe_name(name, expr):
    """The name of a probe of `criterion_six` in bench/expected_probe.json."""
    (word,) = expr.terms
    lam = list(word[-1][1])
    if len(word) == 1:
        return f"{name} 1_{lam}"
    _, sign, i, a = word[0]
    return f"{name} {'E' if sign > 0 else 'F'}{i}^({a})1_{lam}"
