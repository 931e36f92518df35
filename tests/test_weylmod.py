"""Highest-weight modules: dimensions and multiplicities against the two
independent character oracles, generator relations, divided powers, and
the module matrices pinned by digest."""

import hashlib
import json
from functools import cache
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import laurent, schur, weylmod
from qschur.cache import serialize_algebra
from qschur.jobspec import parse_spec
from qschur.laurent import LaurentPoly, RatFunc, qbinom, qint
from qschur.linalg import sparse_add, sparse_mul, sparse_scale, sparse_sub
from qschur.rootdata import PRESET_NAMES, CartanDatum, \
    dominant_weights_up_to_height, preset, simply_connected
from qschur.schur import SchurAlgebra, build_schur
from qschur.weylmod import (HighestWeightModule, ModuleCheckError,
                            TensorModule, WeylModule, freudenthal_oracle,
                            weyl_dim_oracle, weyl_module, word_matrix)

ALL_PRESETS = list(PRESET_NAMES)
G2 = simply_connected(CartanDatum(((2, -3), (-3, 6))))


def modules_up_to_height(name, bound):
    datum = preset(name)
    for lam in dominant_weights_up_to_height(datum, bound):
        yield datum, lam


class TestOracles:
    def test_weyl_dimension_formula_known_values(self):
        a1 = preset("A1")
        assert [weyl_dim_oracle(a1, (m,)) for m in range(5)] \
            == [1, 2, 3, 4, 5]
        a2 = preset("A2")
        assert weyl_dim_oracle(a2, (1, 0)) == 3
        assert weyl_dim_oracle(a2, (0, 1)) == 3
        assert weyl_dim_oracle(a2, (1, 1)) == 8
        assert weyl_dim_oracle(a2, (2, 0)) == 6
        assert weyl_dim_oracle(a2, (2, 2)) == 27
        b2 = preset("B2")
        assert weyl_dim_oracle(b2, (1, 0)) == 5   # vector repn
        assert weyl_dim_oracle(b2, (0, 1)) == 4   # spin repn
        assert weyl_dim_oracle(b2, (1, 1)) == 16
        x = preset("A1xA1")
        assert weyl_dim_oracle(x, (2, 3)) == 12

    def test_freudenthal_totals_match_weyl_formula(self):
        for name in ALL_PRESETS:
            datum = preset(name)
            for lam in dominant_weights_up_to_height(datum, 6):
                mults = freudenthal_oracle(datum, lam)
                assert sum(mults.values()) == weyl_dim_oracle(datum, lam), \
                    (name, lam)

    def test_freudenthal_known_multiplicities(self):
        a2 = preset("A2")
        mults = freudenthal_oracle(a2, (1, 1))
        assert mults[(0, 0)] == 2          # adjoint: zero weight twice
        assert mults[(1, 1)] == 1
        mults = freudenthal_oracle(a2, (2, 2))
        assert mults[(0, 0)] == 3
        b2 = preset("B2")
        # the 16-dimensional module sits in the spin coset: no zero weight
        mults = freudenthal_oracle(b2, (1, 1))
        assert (0, 0) not in mults
        assert mults[(-1, 1)] == 2
        # the adjoint (two times the short fundamental weight) has it twice
        assert freudenthal_oracle(b2, (0, 2))[(0, 0)] == 2


class TestModuleConstruction:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_dims_and_multiplicities_match_oracles(self, name):
        for datum, lam in modules_up_to_height(name, 6):
            m = weyl_module(datum, lam)
            assert m.dim == weyl_dim_oracle(datum, lam), (name, lam)
            assert m.dims == freudenthal_oracle(datum, lam), (name, lam)

    def test_a1_weights_of_delta2(self):
        a1 = preset("A1")
        m = weyl_module(a1, (2,))
        assert m.weights == [(2,), (0,), (-2,)]
        assert m.dims == {(2,): 1, (0,): 1, (-2,): 1}

    def test_a_non_dominant_weight_is_refused(self):
        with pytest.raises(ValueError, match="not dominant"):
            weyl_module(preset("A2"), (-1, 1))

    def test_highest_weight_space_is_a_line(self):
        for name in ALL_PRESETS:
            for datum, lam in modules_up_to_height(name, 4):
                m = weyl_module(datum, lam)
                assert m.dims[lam] == 1

    def test_gram_radical_kills_reducible_verma_layer(self):
        # the Verma module of omega1 has a vector F_2 m at omega1 - alpha2,
        # but E_2 F_2 m = [<h_2, omega1>] m = 0: the weight lies outside
        # Delta(omega1), and F_2 kills the highest vector
        a2 = preset("A2")
        nu = (2, -2)                     # omega1 - alpha2
        m = weyl_module(a2, (1, 0))
        assert nu not in m.dims
        assert all(0 not in row for row in m.f[1].values())


def _serre_sum(m, sign, i, j, n):
    """sum_s (-1)^s X_i^(s) X_j X_i^(n-s) on the module, X = E or F."""
    total = {}
    for s in range(n + 1):
        term = sparse_mul(m.divided_power(sign, i, s),
                          sparse_mul(m.divided_power(sign, j, 1),
                                     m.divided_power(sign, i, n - s)))
        total = (sparse_sub if (n - s) % 2 else sparse_add)(total, term)
    return total


def _check_commutator(datum, m):
    # E_i F_j - F_j E_i = delta_ij [<h_i, nu>]_i on each weight space
    for i in range(datum.rank):
        for j in range(datum.rank):
            e, f = m.divided_power(1, i, 1), m.divided_power(-1, j, 1)
            comm = sparse_sub(sparse_mul(e, f), sparse_mul(f, e))
            expect = {}
            if i == j:
                d = datum.cartan.d(i)
                for nu in m.weights:
                    c = qint(datum.pair_i(i, nu), d)
                    off = m.offsets[nu]
                    for a in range(off, off + m.dims[nu]):
                        if c:
                            expect[a] = {a: c}
            assert comm == expect, (m, i, j)


def _check_serre(datum, m):
    for i in range(datum.rank):
        for j in range(datum.rank):
            if i != j:
                n = 1 - datum.pair_i(i, datum.simple_roots[j])
                for sign in (1, -1):
                    assert _serre_sum(m, sign, i, j, n) == {}, (m, i, j)


class TestRelationsOnModules:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_commutator_relation(self, name):
        for datum, lam in modules_up_to_height(name, 4):
            _check_commutator(datum, weyl_module(datum, lam))

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_serre_relation(self, name):
        for datum, lam in modules_up_to_height(name, 4):
            _check_serre(datum, weyl_module(datum, lam))

    @pytest.mark.parametrize("name", ["A1", "A2", "B2"])
    def test_divided_power_product_rule(self, name):
        # E^(a) E^(b) = [a+b choose a]_i E^(a+b)
        for datum, lam in modules_up_to_height(name, 3):
            m = weyl_module(datum, lam)
            for i in range(datum.rank):
                d = datum.cartan.d(i)
                for sign in (1, -1):
                    for a in (1, 2):
                        for b in (1, 2):
                            lhs = sparse_mul(m.divided_power(sign, i, a),
                                             m.divided_power(sign, i, b))
                            rhs = m.divided_power(sign, i, a + b)
                            if rhs:
                                rhs = sparse_scale(qbinom(a + b, a, d), rhs)
                            assert lhs == rhs, (name, lam, i, sign, a, b)

    def test_nilpotency_window(self):
        # on Delta(m) for A1, E^(m+1) acts as zero and E^(m) does not
        a1 = preset("A1")
        for mval in range(1, 5):
            m = weyl_module(a1, (mval,))
            assert m.divided_power(1, 0, mval)
            assert m.divided_power(1, 0, mval + 1) == {}

    def test_k_matrix_is_grouplike_diagonal(self):
        # the algebra's K_h acts on each block as v^<h, nu> on weight nu
        a2 = preset("A2")
        S = SchurAlgebra(a2.saturate([(1, 1)]))
        h = a2.simple_coroots[0]
        m = S.modules[-1]
        assert m.lam == (1, 1)
        expect = {}
        for nu in m.weights:
            x = RatFunc.from_poly(LaurentPoly.monomial(1, a2.pair(h, nu)))
            for idx in range(m.offsets[nu], m.offsets[nu] + m.dims[nu]):
                expect[idx] = {idx: x}
        assert S.k_element(h).blocks[-1] == expect

    def test_k_conjugation_shifts_e(self):
        # K_h E_i K_{-h} = v^{<h, alpha_i>} E_i on every module
        a2 = preset("A2")
        S = SchurAlgebra(a2.saturate([(2, 1)]))
        for i in range(2):
            h = a2.simple_coroots[i]
            lhs = (S.k_element(h) * S.generator(1, i)
                   * S.k_element(tuple(-x for x in h)))
            n = a2.pair(h, a2.simple_roots[i])
            c = RatFunc.from_poly(LaurentPoly.monomial(1, n))
            assert lhs == S.generator(1, i).scale(c)


class TestTensorPath:
    """The tensor realization, built directly for weights that the
    lowering construction also builds."""

    @pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("A2", (2, 1)),
                                          ("B2", (1, 1))])
    def test_tensor_module_agrees_with_gram_module(self, name, lam):
        datum = preset(name)
        j = max(k for k, c in enumerate(lam) if c > 0)
        fund = tuple(int(k == j) for k in range(len(lam)))
        rest = tuple(c - f for c, f in zip(lam, fund))
        tensor = TensorModule(datum, lam, weyl_module(datum, rest),
                              weyl_module(datum, fund))
        lowered = WeylModule(datum, lam)
        assert tensor.weights == lowered.weights
        assert tensor.dims == lowered.dims
        _check_commutator(datum, tensor)
        _check_serre(datum, tensor)

        pi = datum.saturate([lam])
        modules = [tensor if mu == lam else weyl_module(datum, mu)
                   for mu in pi]
        assert SchurAlgebra(pi, modules).dimension() \
            == build_schur(pi).dimension()

    def test_tripwire_refuses_a_wrong_matrix(self):
        m = weyl_module(preset("A1"), (2,))
        e = [dict(m.e[0])]
        e[0][0] = {c: x + x for c, x in e[0][0].items()}
        with pytest.raises(ModuleCheckError, match="commutator"):
            HighestWeightModule(m.datum, m.lam, m.weights, m.dims, e, m.f)


def _depth_order(datum, lam, weights):
    """The weights below lam sorted by the sum of the root coordinates of
    lam - nu, then by nu: the order `_weight_order` replaced."""
    def key(nu):
        return sum(datum.root_coords(tuple(a - b for a, b
                                           in zip(lam, nu)))), nu
    return sorted(weights, key=key)


class TestWeightOrder:
    """`_weight_order` sorts by one pairing with 2 rho^vee, against the
    depth in root coordinates as the oracle."""

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_presets_sort_like_the_depth(self, name):
        for datum, lam in modules_up_to_height(name, 6):
            weights = list(freudenthal_oracle(datum, lam))
            assert weylmod._weight_order(datum, weights) \
                == _depth_order(datum, lam, weights), (name, lam)

    @pytest.mark.parametrize("matrix,lam", [
        ("2,-3;-3,6", (3, 1)), ("4,-2,0;-2,4,-2;0,-2,2", (1, 1, 1))],
        ids=["G2", "B3"])
    def test_datum_matrix_forms_sort_like_the_depth(self, matrix, lam):
        datum = parse_spec(f"datum matrix {matrix}\n").datum()
        weights = list(freudenthal_oracle(datum, lam))
        assert weylmod._weight_order(datum, weights) \
            == _depth_order(datum, lam, weights)

    def test_building_a_module_solves_no_root_coordinates(self,
                                                          monkeypatch):
        # the Freudenthal oracle reads the invariant form, which does
        # solve for root coordinates, so its answers are taken up front
        datum = preset("B2")
        mults = {lam: freudenthal_oracle(datum, lam)
                 for lam in [(1, 0), (0, 1), (1, 1)]}
        monkeypatch.setattr(weylmod, "freudenthal_oracle",
                            lambda datum, lam: mults[tuple(lam)])
        calls = _spy(monkeypatch, type(datum), "root_coords")
        lowered = WeylModule(datum, (1, 1)).lower()
        TensorModule(datum, (1, 1), WeylModule(datum, (1, 0)).lower(),
                     WeylModule(datum, (0, 1)).lower())
        assert calls == []
        _depth_order(datum, (1, 1), lowered.weights)
        assert calls                         # the spy sees the old order


# SHA-256 of the compact JSON of `cache.serialize_algebra(build_schur(pi))`
# (cache format 3), taken from the lowering with divided powers, whose basis
# is the Lusztig lattice.  The digests were taken when the key of a root
# datum held its pairing matrix, so `datum` is written in that form: the
# pairing of dual bases is the identity.
MATRIX_DIGESTS = [
    ("A2", (2, 1),
     "16c03cf141b72dd1dc9336cf3b7834400141f53110d52dd1af9fee9070237fae"),
    ("B2", (1, 1),
     "8d5588a5a3e4d4a37346ff54a96666a52035da68393c6c35f1f2623a2a8d6657"),
    ("A1adj", (2,),
     "9ef5684830b3b131839f952857ed9cf37650f5633cab79d61e78704907efa8ab"),
    ("A1xA1", (2, 2),
     "f5a8e9f62003ec910107661b3e01d38c6b3ebb7f7c877936da65ced3339b7533"),
]


def _matrix_digest(name, lam):
    datum = preset(name)
    body = serialize_algebra(build_schur(datum.saturate([lam])))
    identity = tuple(tuple(int(a == b) for b in range(datum.rank_x))
                     for a in range(datum.rank_x))
    body["datum"] = repr((datum.cartan.form, identity, datum.simple_roots,
                          datum.simple_coroots))
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,lam,digest", MATRIX_DIGESTS,
                         ids=[f"{n}-{lam}" for n, lam, _ in MATRIX_DIGESTS])
def test_module_matrices_are_pinned(name, lam, digest):
    assert _matrix_digest(name, lam) == digest


def _spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls."""
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestModularChoice:
    """The basis chosen over F_p and filled fraction-free, against the
    greedy choice over Q(v) that it replaces."""

    @staticmethod
    def _same_as_exact_echelon(monkeypatch, datum, lam):
        with monkeypatch.context() as patch:
            exact = _spy(patch, weylmod, "_choose_exact")
            fast = WeylModule(datum, lam).lower()
            assert exact == [], lam
            patch.setattr(weylmod, "PRIME_POINTS", ())
            oracle = WeylModule(datum, lam).lower()
            assert exact, lam
        assert fast.words == oracle.words, lam
        assert fast.e == oracle.e, lam
        assert fast.f == oracle.f, lam

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_presets_match_the_exact_echelon(self, monkeypatch, name):
        for datum, lam in modules_up_to_height(name, 6):
            self._same_as_exact_echelon(monkeypatch, datum, lam)

    def test_g2_matches_the_exact_echelon(self, monkeypatch):
        lams = [(a, b) for a in range(5) for b in range(3)
                if weyl_dim_oracle(G2, (a, b)) <= 200]
        assert len(lams) == 9
        for lam in lams:
            self._same_as_exact_echelon(monkeypatch, G2, lam)

    def test_fallback_keeps_the_digests(self, monkeypatch):
        # at v = 5 in F_13, 5^2 = -1, so [2] = v + v^-1 vanishes and the
        # rank mod 13 falls short wherever an E-image is a multiple of [2]
        assert (5 * 5 + 1) % 13 == 0
        monkeypatch.setattr(weylmod, "PRIME_POINTS", ((13, 5),))
        weylmod.weyl_module.cache_clear()
        schur.build_schur.cache_clear()
        exact = _spy(monkeypatch, weylmod, "_choose_exact")
        for name, lam, digest in MATRIX_DIGESTS:
            assert _matrix_digest(name, lam) == digest, (name, lam)
        assert exact

    def test_each_check_refuses_a_wrong_choice(self):
        # v^2 + 1 vanishes at v = 5 mod 13, and nowhere at a shipped point
        s = LaurentPoly({2: 1, 0: 1})
        one = LaurentPoly.const(1)
        good = weylmod.PRIME_POINTS[0]
        # the rank mod 13 is 0, short of the multiplicity 1
        assert weylmod._choose_mod_p([{0: s}], 1, 13, 5) is None
        assert weylmod._choose_mod_p([{0: s}], 1, *good) == [None]
        # mod 13 the second vector is chosen, and the first is s times it:
        # Laurent, but on a later vector; over Q(v) the first is chosen,
        # and the second is 1/s times it, which is not Laurent
        vecs = [{0: s}, {0: one}]
        assert weylmod._choose_mod_p(vecs, 1, 13, 5) is None
        assert weylmod._choose_mod_p(vecs, 1, *good) is None
        with pytest.raises(ModuleCheckError, match="not in Z"):
            weylmod._choose_exact(vecs, 1, (0,), (0,), ["w0", "w1"])
        # both vectors are e_0 mod 13, but they differ on column 1: the
        # coordinate from the pivot column fails the check on every column
        vecs = [{0: one, 1: s}, {0: one}]
        assert weylmod._choose_mod_p(vecs, 1, 13, 5) is None
        assert weylmod._choose_mod_p(vecs, 2, *good) == [None, None]
        # a dependent vector gets its Laurent coordinates
        vecs = [{0: one, 1: s}, {0: s, 1: s * s}]
        assert weylmod._choose_mod_p(vecs, 1, *good) == [None, {0: s}]

    def test_shipped_points_are_primes(self):
        assert len(weylmod.PRIME_POINTS) == 3
        for p, a in weylmod.PRIME_POINTS:
            assert all(p % q for q in range(2, isqrt(p) + 1)), p
            assert 0 < a < p

    def test_lowering_takes_no_polynomial_gcd(self, monkeypatch):
        calls = _spy(monkeypatch, laurent, "_poly_gcd_int")
        for datum, lam in [(preset("B2"), (3, 3)), (G2, (1, 1)),
                           (preset("A2"), (4, 4))]:
            assert WeylModule(datum, lam).lower().e
        assert len(calls) == 0

    def test_divided_power_refuses_a_non_laurent_entry(self):
        # L(2) of A1 on the basis b, F b, F F b = [2] F^(2) b: every entry
        # of E and F is Laurent, but F^(2) b = (F F b) / [2] is not
        a1 = preset("A1")
        q2 = qint(2)
        one = LaurentPoly.const(1)
        m = HighestWeightModule(a1, (2,), [(2,), (0,), (-2,)],
                                {(2,): 1, (0,): 1, (-2,): 1},
                                [{0: {1: q2}, 1: {2: q2}}],
                                [{1: {0: one}, 2: {1: one}}])
        assert m.divided_power(-1, 0, 1)
        with pytest.raises(ModuleCheckError, match=r"F_0\^\(2\).*\(2,\)"):
            m.divided_power(-1, 0, 2)


@cache
def _whole(datum, lam):
    return WeylModule(datum, lam).lower()


@st.composite
def module_words(draw):
    """A preset, a highest weight of height at most 5, and a word of at
    most four symbols with one idempotent, most often at a weight of the
    module."""
    datum = preset(draw(st.sampled_from(ALL_PRESETS)))
    lam = draw(st.sampled_from(dominant_weights_up_to_height(datum, 5)))
    sign, i = st.sampled_from((1, -1)), st.integers(0, datum.rank - 1)
    symbol = st.one_of(
        st.tuples(st.just("E"), sign, i),
        st.tuples(st.just("Ed"), sign, i, st.integers(1, 3)),
        st.tuples(st.just("K"), st.sampled_from(datum.simple_coroots)))
    word = draw(st.lists(symbol, max_size=3))
    weight = st.one_of(st.sampled_from(_whole(datum, lam).weights),
                       st.tuples(*[st.integers(-4, 4)] * datum.rank_x))
    word.insert(draw(st.integers(0, len(word))), ("1", draw(weight)))
    return datum, lam, tuple(word)


class TestLazyRecord:
    """A record is unlowered or whole: its weights serve the diagonals and
    every walk that leaves them, and the first read of E or F lowers it
    whole, to the record lowered up front."""

    @settings(max_examples=60, deadline=None)
    @given(module_words())
    def test_a_read_of_e_or_f_lowers_the_record_whole(self, case):
        datum, lam, word = case
        whole = _whole(datum, lam)
        m = WeylModule(datum, lam)
        assert (m.weights, m.offsets) == (whole.weights, whole.offsets)
        assert word_matrix(m, word) == word_matrix(whole, word)
        # 1_lam and K_h keep the rows of a walk inside the weights, so its
        # first E or F symbol is read
        inside = set(weylmod.word_walk(datum, word)) <= m.dims.keys()
        reads = inside and any(sym[0] in ("E", "Ed") for sym in word)
        assert ("words" in vars(m)) == reads
        assert (m.words, m.e, m.f) == (whole.words, whole.e, whole.f)

    def test_only_a_read_of_e_or_f_lowers(self, monkeypatch):
        lowered = _spy(monkeypatch, weylmod, "_lower")
        m = WeylModule(preset("B2"), (1, 1))
        assert (m.dim, m.offsets[(1, 1)], m.offsets[(-1, -1)]) == (16, 0, 15)
        for sym in [("1", (1, 1)), ("1", (-1, -1)), ("K", (1, 0))]:
            assert m.symbol(sym)
        assert word_matrix(m, (("E", 1, 0), ("1", (5, 5)))) == {}
        assert word_matrix(m, (("1", (-1, -1)), ("1", (1, 1)))) == {}
        assert word_matrix(m, (("K", (1, 0)), ("1", (1, 1))))
        assert lowered == [] and "e" not in vars(m)
        assert word_matrix(m, (("E", -1, 0), ("1", (1, 1))))
        # every weight below the top once, and some weights one simple root
        # below a weight, which get no basis vector
        weights = [call[2] for call in lowered]
        assert len(set(weights)) == len(weights)
        assert set(m.weights) - set(weights) == {(1, 1)}
        assert all(any(tuple(x + a for x, a in zip(nu, root)) in m.dims
                       for root in m.datum.simple_roots)
                   for nu in set(weights) - set(m.weights))
        assert m.e and m.f and m.words and m.lower() is m
        assert word_matrix(m, (("E", 1, 1), ("1", (-1, -1))))
        assert len(lowered) == len(weights)

    def test_a_failing_weight_raises_on_every_read(self, monkeypatch):
        # in plain word order the weight (0, -2) of A2 (2,0) is refused
        # (`test_plain_word_order_is_refused`): every read that needs E or
        # F lowers again and raises, and the record keeps no E, F or words
        monkeypatch.setattr(weylmod, "_word_order", lambda word: word)
        lowered = _spy(monkeypatch, weylmod, "_lower")
        m = WeylModule(preset("A2"), (2, 0))
        assert word_matrix(m, (("E", -1, 0), ("1", (5, 5)))) == {}
        for read in (lambda: m.e, lambda: m.f, lambda: m.words, m.lower,
                     lambda: word_matrix(m, (("E", -1, 0), ("1", (1, -1))))):
            calls = len(lowered)
            with pytest.raises(ModuleCheckError,
                               match=r"\(0, -2\).*\(2, 0\)"):
                read()
            assert len(lowered) > calls
            assert not vars(m).keys() & {"e", "f", "words"}
        assert m.symbol(("1", (0, -2)))
