"""Cartan data, root data, Weyl orbits, dominance order, saturated sets."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.rootdata import (CartanDatum, PRESET_NAMES, RootDatum,
                             SaturatedSet, _bareiss, _rank_of, _solver,
                             dominant_weights_up_to_height, preset,
                             simply_connected)
from test_integer_oracles import _box_saturate


def _laplace_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _type_a_form(rank):
    return tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0
                       for j in range(rank)) for i in range(rank))


class TestCartanDatum:
    def test_presets_are_valid_and_finite_type(self):
        for name in PRESET_NAMES:
            datum = preset(name)
            assert datum.cartan.validate() == []
            assert datum.cartan.is_finite_type()

    def test_symmetrizers_and_cartan_entries(self):
        b2 = preset("B2")
        assert b2.cartan.d(0) == 2 and b2.cartan.d(1) == 1
        assert b2.cartan.cartan_entry(0, 1) == -1
        assert b2.cartan.cartan_entry(1, 0) == -2
        a2 = preset("A2")
        assert a2.cartan.cartan_entry(0, 1) == -1
        assert a2.cartan.d(0) == 1

    def test_affine_form_is_not_finite_type(self):
        c = CartanDatum(((2, -2), (-2, 2)))
        assert not c.is_finite_type()
        assert any("positive definite" in e for e in c.validate())

    def test_a12_form_validates_quickly(self):
        c = CartanDatum(_type_a_form(12))
        t0 = time.perf_counter()
        assert c.validate() == []
        assert time.perf_counter() - t0 < 1.0

    def test_bareiss_equals_laplace_expansion(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:          # force a zero first pivot
                m[0][0] = 0
            pivots = _bareiss(m)
            minors = [_laplace_det([row[:k] for row in m[:k]])
                      for k in range(1, n + 1)]
            assert pivots == minors[:len(pivots)], m
            assert len(pivots) == n or pivots[-1] == 0

    def test_nonsymmetric_form_is_invalid(self):
        c = CartanDatum(((2, -1), (-2, 2)))
        assert c.validate() != []

    def test_odd_diagonal_is_invalid(self):
        c = CartanDatum(((3, -1), (-1, 2)))
        assert c.validate() != []


class TestRootDatum:
    def test_preset_validation(self):
        for name in PRESET_NAMES:
            assert preset(name).validate() == []

    def test_dependent_simple_roots_are_reported(self):
        cartan = CartanDatum(((2, 0), (0, 2)))
        ident = ((1, 0), (0, 1))
        report = RootDatum(cartan, [(2, 0), (4, 0)], ident).validate()
        assert "simple roots not linearly independent" in report
        assert "simple coroots not linearly independent" not in report
        report = RootDatum(cartan, [(2, 0), (0, 2)],
                           [(1, 0), (1, 0)]).validate()
        assert "simple coroots not linearly independent" in report
        assert "simple roots not linearly independent" not in report

    def test_roots_and_coroots_of_the_wrong_length_are_reported(self):
        # zip would drop the extra 5 and pair the short root as if it
        # were padded with zeros
        cartan = CartanDatum(((2, 0), (0, 2)))
        report = RootDatum(cartan, [(2, 0), (0, 2)],
                           [(1, 0), (0, 1, 5)]).validate()
        assert report == ["simple coroot 1 has 3 entries, not 2"]
        report = RootDatum(cartan, [(2, 0), (2,)],
                           [(1, 0), (0, 1, 5)]).validate()
        assert report == ["simple root 1 has 1 entries, not 2",
                          "simple coroot 1 has 3 entries, not 2"]

    def test_pairing_against_simple_roots(self):
        # <h_i, alpha_j> is the Cartan matrix
        for name in PRESET_NAMES:
            datum = preset(name)
            for i in range(datum.rank):
                for j in range(datum.rank):
                    assert datum.pair_i(i, datum.simple_roots[j]) \
                        == datum.cartan.cartan_entry(i, j)

    def test_pair_i_is_pair_with_the_simple_coroot(self):
        for name in PRESET_NAMES:
            datum = preset(name)
            for lam in itertools.product(range(-2, 3), repeat=datum.rank_x):
                for i in range(datum.rank):
                    assert datum.pair_i(i, lam) \
                        == datum.pair(datum.simple_coroots[i], lam)

    def test_a1_orbit_and_antidominant(self):
        a1 = preset("A1")
        assert set(a1.weyl_orbit((3,))) == {(3,), (-3,)}
        assert a1.reflect(0, (3,)) == (-3,)     # w0 is the one reflection

    def test_a2_orbit_sizes(self):
        a2 = preset("A2")
        assert len(a2.weyl_orbit((1, 0))) == 3
        assert len(a2.weyl_orbit((1, 1))) == 6
        assert len(a2.weyl_orbit((0, 0))) == 1
        assert len(a2.weyl_orbit((2, 1))) == 6

    def test_b2_orbit_sizes(self):
        b2 = preset("B2")
        assert len(b2.weyl_orbit((1, 0))) == 4
        assert len(b2.weyl_orbit((0, 1))) == 4
        assert len(b2.weyl_orbit((1, 1))) == 8

    def test_dominance_examples(self):
        a2 = preset("A2")
        # (1,1) = (2,2) ... adjoint weight below (2,2)? use alpha sums:
        # (2,2) - (1,1) = (1,1) = alpha1 + alpha2... no: alpha1+alpha2=(1,1)
        assert a2.dominance_leq((1, 1), (2, 2))
        assert not a2.dominance_leq((2, 2), (1, 1))
        assert a2.dominance_leq((0, 0), (1, 1))
        assert not a2.dominance_leq((0, 0), (1, 0))   # not in root lattice
        a1 = preset("A1")
        assert a1.dominance_leq((0,), (2,))
        assert not a1.dominance_leq((1,), (2,))       # parity obstruction

    def test_dominance_is_a_partial_order(self):
        a2 = preset("A2")
        weights = [(a, b) for a in range(4) for b in range(4)]
        for lam in weights:
            assert a2.dominance_leq(lam, lam)
            for mu in weights:
                if lam == mu:
                    continue
                if a2.dominance_leq(lam, mu) and a2.dominance_leq(mu, lam):
                    pytest.fail(f"antisymmetry violated at {lam}, {mu}")
                for nu in weights:
                    if a2.dominance_leq(lam, mu) \
                            and a2.dominance_leq(mu, nu):
                        assert a2.dominance_leq(lam, nu)

    def test_positive_roots(self):
        a2 = preset("A2")
        pos = [root for root, _ in a2.positive_roots()]
        assert len(pos) == 3
        assert (1, 1) in pos                      # alpha1 + alpha2
        b2 = preset("B2")
        assert len(b2.positive_roots()) == 4
        a1xa1 = preset("A1xA1")
        assert len(a1xa1.positive_roots()) == 2

    def test_rho_pairs_to_one_with_simple_coroots(self):
        for name in PRESET_NAMES:
            datum = preset(name)
            for i in range(datum.rank):
                assert datum.pair_i(i, datum.two_rho) == 2
                # and rho^vee pairs to one with the simple roots
                assert datum.pair(datum.two_rho_vee,
                                  datum.simple_roots[i]) == 2

    def test_invariant_form_is_weyl_invariant(self):
        b2 = preset("B2")
        lam, mu = (2, 1), (1, 3)
        base = b2.invariant_form(lam, mu)
        for i in range(2):
            assert b2.invariant_form(b2.reflect(i, lam),
                                     b2.reflect(i, mu)) == base

    def test_height_doubles_along_dominant_sums(self):
        a1 = preset("A1")
        assert a1.height((0,)) == 0
        assert a1.height((1,)) == 1
        assert a1.height((3,)) == 3


class TestSaturatedSets:
    def test_a1_saturations(self):
        a1 = preset("A1")
        assert list(a1.saturate([(2,)])) == [(0,), (2,)]
        assert list(a1.saturate([(1,)])) == [(1,)]
        assert list(a1.saturate([(5,)])) == [(1,), (3,), (5,)]

    def test_a2_saturations(self):
        a2 = preset("A2")
        assert list(a2.saturate([(1, 1)])) == [(0, 0), (1, 1)]
        assert list(a2.saturate([(1, 0)])) == [(1, 0)]
        got = set(a2.saturate([(2, 2)]))
        assert got == {(0, 0), (1, 1), (2, 2), (0, 3), (3, 0)}

    def test_is_saturated_detects_gaps(self):
        a1 = preset("A1")
        full = a1.saturate([(4,)])
        assert full.is_saturated()
        broken = SaturatedSet(a1, [(4,)])
        assert not broken.is_saturated()

    def test_union_and_subset(self):
        a1 = preset("A1")
        small = a1.saturate([(2,)])
        big = small.union(a1.saturate([(3,)]))
        assert small.issubset(big)
        assert big.is_saturated()
        assert set(big) == {(0,), (1,), (2,), (3,)}

    def test_sets_of_different_data_do_not_mix(self):
        a2 = preset("A2").saturate([(1, 0)])
        b2 = preset("B2").saturate([(1, 0)])
        assert set(a2) < set(b2)            # the weight tuples would nest
        assert not a2.issubset(b2)
        assert a2.issubset(a2)
        with pytest.raises(ValueError, match="different root data"):
            a2.union(b2)

    def test_orbit_weights_are_weyl_stable(self):
        b2 = preset("B2")
        pi = b2.saturate([(1, 1)])
        orbit = pi.orbit_weights()
        for nu in orbit:
            for i in range(2):
                assert b2.reflect(i, nu) in orbit

    def test_saturation_is_downward_closed(self):
        for name in PRESET_NAMES:
            datum = preset(name)
            for mu in dominant_weights_up_to_height(datum, 4):
                pi = datum.saturate([mu])
                for lam in pi:
                    assert datum.dominance_leq(lam, mu)
                    assert datum.is_dominant(lam)
                assert pi.is_saturated()


# the `datum matrix` forms of B3 and G2, built as a spec builds them
MATRIX_FORMS = {"B3": ((4, -2, 0), (-2, 4, -2), (0, -2, 2)),
                "G2": ((2, -3), (-3, 6))}


def _memo_data():
    """Every preset and the B3 and G2 matrix forms, each built afresh, so
    that its memo tables start empty."""
    data = {name: preset.__wrapped__(name) for name in PRESET_NAMES}
    data.update({name: simply_connected(CartanDatum(form), name="custom")
                 for name, form in MATRIX_FORMS.items()})
    return data


class TestMemoTables:
    """Orbits, dominant representatives and saturated sets are computed
    once per datum, and equal the uncached bodies; saturated sets equal the
    box oracle, as `_saturate` reads the memo itself."""

    @pytest.mark.parametrize("name", sorted(_memo_data()))
    def test_memoized_results_equal_the_uncached_bodies(self, name):
        datum = _memo_data()[name]
        for lam in dominant_weights_up_to_height(datum, 8):
            orbit = datum.weyl_orbit(lam)
            assert type(orbit) is frozenset
            assert orbit == datum._weyl_orbit(lam)
            assert datum.weyl_orbit(list(lam)) is orbit
            for nu in orbit:
                assert datum.dominant_representative(nu) \
                    == datum._dominant_representative(nu) == lam
            pi = datum.saturate([lam])
            assert set(pi) == _box_saturate(datum, [lam])
            assert datum.saturate([list(lam), lam]) is pi
            assert pi.datum is datum
            assert pi.orbit_weights() == frozenset().union(
                *(datum._weyl_orbit(mu) for mu in pi))

    def test_a_non_dominant_generator_raises_on_every_call(self):
        a2 = preset.__wrapped__("A2")
        for _ in range(2):
            with pytest.raises(ValueError, match="not dominant"):
                a2.saturate([(1, 1), (-1, 2)])
        assert a2._saturate_memo == {}

    def test_equal_generators_on_two_data_share_nothing(self):
        a1, a1adj = preset("A1"), preset("A1adj")
        assert list(a1.saturate([(2,)])) == [(0,), (2,)]
        assert list(a1adj.saturate([(2,)])) == [(0,), (1,), (2,)]
        assert a1adj.saturate([(2,)]).datum is a1adj
        # an equal datum built apart, as a `datum matrix` spec builds it
        apart = simply_connected(CartanDatum([[2]]), name="custom")
        assert apart == a1
        pi = apart.saturate([(2,)])
        assert pi == a1.saturate([(2,)]) and pi.datum is apart
        assert pi is not a1.saturate([(2,)])
        assert apart.weyl_orbit((2,)) is not a1.weyl_orbit((2,))


def _weight_from_pairings(datum, ns):
    """An integral weight lam with <h_i, lam> = ns[i], or None."""
    lam = datum._pairing_solver(ns)
    if lam is None or any(x.denominator != 1 for x in lam):
        return None
    return tuple(int(x) for x in lam)


def _box_dominant_weights(datum, bound):
    """The dominant weights of height <= bound from the box of pairing
    vectors with every entry at most the bound, one solve per vector."""
    out = set()
    for ns in itertools.product(range(bound + 1), repeat=datum.rank):
        lam = _weight_from_pairings(datum, ns)
        if lam is not None and datum.height(lam) <= bound:
            out.add(lam)
    return sorted(out, key=lambda w: (datum.height(w), w))


class TestDominantEnumeration:
    def test_pairings_without_integral_weight_give_none(self):
        # on A1adj the simple coroot pairs to 2 * lam, so odd n has none
        a1adj = preset("A1adj")
        assert _weight_from_pairings(a1adj, (3,)) is None
        assert _weight_from_pairings(a1adj, (4,)) == (2,)
        assert dominant_weights_up_to_height(a1adj, 5) == [(0,), (1,), (2,)]

    def test_walk_matches_the_box(self):
        for name in PRESET_NAMES:
            datum = preset(name)
            for bound in range(7):
                assert dominant_weights_up_to_height(datum, bound) \
                    == _box_dominant_weights(datum, bound), (name, bound)
        for n in range(1, 7):
            datum = simply_connected(CartanDatum(_type_a_form(n)))
            for bound in range(5 if n < 5 else 3):
                assert dominant_weights_up_to_height(datum, bound) \
                    == _box_dominant_weights(datum, bound), (n, bound)

    def test_a6_walk_solves_once_per_fundamental_weight(self, monkeypatch):
        # the fundamental weights of A6 have heights 6, 10, 12, 12, 10, 6,
        # so below height 4 the walk meets only n = 0, where the box has
        # 5^6 pairing vectors and solves for each
        datum = simply_connected(CartanDatum(_type_a_form(6)))
        calls = []
        solve = datum._pairing_solver
        monkeypatch.setattr(datum, "_pairing_solver",
                            lambda ns: calls.append(ns) or solve(ns))
        assert dominant_weights_up_to_height(datum, 4) == [(0,) * 6]
        assert len(calls) == 6
        assert len(dominant_weights_up_to_height(datum, 12)) == 10
        assert len(calls) == 12

    def test_a_lower_bound_reads_the_longest_walk(self, monkeypatch):
        datum = simply_connected(CartanDatum(_type_a_form(3)))
        boxes = [_box_dominant_weights(datum, bound) for bound in range(9)]
        calls = []
        solve = datum._pairing_solver
        monkeypatch.setattr(datum, "_pairing_solver",
                            lambda ns: calls.append(ns) or solve(ns))
        high = dominant_weights_up_to_height(datum, 8)
        assert len(calls) == 3
        for bound in range(9):
            got = dominant_weights_up_to_height(datum, bound)
            assert got == boxes[bound] == high[:len(got)]
        assert len(calls) == 3
        got.clear()             # a caller's list is its own
        assert dominant_weights_up_to_height(datum, 8) == high

    def test_a_limited_walk_stops_past_the_limit_and_is_not_kept(self):
        datum = simply_connected(CartanDatum(_type_a_form(3)))
        box = _box_dominant_weights(datum, 8)
        assert len(box) == 10
        got = dominant_weights_up_to_height(datum, 8, 5)
        assert len(got) == 6 and set(got) <= set(box)
        assert datum._walk_memo == (-1, [])
        assert dominant_weights_up_to_height(datum, 8, len(box)) == box
        assert dominant_weights_up_to_height(datum, 8, 5) == box

    def test_a1_window(self):
        a1 = preset("A1")
        got = dominant_weights_up_to_height(a1, 4)
        assert got == [(0,), (1,), (2,), (3,), (4,)]

    def test_windows_are_nested_and_cofinal(self):
        a2 = preset("A2")
        w4 = set(dominant_weights_up_to_height(a2, 4))
        w6 = set(dominant_weights_up_to_height(a2, 6))
        assert w4 <= w6
        assert (1, 1) in w4
        assert all(a2.is_dominant(mu) for mu in w6)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_dominant_sum_dominates_both_orders(a, b, c, d):
    a2 = preset("A2")
    lam, mu = (a, b), (c, d)
    s = (a + c, b + d)
    assert a2.is_dominant(s)
    # the orbit of the sum has height >= each summand's
    assert a2.height(s) >= max(a2.height(lam), a2.height(mu))


@st.composite
def _systems(draw):
    """An integer system A x = b of size up to 4 x 4: the rows of A are
    combinations of k <= rows random vectors, so A is often rank-deficient,
    and b is either random or A y for a random y."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    small = st.integers(-3, 3)
    gens = [[draw(small) for _ in range(n)] for _ in range(k)]
    rows = []
    for _ in range(m):
        coeffs = [draw(small) for _ in range(k)]
        rows.append([sum(c * g[j] for c, g in zip(coeffs, gens))
                     for j in range(n)])
    if draw(st.booleans()):
        b = [draw(small) for _ in range(m)]
    else:
        y = [draw(small) for _ in range(n)]
        b = [sum(a * t for a, t in zip(row, y)) for row in rows]
    return rows, b


@given(_systems())
@settings(max_examples=150, deadline=None)
def test_solver_solves_exactly_the_consistent_systems(system):
    rows, b = system
    x = _solver(rows)(b)
    augmented = [row + [t] for row, t in zip(rows, b)]
    assert (x is None) == (_rank_of(augmented) > _rank_of(rows))
    if x is None:
        return
    assert [sum(a * t for a, t in zip(row, x)) for row in rows] == b
    # column j is free when it does not raise the rank of the columns
    # before it; the solver sets the free unknowns to 0
    for j in range(len(rows[0])):
        if _rank_of([row[:j + 1] for row in rows]) \
                == _rank_of([row[:j] for row in rows]):
            assert x[j] == 0


def test_simply_connected_from_matrix_matches_preset():
    datum = simply_connected(CartanDatum(((2, -1), (-1, 2))), name="X")
    a2 = preset("A2")
    assert datum.key()[1:] == a2.key()[1:]
