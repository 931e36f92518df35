"""The root-datum combinatorics and the character oracles run in integers.
Their Fraction versions (the solver, the positive roots, rho, the invariant
form, the Weyl dimension formula and the Freudenthal recursion), the height
by the walk to w0(lam) and the box enumeration of a saturated set are kept
here as oracles.
Also: the exactness checks raise instead of asserting, and importing the CLI
loads only the layers that every task needs."""

import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qschur
from qschur.linalg import SparseEchelon
from qschur.rings import QField
from qschur.rootdata import (PRESET_NAMES, CartanDatum,
                             dominant_weights_up_to_height, preset,
                             simply_connected)
from qschur.weylmod import (ModuleCheckError, freudenthal_oracle,
                            weyl_dim_oracle)


def _type_a(rank):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0
             for j in range(rank)] for i in range(rank)]


def _unit(rank, i):
    return tuple(int(j == i) for j in range(rank))


DATA = {name: preset(name) for name in ("A1", "A1adj", "A2", "B2", "A1xA1")}
DATA["A3"] = simply_connected(CartanDatum(_type_a(3)), name="A3")
DATA["G2"] = simply_connected(CartanDatum(((6, -3), (-3, 2))), name="G2")
DATA["A6"] = simply_connected(CartanDatum(_type_a(6)), name="A6")
DATA["A8"] = simply_connected(CartanDatum(_type_a(8)), name="A8")


def _weights(name):
    """Dominant weights to test on each datum: a height window on the small
    data, the fundamental weights and a few sums of them on A6 and A8."""
    datum = DATA[name]
    if datum.rank <= 3:
        return dominant_weights_up_to_height(datum, 6 if datum.rank < 3
                                             else 4)
    r = datum.rank
    fund = [_unit(r, i) for i in range(r)]
    adjoint = tuple(a + b for a, b in zip(fund[0], fund[-1]))
    return [(0,) * r] + fund + [adjoint, tuple(2 * x for x in fund[0]),
                                tuple(a + b for a, b in zip(fund[0],
                                                             fund[1]))]


# -- the Fraction versions ---------------------------------------------------


def _fraction_solver(rows):
    """`rootdata._solver` with T kept over Fractions."""
    n = len(rows[0])
    ech = SparseEchelon(QField)
    for i, row in enumerate(rows):
        ech.insert({**{k: Fraction(x) for k, x in enumerate(row) if x},
                    n + i: QField.one})
    T = [(p, {k - n: t for k, t in row.items() if k >= n})
         for p, row in ech.pivots.items()]

    def solve(b):
        x = [QField.zero] * n
        for p, t in T:
            tb = sum(y * b[k] for k, y in t.items())
            if p < n:
                x[p] = tb
            elif tb:
                return None
        return tuple(x)

    return solve


@functools.lru_cache(maxsize=None)
def _fraction_alpha(datum):
    return _fraction_solver([[a[k] for a in datum.simple_roots]
                             for k in range(datum.rank_x)])


@functools.lru_cache(maxsize=None)
def _fraction_positive_roots(datum):
    """Positive (root, coroot) pairs by reflection and Fraction
    coordinates, ordered by height then lex."""
    coords = _fraction_alpha(datum)
    pairs = {(datum.simple_roots[i], datum.simple_coroots[i])
             for i in range(datum.rank)}
    frontier = list(pairs)
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for i in range(datum.rank):
                cand = (datum.reflect(i, root),
                        datum.reflect_coweight(i, coroot))
                if cand not in pairs \
                        and all(c >= 0 for c in coords(cand[0])):
                    pairs.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(pairs, key=lambda p: (sum(coords(p[0])), p[0]))


def _fraction_rho(datum):
    total = [Fraction(0)] * datum.rank_x
    for root, _ in _fraction_positive_roots(datum):
        for k, x in enumerate(root):
            total[k] += Fraction(x, 2)
    return tuple(total)


def _fraction_weyl_dim(datum, lam):
    rho = _fraction_rho(datum)
    num = den = Fraction(1)
    lam_rho = tuple(Fraction(x) + r for x, r in zip(lam, rho))
    for _, coroot in _fraction_positive_roots(datum):
        num *= datum.pair(coroot, lam_rho)
        den *= datum.pair(coroot, rho)
    out = num / den
    assert out.denominator == 1
    return int(out)


def _antidominant(datum, lam):
    """The minimal element of the orbit of lam, by simple reflections: the
    image under the longest Weyl element when lam is dominant."""
    mu = tuple(lam)
    while True:
        for i in range(datum.rank):
            if datum.pair_i(i, mu) > 0:
                mu = datum.reflect(i, mu)
                break
        else:
            return mu


def _fraction_height(datum, lam):
    """The sum of the alpha-coordinates of lam - w0(lam)."""
    return sum(_fraction_alpha(datum)(
        tuple(a - b for a, b in zip(lam, _antidominant(datum, lam)))))


def _box_saturate(datum, gens):
    """Every lam = mu - sum n_i alpha_i in the box below mu - w0(mu) that
    is dominant."""
    coords = _fraction_alpha(datum)
    out = set()
    for mu in gens:
        bounds = coords(tuple(a - b for a, b in
                              zip(mu, _antidominant(datum, mu))))
        for ns in itertools.product(*(range(int(b) + 1) for b in bounds)):
            lam = tuple(x - sum(n * a[k] for n, a in
                                zip(ns, datum.simple_roots))
                        for k, x in enumerate(mu))
            if datum.is_dominant(lam):
                out.add(lam)
    return out


def _fraction_form(datum, x, y):
    """The invariant form on the rational span of the roots, for x or y in
    that span."""
    coords = _fraction_alpha(datum)
    if coords(y) is None:
        x, y = y, x
    return sum(c * datum.cartan.d(j) * datum.pair_i(j, x)
               for j, c in enumerate(coords(y)))


def _fraction_freudenthal(datum, lam):
    coords = _fraction_alpha(datum)

    def form(x, y):
        return _fraction_form(datum, x, y)

    def depth(nu):
        return sum(coords(tuple(a - b for a, b in zip(lam, nu))))

    # the saturation is checked against the box on its own
    dominants = sorted(datum.saturate([lam]), key=lambda nu: (depth(nu), nu))
    two_rho = tuple(2 * r for r in _fraction_rho(datum))
    pos = _fraction_positive_roots(datum)
    mult = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = Fraction(1)
            continue
        total = Fraction(0)
        for root, _ in pos:
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu, root))
                m = mult.get(datum.dominant_representative(nu))
                if m is None:
                    break
                total += m * form(nu, root)
                k += 1
        sum_vec = tuple(Fraction(a + b) + t
                        for a, b, t in zip(lam, mu, two_rho))
        den = form(sum_vec, tuple(a - b for a, b in zip(lam, mu)))
        assert den != 0
        mult[mu] = 2 * total / den
    out = {}
    for mu, m in mult.items():
        assert m.denominator == 1
        if m > 0:
            for nu in datum.weyl_orbit(mu):
                out[nu] = int(m)
    return out


# -- integer versions against the oracles -------------------------------------


@pytest.mark.parametrize("name", sorted(DATA))
def test_roots_rho_and_alpha_coords_match_fractions(name):
    datum = DATA[name]
    assert datum.positive_roots() == _fraction_positive_roots(datum)
    assert datum.two_rho == tuple(2 * r for r in _fraction_rho(datum))
    coords = _fraction_alpha(datum)
    vectors = {root for root, _ in datum.positive_roots()}
    for lam in _weights(name):
        vectors |= datum.weyl_orbit(lam) if datum.rank <= 3 else {lam}
    vectors |= set(itertools.product(range(-2, 3), repeat=datum.rank_x)
                   if datum.rank_x <= 3 else [])
    for vec in sorted(vectors):
        assert datum.alpha_coords(vec) == coords(vec), vec
        assert all(type(c) is Fraction for c in datum.alpha_coords(vec))


@pytest.mark.parametrize("name", sorted(DATA) + ["B3"])
def test_height_is_the_alpha_sum_of_lam_minus_w0_lam(name):
    datum = DATA.get(name) or simply_connected(
        CartanDatum(((4, -2, 0), (-2, 4, -2), (0, -2, 2))), name="B3")
    weights = (dominant_weights_up_to_height(datum, 16) if datum.rank <= 3
               else _weights(name))
    assert len(weights) > datum.rank
    for lam in weights:
        assert datum.height(lam) == _fraction_height(datum, lam), lam
        assert type(datum.height(lam)) is int


@pytest.mark.parametrize("name", sorted(DATA))
def test_invariant_form_matches_fractions(name):
    datum = DATA[name]
    roots = [root for root, _ in datum.positive_roots()]
    weights = list(_weights(name)) + roots
    for x in weights:
        for y in roots:
            assert datum.invariant_form(x, y) == datum.invariant_form(y, x) \
                == _fraction_form(datum, x, y), (x, y)
            assert type(datum.invariant_form(x, y)) is int


@pytest.mark.parametrize("name", sorted(DATA))
def test_character_oracles_match_fractions(name):
    datum = DATA[name]
    for lam in _weights(name):
        assert weyl_dim_oracle(datum, lam) \
            == _fraction_weyl_dim(datum, lam), lam
        assert freudenthal_oracle(datum, lam) \
            == _fraction_freudenthal(datum, lam), lam


def test_saturate_matches_box_enumeration():
    for name in PRESET_NAMES:
        datum = preset(name)
        for mu in dominant_weights_up_to_height(datum, 8):
            assert set(datum.saturate([mu])) \
                == _box_saturate(datum, [mu]), (name, mu)
    for name in ("A3", "G2"):
        for mu in _weights(name):
            assert set(DATA[name].saturate([mu])) \
                == _box_saturate(DATA[name], [mu]), (name, mu)
    for n in range(1, 9):
        datum = simply_connected(CartanDatum(_type_a(n)))
        for mu in (_unit(n, 0), tuple(a + b for a, b in
                                      zip(_unit(n, 0), _unit(n, n - 1)))):
            assert set(datum.saturate([mu])) == _box_saturate(datum, [mu])


def test_saturations_that_reuse_memoized_sets_match_the_box():
    # in height order every principal set below mu is memoized before mu,
    # so down(mu) is built from unions of them
    a13 = simply_connected(CartanDatum(((2, 0, 0), (0, 2, 0), (0, 0, 2))))
    for mu in dominant_weights_up_to_height(a13, 10):
        assert set(a13.saturate([mu])) == _box_saturate(a13, [mu]), mu
    assert len(a13._saturate_memo) == 286


@pytest.mark.parametrize("form,chain", [
    (((4, -2), (-2, 2)), [(2 * k, 2 * k) for k in range(6)]),
    (((2, -3), (-3, 6)), [(k, k) for k in range(5)]),
], ids=["B2", "G2"])
@pytest.mark.parametrize("order", ["top-down", "bottom-up"])
def test_a_chain_saturated_in_either_order_matches_the_box(form, chain,
                                                           order):
    # top down every search runs whole; bottom up each one stops at the
    # saturation of the weight below it
    datum = simply_connected(CartanDatum(form))
    for mu in chain[::-1] if order == "top-down" else chain:
        assert set(datum.saturate([mu])) == _box_saturate(datum, [mu]), mu
    for lo, hi in zip(chain, chain[1:]):
        assert datum.saturate([lo]).issubset(datum.saturate([hi]))
    pair = datum.saturate([chain[0], chain[-1]])
    assert set(pair) == _box_saturate(datum, [chain[-1]])


def test_a12_fundamental_weight_saturates_without_the_box(monkeypatch):
    # the box below omega_1 - w0(omega_1) has 2^12 points; the walk tests
    # the generator, one step per positive root from each weight it reaches,
    # and each weight once more when the saturated set checks its elements
    datum = simply_connected(CartanDatum(_type_a(12)))
    calls = []
    is_dominant = datum.is_dominant
    monkeypatch.setattr(datum, "is_dominant",
                        lambda lam: calls.append(lam) or is_dominant(lam))
    result = list(datum.saturate([_unit(12, 0)]))
    assert result == [_unit(12, 0)]
    assert len(calls) <= 1 + (len(datum.positive_roots()) + 1) * len(result)


# -- exactness checks raise ---------------------------------------------------


def _fresh_a1():
    return simply_connected(CartanDatum([[2]]), name="A1")


def test_non_integral_weyl_quotient_raises():
    a2 = simply_connected(CartanDatum(_type_a(2)))
    a2.two_rho = (1, 2)         # products 1*4*5 over 1*2*3 at (0, 1)
    with pytest.raises(ModuleCheckError, match="Weyl quotient"):
        weyl_dim_oracle(a2, (0, 1))


def test_non_integral_freudenthal_multiplicity_raises():
    a1 = _fresh_a1()
    a1.two_rho = (1,)           # m(0) in L(2) becomes 4/3
    with pytest.raises(ModuleCheckError, match="Freudenthal"):
        freudenthal_oracle(a1, (2,))


def test_zero_freudenthal_denominator_raises():
    a1 = _fresh_a1()
    a1.two_rho = (-2,)          # (lam + mu + 2 rho, lam - mu) = 0 at mu = 0
    with pytest.raises(ModuleCheckError, match="Freudenthal"):
        freudenthal_oracle(a1, (2,))


# -- the CLI imports only what every task needs -------------------------------


def test_cli_import_leaves_task_layers_unloaded():
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, qschur.cli; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('qschur') or m == 'dataclasses')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    for name in ("qschur.intspec", "qschur.ulimit", "qschur.words",
                 "qschur.cache", "dataclasses"):
        assert name not in out
    assert "qschur.cli" in out
