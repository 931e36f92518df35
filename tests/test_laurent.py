"""Exact Laurent polynomial and rational function arithmetic."""

from fractions import Fraction
from math import gcd as int_gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.laurent import (LaurentPoly, ONE, RatFunc, V, ZERO, _PACKED_MIN,
                            _poly_gcd_int, is_integral, qbinom, qint)


def _fraction_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The reference gcd: the earlier monic Euclid over Q[v] with Fraction
    coefficients, kept unchanged as the oracle for the integer-only one."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        ca, cb = a.content(), b.content()
        fa = {e - a.min_exp(): Fraction(c) for e, c in a.coeffs.items()}
        fb = {e - b.min_exp(): Fraction(c) for e, c in b.coeffs.items()}
        while fb:
            # fa mod fb
            db = max(fb)
            lb = fb[db]
            r = dict(fa)
            while r and max(r) >= db:
                da = max(r)
                f = r[da] / lb
                for e, c in fb.items():
                    ne = e + da - db
                    s = r.get(ne, Fraction(0)) - f * c
                    if s:
                        r[ne] = s
                    else:
                        r.pop(ne, None)
            fa, fb = fb, r
        # clear denominators, make primitive
        den = lcm(*[c.denominator for c in fa.values()]) if fa else 1
        ints = {e: int(c * den) for e, c in fa.items()}
        g = LaurentPoly(ints)
        cg = g.content()
        if cg > 1:
            g = LaurentPoly({e: c // cg for e, c in g.coeffs.items()})
        g = int_gcd(ca, cb) * g
    if g.is_zero():
        return g
    g = g.shift(-g.min_exp())
    if g.leading_coeff() < 0:
        g = -g
    return g


class TestLaurentPoly:
    def test_zero_and_one(self):
        assert ZERO.is_zero()
        assert ONE.is_one()
        assert (ONE - ONE).is_zero()
        assert ZERO + ONE == ONE

    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly({3: 1, 0: 0, -2: 5})
        assert set(p.coeffs) == {3, -2}

    def test_ring_ops(self):
        p = V + ONE                       # v + 1
        q = V - ONE
        assert p * q == LaurentPoly({2: 1, 0: -1})

    def test_shift_and_subs_power(self):
        p = LaurentPoly({2: 1, -1: 3})
        assert p.shift(2) == LaurentPoly({4: 1, 1: 3})
        assert p.subs_power(3) == LaurentPoly({6: 1, -3: 3})

    def test_units(self):
        assert V.is_unit()
        assert LaurentPoly({-5: -1}).is_unit()
        assert not (V + ONE).is_unit()
        assert not ZERO.is_unit()

    def test_exact_division(self):
        num = qint(6)
        assert num.exact_div(qint(3)) * qint(3) == num
        with pytest.raises(ValueError):
            (V + ONE).exact_div(qint(2))

    def test_evaluate_is_a_homomorphism(self):
        xi = Fraction(3, 2)
        pw = lambda e: xi ** e
        p = LaurentPoly({2: 1, -1: 3})
        q = LaurentPoly({1: -2, 0: 5})
        assert (p * q).evaluate(pw) == p.evaluate(pw) * q.evaluate(pw)
        assert (p + q).evaluate(pw) == p.evaluate(pw) + q.evaluate(pw)

    def test_string_round_trip(self):
        for p in [ZERO, ONE, V, qint(5), LaurentPoly({-3: -7, 0: 2, 4: 1})]:
            assert LaurentPoly.parse(p.to_string()) == p


coeffs = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)


class TestRatFunc:
    def test_constants(self):
        assert RatFunc(0).is_zero()
        assert RatFunc(1).is_one()
        assert RatFunc(2) + RatFunc(-2) == RatFunc(0)

    def test_cancellation_to_quantum_integer(self):
        # (v^n - v^-n)/(v - v^-1) must reduce to a Laurent polynomial
        for n in range(1, 8):
            num = LaurentPoly({n: 1, -n: -1})
            den = LaurentPoly({1: 1, -1: -1})
            f = RatFunc.from_poly(num) * RatFunc.from_poly(den).inverse()
            assert is_integral(f) == qint(n)

    def test_inverse(self):
        f = RatFunc.from_poly(V + ONE)
        assert (f * f.inverse()).is_one()
        with pytest.raises(ZeroDivisionError):
            RatFunc(0).inverse()

    @given(coeffs, coeffs, coeffs)
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_gives_structural_equality(self, a, b, c):
        # f/g == (f*h)/(g*h) must hold on the nose, not just mathematically
        pa, pb, pc = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
        if pb.is_zero():
            pb = ONE
        if pc.is_zero():
            pc = ONE
        f = RatFunc.from_poly(pa) * RatFunc.from_poly(pb).inverse()
        g = (RatFunc.from_poly(pa * pc)
             * RatFunc.from_poly(pb * pc).inverse())
        assert f == g
        assert f.to_string() == g.to_string()

    def test_string_round_trip(self):
        f = (RatFunc.from_poly(qint(3))
             * RatFunc.from_poly(V + ONE).inverse())
        assert RatFunc.parse(f.to_string()) == f


class TestQuantumNumbers:
    def test_qint_small_values(self):
        assert qint(0).is_zero()
        assert qint(1).is_one()
        assert qint(2) == LaurentPoly({1: 1, -1: 1})
        assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
        assert qint(-2) == -qint(2)

    def test_qint_with_length_scaling(self):
        # [n] at v -> v^d
        assert qint(2, 2) == LaurentPoly({2: 1, -2: 1})
        assert qint(3, 2) == LaurentPoly({4: 1, 0: 1, -4: 1})

    def test_qint_evaluates_to_n_at_one(self):
        # the zero polynomial evaluates to None by convention, so skip n=0
        for n in [*range(-6, 0), *range(1, 7)]:
            for d in (1, 2, 3):
                assert qint(n, d).evaluate(lambda e: 1) == n

    def test_qbinom_examples(self):
        assert qbinom(2, 1) == qint(2)
        assert qbinom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
        assert qbinom(5, 0).is_one()
        assert qbinom(3, 4).is_zero()

    def test_qbinom_pascal_identity(self):
        # [a choose t] = v^t [a-1 choose t] + v^{t-a} [a-1 choose t-1]
        for a in range(1, 11):
            for t in range(1, a + 1):
                lhs = qbinom(a, t)
                rhs = qbinom(a - 1, t).shift(t) \
                    + qbinom(a - 1, t - 1).shift(t - a)
                assert lhs == rhs, (a, t)

    def test_qbinom_integrality_including_negative_top(self):
        for a in range(-12, 13):
            for t in range(0, 13):
                for d in (1, 2, 3):
                    p = qbinom(a, t, d)
                    assert isinstance(p, LaurentPoly)

    def test_qbinom_counts_at_one(self):
        from math import comb
        for a in range(0, 10):
            for t in range(0, a + 1):
                assert qbinom(a, t).evaluate(lambda e: 1) == comb(a, t)

    def test_is_integral_rejects_proper_fractions(self):
        f = RatFunc(1) * RatFunc.from_poly(qint(2)).inverse()
        assert is_integral(f) is None
        assert is_integral(RatFunc.from_poly(V)) == V


# -- integer-only arithmetic against references ----------------------------

polys = st.builds(LaurentPoly, st.dictionaries(
    st.integers(-4, 4), st.integers(-6, 6), max_size=4))
nonzero_polys = polys.filter(bool)
rats = st.builds(RatFunc, polys, nonzero_polys)
nonzero_rats = rats.filter(bool)
PROPERTY = settings(max_examples=50, deadline=None)


def _full(num, den):
    """The canonical form through the general reduction of RatFunc."""
    return RatFunc(num, den).to_string()


class TestIntegerGcd:
    @given(polys, polys, nonzero_polys)
    @PROPERTY
    def test_matches_the_fraction_gcd(self, a, b, h):
        # a common factor h makes the gcd nontrivial
        for x, y in ((a, b), (a * h, b * h), (h, a * h)):
            assert _poly_gcd_int(x, y) == _fraction_gcd(x, y)

    def test_content_and_normalization(self):
        two = LaurentPoly.const(2)
        assert _poly_gcd_int(two * (V + ONE), LaurentPoly.const(-4)) == two
        assert _poly_gcd_int(-V.shift(3) * (V - ONE), V - ONE) == V - ONE
        assert _poly_gcd_int(ZERO, -(V + ONE).shift(-2)) == V + ONE
        assert _poly_gcd_int(ZERO, ZERO) == ZERO


class TestExactDivision:
    @given(polys, nonzero_polys)
    @PROPERTY
    def test_inverts_multiplication(self, p, q):
        assert (p * q).exact_div(q) == p

    @given(nonzero_polys, nonzero_polys, st.integers(2, 5))
    @PROPERTY
    def test_non_integral_quotient_raises(self, p, q, k):
        p = LaurentPoly({e: a // p.content() for e, a in p.coeffs.items()})
        with pytest.raises(ValueError):
            (p * q).exact_div(q * k)

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            (V + LaurentPoly.const(2)).exact_div(V + ONE)
        with pytest.raises(ValueError):
            ONE.exact_div(V + ONE)
        with pytest.raises(ValueError):
            (V + ONE).exact_div(LaurentPoly({1: 2, 0: 2}))
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)


def _schoolbook(a, b):
    """The product by the double loop over the terms, kept as the oracle of
    the packed (Kronecker substitution) product."""
    c = {}
    for e1, x in a.coeffs.items():
        for e2, y in b.coeffs.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + x * y
    return LaurentPoly(c)


@st.composite
def long_polys(draw):
    """Laurent polynomials with fewer and with more terms than the packed
    product needs, negative exponents, an exponent stride of 1 to 3 and
    coefficients up to 10^30."""
    n = draw(st.integers(1, 2 * _PACKED_MIN + 2))
    bound = draw(st.sampled_from([9, 2 ** 15, 2 ** 40, 10 ** 30]))
    stride = draw(st.integers(1, 3))
    shift = draw(st.integers(-30, 30))
    terms = draw(st.dictionaries(st.integers(-2 * n, 2 * n),
                                 st.integers(-bound, bound).filter(bool),
                                 min_size=n, max_size=n))
    return LaurentPoly({shift + stride * e: a for e, a in terms.items()})


class TestPackedProduct:
    @given(long_polys(), long_polys())
    @settings(max_examples=80, deadline=None)
    def test_matches_schoolbook_and_divides_back(self, a, b):
        assert a * b == _schoolbook(a, b)
        assert (a * b).exact_div(b) == a
        if len(b.coeffs) > 1:
            # b divides no monomial, so a*b + v^k has no quotient by b
            with pytest.raises(ValueError):
                (a * b + V).exact_div(b)

    def test_both_sides_of_the_cutoff(self):
        for n in (_PACKED_MIN - 1, _PACKED_MIN):
            a = LaurentPoly({2 * k - n: k - 3 for k in range(n + 1)
                             if k != 3})
            b = LaurentPoly({k: 10 ** 30 + k for k in range(-4, n - 4)})
            assert len(b.coeffs) == n
            assert a * b == _schoolbook(a, b)
            assert (a * b).exact_div(a) == b


class TestFastPaths:
    """Every shortcut of +, *, / and inverse gives the canonical form of the
    general reduction of the unreduced result."""

    @given(rats, rats)
    @PROPERTY
    def test_sum_and_product(self, x, y):
        assert (x + y).to_string() == _full(x.num * y.den + y.num * x.den,
                                            x.den * y.den)
        assert (x * y).to_string() == _full(x.num * y.num, x.den * y.den)
        assert (x - y).to_string() == _full(x.num * y.den - y.num * x.den,
                                            x.den * y.den)

    @given(polys, polys, nonzero_polys)
    @PROPERTY
    def test_polynomial_and_shared_denominators(self, a, c, d):
        x, y, p = RatFunc(a, d), RatFunc(c, d), RatFunc.from_poly(c)
        assert (x + y).to_string() == _full(a + c, d)
        assert (x + p).to_string() == _full(a + c * d, d)
        assert (p + x).to_string() == _full(a + c * d, d)
        assert (x * p).to_string() == _full(a * c, d)

    @given(nonzero_rats, rats)
    @PROPERTY
    def test_inverse_and_quotient(self, x, y):
        assert x.inverse().to_string() == _full(x.den, x.num)
        assert (y / x).to_string() == _full(y.num * x.den, y.den * x.num)

    def test_each_sum_branch(self):
        d = V * V - ONE
        cases = [
            (RatFunc(ONE, d), RatFunc(V, d)),            # shared, cancels
            (RatFunc(ONE, V * V + ONE), RatFunc(V, V * V + ONE)),  # shared
            (RatFunc(ONE, V + ONE), RatFunc(ONE, V - ONE)),  # coprime
            (RatFunc(ONE, d), RatFunc(-ONE, V + ONE)),   # common factor
            (RatFunc(V, d), RatFunc(-V, d)),             # sum is zero
            (RatFunc(2, 3), RatFunc(ONE, LaurentPoly.const(6))),
        ]
        for x, y in cases:
            assert (x + y).to_string() == _full(
                x.num * y.den + y.num * x.den, x.den * y.den)
        assert (RatFunc(ONE, d) + RatFunc(V, d)) == RatFunc(ONE, V - ONE)

    def test_integer_operands(self):
        x = RatFunc(V, LaurentPoly.const(6))
        assert (x * 3).to_string() == "(v)/(2)"
        assert (2 * x + 1).to_string() == "(v + 3)/(3)"
        assert (x / 2).to_string() == "(v)/(12)"
        assert (1 - x).to_string() == "(-v + 6)/(6)"


class TestRingAxioms:
    @given(polys, polys, polys)
    @PROPERTY
    def test_laurent_polynomials(self, a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a and (a - a).is_zero()

    @given(rats, rats, rats)
    @PROPERTY
    def test_rational_functions(self, x, y, z):
        zero, one = RatFunc(0), RatFunc(1)
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x and (x - x) == zero
        if x:
            assert (x * x.inverse()).is_one()


class TestStringRoundTrip:
    @given(polys)
    @PROPERTY
    def test_laurent_polynomials(self, p):
        assert LaurentPoly.parse(p.to_string()) == p

    @given(rats)
    @PROPERTY
    def test_rational_functions(self, f):
        assert RatFunc.parse(f.to_string()) == f


class TestCoefficientsAreIntegers:
    def test_non_integer_coefficients_are_refused(self):
        with pytest.raises(ValueError):
            LaurentPoly({0: Fraction(1, 2)})
        with pytest.raises(ValueError):
            LaurentPoly({0: 1, 1: 2.7})

    def test_integral_values_are_kept_as_ints(self):
        p = LaurentPoly({0: Fraction(4, 2), 1: 3.0, 2: 0})
        assert p.coeffs == {0: 2, 1: 3}
        assert all(type(a) is int for a in p.coeffs.values())


class TestAgainstSympy:
    """The canonical form against sympy's cancel and the gcd against
    sympy.gcd, both over Z[v] after clearing powers of v."""

    @staticmethod
    def _poly(p):
        """p / v^min_exp(p) as a sympy Poly over Z."""
        sympy = pytest.importorskip("sympy")
        m = p.min_exp()
        return sympy.Poly.from_dict({(e - m,): a for e, a in p.coeffs.items()},
                                    sympy.Symbol("v"))

    @staticmethod
    def _laurent(poly, shift=0):
        return LaurentPoly({e + shift: int(c) for (e,), c in poly.terms()})

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=30, deadline=None)
    def test_canonical_form_matches_cancel(self, a, b):
        n, d = self._poly(a).cancel(self._poly(b), include=True)
        num = self._laurent(n, a.min_exp() - b.min_exp())
        den = self._laurent(d)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        f = RatFunc(a, b)
        assert (f.num, f.den) == (num, den)

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=30, deadline=None)
    def test_gcd_matches_sympy(self, a, b, h):
        sympy = pytest.importorskip("sympy")
        a, b = a * h, b * h
        want = self._laurent(sympy.gcd(self._poly(a), self._poly(b)))
        if want.leading_coeff() < 0:
            want = -want
        assert _poly_gcd_int(a, b) == want
