"""Cyclotomic fields, rational points, and specialization of coefficients."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qschur.laurent import RatFunc, qint
from qschur.rings import (CycloElement, CycloField, PoleError, RingPoint,
                          cyclotomic_coeffs)


class TestCyclotomicPolynomials:
    def test_small_orders(self):
        assert cyclotomic_coeffs(1) == (Fraction(-1), Fraction(1))
        assert cyclotomic_coeffs(2) == (Fraction(1), Fraction(1))
        assert cyclotomic_coeffs(3) == (Fraction(1),) * 3
        assert cyclotomic_coeffs(4) == (Fraction(1), Fraction(0),
                                        Fraction(1))
        assert cyclotomic_coeffs(6) == (Fraction(1), Fraction(-1),
                                        Fraction(1))

    def test_degree_is_euler_phi(self):
        phi = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
        for n, expect in phi.items():
            assert len(cyclotomic_coeffs(n)) - 1 == expect


class TestCycloField:
    def test_primitive_root_relations(self):
        p = RingPoint.cyclotomic(4)          # xi = primitive 4th root
        z = p.xi
        f = p.field
        assert z * z == f.from_int(-1)
        assert z * z * z * z == f.one
        # xi + xi^-1 = 0 at order 4, i.e. [2] specializes to zero
        assert p.xi_pow(1) + p.xi_pow(-1) == f.zero

    def test_inverse(self):
        p = RingPoint.cyclotomic(12)
        z = p.xi
        inv = z.inverse()
        assert z * inv == p.field.one

    def test_qint_vanishing_order(self):
        # [n] vanishes at a primitive 2n-th root of unity
        for n in (2, 3, 4):
            p = RingPoint.cyclotomic(2 * n)
            assert qint(n).evaluate(p.xi_pow) == p.field.zero
            assert qint(n - 1).evaluate(p.xi_pow) != p.field.zero


class TestRationalPoint:
    def test_xi_one(self):
        p = RingPoint.rational(Fraction(1))
        assert qint(5).evaluate(p.xi_pow) == 5
        assert qint(-3).evaluate(p.xi_pow) == -3

    def test_generic_rational(self):
        p = RingPoint.rational(Fraction(2))
        assert qint(2).evaluate(p.xi_pow) == Fraction(5, 2)


class TestEvaluate:
    def test_polynomial_part(self):
        p = RingPoint.rational(Fraction(1))
        f = RatFunc.from_poly(qint(4))
        assert p.coefficient(f) == 4

    def test_pole_is_reported(self):
        # 1/[2] has a pole at the primitive 4th root of unity
        p = RingPoint.cyclotomic(4)
        f = RatFunc.from_poly(qint(2)).inverse()
        with pytest.raises(PoleError):
            p.coefficient(f)

    def test_ratio_without_pole(self):
        p = RingPoint.cyclotomic(4)
        f = (RatFunc.from_poly(qint(4))
             * RatFunc.from_poly(qint(2)).inverse())   # = [4]/[2] = v^2+v^-2
        assert p.coefficient(f) == p.field.from_int(-2)

    def test_a_polynomial_coefficient_is_its_image(self, monkeypatch):
        # a denominator of 1 maps to 1: no inverse is taken
        p = RingPoint.cyclotomic(8)
        calls = []
        inverse = CycloField._inverse
        monkeypatch.setattr(CycloField, "_inverse",
                            lambda *args: calls.append(1) or inverse(*args))
        for n in range(-3, 6):
            f = RatFunc.from_poly(qint(n) * qint(n + 1))
            assert f.den.is_one()
            assert p.coefficient(f) == p.image(f.num) == p.image(
                qint(n)) * p.image(qint(n + 1))
        assert calls == []


class TestExactnessChecksRaise:
    """The checks stay on under `python -O`, which strips asserts."""

    def test_wrong_coefficient_count_raises(self):
        field = CycloField(4)
        with pytest.raises(ValueError, match="degree 2"):
            CycloElement(field, [Fraction(1)])
        with pytest.raises(ValueError, match="degree 2"):
            CycloElement(field, [Fraction(1)] * 3)


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def cyclo_pairs(draw):
    """A field Q(zeta_n), n <= 12, and two of its elements."""
    field = CycloField(draw(st.integers(1, 12)))
    elems = [CycloElement(field, draw(st.lists(
        fractions, min_size=field.degree, max_size=field.degree)))
        for _ in range(2)]
    return field, *elems


class TestCycloAgainstSympy:
    """Products and inverses against sympy's remainder modulo the
    cyclotomic polynomial."""

    @staticmethod
    def _sympy(field):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        return sympy, x, sympy.cyclotomic_poly(field.order, x, polys=True)

    @staticmethod
    def _coeffs(sympy, x, poly, degree):
        """The coefficients of a sympy polynomial of degree < `degree`,
        lowest first, as Fractions."""
        got = sympy.Poly(poly, x, domain="QQ").all_coeffs()[::-1]
        got = [Fraction(int(c.p), int(c.q)) for c in got]
        return tuple(got + [Fraction(0)] * (degree - len(got)))

    @staticmethod
    def _poly(sympy, x, a):
        return sympy.Poly(list(reversed(a.coeffs)), x, domain="QQ")

    @given(cyclo_pairs())
    @settings(max_examples=60, deadline=None)
    def test_product_is_the_remainder(self, pair):
        field, a, b = pair
        sympy, x, phi = self._sympy(field)
        want = (self._poly(sympy, x, a) * self._poly(sympy, x, b)).rem(phi)
        assert (a * b).coeffs == self._coeffs(sympy, x, want, field.degree)

    @given(cyclo_pairs())
    @settings(max_examples=60, deadline=None)
    def test_inverse_is_the_inverse_remainder(self, pair):
        field, a, _ = pair
        assume(a)
        sympy, x, phi = self._sympy(field)
        want = sympy.invert(self._poly(sympy, x, a), phi)
        assert a.inverse().coeffs == self._coeffs(sympy, x, want,
                                                   field.degree)


integral_coeffs = st.integers(-6, 6)


@st.composite
def integral_pairs(draw):
    """A field Q(zeta_n), n <= 12, and two elements with integer
    coefficients."""
    field = CycloField(draw(st.integers(1, 12)))
    return field, *[CycloElement(field, draw(st.lists(
        integral_coeffs, min_size=field.degree, max_size=field.degree)))
        for _ in range(2)]


class TestIntegerCoefficients:
    """Cyclotomic coefficients stay `int` until an inverse divides."""

    @staticmethod
    def all_int(a):
        return all(type(c) is int for c in a.coeffs)

    @given(integral_pairs())
    @settings(max_examples=60, deadline=None)
    def test_ring_operations_keep_int_coefficients(self, pair):
        field, a, b = pair
        for c in (a * b, a + b, a - b, -a, a * 3, field.zero, field.one,
                  field.from_int(-4), field.zeta()):
            assert self.all_int(c), c

    def test_powers_of_xi_and_quantum_integers_are_integral(self):
        for order in (3, 4, 6, 8, 12):
            p = RingPoint.cyclotomic(order)
            for e in range(-6, 7):
                assert self.all_int(p.xi_pow(e))
                assert self.all_int(qint(e).evaluate(p.xi_pow) or p.field.zero)

    def test_the_inverse_is_int_where_its_denominator_is_one(self):
        field = CycloField(4)
        i = field.zeta()
        assert self.all_int(i.inverse()) and i * i.inverse() == field.one
        half = field.from_int(2).inverse()
        assert half.coeffs == (Fraction(1, 2), 0)
        assert type(half.coeffs[0]) is Fraction
        # 1 + i has norm 2, so its inverse is (1 - i)/2
        assert (field.one + i).inverse().coeffs == (Fraction(1, 2),
                                                     Fraction(-1, 2))

    def test_repr_prints_every_coefficient_as_a_fraction(self):
        assert repr(RingPoint.cyclotomic(4)) == (
            "RingPoint(cyclotomic(4), xi=CycloElement(n=4, "
            "[Fraction(0, 1), Fraction(1, 1)]))")


class TestMixedArithmetic:
    """An int or a Fraction on either side of +, -, *, / and ==."""

    def test_a_fraction_adds_on_either_side(self):
        field = CycloField(4)
        half = Fraction(1, 2)
        want = CycloElement(field, [Fraction(3, 2), 0])
        assert field.one + half == half + field.one == want
        assert field.one - half == CycloElement(field, [half, 0])
        assert half - field.one == CycloElement(field, [-half, 0])
        assert 2 + field.zeta() == field.zeta() + 2 \
            == CycloElement(field, [2, 1])
        assert 1 - field.zeta() == -(field.zeta() - 1)

    def test_a_fraction_compares_on_either_side(self):
        field = CycloField(4)
        assert field.one == Fraction(1) and Fraction(1) == field.one
        assert field.one == 1 and 1 == field.one
        assert field.from_int(3) / 2 == Fraction(3, 2) == CycloElement(
            field, [Fraction(3, 2), 0])
        # equal values hash equal across types
        assert hash(field.from_int(3) / 2) == hash(Fraction(3, 2))
        assert hash(field.one) == hash(1) and len({field.one, 1}) == 1
        assert field.one != Fraction(1, 2) and field.zeta() != 0
        assert field.one != "1"

    def test_a_fraction_scales_on_either_side(self):
        field = CycloField(5)
        a = CycloElement(field, [1, 2, 0, -3])
        assert a * Fraction(1, 2) == Fraction(1, 2) * a == a / 2

    def test_a_fraction_divides_by_an_element(self):
        field = CycloField(4)
        zeta = field.zeta()
        assert 1 / zeta == -zeta == CycloElement(field, [0, -1])
        assert Fraction(1, 2) / zeta \
            == CycloElement(field, [0, Fraction(-1, 2)])
        assert (1 / zeta) * zeta == 1
        with pytest.raises(ZeroDivisionError):
            1 / field.zero


def fraction_reference(coeffs):
    """The coefficients as Fractions: what the integer form must read
    back."""
    return tuple(map(Fraction, coeffs))


def reference_product(field, a, b):
    """The product of two Fraction coefficient tuples, reduced modulo
    Phi_n by long division: the form before one denominator."""
    d, modulus = field.degree, cyclotomic_coeffs(field.order)
    out = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(len(out) - 1, d - 1, -1):
        f = out[i]
        for j in range(d + 1):
            out[i - d + j] -= f * modulus[j]
    return tuple(out[:d])


@st.composite
def small_order_triples(draw):
    """A field Q(zeta_n), n <= 8, and three of its elements as Fraction
    coefficient lists."""
    field = CycloField(draw(st.integers(1, 8)))
    return field, *[draw(st.lists(fractions, min_size=field.degree,
                                  max_size=field.degree)) for _ in range(3)]


class TestOneDenominator:
    """An element is integer coefficients over one positive denominator in
    lowest terms, whatever arithmetic built it."""

    @staticmethod
    def assert_canonical(x, reference):
        assert x.den > 0 and all(type(c) is int for c in (*x.num, x.den))
        assert gcd(x.den, *x.num) == 1
        assert x.coeffs == reference
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in x.coeffs)
        assert repr(x) == (f"CycloElement(n={x.field.order}, "
                           f"{list(reference)!r})")

    @given(small_order_triples())
    @settings(max_examples=150, deadline=None)
    def test_every_result_is_in_lowest_terms_and_reads_as_the_reference(
            self, triple):
        field, *lists = triple
        a, b, c = (CycloElement(field, x) for x in lists)
        ra, rb, rc = (fraction_reference(x) for x in lists)
        results = [
            (a, ra),
            (a + b, tuple(x + y for x, y in zip(ra, rb))),
            (a - b, tuple(x - y for x, y in zip(ra, rb))),
            (-c, tuple(-x for x in rc)),
            (a * b, reference_product(field, ra, rb)),
            ((a + c) * b, reference_product(
                field, tuple(x + y for x, y in zip(ra, rc)), rb)),
            (a * Fraction(3, 4), tuple(x * Fraction(3, 4) for x in ra)),
            (b + Fraction(1, 6), (rb[0] + Fraction(1, 6), *rb[1:])),
        ]
        for x, reference in results:
            self.assert_canonical(x, reference)
        if b:
            inverse = b.inverse()
            assert reference_product(
                field, fraction_reference(inverse.coeffs), rb) \
                == fraction_reference(field.one.coeffs)
            self.assert_canonical(a / b, reference_product(
                field, ra, fraction_reference(inverse.coeffs)))

    @given(small_order_triples())
    @settings(max_examples=150, deadline=None)
    def test_equal_values_are_equal_and_hash_equal(self, triple):
        field, *lists = triple
        a, b, c = (CycloElement(field, x) for x in lists)
        ways = [a, a + b - b, (a * 6) / 6, a - c + c,
                CycloElement(field, a.coeffs), a + field.zero,
                a * field.one]
        if b:
            ways += [(a * b) / b, a / b * b, b * a * b.inverse()]
        for x in ways:
            assert x == a and hash(x) == hash(a)
            assert (x.num, x.den) == (a.num, a.den)
