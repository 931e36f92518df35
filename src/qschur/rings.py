"""Exact specialization targets: the rational field and cyclotomic fields.

A RingPoint bundles a field with an invertible element xi, the image of v,
and maps Laurent polynomials and rational functions there.
Cyclotomic arithmetic is done in Q[x] modulo the n-th cyclotomic polynomial,
on integer coefficients over one integer denominator, so evaluation at roots
of unity stays exact and builds no `Fraction`.  Points of F_p, where
`schur.SchurAlgebra` proves density over Q(v), take no field object: they
run on plain ints through the mod-p kernel of `linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .laurent import LaurentPoly, RatFunc


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated where its denominator
    vanishes."""


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n):
    """Integer coefficient tuple (low to high) of the n-th cyclotomic
    polynomial: x^n - 1 divided by Phi_d for every proper divisor d.  Each
    Phi_d is monic, so the division stays in the integers."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    poly = LaurentPoly({0: -1, n: 1})
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(
                LaurentPoly(dict(enumerate(cyclotomic_coeffs(d)))))
    return tuple(poly[e] for e in range(poly.max_exp() + 1))


class QField:
    """Field object for the rational field, wrapping fractions.Fraction."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)
    from_int = Fraction


class CycloElement:
    """An element of Q[x] / Phi_n(x): integer coefficients `num` over one
    integer denominator `den` > 0, in lowest terms, so arithmetic runs on
    integers and equal elements store equal tuples.  `coeffs` reads them
    as rationals: an `int` where whole, else a `Fraction`."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)          # ints or Fractions
        if len(coeffs) != field.degree:
            raise ValueError(f"{len(coeffs)} coefficients for "
                             f"{field.name} of degree {field.degree}")
        den = lcm(*(c.denominator for c in coeffs))
        e = field._elem([int(c * den) for c in coeffs], den)
        self.field, self.num, self.den = field, e.num, e.den

    @property
    def coeffs(self):
        d = self.den
        return self.num if d == 1 else tuple(
            Fraction(x, d) if x % d else x // d for x in self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        other = self.field._lift(other)
        return NotImplemented if other is None else (
            (self.field.order, self.num, self.den)
            == (other.field.order, other.num, other.den))

    def __hash__(self):
        if any(self.num[1:]):
            return hash((self.field.order, self.num, self.den))
        # a rational value hashes as the int or Fraction it equals
        return hash(self.num[0] if self.den == 1
                    else Fraction(self.num[0], self.den))

    def __add__(self, other, sign=1):
        other = self.field._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        return self.field._elem(
            [x * b + sign * y * a for x, y in zip(self.num, other.num)],
            a * b)

    __radd__ = __add__

    def __neg__(self):
        return self.field._elem([-x for x in self.num], self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, CycloElement):
            return self.field._mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.field._elem([x * other.numerator for x in self.num],
                                    self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field._lift(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):      # an int or a Fraction over self
        other = self.field._lift(other)
        return NotImplemented if other is None else other * self.inverse()

    def inverse(self):
        return self.field._inverse(self)

    def __repr__(self):
        return (f"CycloElement(n={self.field.order}, "
                f"{list(map(Fraction, self.coeffs))})")


class CycloField:
    """The cyclotomic field Q(zeta_n) as a polynomial quotient."""

    def __init__(self, order):
        self.order = order
        self.modulus = cyclotomic_coeffs(order)
        self.degree = len(self.modulus) - 1
        self.name = f"cyclotomic({order})"
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def __eq__(self, other):
        return isinstance(other, CycloField) and self.order == other.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def __repr__(self):
        return f"CycloField({self.order})"

    def from_int(self, n):
        """The constant n, an int or a Fraction."""
        return self._elem((n.numerator,) + (0,) * (self.degree - 1),
                          n.denominator)

    def _lift(self, q):
        """q as an element of this field, or None if q is not rational."""
        if isinstance(q, CycloElement):
            return q
        return self.from_int(q) if isinstance(q, (int, Fraction)) else None

    def _elem(self, num, den=1):
        """The element num / den, for integers num and den != 0."""
        if den != 1:
            g = gcd(den, *num) if den > 0 else -gcd(den, *num)
            if g != 1:
                num, den = [x // g for x in num], den // g
        e = CycloElement.__new__(CycloElement)
        e.field, e.num, e.den = self, tuple(num), den
        return e

    def zeta(self):
        """The class of x: a primitive root of unity of this order."""
        return self._elem(self._reduce([0, 1] + [0] * (self.degree - 1)))

    def _reduce(self, c):
        """The integer list c reduced in place modulo the monic Phi_n."""
        d = self.degree
        for i in range(len(c) - 1, d - 1, -1):
            f = c[i]
            if f:
                for j, m in enumerate(self.modulus):
                    c[i - d + j] -= f * m
        return c[:d]

    def _product(self, p, q):
        """The reduced product of two integer coefficient sequences."""
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(p):
            if x:
                for j, y in enumerate(q):
                    if y:
                        out[i + j] += x * y
        return self._reduce(out)

    def _mul(self, a, b):
        return self._elem(self._product(a.num, b.num), a.den * b.den)

    def _inverse(self, a):
        """For a = A / den with A integral: den times the product R of the
        Galois conjugates of A other than A, divided by the integer norm
        A R.  The conjugate for k prime to n sends x to x^k, and x^n = 1."""
        if not a:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        n = self.order
        rest = self.one.num
        for k in range(2, n):
            if gcd(k, n) == 1:
                c = [0] * n
                for j, x in enumerate(a.num):
                    c[j * k % n] += x
                rest = self._product(rest, self._reduce(c))
        return self._elem([x * a.den for x in rest],
                          self._product(a.num, rest)[0])


class RingPoint:
    """A target field together with the invertible image xi of v: the
    field object of the algebras specialized at v -> xi.  Its `zero`,
    `one` and `from_int` are those of `field`; `image` and `coefficient`
    map Z[v,v^-1] and Q(v) into `field`."""

    def __init__(self, field, xi):
        self.field = field
        self.xi = xi
        if not xi:
            raise ValueError("xi must be invertible")
        self.zero, self.one = field.zero, field.one
        self.from_int = field.from_int
        self._xi_inv = field.one / xi
        self._pow_cache = {0: field.one, 1: self.xi, -1: self._xi_inv}

    @staticmethod
    def rational(xi):
        return RingPoint(QField, Fraction(xi))

    @staticmethod
    def cyclotomic(order):
        """The point xi = zeta_order, the primitive root of Q(zeta_order)."""
        field = CycloField(order)
        return RingPoint(field, field.zeta())

    def xi_pow(self, e):
        cache = self._pow_cache
        if e in cache:
            return cache[e]
        base = self.xi if e > 0 else self._xi_inv
        out = self.field.one
        for _ in range(abs(e)):
            out = out * base
        cache[e] = out
        return out

    def image(self, poly: LaurentPoly):
        """The image of a Laurent polynomial under v -> xi."""
        val = poly.evaluate(self.xi_pow)
        return self.zero if val is None else val

    def coefficient(self, f: RatFunc):
        """Exact image of f in Q(v) under v -> xi; raises PoleError at a
        vanishing denominator."""
        if f.den.is_one():
            return self.image(f.num)
        den = self.image(f.den)
        if not den:
            raise PoleError(
                f"denominator {f.den.to_string()} vanishes at xi={self.xi!r}")
        return self.image(f.num) / den

    def __eq__(self, other):
        return (isinstance(other, RingPoint)
                and (self.field, self.xi) == (other.field, other.xi))

    def __hash__(self):
        return hash((self.field, self.xi))

    def __repr__(self):
        return f"RingPoint({self.field.name}, xi={self.xi!r})"
