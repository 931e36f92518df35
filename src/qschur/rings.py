"""Exact specialization targets: the rational field, cyclotomic fields and
prime fields.

A RingPoint bundles a field with an invertible element xi, the image of v,
and maps Laurent polynomials and rational functions there.
Cyclotomic arithmetic is done in Q[x] modulo the n-th cyclotomic polynomial,
so evaluation at roots of unity stays exact.  A point of a prime field F_p
is where `schur.SchurAlgebra` proves density over Q(v).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

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
    """The rational field, wrapping fractions.Fraction."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    def __repr__(self):
        return "QField()"

    def __eq__(self, other):
        return isinstance(other, QField)

    def __hash__(self):
        return hash("QField")


class Residue:
    """An element n of the prime field F_p, 0 <= n < p."""

    __slots__ = ("p", "n")

    def __init__(self, p, n):
        self.p, self.n = p, n % p

    def __add__(self, other):
        return Residue(self.p, self.n + other.n)

    def __sub__(self, other):
        return Residue(self.p, self.n - other.n)

    def __neg__(self):
        return Residue(self.p, -self.n)

    def __mul__(self, other):       # by a residue or an int
        return Residue(self.p, self.n * getattr(other, "n", other))

    def __truediv__(self, other):
        return Residue(self.p, self.n * pow(other.n, -1, self.p))

    def __bool__(self):
        return self.n != 0

    def __eq__(self, other):
        return isinstance(other, Residue) \
            and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"Residue({self.n} mod {self.p})"


class PrimeField:
    """The prime field F_p, whose elements are `Residue`s."""

    def __init__(self, p):
        self.p, self.name = p, f"prime({p})"
        self.zero, self.one = Residue(p, 0), Residue(p, 1)

    def from_int(self, n):
        return Residue(self.p, n)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class CycloElement:
    """An element of Q[x] / Phi_n(x), stored as a coefficient tuple:
    `int` coefficients, and a `Fraction` only where an inverse divides."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != field.degree:
            raise ValueError(f"{len(self.coeffs)} coefficients for "
                             f"{field.name} of degree {field.degree}")

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return CycloElement(self.field,
                            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.field.from_int(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.field, [a * other for a in self.coeffs])
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return self * other.inverse()

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
        return CycloElement(self, [n] + [0] * (self.degree - 1))

    def zeta(self):
        """The class of x: a primitive root of unity of this order."""
        if self.degree == 1:
            # Phi_1 = x - 1, Phi_2 = x + 1: x reduces to a rational
            return self.from_int(1 if self.order == 1 else -1)
        return CycloElement(self, [0, 1] + [0] * (self.degree - 2))

    def _reduce(self, coeffs):
        c = list(coeffs)
        d = self.degree
        for i in range(len(c) - 1, d - 1, -1):
            f = c[i]
            if f:
                for j in range(d + 1):
                    c[i - d + j] -= f * self.modulus[j]
        return CycloElement(self, c[:d])

    def _mul(self, a, b):
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return self._reduce(out)

    def _inverse(self, a):
        """The product of the Galois conjugates of a other than a, divided
        by the norm (a times that product, a rational number).  The
        conjugate for k prime to n sends x to x^k, and x^n = 1."""
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        n = self.order
        rest = self.one
        for k in range(2, n):
            if gcd(k, n) == 1:
                c = [0] * n
                for j, x in enumerate(a.coeffs):
                    c[j * k % n] += x
                rest = rest * self._reduce(c)
        norm = (a * rest).coeffs[0]
        quots = [Fraction(x) / norm for x in rest.coeffs]
        return CycloElement(self, [q.numerator if q.denominator == 1 else q
                                   for q in quots])


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
        return RingPoint(QField(), Fraction(xi))

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
