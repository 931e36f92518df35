"""Exact arithmetic in Z[v, v^-1] and Q(v), plus quantum integers.

LaurentPoly is the coefficient ring of all integral-form computations;
RatFunc is the ground field Q(v) of the generic theory.  Both are
immutable and canonical, so structural equality is mathematical equality.

All arithmetic is over the integers: a gcd in Z[v, v^-1] is the primitive
pseudo-remainder sequence (Collins, Brown) in Z[v] times the gcd of the
contents, and exact division is integer long division.  RatFunc products
and sums follow Henrici (Knuth, TAOCP 4.5.1): a product cancels each
numerator against the other denominator, and a sum reduces only against
the gcd of the denominators, so reduced operands give a reduced result.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd as int_gcd


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    Stored as a dict exponent -> nonzero int.  Immutable; hashable.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                n = int(a)
                if n != a:
                    raise ValueError(f"non-integer coefficient {a!r}")
                if n:
                    c[int(e)] = n
        self.coeffs = c
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(n):
        return LaurentPoly({0: n})

    @staticmethod
    def monomial(coeff, exp):
        return LaurentPoly({exp: coeff})

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: 1}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def min_exp(self):
        return min(self.coeffs)

    def max_exp(self):
        return max(self.coeffs)

    def leading_coeff(self):
        return self.coeffs[self.max_exp()]

    def __getitem__(self, e):
        return self.coeffs.get(e, 0)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        c = dict(self.coeffs)
        for e, a in other.coeffs.items():
            s = c.get(e, 0) + a
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = c
        out._hash = None
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -a for e, a in self.coeffs.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out.coeffs = {e: a * other for e, a in self.coeffs.items()}
            out._hash = None
            return out
        x, y = self.coeffs, other.coeffs
        if len(x) < len(y):
            x, y = y, x
        if len(y) == 1:
            [(k, b)] = y.items()
            c = {e + k: a * b for e, a in x.items()}
        elif len(y) < _PACKED_MIN or (c := _packed_mul(x, y)) is None:
            c = {}
            for e1, a1 in x.items():
                for e2, a2 in y.items():
                    e = e1 + e2
                    s = c.get(e, 0) + a1 * a2
                    if s:
                        c[e] = s
                    else:
                        del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = c
        out._hash = None
        return out

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by v^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e + k: a for e, a in self.coeffs.items()}
        out._hash = None
        return out

    def subs_power(self, d):
        """Substitute v -> v^d."""
        return LaurentPoly({e * d: a for e, a in self.coeffs.items()})

    def content(self):
        return int_gcd(*self.coeffs.values())

    def is_unit(self):
        """True when the polynomial is +-v^k."""
        return len(self.coeffs) == 1 and abs(next(iter(self.coeffs.values()))) == 1

    def evaluate(self, xi_pow):
        """Evaluate at v = xi, given a function e -> xi^e (e may be negative)."""
        total = None
        for e, a in self.coeffs.items():
            term = xi_pow(e) * a
            total = term if total is None else total + term
        return total

    # -- division -------------------------------------------------------

    def exact_div(self, other):
        """The Laurent polynomial self / other, by integer long division from
        the top coefficient; ValueError when a leading coefficient does not
        divide or a remainder is left."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if not self.coeffs:
            return ZERO
        a, b = _dense(self), _dense(other)
        n, lb = len(b), b[-1]
        q = {}
        for k in range(len(a) - n, -1, -1):
            c = a[k + n - 1]
            if c:
                f, r = divmod(c, lb)
                if r:
                    raise ValueError("quotient not integral")
                q[k] = f
                for i, y in enumerate(b):
                    a[k + i] -= f * y
        if any(a):
            raise ValueError("inexact Laurent polynomial division")
        return _sparse(q.items(), self.min_exp() - other.min_exp())

    # -- printing -------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r})"

    def to_string(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            a = self.coeffs[e]
            if e == 0:
                term = str(abs(a))
            else:
                vp = "v" if e == 1 else f"v^{e}"
                term = vp if abs(a) == 1 else f"{abs(a)}*{vp}"
            sign = "-" if a < 0 else "+"
            parts.append((sign, term))
        sign0, term0 = parts[0]
        s = ("-" if sign0 == "-" else "") + term0
        for sign, term in parts[1:]:
            s += f" {sign} {term}"
        return s

    @staticmethod
    def parse(text):
        """Inverse of to_string; used by the on-disk cache."""
        text = text.strip()
        if text == "0":
            return LaurentPoly()
        coeffs = {}
        text = text.replace("- ", "+ -").replace(" ", "")
        for chunk in text.split("+"):
            if not chunk:
                continue
            neg = chunk.startswith("-")
            if neg:
                chunk = chunk[1:]
            if "v" not in chunk:
                a, e = int(chunk), 0
            else:
                head, _, tail = chunk.partition("v")
                a = int(head.rstrip("*")) if head.rstrip("*") else 1
                e = int(tail[1:]) if tail.startswith("^") else 1
            a = -a if neg else a
            coeffs[e] = coeffs.get(e, 0) + a
        return LaurentPoly(coeffs)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
V = LaurentPoly.monomial(1, 1)


def _dense(p):
    """The coefficients of p / v^min_exp(p), lowest degree first."""
    m = min(p.coeffs)
    out = [0] * (max(p.coeffs) - m + 1)
    for e, a in p.coeffs.items():
        out[e - m] = a
    return out


def _sparse(terms, shift=0):
    """The Laurent polynomial sum of a*v^(e + shift) over (e, a) in terms."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = {e + shift: a for e, a in terms if a}
    out._hash = None
    return out


# a product of operands with at least this many terms each is one integer
# product (Kronecker substitution) when its coefficients fit 64-bit slots,
# rather than a double loop over the terms
_PACKED_MIN = 12
_HALF = 1 << 63


def _offset(n):
    """The packing of n slots that each hold 2^63."""
    return _HALF * ((1 << 64 * n) - 1) // ((1 << 64) - 1)


def _pack(c, e0, g):
    """The integer sum of a * 2^(64 k) over the terms a*v^(e0 + g k) of the
    coefficient dict c."""
    n = (max(c) - e0) // g + 1
    digits = [_HALF] * n
    for e, a in c.items():
        digits[(e - e0) // g] = a + _HALF
    words = array("Q", digits)
    if sys.byteorder != "little":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little") - _offset(n)


def _packed_mul(x, y):
    """The product of two coefficient dicts from one integer product at
    v^g = 2^64, g their common exponent stride, or None when a coefficient
    of the product might not lie in [-2^63, 2^63), where a slot holds it."""
    if (max(map(abs, x.values())) * max(map(abs, y.values()))
            * min(len(x), len(y)) >= _HALF):
        return None
    ex, ey = min(x), min(y)
    g = int_gcd(*(e - ex for e in x), *(e - ey for e in y))
    n = (max(x) - ex + max(y) - ey) // g + 1
    words = array("Q")
    words.frombytes((_pack(x, ex, g) * _pack(y, ey, g)
                     + _offset(n)).to_bytes(8 * n, "little"))
    if sys.byteorder != "little":
        words.byteswap()
    return {ex + ey + g * k: d - _HALF for k, d in enumerate(words)
            if d != _HALF}


def _primitive_prem(f, g):
    """The primitive part of a pseudo-remainder of f by g in Z[v] (dense,
    len(f) >= len(g)); [] when g divides f."""
    r, n, lg = f[:], len(g), g[-1]
    while len(r) >= n:
        h = int_gcd(r[-1], lg)
        s, t = lg // h, r[-1] // h
        if s != 1:
            r = [s * x for x in r]
        for i, y in enumerate(g, len(r) - n):
            r[i] -= t * y
        while r and not r[-1]:
            r.pop()
    c = int_gcd(*r) if r else 1
    return [x // c for x in r] if c != 1 else r


def _poly_gcd_int(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """GCD in Z[v, v^-1], normalized with min exponent 0 and positive leading
    coefficient.  Computed by the primitive pseudo-remainder sequence in Z[v]
    on the primitive parts, times the gcd of the contents.
    """
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        if g.is_zero():
            return g
        g = _dense(g)
    else:
        ca, cb = a.content(), b.content()
        f, g = [x // ca for x in _dense(a)], [x // cb for x in _dense(b)]
        if len(f) < len(g):
            f, g = g, f
        while len(g) > 1:
            r = _primitive_prem(f, g)
            if not r:
                break
            f, g = g, r
        c = int_gcd(ca, cb)
        if c != 1:
            g = [c * x for x in g]
    if g[-1] < 0:
        g = [-x for x in g]
    return _sparse(enumerate(g))


def _normalize(num, den):
    """num/den with den shifted to min exponent 0 and positive leading
    coefficient."""
    e = den.min_exp()
    if e:
        num, den = num.shift(-e), den.shift(-e)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def _rat(num, den):
    """The RatFunc num/den of a pair already in canonical form."""
    out = RatFunc.__new__(RatFunc)
    out.num = num
    out.den = den
    out._hash = None
    return out


class RatFunc:
    """An element of Q(v), stored in canonical lowest terms.

    The denominator has min exponent 0 and positive leading coefficient,
    so equality of values is equality of representations.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(v)")
        self.num, self.den = self._reduce(num, den)
        self._hash = None

    @staticmethod
    def _reduce(num, den):
        if num.is_zero():
            return ZERO, ONE
        if not den.is_unit():
            g = _poly_gcd_int(num, den)
            if not g.is_one():
                num, den = num.exact_div(g), den.exact_div(g)
        return _normalize(num, den)

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatFunc":
        return _rat(p, ONE)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        """Henrici's sum: with g = gcd(d1, d2), t = a*(d2/g) + c*(d1/g) is
        prime to (d1/g)*(d2/g), so t is reduced against g only."""
        if isinstance(other, int):
            other = RatFunc(other)
        d1, d2 = self.den, other.den
        if d1.is_one() and d2.is_one():
            return _rat(self.num + other.num, ONE)
        if d1 == d2:
            g, e1, e2 = d1, ONE, ONE
        elif d1.is_one() or d2.is_one():
            g, e1, e2 = ONE, d1, d2
        else:
            g = _poly_gcd_int(d1, d2)
            e1, e2 = d1.exact_div(g), d2.exact_div(g)
        t = self.num * e2 + other.num * e1
        if not t:
            return R_ZERO
        if not g.is_one():
            h = _poly_gcd_int(t, g)
            if not h.is_one():
                t, g = t.exact_div(h), g.exact_div(h)
        return _rat(t, e1 * e2 * g)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        out._hash = None
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatFunc(other)
        return self + (-other)

    def __rsub__(self, other):
        return RatFunc(other) + (-self)

    def __mul__(self, other):
        """Henrici's product: cancel each numerator against the other
        denominator; the factors are reduced, so the product is."""
        if isinstance(other, int):
            other = RatFunc(other)
        a, d1, c, d2 = self.num, self.den, other.num, other.den
        if d1.is_one() and d2.is_one():
            return _rat(a * c, ONE)
        if not (a and c):
            return R_ZERO
        if not d2.is_one():
            g = _poly_gcd_int(a, d2)
            if not g.is_one():
                a, d2 = a.exact_div(g), d2.exact_div(g)
        if not d1.is_one():
            g = _poly_gcd_int(c, d1)
            if not g.is_one():
                c, d1 = c.exact_div(g), d1.exact_div(g)
        return _rat(a * c, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def inverse(self):
        """den/num is in lowest terms: only sign and shift are normalized."""
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        return _rat(*_normalize(self.den, self.num))

    def __repr__(self):
        return f"RatFunc({self.to_string()!r})"

    def to_string(self):
        if self.den.is_one():
            return self.num.to_string()
        return f"({self.num.to_string()})/({self.den.to_string()})"

    @staticmethod
    def parse(text):
        text = text.strip()
        if text.startswith("(") and ")/(" in text:
            n, _, d = text[1:-1].partition(")/(")
            return RatFunc(LaurentPoly.parse(n), LaurentPoly.parse(d))
        return RatFunc.from_poly(LaurentPoly.parse(text))


R_ZERO = RatFunc.from_poly(ZERO)
R_ONE = RatFunc.from_poly(ONE)


class RatFuncField:
    """Field object for generic exact linear algebra over Q(v): `image`
    embeds Z[v,v^-1], and a Q(v) `coefficient` is itself."""

    zero = R_ZERO
    one = R_ONE
    image = staticmethod(RatFunc.from_poly)

    @staticmethod
    def from_int(n):
        return RatFunc(n)

    @staticmethod
    def coefficient(f):
        return f


class LaurentRing:
    """Ring object for Z[v,v^-1], for algebras that never divide: a Q(v)
    `coefficient` must be a Laurent polynomial."""

    zero = ZERO
    one = ONE
    from_int = staticmethod(LaurentPoly.const)
    image = staticmethod(lambda p: p)

    @staticmethod
    def coefficient(f):
        if not f.den.is_one():
            raise ValueError(f"{f.to_string()} is not in Z[v,v^-1]")
        return f.num


# -- quantum integers ---------------------------------------------------


@lru_cache(maxsize=1024)
def qint(n, d=1):
    """[n] with v replaced by v^d: (v^{dn} - v^{-dn}) / (v^d - v^{-d})."""
    if n == 0:
        return LaurentPoly()
    sign = 1
    if n < 0:
        n, sign = -n, -1
    # [n] = v^{n-1} + v^{n-3} + ... + v^{1-n}, then v -> v^d
    return LaurentPoly({d * (n - 1 - 2 * k): sign for k in range(n)})


@lru_cache(maxsize=1024)
def qbinom(a, t, d=1):
    """Gaussian binomial, an element of Z[v, v^-1] for any integer a, t >= 0.

    Product formula: prod_{s=1}^{t} (v^{a-s+1} - v^{-(a-s+1)}) / (v^s - v^{-s}),
    with v replaced by v^d.
    """
    if t < 0:
        raise ValueError("lower index must be nonnegative")
    num = ONE
    den = ONE
    for s in range(1, t + 1):
        e = a - s + 1
        num = num * (LaurentPoly.monomial(1, e) - LaurentPoly.monomial(1, -e))
        den = den * (LaurentPoly.monomial(1, s) - LaurentPoly.monomial(1, -s))
    out = num.exact_div(den)
    return out.subs_power(d) if d != 1 else out


def is_integral(f: RatFunc):
    """The Laurent polynomial equal to f, or None when f is not in Z[v,v^-1].

    Because f is stored in lowest terms with normalized denominator, f lies
    in Z[v, v^-1] exactly when its denominator is 1.
    """
    if f.den.is_one():
        return f.num
    return None
