"""Exact arithmetic in Z[v, v^-1] and Q(v), plus quantum integers.

LaurentPoly is the coefficient ring of all integral-form computations;
RatFunc is the ground field Q(v) of the generic theory.  Both are
immutable and canonical, so structural equality is mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    Stored as a dict exponent -> nonzero int.  Immutable; hashable.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    c[int(e)] = int(a)
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
        c = {}
        for e1, a1 in self.coeffs.items():
            for e2, a2 in other.coeffs.items():
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

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by v^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e + k: a for e, a in self.coeffs.items()}
        out._hash = None
        return out

    def subs_power(self, d):
        """Substitute v -> v^d."""
        return LaurentPoly({e * d: a for e, a in self.coeffs.items()})

    def bar(self):
        """Substitute v -> v^-1."""
        return LaurentPoly({-e: a for e, a in self.coeffs.items()})

    def content(self):
        g = 0
        for a in self.coeffs.values():
            g = int_gcd(g, abs(a))
        return g

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

    def divmod_poly(self, other):
        """Quotient and remainder when both sides are shifted into Z[v].

        Performs pseudo-free division only when exact; returns (q, r) with
        self = q*other + r as Laurent polynomials, computed by fraction
        division over Q then verified integral by the caller if needed.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        # work over Q[v] after clearing the v-valuation
        s_min = self.min_exp() if self.coeffs else 0
        o_min = other.min_exp()
        a = {e - s_min: Fraction(c) for e, c in self.coeffs.items()}
        b = {e - o_min: Fraction(c) for e, c in other.coeffs.items()}
        db = max(b)
        lb = b[db]
        q = {}
        while a:
            da = max(a)
            if da < db:
                break
            f = a[da] / lb
            q[da - db] = f
            for e, c in b.items():
                ne = e + da - db
                s = a.get(ne, Fraction(0)) - f * c
                if s:
                    a[ne] = s
                else:
                    a.pop(ne, None)
        shift = s_min - o_min
        qq = {e + shift: c for e, c in q.items()}
        rr = {e + s_min: c for e, c in a.items()}
        return qq, rr

    def exact_div(self, other):
        """Exact division; raises ValueError when the division is not exact."""
        q, r = self.divmod_poly(other)
        if r:
            raise ValueError("inexact Laurent polynomial division")
        out = {}
        for e, c in q.items():
            if c.denominator != 1:
                raise ValueError("quotient not integral")
            if c:
                out[e] = int(c)
        return LaurentPoly(out)

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
        if text.startswith("-"):
            text = "-" + text[1:]
        for chunk in text.replace("+-", "+-").split("+"):
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


def _poly_gcd_int(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """GCD in Z[v, v^-1], normalized with min exponent 0 and positive leading
    coefficient.  Computed by monic Euclid over Q[v] plus content bookkeeping.
    """
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


class RatFunc:
    """An element of Q(v), stored in canonical lowest terms.

    The denominator has min exponent 0 and positive leading coefficient,
    so equality of values is equality of representations.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _reduced=False):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(v)")
        if not _reduced:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _reduce(num, den):
        if num.is_zero():
            return ZERO, ONE
        if den.is_unit():
            e = den.min_exp()
            c = den.coeffs[e]
            num = num.shift(-e)
            if c < 0:
                num = -num
            return num, ONE
        g = _poly_gcd_int(num, den)
        if not g.is_one():
            num = num.exact_div(g)
            den = den.exact_div(g)
        # normalize denominator: min exponent 0, positive leading coefficient
        e = den.min_exp()
        if e:
            den = den.shift(-e)
            num = num.shift(-e)
        if den.leading_coeff() < 0:
            den = -den
            num = -num
        if den.is_unit():
            return RatFunc._reduce(num, den)
        return num, den

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = p
        out.den = ONE
        out._hash = None
        return out

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
        if isinstance(other, int):
            other = RatFunc(other)
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

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
        if isinstance(other, int):
            other = RatFunc(other)
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def inverse(self):
        return RatFunc(self.den, self.num)

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
    """Field object for generic exact linear algebra over Q(v)."""

    zero = R_ZERO
    one = R_ONE

    @staticmethod
    def from_int(n):
        return RatFunc(n)


# -- quantum integers ---------------------------------------------------


def qint(n, d=1):
    """[n] with v replaced by v^d: (v^{dn} - v^{-dn}) / (v^d - v^{-d})."""
    if n == 0:
        return LaurentPoly()
    sign = 1
    if n < 0:
        n, sign = -n, -1
    # [n] = v^{n-1} + v^{n-3} + ... + v^{1-n}, then v -> v^d
    return LaurentPoly({d * (n - 1 - 2 * k): sign for k in range(n)})


def qfact(n, d=1):
    """[n]! = [1][2]...[n] with v replaced by v^d."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    out = ONE
    for k in range(2, n + 1):
        out = out * qint(k, d)
    return out


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
