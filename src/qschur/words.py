"""Formal Q(v)-linear combinations of words in the generators.

Symbols:
    ("E", sign, i)        a raising (sign=+1) or lowering (sign=-1) generator
    ("Ed", sign, i, k)    the k-th divided power of the above
    ("K", h)              the grouplike element for the coweight tuple h
    ("1", lam)            the idempotent at the weight tuple lam

Words are tuples of symbols; an expression maps words to coefficients.
Expressions built only from E/Ed/K symbols live in the unmodified algebra;
expressions whose every word contains an idempotent live in the modified
(idempotented) algebra.
"""

from __future__ import annotations

from .laurent import RatFunc, R_ONE


class WordExpr:
    """A finite formal linear combination of generator words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for w, c in terms.items():
                if isinstance(c, int):
                    c = RatFunc(c)
                if not c.is_zero():
                    t[w] = c
        self.terms = t

    # -- constructors -----------------------------------------------------

    @staticmethod
    def E(i, sign=1):
        return WordExpr({(("E", 1 if sign > 0 else -1, i),): R_ONE})

    @staticmethod
    def F(i):
        return WordExpr.E(i, sign=-1)

    @staticmethod
    def divided(i, k, sign=1):
        if k == 0:
            return WordExpr({(): R_ONE})
        return WordExpr({(("Ed", 1 if sign > 0 else -1, i, k),): R_ONE})

    @staticmethod
    def K(h):
        return WordExpr({(("K", tuple(h)),): R_ONE})

    @staticmethod
    def idem(lam):
        return WordExpr({(("1", tuple(lam)),): R_ONE})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                t.pop(w, None)
            else:
                t[w] = s
        out = WordExpr.__new__(WordExpr)
        out.terms = t
        return out

    def __neg__(self):
        out = WordExpr.__new__(WordExpr)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = t.get(w)
                s = c if s is None else s + c
                if s.is_zero():
                    t.pop(w, None)
                else:
                    t[w] = s
        out = WordExpr.__new__(WordExpr)
        out.terms = t
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        if isinstance(c, int):
            c = RatFunc(c)
        if c.is_zero():
            return WordExpr()
        out = WordExpr.__new__(WordExpr)
        out.terms = {w: c * x for w, x in self.terms.items()}
        return out

    def is_modified(self):
        """True when every word carries at least one idempotent symbol, so
        that the expression lies in the modified (idempotented) algebra."""
        return all(any(sym[0] == "1" for sym in w) for w in self.terms)

    def __repr__(self):
        if not self.terms:
            return "WordExpr(0)"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w].to_string()
            word = "*".join(_sym_str(s) for s in w) if w else "1"
            bits.append(f"({c})*{word}")
        return "WordExpr(" + " + ".join(bits) + ")"


def _sym_str(sym):
    if sym[0] == "E":
        return f"E[{'+' if sym[1] > 0 else '-'}{sym[2]}]"
    if sym[0] == "Ed":
        return f"E[{'+' if sym[1] > 0 else '-'}{sym[2]}]^({sym[3]})"
    if sym[0] == "K":
        return f"K{list(sym[1])}"
    return f"1_{list(sym[1])}"
