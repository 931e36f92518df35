"""The inverse limit of the tower of generalized q-Schur algebras, as lazily
evaluated coherent families, with the embeddings of the quantized enveloping
algebra and of its modified (idempotented) form, plus the identity checks
and probes that live at the limit level."""

from __future__ import annotations

from .intspec import r_truncation_map, specialize_schur
from .laurent import LaurentPoly, RatFunc, RatFuncField
from .linalg import SparseEchelon
from .rootdata import dominant_weights_up_to_height
from .schur import build_schur, truncation_map
from .words import WordExpr


class LimitElement:
    """An element of the inverse limit: a memoized evaluator sending each
    finite saturated set to an element of its algebra.

    The coherence contract (truncation of the evaluation at a larger set
    reproduces the evaluation at a smaller one) is checkable, not assumed;
    see verify_coherence.
    """

    __slots__ = ("datum", "_evaluator", "memo")

    def __init__(self, datum, evaluator):
        self.datum = datum
        self._evaluator = evaluator
        self.memo = {}

    def at(self, pi):
        key = pi.key()
        val = self.memo.get(key)
        if val is None:
            val = self._evaluator(pi)
            self.memo[key] = val
        return val

    def __add__(self, other):
        self._check(other)
        return LimitElement(self.datum,
                            lambda pi: self.at(pi) + other.at(pi))

    def __sub__(self, other):
        self._check(other)
        return LimitElement(self.datum,
                            lambda pi: self.at(pi) - other.at(pi))

    def __mul__(self, other):
        if not isinstance(other, LimitElement):  # a scalar of the ring
            return LimitElement(self.datum,
                                lambda pi: self.at(pi).scale(other))
        self._check(other)
        return LimitElement(self.datum,
                            lambda pi: self.at(pi) * other.at(pi))

    def __neg__(self):
        return LimitElement(self.datum, lambda pi: -self.at(pi))

    def _check(self, other):
        if self.datum.key() != other.datum.key():
            raise ValueError("limit elements over different root data")

    def __repr__(self):
        return f"LimitElement(datum={self.datum!r})"


# -- constant families -------------------------------------------------------


def hat_E(datum, sign, i):
    return LimitElement(datum, lambda pi: build_schur(pi).generator(sign, i))


def hat_one(datum, lam):
    lam = tuple(lam)
    return LimitElement(datum, lambda pi: build_schur(pi).idempotent(lam))


def hat_K(datum, h):
    h = tuple(h)
    return LimitElement(datum, lambda pi: build_schur(pi).k_element(h))


def hat_divided(datum, sign, i, k):
    return LimitElement(datum,
                        lambda pi: build_schur(pi).divided_power(sign, i, k))


# -- the two embeddings ------------------------------------------------------


def theta(datum, expr: WordExpr):
    """The family of images of an unmodified word expression in every
    truncation; coherence is automatic since truncation fixes generators."""
    return LimitElement(datum, lambda pi: build_schur(pi).evaluate_expr(expr))


def theta_dot(datum, expr: WordExpr, point=None):
    """The family of images of a modified-form expression (every word must
    contain an idempotent symbol), over Q(v) or, given a RingPoint, in the
    specializations at that point."""
    if not expr.is_modified():
        raise ValueError("expression is not in the modified form: some word "
                         "carries no idempotent")
    if point is None:
        return theta(datum, expr)
    return LimitElement(
        datum, lambda pi: specialize_schur(pi, point).evaluate_expr(expr))


# -- coherence ---------------------------------------------------------------


def _link_holds(element, small, large, point=None):
    """Truncation of the evaluation at `large` equals the evaluation at
    `small`, over Q(v) or in the specializations at `point`."""
    f = (truncation_map(small, large) if point is None
         else r_truncation_map(small, large, point))
    return f.apply(element.at(large)) == element.at(small)


def verify_coherence(element, chain, point=None):
    """Check the compatibility condition along a nested chain of saturated
    sets, over Q(v) or in the specializations at `point`; returns a report
    with witnesses for failures."""
    links = []
    ok = True
    for small, large in zip(chain, chain[1:]):
        if not small.issubset(large):
            raise ValueError("chain is not nested")
        passed = _link_holds(element, small, large, point)
        witness = None
        if not passed:
            ok = False
            witness = {"pi": list(small), "pi_prime": list(large)}
        links.append({"pi": list(small), "pi_prime": list(large),
                      "ok": passed, "witness": witness})
    return {"ok": ok, "links": links}


def cofinal_consistency(element, chain1, chain2):
    """Compare evaluations across two chains: whenever one set contains
    another (across chains), truncation must reproduce the smaller
    evaluation."""
    comparisons = []
    ok = True
    for a in chain1:
        for b in chain2:
            if a.issubset(b):
                small, large = a, b
            elif b.issubset(a):
                small, large = b, a
            else:
                continue
            passed = _link_holds(element, small, large)
            ok = ok and passed
            comparisons.append({"pi": list(small), "pi_prime": list(large),
                                "ok": passed})
    return {"ok": ok, "comparisons": comparisons}


# -- relation checks at truncations ------------------------------------------


def check_Kh_identity(pi):
    """K_h equals the weighted sum of idempotents in the algebra of pi, for
    h running over the simple coroots and their negatives."""
    S = build_schur(pi)
    datum = S.datum
    report = []
    coweights = [h for h in datum.simple_coroots]
    coweights += [tuple(-x for x in h) for h in datum.simple_coroots]
    for h in coweights:
        rhs = S.zero()
        for lam in sorted(S.orbit):
            n = datum.pair(h, lam)
            rhs = rhs + S.idempotent(lam).scale(
                RatFunc.from_poly(LaurentPoly.monomial(1, n)))
        ok = S.k_element(h) == rhs
        report.append({"relation": f"K_h=sum(v^<h,lam> 1_lam), h={h}",
                       "ok": ok, "witness": None})
    return report


def check_uhat_relations(pi):
    """The defining relations of the truncated algebras, projected to pi;
    the weight-indexed sums truncate to the orbit of pi."""
    return build_schur(pi).verify_presentation()


def check_u_relations(pi):
    """The unmodified-algebra relations for the hatted generators, projected
    to the algebra of pi: K-group law, K-E intertwining, commutator, Serre."""
    S = build_schur(pi)
    datum = S.datum
    r = datum.rank
    report = []

    def entry(name, ok, witness=None):
        report.append({"relation": name, "ok": bool(ok), "witness": witness})

    coweights = list(datum.simple_coroots)
    coweights += [tuple(-x for x in h) for h in datum.simple_coroots]

    # (a) group law and unit
    ok = True
    for h in coweights:
        for hp in coweights:
            hsum = tuple(a + b for a, b in zip(h, hp))
            if not (S.k_element(h) * S.k_element(hp) == S.k_element(hsum)):
                ok = False
                entry("a:K-group-law", False, {"h": h, "h'": hp})
    if ok:
        entry("a:K-group-law", True)
    entry("a:K-zero", S.k_element((0,) * datum.rank_y) == S.one())
    ok = True
    for h in coweights:
        neg = tuple(-x for x in h)
        if not (S.k_element(h) * S.k_element(neg) == S.one()):
            ok = False
            entry("a:K-inverse", False, {"h": h})
    if ok:
        entry("a:K-inverse", True)

    # (b) K E K^{-1} = v^{+-<h,alpha_i>} E
    ok = True
    for h in coweights:
        neg = tuple(-x for x in h)
        for i in range(r):
            n = datum.pair(h, datum.simple_roots[i])
            for sign in (1, -1):
                lhs = S.k_element(h) * S.generator(sign, i) * S.k_element(neg)
                rhs = S.generator(sign, i).scale(
                    RatFunc.from_poly(LaurentPoly.monomial(1, sign * n)))
                if not (lhs == rhs):
                    ok = False
                    entry("b:K-E-intertwine", False,
                          {"h": h, "i": i, "sign": sign})
    if ok:
        entry("b:K-E-intertwine", True)

    # (c) commutator against (K_i - K_{-i})/(v_i - v_i^{-1})
    ok = True
    for i in range(r):
        for j in range(r):
            lhs = (S.generator(1, i) * S.generator(-1, j)
                   - S.generator(-1, j) * S.generator(1, i))
            rhs = S.zero()
            if i == j:
                d = datum.cartan.d(i)
                hi = datum.simple_coroots[i]
                ktilde_p = S.k_element(tuple(d * x for x in hi))
                ktilde_m = S.k_element(tuple(-d * x for x in hi))
                denom = RatFunc.from_poly(LaurentPoly.monomial(1, d)
                                          - LaurentPoly.monomial(1, -d))
                rhs = (ktilde_p - ktilde_m).scale(denom.inverse())
            if not (lhs == rhs):
                ok = False
                entry("c:commutator", False, {"i": i, "j": j})
    if ok:
        entry("c:commutator", True)

    # (d) Serre, shared with the truncated presentation
    report.extend(S.verify_serre())
    return report


# -- probes ------------------------------------------------------------------


_schedule_cache = {}


def probe_schedule(datum, height_bound):
    """Default schedule of saturated sets: the downward closures of single
    dominant weights, enumerated by height.  Cofinal in the full system.
    Memoized per (datum, height_bound); the schedule is a tuple."""
    key = (datum.key(), height_bound)
    sched = _schedule_cache.get(key)
    if sched is None:
        out = []
        for mu in dominant_weights_up_to_height(datum, height_bound):
            pi = datum.saturate([mu])
            if pi not in out:
                out.append(pi)
        sched = _schedule_cache[key] = tuple(out)
    return sched


def separation_probe(datum, expr: WordExpr, height_bound):
    """Search the schedule for a saturated set where the modified-form
    expression has nonzero image; None is inconclusive, never a zero claim."""
    el = theta_dot(datum, expr)
    for pi in probe_schedule(datum, height_bound):
        if not el.at(pi).is_zero():
            return pi
    return None


def coherent_basis_check(datum, exprs, pi):
    """Project a family of modified-form expressions to the algebra of pi,
    discard zero images, and report (independent, spanning, rank)."""
    S = build_schur(pi)
    ech = SparseEchelon(RatFuncField)
    nonzero = 0
    independent = True
    for expr in exprs:
        img = S.evaluate_expr(expr)
        if img.is_zero():
            continue
        nonzero += 1
        if not ech.insert(img.flatten()):
            independent = False
    return {"nonzero_images": nonzero,
            "rank": ech.rank,
            "independent": independent,
            "spanning": ech.rank == S.dimension(),
            "dimension": S.dimension()}
