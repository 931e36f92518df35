"""The inverse limit of the tower of generalized q-Schur algebras, as lazily
evaluated coherent families, with the embeddings of the quantized enveloping
algebra and of its modified (idempotented) form, plus the identity checks
and probes that live at the limit level.  Coherence compares the blocks of
the values themselves, in whatever ring they lie."""

from __future__ import annotations

from .intspec import specialize_schur
from .laurent import LaurentPoly, RatFuncField
from .linalg import SparseEchelon
from .rootdata import dominant_weights_up_to_height
from .schur import SchurAlgebra, build_schur, expr_block, relation_rows
from .weylmod import weyl_module, word_walk
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
        val = self.memo.get(pi)
        if val is None:
            val = self.memo[pi] = self._evaluator(pi)
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
        if self.datum != other.datum:
            raise ValueError("limit elements over different root data")

    def __repr__(self):
        return f"LimitElement(datum={self.datum!r})"


# -- constant families -------------------------------------------------------


def hat_E(datum, sign, i):
    return LimitElement(datum, lambda pi: build_schur(pi).generator(sign, i))


# a weight diagonal reads only the weights of each module, so hat_one and
# hat_K take an algebra that lowers none of them, not `build_schur`'s
def hat_one(datum, lam):
    lam = tuple(lam)
    return LimitElement(datum, lambda pi: SchurAlgebra(pi).idempotent(lam))


def hat_K(datum, h):
    h = tuple(h)
    return LimitElement(datum, lambda pi: SchurAlgebra(pi).k_element(h))


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


def _link_holds(element, small, large):
    """The evaluation at `large`, restricted to the blocks of `small`, is
    the evaluation at `small`, with scalars in the same ring."""
    big, little = element.at(large), element.at(small)
    return ((big.algebra.pi, little.algebra.pi) == (large, small)
            and big.algebra.field == little.algebra.field
            and tuple(big.blocks[list(large).index(lam)] for lam in small)
            == little.blocks)


def verify_coherence(element, chain):
    """Check the compatibility condition along a nested chain of saturated
    sets, in whatever ring the values of the element lie; returns a report
    with witnesses for failures."""
    links = []
    for small, large in zip(chain, chain[1:]):
        if not small.issubset(large):
            raise ValueError("chain is not nested")
        passed = _link_holds(element, small, large)
        link = {"pi": list(small), "pi_prime": list(large)}
        links.append({**link, "ok": passed,
                      "witness": None if passed else link})
    return {"ok": all(link["ok"] for link in links), "links": links}


def cofinal_consistency(element, chain1, chain2):
    """Compare evaluations across two chains: whenever one set contains
    another (across chains), truncation must reproduce the smaller
    evaluation."""
    comparisons = []
    for a in chain1:
        for b in chain2:
            if a.issubset(b):
                small, large = a, b
            elif b.issubset(a):
                small, large = b, a
            else:
                continue
            comparisons.append({"pi": list(small), "pi_prime": list(large),
                                "ok": _link_holds(element, small, large)})
    return {"ok": all(c["ok"] for c in comparisons),
            "comparisons": comparisons}


# -- relation checks at truncations ------------------------------------------


def check_Kh_identity(pi):
    """K_h equals the weighted sum of idempotents in the algebra of pi, for
    h running over the simple coroots and their negatives: by the grading
    where `BlockAlgebra.graded` holds, as K_h and 1_lam lift to weight
    diagonals by construction."""
    S = build_schur(pi)
    datum = S.datum
    graded = S.graded()
    report = []
    for h in _coweights(datum):
        rhs = S.zero()
        for lam in [] if graded else sorted(S.orbit):
            rhs = rhs + S.idempotent(lam).scale(
                S.field.image(LaurentPoly.monomial(1, datum.pair(h, lam))))
        report += relation_rows(f"K_h=sum(v^<h,lam> 1_lam), h={h}",
                                [] if graded or S.k_element(h) == rhs
                                else [None])
    return report


def check_u_relations(pi):
    """The unmodified-algebra relations for the hatted generators, projected
    to the algebra of pi: K-group law, K-E intertwining, commutator, Serre;
    the K rows by the grading where `BlockAlgebra.graded` holds, as each
    K_h lifts to the diagonal v^<h, nu> by construction."""
    S = build_schur(pi)
    datum = S.datum
    r = datum.rank
    K = S.k_element
    coweights = _coweights(datum)
    loop = [] if S.graded() else coweights

    # (a) group law and unit
    bad = []
    for h in loop:
        for hp in coweights:
            if K(h) * K(hp) != K(tuple(a + b for a, b in zip(h, hp))):
                bad.append({"h": h, "h'": hp})
    report = relation_rows("a:K-group-law", bad)
    zero = K((0,) * datum.rank_x)
    report += relation_rows("a:K-zero", [] if zero == S.one() else [None])
    bad = [{"h": h} for h in loop if K(h) * K(_neg(h)) != S.one()]
    report += relation_rows("a:K-inverse", bad)

    # (b) K E K^{-1} = v^{+-<h,alpha_i>} E
    bad = []
    for h in loop:
        for i in range(r):
            n = datum.pair(h, datum.simple_roots[i])
            for sign in (1, -1):
                g = S.generator(sign, i)
                if K(h) * g * K(_neg(h)) != g.scale(
                        S.field.image(LaurentPoly.monomial(1, sign * n))):
                    bad.append({"h": h, "i": i, "sign": sign})
    report += relation_rows("b:K-E-intertwine", bad)

    # (c) and (d), the rows of the truncated presentation: K_{d h_i} is the
    # weight diagonal v^<d h_i, nu>, so (K_{d h_i} - K_{-d h_i})/(v^d - v^-d)
    # is the diagonal [<h_i, nu>]_d, the right side of its commutator row
    return report + [row for row in S.verify_presentation()
                     if row["relation"] in ("c:commutator", "d:serre")]


def _coweights(datum):
    """The simple coroots and their negatives."""
    return list(datum.simple_coroots) + list(map(_neg, datum.simple_coroots))


def _neg(h):
    return tuple(-x for x in h)


# -- probes ------------------------------------------------------------------


def probe_schedule(datum, height_bound):
    """Default schedule of saturated sets: the downward closures of single
    dominant weights, enumerated by height.  Cofinal in the full system.
    Memoized per height bound in a table of the datum, as its saturations
    are; the schedule is a tuple, and its sets and their orbits are the
    datum's own, shared between bounds.  In height order the weights below
    mu come first, so `RootDatum._saturate` makes down(mu) {mu} and unions
    of memoized sets one root below: exact, as each is closed under its
    steps.  mu tops its set, so sets differ."""
    return datum._memo(datum._schedule_memo, height_bound, lambda h: tuple(
        datum.saturate([mu])
        for mu in dominant_weights_up_to_height(datum, h)))


def separation_probe(datum, expr: WordExpr, height_bound):
    """Search the schedule for a saturated set where the modified-form
    expression has nonzero image; None is inconclusive, never a zero claim.

    The schedule is the principal sets down(mu) in height order, and
    S(down(mu)) is the sum of End L(nu) over nu <= mu.  Each nu < mu has a
    smaller height, so down(nu) comes earlier, and the first set where the
    expression is nonzero is the first down(mu) where its top block, its
    image on L(mu), is nonzero: only that block is computed, over Q(v)
    (`expr_block`).  S(pi) is the quotient of the modified form by the
    1_lam with lam outside W.pi, and every symbol maps weight spaces to
    weight spaces, so a set where every word passes a weight outside W.pi
    is skipped unbuilt.

    A probe of a one-index word, one word whose E and Ed symbols all carry
    one simple index i (with any K and 1 symbols), builds no module: the
    word's top block is nonzero exactly when its path lies in wt L(mu).
    The K_h act by units, and the idempotents as the identity on the path.
    U_i is U_{v_i}(sl2).  The path lies in one i-string, which is unbroken
    and s_i-stable in wt L(mu); its top weight space holds U_i-highest
    vectors, so L(mu) has a U_i-summand L(n) whose weights are the whole
    string (Jantzen, Lectures on Quantum Groups, ch. 2 and 5).  On L(n)
    each E_i^(a) and F_i^(b) sends a basis vector to a nonzero
    v_i-binomial multiple of another while the weight stays in the
    string, so the word is nonzero on L(n).  And wt L(mu) = W.down(mu),
    the `orbit_weights` of down(mu) (Humphreys 21.3), so the first set
    that the weight filter passes is the answer.  Sums and words with two
    indices are evaluated; `expr_block` on every set is the test oracle."""
    theta_dot(datum, expr)  # refuses a non-modified expression first
    paths = [p for p in (_weight_path(datum, w) for w in expr.terms)
             if p is not None]
    proved = len(expr.terms) == 1 and len({
        sym[2] for sym in next(iter(expr.terms))
        if sym[0] in ("E", "Ed")}) <= 1
    top = LimitElement(datum, lambda pi: expr_block(
        weyl_module(datum, pi.elements[-1]), expr, RatFuncField))
    for pi in probe_schedule(datum, height_bound):
        orbit = pi.orbit_weights()
        if any(p <= orbit for p in paths) and (proved or top.at(pi)):
            return pi
    return None


def _weight_path(datum, word):
    """The weights of `word_walk` as a set; None where idempotents
    disagree."""
    path = set(word_walk(datum, word))
    return None if None in path else path


def coherent_basis_check(datum, exprs, pi):
    """Project a family of modified-form expressions to the algebra of pi,
    discard zero images, and report (independent, spanning, rank)."""
    S = build_schur(pi)
    ech = SparseEchelon(S.field)
    nonzero = 0
    for expr in exprs:
        img = S.evaluate_expr(expr)
        if not img.is_zero():
            nonzero += 1
            ech.insert(img.flatten())
    return {"nonzero_images": nonzero,
            "rank": ech.rank,
            "independent": ech.rank == nonzero,
            "spanning": ech.rank == S.dimension(),
            "dimension": S.dimension()}
