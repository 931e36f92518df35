"""Highest-weight modules over Q(v), as one record of exact sparse action
matrices.

The module of highest weight lam is built on the free span of F-words
(sequences of lowering operators applied to a highest-weight vector),
modulo the radical of the contravariant Gram form, or, for tall weights,
inside a tensor product of two smaller modules.  Two independent
classical oracles (Weyl dimension formula, Freudenthal recursion) check
the result, and the record checks the commutator relation.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly, RatFunc, RatFuncField, qint
from .linalg import (SparseEchelon, rref, sparse_diagonal, sparse_mul,
                     sparse_scale, sparse_sub)

_F = RatFuncField


def _qint_r(n, d):
    return RatFunc.from_poly(qint(n, d))


class TruncatedVerma:
    """F-word spanning sets for every weight in the window
    {nu : w0(lam) <= nu <= lam}, with the raising-operator action computed
    by the defining commutation relation."""

    def __init__(self, datum, lam):
        lam = tuple(lam)
        if not datum.is_dominant(lam):
            raise ValueError(f"highest weight {lam} is not dominant")
        self.datum = datum
        self.lam = lam
        w0 = datum.antidominant(lam)
        bounds = datum.alpha_coords(tuple(a - b for a, b in zip(lam, w0)))
        self.bounds = tuple(int(b) for b in bounds)
        self._build_words()
        self._e_cache = {}

    def _build_words(self):
        datum = self.datum
        lam = self.lam
        r = datum.rank
        roots = datum.simple_roots
        words = {(): (self.lam, (0,) * r)}
        frontier = [()]
        by_weight = {}
        while frontier:
            nxt = []
            for w in frontier:
                nu, depth = words[w]
                by_weight.setdefault(nu, []).append(w)
                for i in range(r):
                    if depth[i] < self.bounds[i]:
                        nw = (i,) + w
                        nnu = tuple(x - a for x, a in zip(nu, roots[i]))
                        nd = tuple(d + (1 if j == i else 0)
                                   for j, d in enumerate(depth))
                        if nw not in words:
                            words[nw] = (nnu, nd)
                            nxt.append(nw)
            frontier = nxt
        self.window = sorted(by_weight,
                             key=lambda nu: (self._depth_of(nu), nu))
        self.words_by_weight = {nu: sorted(ws)
                                for nu, ws in by_weight.items()}
        self._weight_of = {w: info[0] for w, info in words.items()}

    def _depth_of(self, nu):
        coords = self.datum.alpha_coords(
            tuple(a - b for a, b in zip(self.lam, nu)))
        return int(sum(coords))

    # -- raising action on the free word span ---------------------------

    def e_word(self, i, w):
        """E_i applied to the word w, as dict word -> RatFunc."""
        key = (i, w)
        cached = self._e_cache.get(key)
        if cached is not None:
            return cached
        if not w:
            out = {}
        else:
            j, rest = w[0], w[1:]
            out = {}
            for u, c in self.e_word(i, rest).items():
                nu = (j,) + u
                out[nu] = out.get(nu, _F.zero) + c
            if i == j:
                nu_rest = self._weight_of[rest]
                n = self.datum.pair_i(i, nu_rest)
                c = _qint_r(n, self.datum.cartan.d(i))
                if not c.is_zero():
                    out[rest] = out.get(rest, _F.zero) + c
            out = {u: c for u, c in out.items() if not c.is_zero()}
        self._e_cache[key] = out
        return out

    def e_apply(self, i, vec):
        out = {}
        for w, c in vec.items():
            for u, cu in self.e_word(i, w).items():
                s = out.get(u, _F.zero) + c * cu
                if s.is_zero():
                    out.pop(u, None)
                else:
                    out[u] = s
        return out

    # -- contravariant form ---------------------------------------------

    def pair_words(self, J, vec):
        """<F_J m, x> for a word J and a word-span vector x: successively
        raise by the letters of J and read off the highest coefficient."""
        for j in J:
            vec = self.e_apply(j, vec)
        return vec.get((), _F.zero)

    def gram(self, nu):
        """Gram matrix of the contravariant form on the nu word span."""
        nu = tuple(nu)
        if nu not in self.words_by_weight:
            raise ValueError(f"weight {nu} outside the window")
        words = self.words_by_weight[nu]
        return [[self.pair_words(J, {K: _F.one}) for K in words]
                for J in words]


class ModuleCheckError(RuntimeError):
    """Raised when a module fails a consistency check: the commutator
    tripwire, a character oracle, or a generator image outside the span."""


def _offsets(weights, dims):
    out = {}
    off = 0
    for nu in weights:
        out[nu] = off
        off += dims[nu]
    return out


class HighestWeightModule:
    """A highest-weight module as exact sparse matrices in a fixed basis.

    The basis is grouped by weight in the order of `weights`; weight nu
    holds the `dims[nu]` indices from `offsets[nu]` on.  `e[i]` and `f[i]`
    are the matrices of E_i and F_i, sparse row dicts in the `linalg`
    format, acting on coordinate columns.  Every construction ends here:
    the constructor refuses a highest weight space that is not a line and
    checks [E_i, F_j] = delta_ij [<h_i, nu>]_i on every weight space.
    """

    def __init__(self, datum, lam, weights, dims, e, f):
        self.datum = datum
        self.lam = tuple(lam)
        self.weights = list(weights)
        self.dims = dict(dims)
        self.offsets = _offsets(self.weights, self.dims)
        self.dim = sum(self.dims.values())
        self.e = list(e)
        self.f = list(f)
        self._dp_cache = {}
        if self.dims.get(self.lam) != 1:
            raise ModuleCheckError(
                f"highest weight space of {self.lam} is not one dimensional")
        self._check_commutators()

    def _check_commutators(self):
        datum = self.datum
        for i in range(datum.rank):
            d = datum.cartan.d(i)
            cartan = {}
            for nu in self.weights:
                c = _qint_r(datum.pair_i(i, nu), d)
                if c:
                    off = self.offsets[nu]
                    for k in range(off, off + self.dims[nu]):
                        cartan[k] = {k: c}
            for j in range(datum.rank):
                comm = sparse_sub(sparse_mul(self.e[i], self.f[j]),
                                  sparse_mul(self.f[j], self.e[i]))
                if comm != (cartan if i == j else {}):
                    raise ModuleCheckError(
                        f"commutator [E_{i}, F_{j}] fails on the module of "
                        f"highest weight {self.lam}")

    def divided_power(self, sign, i, k):
        """Sparse matrix of E_i^k / [k]!_i (sign > 0) or F_i^k / [k]!_i."""
        key = (sign > 0, i, k)
        mat = self._dp_cache.get(key)
        if mat is None:
            if k == 0:
                mat = sparse_diagonal(dict.fromkeys(range(self.dim), _F.one))
            elif k == 1:
                mat = (self.e if sign > 0 else self.f)[i]
            else:
                qk = _qint_r(k, self.datum.cartan.d(i))
                mat = sparse_scale(qk.inverse(), sparse_mul(
                    self.divided_power(sign, i, k - 1),
                    self.divided_power(sign, i, 1)))
            self._dp_cache[key] = mat
        return mat

    def __repr__(self):
        return f"{type(self).__name__}(lam={self.lam}, dim={self.dim})"


class WeylModule(HighestWeightModule):
    """The simple highest-weight module by the Gram quotient.

    Basis vectors are images of pivot F-words, grouped by weight in window
    order.
    """

    def __init__(self, datum, lam):
        tv = TruncatedVerma(datum, lam)
        # quotient each weight space by the Gram radical: the basis is the
        # pivot words, and a word expands by its column of the reduced Gram
        # matrix
        basis_words = {}           # nu -> list of pivot words
        expansions = {}            # nu -> {word: {basis index: coeff}}
        for nu in tv.window:
            words = tv.words_by_weight[nu]
            rows, pivots = rref(tv.gram(nu), _F)
            if not pivots:
                continue
            basis_words[nu] = [words[c] for c in pivots]
            expansions[nu] = {
                w: {r: rows[r][c] for r in range(len(pivots)) if rows[r][c]}
                for c, w in enumerate(words)}
        weights = list(basis_words)
        dims = {nu: len(ws) for nu, ws in basis_words.items()}
        offsets = _offsets(weights, dims)

        def matrix(i, sign, image):
            # image(b) is the word-span image of the basis word b
            mat = {}
            for nu in weights:
                target = tuple(x + sign * a for x, a in
                               zip(nu, datum.simple_roots[i]))
                exp = expansions.get(target)
                if exp is None:
                    continue
                for col, b in enumerate(basis_words[nu]):
                    coords = {}
                    for w, c in image(b).items():
                        for k, x in exp.get(w, {}).items():
                            coords[k] = coords.get(k, _F.zero) + c * x
                    for row, x in coords.items():
                        if x:
                            mat.setdefault(offsets[target] + row, {})[
                                offsets[nu] + col] = x
            return mat

        # E_i acts on words by the commutation relation; F_i prepends i, and
        # a word that leaves the window is zero in the module
        r = datum.rank
        super().__init__(
            datum, lam, weights, dims,
            [matrix(i, 1, lambda b, i=i: tv.e_word(i, b)) for i in range(r)],
            [matrix(i, -1, lambda b, i=i: {(i,) + b: _F.one})
             for i in range(r)])


class TensorModule(HighestWeightModule):
    """A tall highest-weight module realized as the submodule generated by
    the product of the highest vectors inside (left tensor right), with the
    usual coproduct action E -> E x 1 + K~ x E, F -> F x K~^{-1} + 1 x F.

    Independent of the Gram-quotient construction; dimensions and weight
    multiplicities are checked against both character oracles on build.
    The basis of each weight space is the fully reduced echelon basis of
    the closure, ordered by pivot: every row has entry 1 at its pivot and 0
    at the other pivots, so the coordinates of a vector in the span are its
    entries at the pivots.
    """

    def __init__(self, datum, lam, left, right):
        lam = tuple(lam)
        apply = _coproduct_action(datum, left, right)
        hw = right.offsets[right.lam] * left.dim + left.offsets[left.lam]
        echelons = _close_under_lowering(datum, lam, hw, apply)
        got = {nu: ech.rank for nu, ech in echelons.items()}
        if got != freudenthal_oracle(datum, lam):
            raise ModuleCheckError(
                f"tensor closure multiplicities {got} disagree with the "
                f"character oracle for {lam}")
        if sum(got.values()) != weyl_dim_oracle(datum, lam):
            raise ModuleCheckError("tensor closure dimension disagrees with "
                                   "the Weyl dimension formula")

        def depth(nu):
            return sum(datum.alpha_coords(
                tuple(a - b for a, b in zip(lam, nu))))

        weights = sorted(echelons, key=lambda nu: (depth(nu), nu))
        offsets = _offsets(weights, got)
        pivots = {nu: sorted(ech.pivots) for nu, ech in echelons.items()}

        def matrix(i, sign):
            mat = {}
            for nu in weights:
                target = tuple(a + sign * b for a, b in
                               zip(nu, datum.simple_roots[i]))
                ech = echelons.get(target)
                for col, p in enumerate(pivots[nu]):
                    img = apply(i, sign, echelons[nu].pivots[p])
                    if not img:
                        continue
                    if ech is None or ech.reduce(img):
                        raise ModuleCheckError(
                            "generator image leaves the closure span")
                    for row, q in enumerate(pivots[target]):
                        x = img.get(q)
                        if x:
                            mat.setdefault(offsets[target] + row, {})[
                                offsets[nu] + col] = x
            return mat

        r = datum.rank
        super().__init__(datum, lam, weights, got,
                         [matrix(i, 1) for i in range(r)],
                         [matrix(i, -1) for i in range(r)])


def _coproduct_action(datum, left, right):
    """The action of E_i (sign > 0) and F_i on sparse vectors of
    left (x) right, indexed q * left.dim + p.

    With the right factor as the major index, the pivot (smallest index)
    of a closure vector falls, where it can, on a component whose right
    factor is its highest vector.  That coefficient is a left coordinate
    times a power of v, so the echelon rows, scaled to 1 there, keep
    polynomial entries (on A1, F acts by powers of v)."""
    d1 = left.dim
    r = datum.rank
    cols = {(sign, i): (_columns(left.divided_power(sign, i, 1)),
                        _columns(right.divided_power(sign, i, 1)))
            for sign in (1, -1) for i in range(r)}
    k1 = [_ktilde_diag(left, i, 1) for i in range(r)]
    k2inv = [_ktilde_diag(right, i, -1) for i in range(r)]

    def apply(i, sign, vec):
        cols1, cols2 = cols[sign, i]
        out = {}
        for idx, c in vec.items():
            q, p = divmod(idx, d1)
            # E: E x 1 + K~ x E;  F: F x K~^{-1} + 1 x F
            c1, c2 = (c, c * k1[i][p]) if sign > 0 else (c * k2inv[i][q], c)
            for p2, a in cols1.get(p, ()):
                j = q * d1 + p2
                out[j] = out.get(j, _F.zero) + a * c1
            for q2, a in cols2.get(q, ()):
                j = q2 * d1 + p
                out[j] = out.get(j, _F.zero) + a * c2
        return {k: v for k, v in out.items() if v}

    return apply


def _close_under_lowering(datum, lam, hw, apply):
    """Echelon bases, by weight, of the span of the F-images of the
    ambient vector hw of weight lam."""
    seed = {hw: _F.one}
    echelons = {lam: SparseEchelon(_F)}
    echelons[lam].insert(seed)
    queue = [(lam, seed)]
    for nu, vec in queue:  # the queue grows while it is walked
        for i in range(datum.rank):
            img = apply(i, -1, vec)
            if not img:
                continue
            target = tuple(a - b for a, b in zip(nu, datum.simple_roots[i]))
            ech = echelons.get(target)
            if ech is None:
                ech = echelons[target] = SparseEchelon(_F)
            if ech.insert(img):
                queue.append((target, img))
    return echelons


def _columns(mat):
    """Column lists {col: [(row, x), ...]} of a sparse matrix."""
    cols = {}
    for r_, row in mat.items():
        for c_, x in row.items():
            cols.setdefault(c_, []).append((r_, x))
    return cols


def _ktilde_diag(module, i, sign):
    d = module.datum.cartan.d(i)
    out = []
    for nu in module.weights:
        n = sign * d * module.datum.pair_i(i, nu)
        out.extend([RatFunc.from_poly(LaurentPoly.monomial(1, n))]
                   * module.dims[nu])
    return out


# the Gram-quotient construction enumerates all lowering words in the
# truncation window, which grows combinatorially with the window size; past
# this bound the tensor realization is used instead
_VERMA_WINDOW_BOUND = 7


class WindowTooLargeError(ValueError):
    """Raised for a fundamental weight whose truncation window exceeds the
    Gram-quotient bound: the tensor path would need the same module."""


_module_cache = {}


def weyl_module(datum, lam):
    """Cached construction; a pure function of (datum, lam)."""
    key = (datum.key(), tuple(lam))
    mod = _module_cache.get(key)
    if mod is None:
        mod = _construct(datum, lam)
        _module_cache[key] = mod
    return mod


def _construct(datum, lam):
    lam = tuple(lam)
    low = datum.antidominant(lam)
    bounds = datum.alpha_coords(tuple(a - b for a, b in zip(lam, low)))
    identity_pairing = all(
        datum.pairing[a][b] == (1 if a == b else 0)
        for a in range(datum.rank_y) for b in range(datum.rank_x))
    if sum(bounds) <= _VERMA_WINDOW_BOUND or not identity_pairing:
        return WeylModule(datum, lam)
    j = max(k for k, c in enumerate(lam) if c > 0)
    fund = tuple(1 if k == j else 0 for k in range(len(lam)))
    if fund == lam:
        raise WindowTooLargeError(
            f"highest weight {lam} is fundamental and its truncation window "
            f"has size {int(sum(bounds))} > {_VERMA_WINDOW_BOUND}; no "
            "supported construction")
    rest = tuple(c - 1 if k == j else c for k, c in enumerate(lam))
    return TensorModule(datum, lam,
                        weyl_module(datum, rest), weyl_module(datum, fund))


# -- independent oracles ----------------------------------------------------


def weyl_dim_oracle(datum, lam):
    """Weyl dimension formula via positive coroots."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    rho = datum.rho()
    num = Fraction(1)
    den = Fraction(1)
    lam_rho = tuple(Fraction(x) + r for x, r in zip(lam, rho))
    for _, coroot in datum.positive_roots():
        num *= datum.pair(coroot, lam_rho)
        den *= datum.pair(coroot, rho)
    out = num / den
    assert out.denominator == 1
    return int(out)


def freudenthal_oracle(datum, lam):
    """Weight multiplicities of the module of highest weight lam, as a dict
    weight -> positive integer, by the Freudenthal recursion."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    dominants = sorted(
        datum.saturate([lam]).elements,
        key=lambda mu: (sum(datum.alpha_coords(
            tuple(a - b for a, b in zip(lam, mu)))), mu))
    # only weights <= lam occur; dominants[0] == lam
    mult = {}
    pos = datum.positive_roots()
    rho = datum.rho()
    two_rho = tuple(2 * r for r in rho)
    for mu in dominants:
        if not datum.dominance_leq(mu, lam):
            continue
        if mu == lam:
            mult[mu] = Fraction(1)
            continue
        total = Fraction(0)
        for root, _ in pos:
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu, root))
                rep = datum.dominant_representative(nu)
                m = mult.get(rep)
                if m is None:
                    break
                total += m * datum.invariant_form(nu, root)
                k += 1
        # denominator (lam+mu+2rho, lam-mu); lam-mu lies in the root span
        sum_vec = tuple(Fraction(a + b) + t
                        for a, b, t in zip(lam, mu, two_rho))
        diff = tuple(a - b for a, b in zip(lam, mu))
        den = datum.invariant_form(sum_vec, diff)
        assert den != 0
        mult[mu] = 2 * total / den
    out = {}
    for mu, m in mult.items():
        assert m.denominator == 1
        m = int(m)
        if m > 0:
            for nu in datum.weyl_orbit(mu):
                out[nu] = m
    return out
