"""Highest-weight modules over Q(v) via truncated Verma modules and the
radical of the contravariant form, with exact action matrices.

The module of highest weight lam is built on the free span of F-words
(sequences of lowering operators applied to a highest-weight vector),
modulo the radical of the contravariant Gram form.  Two independent
classical oracles (Weyl dimension formula, Freudenthal recursion) check
the result.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import RatFunc, RatFuncField, qint, qfact
from .linalg import SparseEchelon, mat_mul, mat_pow, identity, rref

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


_module_cache = {}


class ModuleOps:
    """Shared matrix accessors for highest-weight module realizations.

    Requires datum, lam, weights, dims, offsets, dim and _e_mats/_f_mats
    (index -> matrix) plus a _dp_cache dict on the concrete class.
    """

    def e_matrix(self, i):
        return self._e_mats[i]

    def f_matrix(self, i):
        return self._f_mats[i]

    def generator_matrix(self, sign, i):
        return self._e_mats[i] if sign > 0 else self._f_mats[i]

    def divided_power_matrix(self, sign, i, k):
        """Matrix of E_i^k / [k]!_i (sign > 0) or F_i^k / [k]!_i."""
        key = (sign > 0, i, k)
        cached = self._dp_cache.get(key)
        if cached is not None:
            return cached
        if k == 0:
            out = identity(self.dim, _F)
        else:
            base = self.generator_matrix(sign, i)
            power = mat_pow(base, k, _F)
            fact = RatFunc.from_poly(qfact(k, self.datum.cartan.d(i)))
            out = [[x / fact for x in row] for row in power]
        self._dp_cache[key] = out
        return out

    def k_matrix(self, h):
        """Diagonal matrix of the grouplike torus element for coweight h."""
        diag = []
        for nu in self.weights:
            n = self.datum.pair(h, nu)
            diag.extend([RatFunc.from_poly(_monomial(n))] * self.dims[nu])
        return [[diag[i] if i == j else _F.zero for j in range(self.dim)]
                for i in range(self.dim)]

    def weight_of_index(self, idx):
        for nu in self.weights:
            if self.offsets[nu] <= idx < self.offsets[nu] + self.dims[nu]:
                return nu
        raise IndexError(idx)


class WeylModule(ModuleOps):
    """The simple highest-weight module, as exact matrices in a fixed basis.

    Basis vectors are images of pivot F-words, grouped by weight in window
    order; matrices act on coordinate columns.
    """

    def __init__(self, datum, lam):
        tv = TruncatedVerma(datum, lam)
        self.datum = datum
        self.lam = tuple(lam)
        self.verma = tv

        # quotient each weight space by the Gram radical
        self.weights = []          # weights with nonzero multiplicity
        self.basis_words = {}      # nu -> list of pivot words
        expansions = {}            # nu -> {word: coeff list in basis}
        for nu in tv.window:
            words = tv.words_by_weight[nu]
            G = tv.gram(nu)
            rows, pivots = rref(G, _F)
            if not pivots:
                continue
            self.weights.append(nu)
            self.basis_words[nu] = [words[c] for c in pivots]
            exp = {}
            for c, w in enumerate(words):
                exp[w] = [rows[r][c] for r in range(len(pivots))]
            expansions[nu] = exp
        self._expansions = expansions

        self.dims = {nu: len(self.basis_words[nu]) for nu in self.weights}
        self.dim = sum(self.dims.values())
        self.offsets = {}
        off = 0
        for nu in self.weights:
            self.offsets[nu] = off
            off += self.dims[nu]
        if self.dims.get(self.lam) != 1:
            raise RuntimeError("highest weight space is not one dimensional")

        self._e_mats = {}
        self._f_mats = {}
        self._dp_cache = {}
        for i in range(datum.rank):
            self._e_mats[i] = self._build_e(i)
            self._f_mats[i] = self._build_f(i)
            self._check_radical_stable(i)

    # -- construction helpers -------------------------------------------

    def _expand(self, nu, vec):
        """Coordinates (length dims[nu]) of a word-span vector at weight nu;
        the zero vector when nu carries no basis."""
        if nu not in self.basis_words:
            return None
        exp = self._expansions[nu]
        out = [_F.zero] * self.dims[nu]
        for w, c in vec.items():
            for k, x in enumerate(exp[w]):
                if not x.is_zero():
                    out[k] = out[k] + c * x
        return out

    def _alpha(self, i):
        return self.datum.simple_roots[i]

    def _build_e(self, i):
        mat = [[_F.zero] * self.dim for _ in range(self.dim)]
        alpha = self._alpha(i)
        for nu in self.weights:
            target = tuple(x + a for x, a in zip(nu, alpha))
            if target not in self.basis_words:
                continue
            for col, b in enumerate(self.basis_words[nu]):
                vec = self.verma.e_word(i, b)
                coords = self._expand(target, vec)
                if coords is None:
                    continue
                for row, x in enumerate(coords):
                    if not x.is_zero():
                        mat[self.offsets[target] + row][
                            self.offsets[nu] + col] = x
        return mat

    def _build_f(self, i):
        mat = [[_F.zero] * self.dim for _ in range(self.dim)]
        alpha = self._alpha(i)
        for nu in self.weights:
            target = tuple(x - a for x, a in zip(nu, alpha))
            if target not in self.basis_words:
                continue
            for col, b in enumerate(self.basis_words[nu]):
                w = (i,) + b
                if w not in self._expansions[target]:
                    # word leaves the window: image is zero in the module
                    continue
                coords = self._expansions[target][w]
                for row, x in enumerate(coords):
                    if not x.is_zero():
                        mat[self.offsets[target] + row][
                            self.offsets[nu] + col] = x
        return mat

    def _check_radical_stable(self, i):
        """Tripwire: the commutation relation must hold on the quotient."""
        e, f = self._e_mats[i], self._f_mats[i]
        ef = mat_mul(e, f, _F)
        fe = mat_mul(f, e, _F)
        d = self.datum.cartan.d(i)
        for nu in self.weights:
            n = self.datum.pair_i(i, nu)
            c = _qint_r(n, d)
            for k in range(self.dims[nu]):
                idx = self.offsets[nu] + k
                for col in range(self.dim):
                    expect = c if col == idx else _F.zero
                    got = ef[idx][col] - fe[idx][col]
                    if got != expect:
                        raise RuntimeError(
                            "radical not stable: commutation relation fails "
                            f"at weight {nu} (index {i})")

    # -- public surface --------------------------------------------------

    def __repr__(self):
        return f"WeylModule(lam={self.lam}, dim={self.dim})"


def _monomial(n):
    from .laurent import LaurentPoly
    return LaurentPoly.monomial(1, n)


class TensorModule(ModuleOps):
    """A tall highest-weight module realized as the submodule generated by
    the product of the highest vectors inside (left tensor right), with the
    usual coproduct action E -> E x 1 + K~ x E, F -> F x K~^{-1} + 1 x F.

    Independent of the Gram-quotient construction; dimensions and weight
    multiplicities are checked against both character oracles on build.
    """

    def __init__(self, datum, lam, left, right):
        self.datum = datum
        self.lam = tuple(lam)
        self._d2 = right.dim
        amb_wt = []
        for p in range(left.dim):
            w1 = left.weight_of_index(p)
            for q in range(right.dim):
                w2 = right.weight_of_index(q)
                amb_wt.append(tuple(a + b for a, b in zip(w1, w2)))
        self._amb_wt = amb_wt

        r = datum.rank
        self._ecols1 = [_sparse_cols(left.e_matrix(i)) for i in range(r)]
        self._fcols1 = [_sparse_cols(left.f_matrix(i)) for i in range(r)]
        self._ecols2 = [_sparse_cols(right.e_matrix(i)) for i in range(r)]
        self._fcols2 = [_sparse_cols(right.f_matrix(i)) for i in range(r)]
        self._k1 = [_ktilde_diag(left, i, 1) for i in range(r)]
        self._k2inv = [_ktilde_diag(right, i, -1) for i in range(r)]

        basis_by_wt = self._close_under_lowering(left, right)
        mults = freudenthal_oracle(datum, self.lam)
        got = {nu: len(vs) for nu, vs in basis_by_wt.items()}
        if got != mults:
            raise RuntimeError(
                f"tensor closure multiplicities {got} disagree with the "
                f"character oracle for {self.lam}")
        if sum(got.values()) != weyl_dim_oracle(datum, self.lam):
            raise RuntimeError("tensor closure dimension disagrees with "
                               "the Weyl dimension formula")

        def depth(nu):
            coords = datum.alpha_coords(
                tuple(a - b for a, b in zip(self.lam, nu)))
            return sum(coords)

        self.weights = sorted(basis_by_wt, key=lambda nu: (depth(nu), nu))
        self.dims = {nu: len(basis_by_wt[nu]) for nu in self.weights}
        self.dim = sum(self.dims.values())
        self.offsets = {}
        off = 0
        for nu in self.weights:
            self.offsets[nu] = off
            off += self.dims[nu]
        self._basis_by_wt = basis_by_wt

        self._e_mats = {}
        self._f_mats = {}
        self._dp_cache = {}
        for i in range(r):
            self._e_mats[i] = self._build(i, 1)
            self._f_mats[i] = self._build(i, -1)

    # -- ambient action ---------------------------------------------------

    def _apply(self, i, sign, vec):
        d2 = self._d2
        out = {}
        if sign > 0:
            cols1, cols2 = self._ecols1[i], self._ecols2[i]
            k1 = self._k1[i]
            for idx, c in vec.items():
                p, q = divmod(idx, d2)
                for p2, a in cols1[p]:
                    j = p2 * d2 + q
                    out[j] = out.get(j, _F.zero) + a * c
                ck = c * k1[p]
                for q2, a in cols2[q]:
                    j = p * d2 + q2
                    out[j] = out.get(j, _F.zero) + a * ck
        else:
            cols1, cols2 = self._fcols1[i], self._fcols2[i]
            k2inv = self._k2inv[i]
            for idx, c in vec.items():
                p, q = divmod(idx, d2)
                ck = c * k2inv[q]
                for p2, a in cols1[p]:
                    j = p2 * d2 + q
                    out[j] = out.get(j, _F.zero) + a * ck
                for q2, a in cols2[q]:
                    j = p * d2 + q2
                    out[j] = out.get(j, _F.zero) + a * c
        return {k: v for k, v in out.items() if not v.is_zero()}

    def _close_under_lowering(self, left, right):
        hw = left.offsets[left.lam] * self._d2 + right.offsets[right.lam]
        seed = {hw: _F.one}
        basis_by_wt = {self.lam: [seed]}
        echelons = {self.lam: SparseEchelon(_F)}
        echelons[self.lam].insert(seed)
        queue = [seed]
        while queue:
            vec = queue.pop(0)
            nu = self._amb_wt[next(iter(vec))]
            for i in range(self.datum.rank):
                img = self._apply(i, -1, vec)
                if not img:
                    continue
                target = tuple(a - b for a, b in
                               zip(nu, self.datum.simple_roots[i]))
                ech = echelons.get(target)
                if ech is None:
                    ech = echelons[target] = SparseEchelon(_F)
                    basis_by_wt[target] = []
                if ech.insert(img):
                    basis_by_wt[target].append(img)
                    queue.append(img)
        return basis_by_wt

    def _build(self, i, sign):
        mat = [[_F.zero] * self.dim for _ in range(self.dim)]
        alpha = self.datum.simple_roots[i]
        for nu in self.weights:
            target = tuple(a + sign * b for a, b in zip(nu, alpha))
            block = self._basis_by_wt.get(target)
            for col, b in enumerate(self._basis_by_wt[nu]):
                img = self._apply(i, sign, b)
                if not img:
                    continue
                if block is None:
                    raise RuntimeError(
                        "generator image leaves the closure weights")
                coords = _express(block, img)
                if coords is None:
                    raise RuntimeError(
                        "generator image leaves the closure span")
                for row, x in enumerate(coords):
                    if not x.is_zero():
                        mat[self.offsets[target] + row][
                            self.offsets[nu] + col] = x
        return mat

    def __repr__(self):
        return f"TensorModule(lam={self.lam}, dim={self.dim})"


def _sparse_cols(mat):
    n = len(mat)
    cols = [[] for _ in range(n)]
    for r_ in range(n):
        row = mat[r_]
        for c_ in range(n):
            if not row[c_].is_zero():
                cols[c_].append((r_, row[c_]))
    return cols


def _ktilde_diag(module, i, sign):
    d = module.datum.cartan.d(i)
    out = []
    for idx in range(module.dim):
        nu = module.weight_of_index(idx)
        n = sign * d * module.datum.pair_i(i, nu)
        out.append(RatFunc.from_poly(_monomial(n)))
    return out


def _express(block, target):
    """Coordinates of a sparse vector in a list of independent sparse
    vectors, or None."""
    support = sorted({k for v in block for k in v} | set(target))
    cols = [[v.get(k, _F.zero) for v in block] + [target.get(k, _F.zero)]
            for k in support]
    from .linalg import rref
    rows, pivots = rref(cols, _F)
    k = len(block)
    if k in pivots:
        return None
    coeffs = [_F.zero] * k
    for r_, c_ in enumerate(pivots):
        coeffs[c_] = rows[r_][k]
    return coeffs


# the Gram-quotient construction enumerates all lowering words in the
# truncation window, which grows combinatorially with the window size; past
# this bound the tensor realization is used instead
_VERMA_WINDOW_BOUND = 7


class WindowTooLargeError(ValueError):
    """Raised for a fundamental weight whose truncation window exceeds the
    Gram-quotient bound: the tensor path would need the same module."""


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
