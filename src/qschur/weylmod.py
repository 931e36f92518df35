"""Highest-weight modules over Q(v), as one record of exact sparse action
matrices with entries in Z[v,v^-1].

The simple module of highest weight lam takes its weights from the
Freudenthal recursion up front, and is lowered whole on the first read of
its generators, level by level from its highest vector by the divided
powers of the lowering operators, in a basis of its Lusztig lattice.  The
diagonal symbols, and a word whose walk leaves the weights of the module,
need no lowering.  The Weyl dimension formula and the commutator relation
check the result.  A tensor-product realization is kept as an independent
check of the lowering.  `word_matrix` is the one evaluator of a word of
symbols (see `words`): its Laurent matrix on one module.

The lowering takes no fraction: the basis of each weight space is chosen
over F_p, where rank cannot exceed the rank over Q(v), and every other
candidate gets Laurent coordinates on the chosen ones before it, checked
on every column; that proves the choice equal to the greedy choice over
Q(v) (see `WeylModule`), which stays as the fallback and the test oracle.
"""

from __future__ import annotations

from functools import cache

from .laurent import (ONE, R_ONE, ZERO, LaurentPoly, RatFunc, RatFuncField,
                      is_integral, qbinom, qint)
from .linalg import (SparseEchelon, sparse_diagonal, sparse_map, sparse_mul,
                     sparse_sub, sparse_transpose)

_F = RatFuncField


class ModuleCheckError(RuntimeError):
    """Raised when a module fails a consistency check: the commutator
    tripwire, a character oracle, a generator image outside the span, or
    an entry or lattice coordinate outside Z[v,v^-1]."""


def laurent_matrix(mat, lam):
    """A sparse matrix over Q(v) with Laurent entries, as the Laurent
    matrix of the module of highest weight lam; raises ModuleCheckError on
    an entry outside Z[v,v^-1].  Only a cache file and the Q(v) echelon of
    `TensorModule` can hold such an entry."""
    def num(x):
        p = is_integral(x)
        if p is None:
            raise ModuleCheckError(
                f"E/F entry {x.to_string()} of the module of highest "
                f"weight {lam} is not in Z[v,v^-1]")
        return p
    return sparse_map(num, mat)


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
    format with entries in Z[v,v^-1], acting on coordinate columns.  The
    constructor refuses a highest weight space that is not a line, and E
    and F enter every record through `_set_action`, which checks
    [E_i, F_j] = delta_ij [<h_i, nu>]_i on every weight space first.
    """

    def __init__(self, datum, lam, weights, dims, e=None, f=None):
        self.datum = datum
        self.lam = tuple(lam)
        self.weights = list(weights)
        self.dims = dict(dims)
        self.offsets = _offsets(self.weights, self.dims)
        self.dim = sum(self.dims.values())
        self._dp_cache = {}
        self._diag_cache = {}
        if self.dims.get(self.lam) != 1:
            raise ModuleCheckError(
                f"highest weight space of {self.lam} is not one dimensional")
        if e is not None:
            self._set_action(e, f)

    def rows(self, nu):
        """The basis indices of weight nu: none if nu is not a weight."""
        off = self.offsets.get(nu, 0)
        return range(off, off + self.dims.get(nu, 0))

    def _set_action(self, e, f):
        """Store the matrices e of E_i and f of F_i once they pass
        `_check_commutators`."""
        e, f = list(e), list(f)
        self._check_commutators(e, f)
        self.e, self.f = e, f

    def _check_commutators(self, e, f):
        """Check [E_i, F_j] = delta_ij [<h_i, nu>]_i on every weight."""
        datum = self.datum
        for i in range(datum.rank):
            d = datum.cartan.d(i)
            cartan = {k: {k: c} for nu in self.weights
                      if (c := qint(datum.pair_i(i, nu), d))
                      for k in self.rows(nu)}
            for j in range(datum.rank):
                comm = sparse_sub(sparse_mul(e[i], f[j]),
                                  sparse_mul(f[j], e[i]))
                if comm != (cartan if i == j else {}):
                    raise ModuleCheckError(
                        f"commutator [E_{i}, F_{j}] fails on the module of "
                        f"highest weight {self.lam}")

    def divided_power(self, sign, i, k):
        """Sparse matrix of E_i^k / [k]!_i (sign > 0) or F_i^k / [k]!_i,
        computed in Z[v,v^-1] as (X_i^(k-1) X_i) / [k]_i."""
        key = (sign > 0, i, k)
        mat = self._dp_cache.get(key)
        if mat is None:
            if k == 0:
                mat = sparse_diagonal(dict.fromkeys(range(self.dim), ONE))
            elif k == 1:
                mat = (self.e if sign > 0 else self.f)[i]
            else:
                qk = qint(k, self.datum.cartan.d(i))
                prod = sparse_mul(self.divided_power(sign, i, k - 1),
                                  self.divided_power(sign, i, 1))
                try:
                    mat = sparse_map(lambda x: x.exact_div(qk), prod)
                except ValueError:
                    raise ModuleCheckError(
                        f"{'E' if sign > 0 else 'F'}_{i}^({k}) on L({self.lam})"
                        " is not in Z[v,v^-1]") from None
            self._dp_cache[key] = mat
        return mat

    def symbol(self, sym):
        """The sparse matrix of one symbol of a word (see `words`): its
        divided power, the diagonal v^<h, nu> of K_h, or for 1_lam the
        identity on the rows of weight lam, if any."""
        if sym[0] in ("E", "Ed"):
            return self.divided_power(sym[1], sym[2],
                                      sym[3] if sym[0] == "Ed" else 1)
        mat = self._diag_cache.get(sym)
        if mat is None:
            if sym[0] not in ("K", "1"):
                raise ValueError(f"unknown symbol {sym!r}")
            mat = self._diag_cache[sym] = {}
            for nu in [sym[1]] if sym[0] == "1" else self.weights:
                x = ONE if sym[0] == "1" else LaurentPoly.monomial(
                    1, self.datum.pair(sym[1], nu))
                mat.update((r, {r: x}) for r in self.rows(nu))
        return mat

    def nilpotency(self, sign, i):
        """Largest k with a nonzero k-th divided power (0 for the zero
        action)."""
        k = 0
        while self.divided_power(sign, i, k + 1):
            k += 1
        return k

    def __repr__(self):
        return f"{type(self).__name__}(lam={self.lam}, dim={self.dim})"


class WeylModule(HighestWeightModule):
    """The simple highest-weight module L(lam), in one of two states.
    Unlowered, it holds its weights, dims and offsets from the Freudenthal
    recursion, which serve the diagonals of 1_lam and K_h and every walk
    that leaves its weights.  Whole, it also holds E, F and `words`, the
    word of each basis vector: `lower` lowers it from the highest vector
    with divided powers, level by level to the bottom, on the first read
    of `e`, `f` or `words`.  A lowering that raises stores nothing, so
    every later read raises again.  The basis is a Z[v,v^-1]-basis of the
    Lusztig form V_A = U_A^- v_lam (Lusztig, Introduction to Quantum
    Groups, 23 and 29).

    The candidates at weight nu are the vectors F_i^(a) b, for every a >= 1
    and every basis vector b at mu = nu + a alpha_i whose word does not
    start with i, with the word ((i, a),) + word(b), taken in `_word_order`.
    Below the top a weight vector of a simple module is zero exactly when
    every E_j kills it, so candidates are compared through their E-images,
        E_j F_i^(a) b = F_i^(a) E_j b
                        + delta_ij [<h_i, mu> - a + 1]_i F_i^(a-1) b,
    which need only the matrices already built.  The basis of nu is the
    first independent candidates.  A basis vector b = F_i^(c) b' gives
    F_i^(a) b = [a+c choose a]_i F_i^(a+c) b', so the candidates span V_A
    at nu over Z[v,v^-1], and the basis is a lattice basis exactly when
    every candidate has Laurent coordinates in it; the construction checks
    that and raises ModuleCheckError otherwise.

    They are found without fractions (`_choose_mod_p`).  Candidates
    independent mod p at v = a are independent over Q(v): rank cannot rise
    under v -> a.  Each other candidate y gets Laurent coordinates x on the
    chosen ones from a fraction-free solve, and x must be supported on
    candidates before y and give sum x_t c_t = y on every column.  So every
    rejected candidate lies in the span of the chosen ones before it: the
    choice is the greedy choice over Q(v).  Where a check fails at every
    point of `PRIME_POINTS`, that greedy choice itself (`_choose_exact`) redoes
    the weight and raises ModuleCheckError on a non-Laurent coordinate.

    Each weight is proved as it is built, its multiplicity against the
    Freudenthal recursion too; once the module is whole, the Weyl formula
    and the commutator check run on it.
    """

    def __init__(self, datum, lam):
        mult = freudenthal_oracle(datum, lam)    # refuses a non-dominant lam
        super().__init__(datum, lam, _weight_order(datum, mult), mult)

    def __getattr__(self, name):
        # only the whole module has E, F and every word
        if name in ("e", "f", "words"):
            return getattr(self.lower(), name)
        raise AttributeError(name)

    def lower(self):
        """The record, lowered whole: each level is the set of weights one
        simple root below a weight of the level above, lowered in
        `_weight_order`, down to the first level with no basis vector."""
        if "words" in self.__dict__:
            return self
        datum, r, roots = self.datum, self.datum.rank, self.datum.simple_roots
        # basis words by weight, the index of each word, and the columns of
        # E_j and of every F_i^(a)
        words, index, fdp = {self.lam: [()]}, {(): 0}, {}
        cols = [{} for _ in range(r)]
        level = [self.lam]
        while level:
            below = {tuple(x - a for x, a in zip(nu, roots[i]))
                     for nu in level for i in range(r)}
            level = []
            for nu in _weight_order(datum, below):
                basis = _lower(datum, self.lam, nu, self.dims.get(nu, 0),
                               words, index, cols, fdp)
                if basis:
                    words[nu] = basis
                    level.append(nu)
        _check_character(datum, self.lam, {
            nu: len(ws) for nu, ws in words.items()}, self.dims)
        self._set_action([sparse_transpose(c) for c in cols],
                         [sparse_transpose(fdp.get((i, 1), {}))
                          for i in range(r)])
        self.words = list(index)
        return self


def _word_order(word):
    """The order of the candidates: shortest word first, then by word.  In
    plain word order 18 of the A2 and B2 weights of height at most 10 choose
    a vector that is not primitive in the lattice, and `_lower` refuses
    them (on A2 (2,0), at weight (0,-2), a coordinate is v/(v^2+1))."""
    return len(word), word


def _lower(datum, lam, nu, mult, words, index, e, fdp):
    """Build weight nu of L(lam) below the top, of multiplicity mult, given
    every weight above it; its basis gets the next indices.  Fills the
    columns of E_j and of every F_i^(a) on the weights above, and returns
    the basis words."""
    off = len(index)
    cands = []
    rest = []                         # F_i^(a) b with b = F_i^(c) b'
    for i in range(datum.rank):
        a = 1
        while True:
            mu = tuple(x + a * y for x, y in zip(nu, datum.simple_roots[i]))
            if mu not in words:       # the i-string above nu ends here
                break
            for w in words[mu]:
                if w and w[0][0] == i:
                    rest.append((i, a, w))
                else:
                    cands.append((((i, a),) + w, i, a, mu, index[w]))
            a += 1
    cands.sort(key=lambda cand: _word_order(cand[0]))
    images = [_e_images(datum, e, fdp, *cand[1:]) for cand in cands]
    vecs = [{k: x for img in imgs for k, x in img.items()} for imgs in images]
    for point in PRIME_POINTS:
        sol = _choose_mod_p(vecs, mult, *point)
        if sol is not None:
            break
    else:
        sol = _choose_exact(vecs, off, lam, nu, [cand[0] for cand in cands])
        if sol.count(None) != mult:
            raise ModuleCheckError(f"weight {nu} of L({lam}) has multiplicity"
                                   f" {sol.count(None)}, not {mult}")
    basis = []
    for n, ((word, i, a, mu, b), x) in enumerate(zip(cands, sol)):
        if x is None:
            index[word] = p = off + len(basis)
            basis.append(word)
            fdp.setdefault((i, a), {})[b] = {p: ONE}
            for j, img in enumerate(images[n]):
                if img:
                    e[j][p] = img
        elif x:
            fdp.setdefault((i, a), {})[b] = {index[cands[t][0]]: y
                                             for t, y in x.items()}
    for i, a, w in rest:
        (_, c), w0 = w[0], w[1:]
        src = fdp.get((i, a + c), {}).get(index[w0])
        if src:
            k = qbinom(a + c, a, datum.cartan.d(i))
            fdp.setdefault((i, a), {})[index[w]] = {
                u: k * y for u, y in src.items()}
    return basis


def _e_images(datum, e, fdp, i, a, mu, b):
    """The E_j-images of the candidate F_i^(a) b, one column dict per j."""
    fa = fdp.get((i, a), {})
    images = []
    for j in range(datum.rank):
        img = {}
        for t, x in e[j].get(b, {}).items():
            for u, y in fa.get(t, {}).items():
                img[u] = img.get(u, ZERO) + x * y
        if i == j:
            c = qint(datum.pair_i(i, mu) - a + 1, datum.cartan.d(i))
            if c:
                prev = {b: ONE} if a == 1 else fdp[i, a - 1].get(b, {})
                for u, y in prev.items():
                    img[u] = img.get(u, ZERO) + c * y
        images.append({k: x for k, x in img.items() if x})
    return images


# the points (p, a), tried in order, where the basis of a weight space is
# chosen and `schur.SchurAlgebra` spins for density: primes below 2^31 and
# the image a of v in F_p
PRIME_POINTS = ((2147483629, 91831), (2147483587, 48271), (2147483579, 16807))


def _choose_mod_p(vecs, mult, p, a):
    """The greedy choice among the image vectors, chosen over F_p at v = a
    and proved over Q(v) as `WeylModule` says, or None where the proof
    fails.  Returns a list with None for a chosen vector and, for any
    other, its coordinates {t: x}, x in Z[v,v^-1], on the chosen t."""
    powers = {}

    def residue(x):
        return sum(c * (powers.get(k) or powers.setdefault(k, pow(a, k, p)))
                   for k, c in x.coeffs.items()) % p

    rows, chosen = [], []             # (pivot, row mod p with 1 there)
    for n, vec in enumerate(vecs):
        r = {k: residue(x) for k, x in vec.items()}
        for q, row in rows:
            f = r.get(q)
            if f:
                for k, c in row.items():
                    r[k] = (r.get(k, 0) - f * c) % p
        r = {k: c for k, c in r.items() if c}
        if r:
            q = min(r)
            inv = pow(r[q], -1, p)
            rows.append((q, {k: c * inv % p for k, c in r.items()}))
            chosen.append(n)
    m = len(chosen)
    if m != mult:
        return None
    # rows in pivot order, columns in choice order: every leading minor is
    # a unit mod p, so no pivot of the elimination vanishes
    cols = chosen + [n for n in range(len(vecs)) if n not in chosen]
    mat = _bareiss([{c: vecs[t][q] for c, t in enumerate(cols)
                     if q in vecs[t]} for q, _ in rows])
    sol = [None] * len(vecs)
    for col, n in enumerate(cols[m:], m):
        x = {}                        # back substitution, in Z[v,v^-1]
        for i in range(m - 1, -1, -1):
            row = mat[i]
            s = row.get(col, ZERO)
            for j, y in x.items():
                if j in row:
                    s = s - row[j] * y
            if s:
                if chosen[i] > n:     # only chosen vectors before n
                    return None
                try:
                    x[i] = s.exact_div(row[i])
                except ValueError:
                    return None
        acc = {}
        for i, y in x.items():
            for k, z in vecs[chosen[i]].items():
                acc[k] = acc.get(k, ZERO) + y * z
        if {k: z for k, z in acc.items() if z} != vecs[n]:
            return None
        sol[n] = {chosen[i]: y for i, y in x.items()}
    return sol


def _bareiss(rows):
    """Fraction-free elimination (Bareiss 1968) of sparse rows over
    Z[v,v^-1] whose leading principal minors p_1, ..., p_m are nonzero:
    row i comes out zero before column i, a multiple of its equation.
    Step k maps each row r below k to (p_k r - r_k row_k) / p_(k-1),
    exactly; where r_k = 0 that is a rescaling, so row i is left at the
    last step done[i] that changed it until a step needs it."""
    minor, done = [ONE], [0] * len(rows)
    for k, top in enumerate(rows):
        top = rows[k] = _rescale(top, minor[k], minor[done[k]])
        pk, prev = top[k], minor[k]
        for i in range(k + 1, len(rows)):
            if k in rows[i]:
                row = _rescale(rows[i], prev, minor[done[i]])
                f = row[k]
                new = ((j, (pk * row.get(j, ZERO) - f * top.get(j, ZERO))
                        .exact_div(prev)) for j in row.keys() | top.keys()
                       if j != k)
                rows[i] = {j: y for j, y in new if y}
                done[i] = k + 1
        minor.append(pk)
    return rows


def _rescale(row, new, old):
    """row * new / old, entry by entry."""
    if new == old:
        return row
    return {j: (y * new).exact_div(old) for j, y in row.items()}


def _choose_exact(vecs, off, lam, nu, words):
    """The greedy choice over Q(v), as `_choose_mod_p` returns it, by one
    echelon: vector n carries the unit tag off + n, past every image
    index, so the residue of a dependent vector is its tag minus its
    coordinates on the tags of the chosen ones.  Raises ModuleCheckError
    on a coordinate outside Z[v,v^-1]."""
    ech = SparseEchelon(RatFuncField)
    sol = []
    for n, vec in enumerate(vecs):
        res = ech.reduce({**{k: RatFunc.from_poly(x) for k, x in vec.items()},
                          off + n: R_ONE})
        if min(res) < off:
            ech.insert(res)
            sol.append(None)
            continue
        x = {t - off: -y for t, y in res.items() if t != off + n}
        for y in x.values():
            if is_integral(y) is None:
                raise ModuleCheckError(
                    f"candidate {words[n]} at weight {nu} of L({lam}) has "
                    f"the coordinate {y.to_string()}, not in Z[v,v^-1]")
        sol.append({t: y.num for t, y in x.items()})
    return sol


class TensorModule(HighestWeightModule):
    """A highest-weight module realized as the submodule generated by the
    product of the highest vectors inside (left tensor right), with the
    usual coproduct action E -> E x 1 + K~ x E, F -> F x K~^{-1} + 1 x F.

    Independent of the lowering construction, which builds every module;
    this one only checks it.  Dimensions and weight multiplicities are
    checked against both character oracles on build.
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
        _check_character(datum, lam, got, freudenthal_oracle(datum, lam))
        weights = _weight_order(datum, echelons)
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

        super().__init__(datum, lam, weights, got,
                         *([laurent_matrix(matrix(i, sign), lam)
                            for i in range(datum.rank)] for sign in (1, -1)))


def _coproduct_action(datum, left, right):
    """The action of E_i (sign > 0) and F_i on sparse vectors over Q(v)
    of left (x) right, indexed q * left.dim + p.

    With the right factor as the major index, the pivot (smallest index)
    of a closure vector falls, where it can, on a component whose right
    factor is its highest vector.  That coefficient is a left coordinate
    times a power of v, so the echelon rows, scaled to 1 there, keep
    polynomial entries (on A1, F acts by powers of v)."""
    d1 = left.dim
    r = datum.rank
    cols = {(sign, i): tuple(
                sparse_transpose(sparse_map(RatFunc.from_poly,
                                            m.divided_power(sign, i, 1)))
                for m in (left, right))
            for sign in (1, -1) for i in range(r)}

    def ktilde(m, i, sign):  # K~_i^sign = K_(sign d_i h_i)
        h = tuple(sign * datum.cartan.d(i) * x
                  for x in datum.simple_coroots[i])
        return sparse_map(RatFunc.from_poly, m.symbol(("K", h)))
    k1 = [ktilde(left, i, 1) for i in range(r)]
    k2inv = [ktilde(right, i, -1) for i in range(r)]

    def apply(i, sign, vec):
        cols1, cols2 = cols[sign, i]
        out = {}
        for idx, c in vec.items():
            q, p = divmod(idx, d1)
            # E: E x 1 + K~ x E;  F: F x K~^{-1} + 1 x F
            c1, c2 = ((c, c * k1[i][p][p]) if sign > 0
                      else (c * k2inv[i][q][q], c))
            for p2, a in cols1.get(p, {}).items():
                j = q * d1 + p2
                out[j] = out.get(j, _F.zero) + a * c1
            for q2, a in cols2.get(q, {}).items():
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


def _weight_order(datum, weights):
    """The weights below a highest weight lam sorted by depth (the height
    of lam - nu in the simple roots), then by the weight itself.  Since
    <rho^vee, alpha_i> = 1, the depth is <rho^vee, lam - nu>, so the key
    -<2 rho^vee, nu> sorts by depth with no root coordinates."""
    return sorted(weights,
                  key=lambda nu: (-datum.pair(datum.two_rho_vee, nu), nu))


def _check_character(datum, lam, dims, mult):
    """Check weight multiplicities against mult, from the Freudenthal
    recursion, and the dimension against the Weyl formula."""
    if dims != mult:
        raise ModuleCheckError(
            f"weight multiplicities {dims} of {lam} disagree with the "
            "Freudenthal recursion")
    if sum(dims.values()) != weyl_dim_oracle(datum, lam):
        raise ModuleCheckError(f"dimension of {lam} disagrees with the Weyl "
                               "dimension formula")


def word_matrix(module, word):
    """The sparse matrix over Z[v,v^-1] of a word of symbols on the module,
    multiplied from the left.  A word of the modified form starts from the
    rows of the weight where it ends (`word_walk`), which also places its
    idempotents, so only the rows it reaches are multiplied; a walk that
    leaves the weights of the module is zero, and lowers nothing.  Any
    other word starts from the identity."""
    if any(sym[0] == "1" for sym in word):
        walk = word_walk(module.datum, word)
        if not module.dims.keys() >= set(walk):
            return {}
        mat = module.symbol(("1", walk[0]))
    else:
        mat = sparse_diagonal(dict.fromkeys(range(module.dim), ONE))
    for sym in word:
        if mat and sym[0] != "1":
            mat = sparse_mul(mat, module.symbol(sym))
    return mat


def word_walk(datum, word):
    """The weights of a word of the modified form, from the left: where it
    ends, fixed by its first idempotent 1_lam, then right of each symbol;
    [None], a weight of no module, when two idempotents disagree."""
    start = next(k for k, sym in enumerate(word) if sym[0] == "1")
    nu = word[start][1]
    for sym in word[:start]:
        nu = _shift(datum, nu, sym, 1)
    walk = [nu]
    for sym in word:
        if sym[0] == "1" and sym[1] != nu:
            return [None]
        nu = _shift(datum, nu, sym, -1)
        walk.append(nu)
    return walk


def _shift(datum, nu, sym, side):
    """nu + side k alpha_i for E_i^(k), nu - side k alpha_i for F_i^(k)."""
    if sym[0] not in ("E", "Ed"):
        return nu
    k = side * sym[1] * (sym[3] if sym[0] == "Ed" else 1)
    return tuple(x + k * a for x, a in zip(nu, datum.simple_roots[sym[2]]))


@cache
def weyl_module(datum, lam):
    """Memoized construction, unlowered until a read needs E or F
    (`WeylModule`); a pure function of the datum and the weight tuple
    lam."""
    return WeylModule(datum, lam)


# -- independent oracles ----------------------------------------------------


def weyl_dim_oracle(datum, lam):
    """Weyl dimension formula: the product over the positive coroots h of
    <h, 2 lam + 2 rho> / <h, 2 rho>, in integers."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    shifted = tuple(2 * x + t for x, t in zip(lam, datum.two_rho))
    num = den = 1
    for _, h in datum.positive_roots():
        num *= datum.pair(h, shifted)
        den *= datum.pair(h, datum.two_rho)
    dim, rest = divmod(num, den)
    if rest:
        raise ModuleCheckError(
            f"Weyl quotient {num}/{den} of {lam} is not an integer")
    return dim


def freudenthal_oracle(datum, lam):
    """Weight multiplicities of the module of highest weight lam, as a dict
    weight -> positive integer, by the Freudenthal recursion, in integers:
    every form has one argument in the root lattice."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    # the saturation holds only weights <= lam; dominants[0] == lam
    dominants = _weight_order(datum, datum.saturate([lam]).elements)
    mult = {}
    pos = datum.positive_roots()
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        total = 0
        for root, _ in pos:
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu, root))
                m = mult.get(datum.dominant_representative(nu))
                if m is None:
                    break
                total += m * datum.invariant_form(nu, root)
                k += 1
        # denominator (lam+mu+2rho, lam-mu); lam-mu lies in the root lattice
        den = datum.invariant_form(
            tuple(a + b + t for a, b, t in zip(lam, mu, datum.two_rho)),
            tuple(a - b for a, b in zip(lam, mu)))
        if den == 0 or 2 * total % den:
            raise ModuleCheckError(
                f"Freudenthal multiplicity {2 * total}/{den} of {mu} in "
                f"the module of highest weight {lam} is not an integer")
        mult[mu] = 2 * total // den
    out = {}
    for mu, m in mult.items():
        if m > 0:
            for nu in datum.weyl_orbit(mu):
                out[nu] = m
    return out
