"""Integral forms over Z[v,v^-1] via verified lattice bases, exact
specialization v -> xi, the specialized inverse system, and empirical
kernel probes."""

from __future__ import annotations

from .laurent import LaurentPoly, RatFuncField, is_integral
from .linalg import SparseEchelon, sparse_map, sparse_mul
from .rings import RingPoint, evaluate
from .rootdata import dominant_weights_up_to_height
from .schur import BlockAlgebra, TruncationMap
from .weylmod import weyl_module

_F = RatFuncField


class LatticeError(ValueError):
    """Raised when a module admits no supported integral lattice basis."""


class LatticeBasis:
    """A basis of divided-power monomial images with verified unit
    transition determinant and integral generator matrices.

    A monomial is a tuple of (index, exponent) pairs with distinct adjacent
    indices, applied right to left to the highest-weight vector.

    Two independent greedy selections (differing in enumeration order) must
    span the same lattice: each must express in the other with entries in
    Z[v,v^-1].  Then the transition matrix T and its inverse are integral,
    so det T det T^-1 = 1 makes det T a unit; this pins the lattice itself,
    not just a spanning set.
    """

    def __init__(self, module):
        self.module = module
        chosen = _greedy_select(module, reverse=False)
        # deterministic order: module weight order, monomials as discovered
        self.monomials = [mono for nu in module.weights
                          for mono, _ in chosen[nu]]
        self._vectors = _flatten(module, chosen)
        self._coords = _coordinates(module, self._vectors,
                                    "unsupported lattice")
        self._integral_cache = {}
        self._verify_unit_transition()

    def _verify_unit_transition(self):
        module = self.module
        other = _flatten(module, _greedy_select(module, reverse=True))
        _integral_columns(self._coords, other,
                          "unsupported lattice: alternate-basis transition")
        unit = "transition determinant is not a unit of Z[v,v^-1]"
        _integral_columns(_coordinates(module, other, unit), self._vectors,
                          unit + ": inverse transition")

    def nilpotency(self, sign, i):
        """Largest k with a nonzero k-th divided power (0 for the zero
        action)."""
        k = 0
        while self.module.divided_power(sign, i, k + 1):
            k += 1
        return k

    def integral_matrix(self, sign, i, k):
        """The k-th divided power in the lattice basis, as a sparse matrix
        with entries in Z[v,v^-1]; raises LatticeError on an offending
        entry."""
        key = (1 if sign > 0 else -1, i, k)
        out = self._integral_cache.get(key)
        if out is not None:
            return out
        mat = self.module.divided_power(sign, i, k)
        out = _integral_columns(
            self._coords, [_apply(mat, vec) for vec in self._vectors],
            f"unsupported lattice: E^({k}) (sign {key[0]}, index {i})")
        self._integral_cache[key] = out
        return out

    def check_integrality(self, max_power=None):
        """Verify every divided-power generator matrix has entries in
        Z[v,v^-1]; returns the list of checked (sign, i, k) triples."""
        checked = []
        for sign in (1, -1):
            for i in range(self.module.datum.rank):
                kmax = self.nilpotency(sign, i)
                if max_power is not None:
                    kmax = min(kmax, max_power)
                for k in range(1, kmax + 1):
                    self.integral_matrix(sign, i, k)
                    checked.append((sign, i, k))
        return checked


def _greedy_select(module, reverse=False):
    """Greedy rank-extending selection of divided-power monomial images
    (sparse vectors), grouped by weight.  `reverse` flips the generator
    enumeration order to produce an independent second selection."""
    datum = module.datum
    r = datum.rank
    chosen = {nu: [] for nu in module.weights}
    picked = 0
    echelons = {nu: SparseEchelon(_F) for nu in module.weights}

    hw = {module.offsets[module.lam]: _F.one}
    frontier = [((), hw, module.lam)]
    echelons[module.lam].insert(hw)
    chosen[module.lam].append(((), hw))
    picked += 1
    indices = list(range(r))
    if reverse:
        indices.reverse()
    while frontier:
        nxt = []
        for mono, vec, nu in sorted(frontier, key=lambda t: t[0]):
            for i in indices:
                if mono and mono[0][0] == i:
                    continue
                alpha = datum.simple_roots[i]
                steps = []
                a = 1
                while True:
                    target = tuple(x - a * al for x, al in zip(nu, alpha))
                    if target not in module.offsets:
                        break
                    nv = _apply(module.divided_power(-1, i, a), vec)
                    if not nv:
                        break
                    steps.append((a, target, nv))
                    a += 1
                if reverse:
                    steps.reverse()
                for a, target, nv in steps:
                    nm = ((i, a),) + mono
                    nxt.append((nm, nv, target))
                    if echelons[target].insert(nv):
                        chosen[target].append((nm, nv))
                        picked += 1
        frontier = nxt
    if picked != module.dim:
        raise LatticeError(
            f"monomial images span rank {picked} < dim {module.dim} "
            f"for highest weight {module.lam}")
    return chosen


def _apply(mat, vec):
    """A sparse matrix times a sparse vector."""
    col = sparse_mul(mat, {c_: {0: x} for c_, x in vec.items()})
    return {r_: row[0] for r_, row in col.items()}


def _flatten(module, chosen):
    """The chosen vectors in module weight order."""
    return [vec for nu in module.weights for _, vec in chosen[nu]]


def _coordinates(module, vectors, what):
    """The coordinates of every module basis vector e_p in `vectors`, as
    sparse rows {p: {n: x}}; the coordinates of w are sum_p w[p] * row p.
    Raises LatticeError, prefixed by `what`, unless `vectors` is a basis.

    Vector n enters one echelon with the unit tag dim + n, past every module
    index (weight spaces have disjoint supports, so one echelon serves every
    weight).  For a basis every module index is a pivot, and its fully
    reduced row is e_p plus the coordinates of e_p on the tags."""
    off = module.dim
    ech = SparseEchelon(_F)
    for n, vec in enumerate(vectors):
        ech.insert({**vec, off + n: _F.one})
    if set(ech.pivots) != set(range(off)):
        raise LatticeError(f"{what}: the selected vectors are not a basis")
    return {p: {k - off: x for k, x in row.items() if k >= off}
            for p, row in ech.pivots.items()}


def _integral_columns(coords, columns, what):
    """The sparse matrix whose column c holds the coordinates of
    columns[c] (given the coordinate rows from `_coordinates`), with entries
    in Z[v,v^-1]; raises LatticeError, prefixed by `what`, on an entry
    outside Z[v,v^-1]."""
    out = {}
    for c_, col in sparse_mul(dict(enumerate(columns)), coords).items():
        for r_, x in col.items():
            p = is_integral(x)
            if p is None:
                raise LatticeError(
                    f"{what}: entry ({r_},{c_}) is {x.to_string()}, not in "
                    "Z[v,v^-1]")
            out.setdefault(r_, {})[c_] = p
    return out


_lattice_cache = {}


def lattice_basis(module):
    key = (module.datum.key(), module.lam)
    lb = _lattice_cache.get(key)
    if lb is None:
        lb = LatticeBasis(module)
        _lattice_cache[key] = lb
    return lb


# -- specialized algebras ----------------------------------------------------


class SpecializedSchur(BlockAlgebra):
    """The realized image of the integral form of a truncated algebra after
    specializing v to xi.

    At a root of unity the realized algebra may be a proper quotient of the
    base-changed integral form; only the realized dimension is computed and
    reported, never identified with the abstract base change.
    """

    def __init__(self, pi, point: RingPoint):
        super().__init__(pi, [weyl_module(pi.datum, lam) for lam in pi])
        self.point = point
        self.field = point.field
        # the lattice basis keeps the weight order of its module, so the
        # shared idempotents and K elements apply to it unchanged
        self.lattices = [lattice_basis(m) for m in self.modules]
        self.generic_dim = self.expected_dim

    def _poly(self, poly: LaurentPoly):
        val = poly.evaluate(self.point.xi_pow)
        return self.field.zero if val is None else val

    def _scalar(self, c):
        return evaluate(c, self.point)

    def _divided_power_blocks(self, sign, i, k):
        return [sparse_map(self._poly, lb.integral_matrix(sign, i, k))
                for lb in self.lattices]

    # -- dimension --------------------------------------------------------

    def _generators(self):
        gens = []
        for sign in (1, -1):
            for i in range(self.datum.rank):
                kmax = max(lb.nilpotency(sign, i) for lb in self.lattices)
                for k in range(1, kmax + 1):
                    gens.append(self.divided_power(sign, i, k))
        return gens

    def basis(self):
        """Span closure over R, seeded with the idempotents and closed under
        left multiplication by all divided powers."""
        if self._basis is None:
            self._basis = self._closure(self._generators())
            self._dimension = len(self._basis)
        return self._basis

    # the defining relations, checked over R by the shared suite
    verify_relations = BlockAlgebra.verify_presentation

    def key(self):
        return (self.pi.key(), repr(self.point))

    def __repr__(self):
        return f"SpecializedSchur(pi={list(self.pi)}, {self.point!r})"


_spec_cache = {}


def specialize_schur(pi, point):
    # fields compare by value, so equal points built anew share one algebra
    key = (pi.key(), point.field, repr(point.xi))
    alg = _spec_cache.get(key)
    if alg is None:
        alg = SpecializedSchur(pi, point)
        _spec_cache[key] = alg
    return alg


class RTruncationMap(TruncationMap):
    """Block restriction between the specializations at `point`."""

    multiplicative_sample = False

    def __init__(self, target_pi, source_pi, point):
        self.point = point
        super().__init__(target_pi, source_pi)

    def _algebra(self, pi):
        return specialize_schur(pi, self.point)

    def verify(self):
        """The checks of `TruncationMap.verify` over the specialized field,
        without the multiplicative sample."""
        return self._verify()


def r_truncation_map(target_pi, source_pi, point):
    return RTruncationMap(target_pi, source_pi, point)


# -- kernel probe ------------------------------------------------------------


def kernel_probe_RU(datum, degree_bound, height_bound, point):
    """Joint kernel of the images of bounded divided-power words across the
    schedule of saturated sets, as a nonincreasing dimension sequence.

    Empirical evidence only; a zero terminal kernel at bounded degree never
    proves injectivity.
    """
    alphabet = []
    for sign in (1, -1):
        for i in range(datum.rank):
            for k in range(1, degree_bound + 1):
                alphabet.append(("Ed", sign, i, k))
    for h in datum.simple_coroots:
        alphabet.append(("K", tuple(h)))

    words = [()]
    layer = [()]
    for _ in range(degree_bound):
        layer = [w + (sym,) for w in layer for sym in alphabet]
        words.extend(layer)

    history = []
    kernel_dim = len(words)
    # the constraint rows, one per matrix entry per pi: row ent holds
    # entry ent of the image of every word
    ech = SparseEchelon(point.field)
    for mu in dominant_weights_up_to_height(datum, height_bound):
        pi = datum.saturate([mu])
        S = specialize_schur(pi, point)
        rows = {}
        for j, w in enumerate(words):
            for ent, x in S.evaluate_word(w).flatten().items():
                rows.setdefault(ent, {})[j] = x
        for ent in sorted(rows):
            ech.insert(rows[ent])
        kernel_dim = len(words) - ech.rank
        history.append({"pi": list(pi), "kernel_dim": kernel_dim})
    return {"word_count": len(words), "history": history,
            "final_kernel_dim": kernel_dim}
