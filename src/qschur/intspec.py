"""Integral forms over Z[v,v^-1] via verified lattice bases, exact
specialization v -> xi, the specialized inverse system, and empirical
kernel probes."""

from __future__ import annotations

from .laurent import LaurentPoly, RatFuncField, is_integral
from .linalg import (SparseEchelon, det_unit_check, identity, mat_mul, rref,
                     sparse_from_dense, sparse_map, sparse_mul)
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
    span the same lattice with a unit transition determinant; this pins the
    lattice itself, not just a spanning set.
    """

    def __init__(self, module):
        self.module = module
        chosen = _greedy_select(module, reverse=False)
        # deterministic order: module weight order, monomials as discovered
        self.monomials = [mono for nu in module.weights
                          for mono, _ in chosen[nu]]
        # change of basis C: lattice coords -> module coords (columns)
        C = _columns(module, chosen)
        c_inv = _invert(C)
        self._c = sparse_from_dense(C)
        self._c_inv = sparse_from_dense(c_inv)
        self._integral_cache = {}
        self._verify_unit_transition(c_inv)

    def _verify_unit_transition(self, c_inv):
        """An alternate greedy selection must express in this basis with
        entries in Z[v,v^-1] and unit determinant."""
        module = self.module
        C2 = _columns(module, _greedy_select(module, reverse=True))
        T = mat_mul(c_inv, C2, _F)
        for r_, row in enumerate(T):
            for c_, x in enumerate(row):
                if is_integral(x) is None:
                    raise LatticeError(
                        "unsupported lattice: alternate-basis transition "
                        f"entry ({r_},{c_}) is {x.to_string()}, not in "
                        "Z[v,v^-1]")
        det = det_unit_check(T, _F)
        p = is_integral(det)
        if p is None or not p.is_unit():
            raise LatticeError(
                f"transition determinant {det.to_string()} is not a unit "
                "of Z[v,v^-1]")

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
        latt = sparse_mul(self._c_inv, sparse_mul(mat, self._c))
        out = {}
        for r_, row in latt.items():
            orow = out[r_] = {}
            for c_, x in row.items():
                p = is_integral(x)
                if p is None:
                    raise LatticeError(
                        "unsupported lattice: entry "
                        f"({r_},{c_}) of E^({k}) (sign {key[0]}, index {i}) "
                        f"is {x.to_string()}, not in Z[v,v^-1]")
                orow[c_] = p
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
    out = {}
    for r_, row in mat.items():
        acc = _F.zero
        for c_, x in vec.items():
            y = row.get(c_)
            if y is not None:
                acc = acc + y * x
        if acc:
            out[r_] = acc
    return out


def _columns(module, chosen):
    """Dense matrix whose columns are the chosen vectors, in module weight
    order."""
    cols = [vec for nu in module.weights for _, vec in chosen[nu]]
    return [[col.get(i, _F.zero) for col in cols] for i in range(module.dim)]


def _invert(mat):
    n = len(mat)
    aug = [row[:] + identity(n, _F)[i] for i, row in enumerate(mat)]
    rows, pivots = rref(aug, _F)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in rows]


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
