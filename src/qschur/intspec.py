"""Integral forms over Z[v,v^-1] via verified lattice bases, exact
specialization v -> xi, the specialized inverse system, and empirical
kernel probes."""

from __future__ import annotations

from .laurent import LaurentPoly, RatFuncField, is_integral
from .linalg import (SparseEchelon, det_unit_check, identity, is_zero_matrix,
                     mat_mul, rref, sparse_from_dense)
from .rings import RingPoint, evaluate
from .rootdata import dominant_weights_up_to_height
from .schur import BlockAlgebra, SchurElement, TruncationMap
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
        self.monomials = []
        cols = []
        for nu in module.weights:
            for mono, vec in chosen[nu]:
                self.monomials.append(mono)
                cols.append(vec)
        # change of basis C: lattice coords -> module coords (columns)
        n = module.dim
        self.C = [[cols[j][i] for j in range(n)] for i in range(n)]
        self._c_inv = _invert(self.C)
        self._integral_cache = {}
        self._verify_unit_transition()

    def _verify_unit_transition(self):
        """An alternate greedy selection must express in this basis with
        entries in Z[v,v^-1] and unit determinant."""
        module = self.module
        alt = _greedy_select(module, reverse=True)
        cols = []
        for nu in module.weights:
            for _, vec in alt[nu]:
                cols.append(vec)
        n = module.dim
        C2 = [[cols[j][i] for j in range(n)] for i in range(n)]
        T = mat_mul(self._c_inv, C2, _F)
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
        while True:
            mat = self.module.divided_power_matrix(sign, i, k + 1)
            if is_zero_matrix(mat, _F):
                return k
            k += 1

    def integral_matrix(self, sign, i, k):
        """The k-th divided power in the lattice basis, entries in
        Z[v,v^-1]; raises LatticeError on an offending entry."""
        key = (1 if sign > 0 else -1, i, k)
        cached = self._integral_cache.get(key)
        if cached is not None:
            return cached
        mat = self.module.divided_power_matrix(sign, i, k)
        latt = mat_mul(self._c_inv, mat_mul(mat, self.C, _F), _F)
        out = []
        for r_, row in enumerate(latt):
            orow = []
            for c_, x in enumerate(row):
                p = is_integral(x)
                if p is None:
                    raise LatticeError(
                        "unsupported lattice: entry "
                        f"({r_},{c_}) of E^({k}) (sign {key[0]}, index {i}) "
                        f"is {x.to_string()}, not in Z[v,v^-1]")
                orow.append(p)
            out.append(orow)
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
    """Greedy rank-extending selection of divided-power monomial images,
    grouped by weight.  `reverse` flips the generator enumeration order to
    produce an independent second selection."""
    datum = module.datum
    r = datum.rank
    chosen = {nu: [] for nu in module.weights}
    picked = 0
    echelons = {nu: SparseEchelon(_F) for nu in module.weights}

    def block_vec(nu, vec):
        off = module.offsets[nu]
        return {k: vec[off + k] for k in range(module.dims[nu])
                if not vec[off + k].is_zero()}

    hw = [_F.zero] * module.dim
    hw[module.offsets[module.lam]] = _F.one
    frontier = [((), tuple(hw), module.lam)]
    echelons[module.lam].insert(block_vec(module.lam, hw))
    chosen[module.lam].append(((), tuple(hw)))
    picked += 1
    indices = list(range(r))
    if reverse:
        indices.reverse()
    while frontier:
        nxt = []
        for mono, vec, nu in sorted(frontier):
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
                    mat = module.divided_power_matrix(-1, i, a)
                    nv = _apply(mat, vec)
                    if all(x.is_zero() for x in nv):
                        break
                    steps.append((a, target, tuple(nv)))
                    a += 1
                if reverse:
                    steps.reverse()
                for a, target, nv in steps:
                    nm = ((i, a),) + mono
                    nxt.append((nm, nv, target))
                    if echelons[target].insert(block_vec(target, nv)):
                        chosen[target].append((nm, nv))
                        picked += 1
        frontier = nxt
    if picked != module.dim:
        raise LatticeError(
            f"monomial images span rank {picked} < dim {module.dim} "
            f"for highest weight {module.lam}")
    return chosen


def _apply(mat, vec):
    n = len(mat)
    out = [_F.zero] * n
    for i in range(n):
        row = mat[i]
        acc = _F.zero
        for j, x in enumerate(vec):
            if not x.is_zero():
                y = row[j]
                if not y.is_zero():
                    acc = acc + y * x
        out[i] = acc
    return out


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

    def divided_power(self, sign, i, k):
        key = (1 if sign > 0 else -1, i, k)
        el = self._dp_cache.get(key)
        if el is None:
            blocks = []
            for lb in self.lattices:
                if k > lb.nilpotency(sign, i):
                    blocks.append({})
                else:
                    mat = lb.integral_matrix(sign, i, k)
                    blocks.append(sparse_from_dense(
                        [[self._poly(x) for x in row] for row in mat]))
            el = SchurElement(self, blocks)
            self._dp_cache[key] = el
        return el

    def generator(self, sign, i):
        return self.divided_power(sign, i, 1)

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
