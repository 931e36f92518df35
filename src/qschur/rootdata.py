"""Cartan data, finite-type root data, dominance order, Weyl orbits, and
saturated sets of dominant weights.

Weights are plain integer tuples in the chosen basis of the weight lattice X,
and coweights in the dual basis of Y, so every pairing <h, lam> is one dot
product; conversions to the simple-root basis solve exact linear systems.

Each `RootDatum` memoizes its alpha coordinates, Weyl orbits, dominant
representatives, saturated sets, dominant-weight walk and probe schedules
in tables of its own: the results are immutable, a call that raises stores
nothing, and no table hands one datum the sets of an equal one, as a
`functools.cache` would.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, lcm

from .linalg import SparseEchelon
from .rings import QField


class CartanDatum:
    """A finite index set with a symmetric integer bilinear form."""

    def __init__(self, form):
        self.form = tuple(tuple(int(x) for x in row) for row in form)
        self.rank = len(self.form)

    def d(self, i):
        return self.form[i][i] // 2

    def cartan_entry(self, i, j):
        """2(i,j)/(i,i) as an exact integer (may be a check failure if not)."""
        num = 2 * self.form[i][j]
        den = self.form[i][i]
        return Fraction(num, den)

    def validate(self):
        errors = []
        n = self.rank
        for row in self.form:
            if len(row) != n:
                errors.append("form matrix is not square")
                return errors
        for i in range(n):
            for j in range(n):
                if self.form[i][j] != self.form[j][i]:
                    errors.append(f"form not symmetric at ({i},{j})")
        for i in range(n):
            if self.form[i][i] <= 0 or self.form[i][i] % 2 != 0:
                errors.append(f"diagonal entry ({i},{i}) = {self.form[i][i]} "
                              "not a positive even integer")
        for i in range(n):
            for j in range(n):
                if i != j:
                    c = self.cartan_entry(i, j)
                    if c.denominator != 1 or c > 0:
                        errors.append(
                            f"2(i,j)/(i,i) at ({i},{j}) is {c}, "
                            "not a nonpositive integer")
        if not errors and not self.is_finite_type():
            errors.append("form matrix is not positive definite "
                          "(not finite type)")
        return errors

    def is_finite_type(self):
        """Positive definiteness: every leading principal minor, read off
        one Bareiss elimination, is positive."""
        pivots = _bareiss(self.form)
        return len(pivots) == self.rank and all(p > 0 for p in pivots)


def _bareiss(m):
    """The leading principal minors of a square integer matrix, by Bareiss
    fraction-free elimination without row swaps: the k-th pivot is the
    leading k x k minor.  Elimination stops at the first zero pivot."""
    a = [list(row) for row in m]
    n = len(a)
    pivots, prev = [], 1
    for k in range(n):
        p = a[k][k]
        pivots.append(p)
        if p == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return pivots


class RootDatum:
    """Lattices X, Y with simple roots in X and simple coroots in Y.

    Weights are written in a basis of X and coweights in the dual basis of
    Y, so the perfect pairing <h, lam> is the dot product of the tuples.
    """

    def __init__(self, cartan, simple_roots, simple_coroots, name=None):
        self.cartan = cartan
        self.simple_roots = tuple(tuple(int(x) for x in a)
                                  for a in simple_roots)
        self.simple_coroots = tuple(tuple(int(x) for x in h)
                                    for h in simple_coroots)
        self.rank_x = len(self.simple_roots[0]) if self.simple_roots else 0
        self.rank = cartan.rank
        self.name = name
        self._alpha_memo = {}       # vec -> alpha_coords(vec)
        self._orbit_memo = {}       # lam -> weyl_orbit(lam)
        self._dominant_memo = {}    # lam -> dominant_representative(lam)
        self._saturate_memo = {}    # frozenset of generators -> saturate
        self._walk_memo = (-1, [])  # bound, [(height, dominant weight)]
        self._schedule_memo = {}    # height bound -> ulimit.probe_schedule
        self._hash = hash(self.key())

    def _memo(self, table, key, body):
        """table[key], computed as body(key) once; a raise stores nothing."""
        if key not in table:
            table[key] = body(key)
        return table[key]

    # -- pairing and reflections ---------------------------------------

    def pair(self, h, lam):
        """<h, lam> for a coweight h and a weight lam."""
        return sum(c * x for c, x in zip(h, lam))

    def pair_i(self, i, lam):
        return sum(c * x for c, x in zip(self.simple_coroots[i], lam))

    def is_dominant(self, lam):
        return all(self.pair_i(i, lam) >= 0 for i in range(self.rank))

    def reflect(self, i, lam):
        c = self.pair_i(i, lam)
        alpha = self.simple_roots[i]
        return tuple(x - c * a for x, a in zip(lam, alpha))

    def reflect_coweight(self, i, h):
        c = self.pair(h, self.simple_roots[i])
        hi = self.simple_coroots[i]
        return tuple(x - c * a for x, a in zip(h, hi))

    # -- validation -----------------------------------------------------

    def validate(self):
        report = list(self.cartan.validate())
        r = self.rank
        if len(self.simple_roots) != r or len(self.simple_coroots) != r:
            report.append("number of simple roots/coroots differs from the "
                          "Cartan rank")
            return report
        lengths = [f"simple {kind} {i} has {len(v)} entries, not "
                   f"{self.rank_x}"
                   for kind, vectors in (("root", self.simple_roots),
                                         ("coroot", self.simple_coroots))
                   for i, v in enumerate(vectors) if len(v) != self.rank_x]
        if lengths:
            return report + lengths
        for i in range(r):
            for j in range(r):
                expect = self.cartan.cartan_entry(i, j)
                got = self.pair_i(i, self.simple_roots[j])
                if Fraction(got) != expect:
                    report.append(
                        f"<h_{i}, alpha_{j}> = {got}, expected {expect}")
        if _rank_of(self.simple_roots) != r:
            report.append("simple roots not linearly independent")
        if _rank_of(self.simple_coroots) != r:
            report.append("simple coroots not linearly independent")
        return report

    # -- alpha coordinates ----------------------------------------------

    @cached_property
    def _alpha_solver(self):
        return _solver([[a[k] for a in self.simple_roots]
                        for k in range(self.rank_x)])

    @cached_property
    def _pairing_solver(self):
        """Solves <h_i, lam> = n_i for a rational weight lam."""
        return _solver(self.simple_coroots)

    def alpha_coords(self, vec):
        """Coordinates of vec in the simple-root basis, or None when vec is
        outside the rational span.  Entries are Fractions; memoized."""
        return self._memo(self._alpha_memo, tuple(vec), self._alpha_solver)

    def root_coords(self, vec):
        """The alpha-coordinates of vec as ints, or None when vec is outside
        the root lattice."""
        coords = self.alpha_coords(vec)
        if coords is None or any(c.denominator != 1 for c in coords):
            return None
        return tuple(c.numerator for c in coords)

    def dominance_leq(self, lam, mu):
        """lam <= mu in the dominance order."""
        coords = self.root_coords(tuple(m - l for l, m in zip(lam, mu)))
        return coords is not None and all(c >= 0 for c in coords)

    def height(self, lam):
        """Sum of alpha-coordinates of lam - w0(lam), for dominant lam:
        <rho^vee, alpha_i> = 1, so it is <rho^vee, lam - w0(lam)> =
        <2 rho^vee, lam>, an integer."""
        return self.pair(self.two_rho_vee, lam)

    # -- Weyl orbits -----------------------------------------------------

    def weyl_orbit(self, lam):
        """The closure of {lam} under the simple reflections, memoized."""
        return self._memo(self._orbit_memo, tuple(lam), self._weyl_orbit)

    def _weyl_orbit(self, lam):
        seen = {lam}
        frontier = [lam]
        while frontier:
            nxt = []
            for mu in frontier:
                for i in range(self.rank):
                    nu = self.reflect(i, mu)
                    if nu not in seen:
                        seen.add(nu)
                        nxt.append(nu)
            frontier = nxt
        return frozenset(seen)

    def dominant_representative(self, lam):
        """The dominant weight of the Weyl orbit of lam; memoized."""
        return self._memo(self._dominant_memo, tuple(lam),
                          self._dominant_representative)

    def _dominant_representative(self, mu):
        while True:
            for i in range(self.rank):
                if self.pair_i(i, mu) < 0:
                    mu = self.reflect(i, mu)
                    break
            else:
                return mu

    # -- positive roots ---------------------------------------------------

    @cached_property
    def _positive_roots(self):
        """The positive (root, coroot) pairs, ordered by height then lex,
        found from the simple roots by simple reflections; s_i lowers the
        i-th alpha-coordinate of a root by <h_i, root>."""
        coords = {(self.simple_roots[i], self.simple_coroots[i]):
                  tuple(int(j == i) for j in range(self.rank))
                  for i in range(self.rank)}
        frontier = list(coords)
        while frontier:
            nxt = []
            for root, coroot in frontier:
                c = coords[root, coroot]
                for i in range(self.rank):
                    n = self.pair_i(i, root)
                    if n == 0 or n > c[i]:      # fixed, or not positive
                        continue
                    cand = (self.reflect(i, root),
                            self.reflect_coweight(i, coroot))
                    if cand not in coords:
                        coords[cand] = c[:i] + (c[i] - n,) + c[i + 1:]
                        nxt.append(cand)
            frontier = nxt
        return sorted(coords, key=lambda pair: (sum(coords[pair]), pair[0]))

    def positive_roots(self):
        """All positive (root, coroot) pairs, ordered by height then lex."""
        return self._positive_roots

    @cached_property
    def two_rho(self):
        """The sum of the positive roots, an integral weight."""
        return tuple(sum(root[k] for root, _ in self._positive_roots)
                     for k in range(self.rank_x))

    @cached_property
    def two_rho_vee(self):
        """2 rho^vee, the sum of the positive coroots, a coweight."""
        return tuple(sum(h[k] for _, h in self._positive_roots)
                     for k in range(self.rank_x))

    # -- saturation --------------------------------------------------------

    def saturate(self, generators):
        """The least saturated set of X+ holding the generators; memoized."""
        return self._memo(self._saturate_memo,
                          frozenset(tuple(g) for g in generators),
                          self._saturate)

    def _saturate(self, gens):
        """Below a dominant mu, every dominant weight is reached from mu by
        dominant steps down by a positive root (Stembridge 1998).  A step
        onto a lam whose down(lam) is memoized adds it whole: it is closed
        under the same steps, so the reachable set is the same.  Sets passed
        inside are not stored (one per weight below a large generator); each
        member is dominant when found, so only an empty set is checked."""
        for g in gens:
            if not self.is_dominant(g):
                raise ValueError(f"generator {g} is not dominant")
        out = set(gens)
        frontier = list(out)
        while frontier:
            nxt = []
            for mu in frontier:
                for root, _ in self._positive_roots:
                    lam = tuple(x - a for x, a in zip(mu, root))
                    if lam in out or not self.is_dominant(lam):
                        continue
                    if known := self._saturate_memo.get(frozenset((lam,))):
                        out |= known._members
                    else:
                        out.add(lam)
                        nxt.append(lam)
            frontier = nxt
        return SaturatedSet(self, out, not out)

    # -- invariant form ----------------------------------------------------

    def invariant_form(self, lam, mu):
        """W-invariant form on the rational span of the roots, normalized so
        that (alpha_i, alpha_j) = (i, j); an int when mu lies in the root
        lattice."""
        for x, y in ((lam, mu), (mu, lam)):
            coords = self.root_coords(y) or self.alpha_coords(y)
            if coords is not None:
                return sum(c * self.cartan.d(j) * self.pair_i(j, x)
                           for j, c in enumerate(coords) if c)
        raise ValueError("form undetermined: neither argument lies in the "
                         "span of the simple roots")

    def __repr__(self):
        return f"RootDatum({self.name or 'custom'})"

    def key(self):
        """Deterministic identity: equal data have equal keys, whatever
        their names."""
        return self.cartan.form, self.simple_roots, self.simple_coroots

    def __eq__(self, other):
        return self is other or (isinstance(other, RootDatum)
                                 and self._hash == other._hash
                                 and self.key() == other.key())

    def __hash__(self):
        return self._hash


def _solver(rows):
    """A solver b -> x of the integer system A x = b (A given by its rows):
    x has Fraction entries, 0 at the free unknowns, and is None when the
    system has no rational solution.

    The rows of [A | I] go into one echelon, whose fully reduced rows are
    the reduced form [R | T] with R = T A: A x = b is solvable iff T b
    vanishes on the rows whose pivot lies past A, and T b then holds x at
    the pivots of R.  T is scaled to integers by one common denominator,
    so only the output is made of Fractions."""
    n = len(rows[0])
    ech = SparseEchelon(QField)
    for i, row in enumerate(rows):
        ech.insert({**_sparse(row), n + i: QField.one})
    den = lcm(*(t.denominator for row in ech.pivots.values()
                for t in row.values()))
    T = [(p, {k - n: int(t * den) for k, t in row.items() if k >= n})
         for p, row in ech.pivots.items()]

    def solve(b):
        x = [0] * n
        for p, t in T:
            tb = sum(y * b[k] for k, y in t.items())
            if p < n:
                x[p] = tb
            elif tb:
                return None
        return tuple(Fraction(y, den) for y in x)

    return solve


def _rank_of(vectors):
    ech = SparseEchelon(QField)
    return sum(ech.insert(_sparse(v)) for v in vectors)


def _sparse(vec):
    return {k: Fraction(x) for k, x in enumerate(vec) if x}


class SaturatedSet:
    """A finite saturated set of dominant weights, in deterministic order."""

    def __init__(self, datum, elements, check=True):
        self.datum = datum
        elems = {tuple(e) for e in elements}
        if check:
            if not elems:
                raise ValueError("saturated set must be nonempty")
            for e in elems:
                if not datum.is_dominant(e):
                    raise ValueError(f"element {e} is not dominant")
        self.elements = tuple(sorted(
            elems, key=lambda w: (datum.height(w), w)))
        self._members = frozenset(elems)

    def __contains__(self, w):
        return tuple(w) in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, SaturatedSet)
                and self.datum == other.datum
                and self._members == other._members)

    def __hash__(self):
        return hash((self.datum, self._members))

    def issubset(self, other):
        """Containment; sets of different root data are never nested."""
        return self.datum == other.datum and self._members <= other._members

    def union(self, other):
        if self.datum != other.datum:
            raise ValueError("saturated sets of different root data")
        return SaturatedSet(self.datum, self._members | other._members,
                            check=False)

    def is_saturated(self):
        """Whether each dominant mu - beta, for a member mu and a positive
        root beta, is a member: the steps of `RootDatum._saturate`."""
        d = self.datum
        return all(lam in self._members or not d.is_dominant(lam)
                   for mu in self.elements for root, _ in d.positive_roots()
                   for lam in [tuple(x - a for x, a in zip(mu, root))])

    @cached_property
    def _orbit_weights(self):
        return frozenset().union(*map(self.datum.weyl_orbit, self.elements))

    def orbit_weights(self):
        """The union of Weyl orbits of the elements (the weights supporting
        the idempotents), a frozenset computed once per set."""
        return self._orbit_weights

    def __repr__(self):
        return f"SaturatedSet({list(self.elements)})"


def simply_connected(cartan, name=None):
    """Root datum with weight basis the fundamental weights, so the simple
    coroots are the dual basis and the simple roots are the columns of the
    Cartan matrix."""
    r = cartan.rank
    roots = []
    for j in range(r):
        col = []
        for i in range(r):
            c = cartan.cartan_entry(i, j)
            if c.denominator != 1:
                raise ValueError("Cartan matrix entries must be integers")
            col.append(int(c))
        roots.append(tuple(col))
    coroots = [tuple(1 if b == i else 0 for b in range(r)) for i in range(r)]
    return RootDatum(cartan, roots, coroots, name=name)


# -- presets ----------------------------------------------------------------


@lru_cache(maxsize=None)
def preset(name):
    """Shipping root data: A1, A1adj, A1xA1, A2, B2.

    All are simply connected (weight basis = fundamental weights) except
    A1adj, whose weight lattice is the root lattice.
    """
    if name == "A1adj":
        return RootDatum(CartanDatum([[2]]), [(1,)], [(2,)], name="A1adj")
    forms = {"A1": [[2]], "A1xA1": [[2, 0], [0, 2]],
             "A2": [[2, -1], [-1, 2]], "B2": [[4, -2], [-2, 2]]}
    if name not in forms:
        raise KeyError(f"unknown preset {name!r}")
    return simply_connected(CartanDatum(forms[name]), name=name)


PRESET_NAMES = ("A1", "A1adj", "A1xA1", "A2", "B2")


def dominant_weights_up_to_height(datum, bound, limit=inf):
    """All dominant weights of height <= bound, sorted by (height, lex).

    A dominant weight is sum n_i omega_i over its pairings n_i = <h_i, lam>
    >= 0, with the fundamental weights omega_i (rational when X is not the
    weight lattice).  Its height, the height of lam - w0(lam), is
    <2 rho^vee, lam> = sum n_i ht_i, where 2 rho^vee is the sum of the
    positive coroots and ht_i = <2 rho^vee, omega_i> is a positive integer.
    So the n are walked depth first, pruned once the height passes the
    bound, and lam is kept when it is integral.  The longest walk is
    memoized per datum: a larger bound walks again, a smaller one reads it.
    A walk that finds more than `limit` weights stops there and returns
    those limit + 1 unsorted; it is not memoized.
    """
    if datum._walk_memo[0] < bound:
        r = datum.rank
        fund = [datum._pairing_solver(tuple(int(i == j) for j in range(r)))
                for i in range(r)]
        hts = [datum.height(w) for w in fund]
        out = []

        def walk(i, height, lam):
            if i == r:
                if all(x.denominator == 1 for x in lam):
                    out.append((height, tuple(int(x) for x in lam)))
                return
            while height <= bound and len(out) <= limit:
                walk(i + 1, height, lam)
                height += hts[i]
                lam = tuple(x + w for x, w in zip(lam, fund[i]))

        walk(0, 0, (Fraction(0),) * datum.rank_x)
        if len(out) > limit:
            return [lam for _, lam in out]
        datum._walk_memo = (bound, sorted(out))
    return [lam for height, lam in datum._walk_memo[1] if height <= bound]
