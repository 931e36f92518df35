"""Sparse exact linear algebra: the elimination over any exact field, and
the same elimination mod p on plain ints.

A field object only needs `zero`, `one` attributes and elements supporting
+, -, *, / and equality; Q(v), Q and cyclotomic fields all qualify.

Sparse matrices are row dicts `{row: {col: x}}` that store nonzero entries
only (no zero entry, no empty row); the module matrices are sparse, and
algebra elements keep one per block, so every operation touches only
nonzeros.  The sparse helpers test entries by truth value and never mutate
their arguments.  Because the scalars are canonical, two sparse matrices
are equal exactly when their dicts are.

`SparseEchelon` is the elimination over a field: span closures, the
density spins at specializations and over Q(v), kernel probes, the
root-datum solvers over Q and the Q(v) fallbacks of module construction
run through it.  Coordinates come from tags: when every inserted vector
carries a unit entry at its own tag index past all vector indices, a
vector in their span reduces to minus its coordinates on the tags.  The
mod-p kernel, `residues` (v -> a of Z[v,v^-1] to F_p) and `ModPEchelon`,
chooses module bases (`weylmod._choose_mod_p`) and spins module records
(`schur.record_spins`).  `weylmod._bareiss` solves for the rejected
candidates in Z[v,v^-1] without fractions, and `rootdata._bareiss` reads
the leading minors of an integer Cartan form.
"""

from __future__ import annotations

from functools import cache, partial
from heapq import heappop, heappush


# -- sparse row matrices -------------------------------------------------


def sparse_map(f, a):
    """The sparse matrix of the images f(x) of the entries of a, without
    the entries that f sends to zero."""
    out = {}
    for i, row in a.items():
        srow = {}
        for j, x in row.items():
            y = f(x)
            if y:
                srow[j] = y
        if srow:
            out[i] = srow
    return out


def sparse_diagonal(diag):
    """Sparse matrix with the given {index: nonzero} diagonal."""
    return {i: {i: x} for i, x in diag.items()}


def sparse_add(a, b):
    out = dict(a)
    for i, rb in b.items():
        ra = out.get(i)
        if ra is None:
            out[i] = rb
            continue
        row = dict(ra)
        for j, y in rb.items():
            x = row.get(j)
            if x is None:
                row[j] = y
            else:
                s = x + y
                if s:
                    row[j] = s
                else:
                    del row[j]
        if row:
            out[i] = row
        else:
            del out[i]
    return out


def sparse_transpose(a):
    """The transpose of a sparse matrix: its column dicts as rows."""
    out = {}
    for i, row in a.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def sparse_neg(a):
    return {i: {j: -x for j, x in row.items()} for i, row in a.items()}


def sparse_sub(a, b):
    return sparse_add(a, sparse_neg(b))


def sparse_scale(c, a):
    """c * a for a nonzero scalar c (a field has no zero divisors)."""
    return {i: {j: c * x for j, x in row.items()} for i, row in a.items()}


def sparse_mul(a, b):
    """a * b; each row of a meets the rows of b in the smaller of the two
    key sets (a matrix unit b has one row)."""
    out = {}
    if not b:
        return out
    bk = b.keys()
    for i, ra in a.items():
        common = ra.keys() & bk
        if not common:
            continue
        acc = {}
        for t in common:
            x = ra[t]
            for j, y in b[t].items():
                s = acc.get(j)
                acc[j] = x * y if s is None else s + x * y
        row = {j: s for j, s in acc.items() if s}
        if row:
            out[i] = row
    return out


class SparseEchelon:
    """Incremental echelon basis of sparse vectors (dict index -> element).

    Used for span-closure computations; insertion order determines pivots,
    pivot choice is the smallest index, so results are deterministic.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # pivot index -> reduced vector with that pivot = 1

    def reduce(self, vec):
        """Reduce vec against the current basis; returns the residue dict.

        The basis is kept fully reduced (every row is zero at every other
        pivot), so one pass over the pivots present in vec suffices."""
        pivots = self.pivots
        vec = {k: x for k, x in vec.items() if x}
        for k in [k for k in vec if k in pivots]:
            _sub_multiple(vec, vec[k], pivots[k])
        return vec

    def insert(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        pv = res[p]
        one = self.field.one
        if pv != one:
            inv = one / pv
            res = {k: inv * x for k, x in res.items()}
        # back-substitute into existing rows for a fully reduced basis
        for row in self.pivots.values():
            if p in row:
                _sub_multiple(row, row[p], res)
        self.pivots[p] = res
        return True

    @property
    def rank(self):
        return len(self.pivots)


class ModPEchelon:
    """An echelon basis over F_p of vectors of ints read mod p.  A row has
    1 at its pivot and nothing before it, so a vector is reduced at its
    pivots in increasing order, and no row at a later pivot.  The residue
    of a vector, zero at every pivot, is that of `SparseEchelon`, so the
    pivots, each the smallest index of a residue, are too."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}  # in insertion order: pivot -> row with 1 there

    def insert(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        p, pivots = self.p, self.pivots
        res = {k: x % p for k, x in vec.items()}
        todo = sorted(k for k in res if k in pivots)     # a heap
        while todo:
            k = heappop(todo)
            if f := res[k]:
                for j, y in pivots[k].items():
                    if j not in res and j in pivots:
                        heappush(todo, j)
                    res[j] = (res.get(j, 0) - f * y) % p
        res = {k: x for k, x in res.items() if x}
        if not res:
            return False
        q = min(res)
        inv = pow(res[q], -1, p)
        pivots[q] = {k: x * inv % p for k, x in res.items()}
        return True

    rank = SparseEchelon.rank


@cache
def residues(p, a):
    """The ring map Z[v,v^-1] -> F_p, v -> a (a unit mod p), on
    `LaurentPoly`s; one per point, so its powers of a are shared."""
    power = cache(partial(pow, a, mod=p))
    return lambda x: sum(c * power(k) for k, c in x.coeffs.items()) % p


def _sub_multiple(vec, f, row):
    """vec -= f * row in place, dropping the entries that cancel."""
    for j, y in row.items():
        x = vec.get(j)
        s = -(f * y) if x is None else x - f * y
        if s:
            vec[j] = s
        else:
            vec.pop(j, None)
