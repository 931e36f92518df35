"""Sparse exact linear algebra over any exact field, and the elimination
over a field.

A field object only needs `zero`, `one` attributes and elements supporting
+, -, *, / and equality; Q(v), Q, cyclotomic and prime fields all qualify.

Sparse matrices are row dicts `{row: {col: x}}` that store nonzero entries
only (no zero entry, no empty row); the module matrices are sparse, and
algebra elements keep one per block, so every operation touches only
nonzeros.  The sparse helpers test entries by truth value and never mutate
their arguments.  Because the scalars are canonical, two sparse matrices
are equal exactly when their dicts are.

`SparseEchelon` is the elimination over a field: span closures, the
density spins (at points of F_p, at specializations and the Q(v)
fallback), kernel probes, the root-datum solvers over Q and the Q(v)
fallbacks of module construction run through it.  Coordinates come from
tags: when every inserted vector carries a unit entry at its own tag index
past all vector indices, a vector in their span reduces to minus its
coordinates on the tags.  Two fraction-free eliminations live beside it:
module bases are chosen mod p and solved in Z[v,v^-1] by
`weylmod._bareiss`, and `rootdata._bareiss` reads the leading minors of
an integer Cartan form.  No lattice coordinates are computed: the
lowering builds each module in its lattice basis.
"""

from __future__ import annotations


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


def _sub_multiple(vec, f, row):
    """vec -= f * row in place, dropping the entries that cancel."""
    for j, y in row.items():
        x = vec.get(j)
        s = -(f * y) if x is None else x - f * y
        if s:
            vec[j] = s
        else:
            vec.pop(j, None)
