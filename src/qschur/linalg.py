"""Dense and sparse exact linear algebra over any exact field.

A field object only needs `zero`, `one` attributes and elements supporting
+, -, *, / and equality; Q(v), Q, and cyclotomic fields all qualify.

Dense matrices are lists of rows; the lattice change of basis and the
root-datum solvers use them.  Sparse matrices are row dicts
`{row: {col: x}}` that store nonzero entries only (no zero entry, no
empty row); the module matrices are sparse, and algebra elements keep one
per block, so every operation touches only nonzeros.  The sparse
helpers test entries by truth value and never mutate their arguments.
Because the scalars are canonical, two sparse matrices are equal exactly
when their dicts are.
"""

from __future__ import annotations


def mat_mul(a, b, field):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    zero = field.zero
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x == zero:
                continue
            bt = b[t]
            for j in range(m):
                y = bt[j]
                if y != zero:
                    oi[j] = oi[j] + x * y
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n, field):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def rref(matrix, field):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    zero, one = field.zero, field.one
    rows = [row[:] for row in matrix]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(m):
        pivot = None
        for i in range(r, n):
            if rows[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != one:
            inv = one / pv
            rows[r] = [inv * x for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def det_unit_check(matrix, field):
    """Determinant via fraction-free-ish Gaussian elimination over the field.

    Returns the determinant (a field element); intended for unit checks on
    change-of-basis matrices.
    """
    zero, one = field.zero, field.one
    n = len(matrix)
    rows = [row[:] for row in matrix]
    det = one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        pv = rows[c][c]
        det = det * pv
        inv = one / pv
        for i in range(c + 1, n):
            if rows[i][c] != zero:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


# -- sparse row matrices -------------------------------------------------


def sparse_from_dense(mat):
    out = {}
    for i, row in enumerate(mat):
        srow = {j: x for j, x in enumerate(row) if x}
        if srow:
            out[i] = srow
    return out


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


def sparse_neg(a):
    return {i: {j: -x for j, x in row.items()} for i, row in a.items()}


def sparse_sub(a, b):
    return sparse_add(a, sparse_neg(b))


def sparse_scale(c, a):
    """c * a for a nonzero scalar c (a field has no zero divisors)."""
    return {i: {j: c * x for j, x in row.items()} for i, row in a.items()}


def sparse_mul(a, b):
    out = {}
    for i, ra in a.items():
        acc = {}
        for t, x in ra.items():
            rb = b.get(t)
            if rb is None:
                continue
            for j, y in rb.items():
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
