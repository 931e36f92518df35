"""The product-of-generators evaluation of words, kept as the reference for
`BlockAlgebra.evaluate_expr`: every symbol is a whole-algebra element, the
idempotents and K_h built here from the weight offsets of the modules, and
a word is the product of its symbols over the algebra's field."""

from qschur.laurent import LaurentPoly
from qschur.linalg import sparse_diagonal
from qschur.schur import SchurElement


def idempotent(S, lam):
    """1_lam, from the rows of weight lam of each module."""
    one = S.field.one
    blocks = []
    for m in S.modules:
        off = m.offsets.get(tuple(lam), 0)
        blocks.append(sparse_diagonal(dict.fromkeys(
            range(off, off + m.dims.get(tuple(lam), 0)), one)))
    return SchurElement(S, blocks)


def k_element(S, h):
    """K_h, the diagonal v^<h, nu> on the rows of each weight nu."""
    blocks = []
    for m in S.modules:
        diag = {}
        for nu in m.weights:
            x = S.field.image(LaurentPoly.monomial(1, S.datum.pair(h, nu)))
            off = m.offsets[nu]
            diag.update(dict.fromkeys(range(off, off + m.dims[nu]), x))
        blocks.append(sparse_diagonal(diag))
    return SchurElement(S, blocks)


def symbol(S, sym):
    kind = sym[0]
    if kind == "E":
        return S.generator(sym[1], sym[2])
    if kind == "Ed":
        return S.divided_power(sym[1], sym[2], sym[3])
    if kind == "K":
        return k_element(S, sym[1])
    if kind == "1":
        return idempotent(S, sym[1])
    raise ValueError(f"unknown symbol {sym!r}")


def word(S, w):
    if not w:
        return S.one()
    out = symbol(S, w[0])
    for sym in w[1:]:
        if out.is_zero():
            break
        out = out * symbol(S, sym)
    return out


def expr(S, e):
    out = S.zero()
    for w, c in e.terms.items():
        el = word(S, w)
        if not c.is_one():
            el = el.scale(S.field.coefficient(c))
        out = out + el
    return out
