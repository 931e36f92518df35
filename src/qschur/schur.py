"""Generalized q-Schur algebras realized on direct sums of highest-weight
modules, with presentation checks and the truncation maps of the inverse
system.

An element keeps one sparse row matrix per block (see `linalg`), with
entries in the field of its algebra: Q(v) here, the target field of a
specialization in `intspec`, which uses the same element type.

The algebra of a saturated set pi is all of the sum of End L(lam) over lam
in pi, of dimension sum d^2.  `SchurAlgebra.basis()` proves this before it
returns the block matrix units.  The proof is a modular rank: every
generator entry lies in Z[v,v^-1] (the module record asserts it), so at a
prime p and a unit a of F_p evaluation v -> a is a ring homomorphism on the
entries, and the F_p-rank of the span closure of the images of the
generators is at most the Q(v)-rank, which is at most sum d^2; reaching
sum d^2 mod p proves density.  A few fixed points are tried; if every one
falls short, the exact Q(v) span closure decides, and raises when density
fails."""

from __future__ import annotations

from .laurent import LaurentPoly, RatFunc, RatFuncField, qint
from .linalg import (SparseEchelon, sparse_add, sparse_diagonal, sparse_map,
                     sparse_mul, sparse_neg, sparse_scale, sparse_sub)
from .rings import RingPoint, evaluate
from .weylmod import weyl_module

# the (p, a) points of the modular density certificate, tried in order:
# primes below 2^31 and the image a of v in F_p
_MODULAR_POINTS = ((2147483629, 91831), (2147483587, 48271),
                   (2147483579, 16807))


class SchurElement:
    """An element, stored as one sparse matrix {row: {col: x}} per block
    (one block per highest weight of the saturated set) that holds only
    the nonzero entries, elements of `algebra.field`."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra, blocks):
        self.algebra = algebra
        self.blocks = tuple(blocks)

    def __add__(self, other):
        self._check(other)
        return SchurElement(self.algebra,
                            map(sparse_add, self.blocks, other.blocks))

    def __sub__(self, other):
        self._check(other)
        return SchurElement(self.algebra,
                            map(sparse_sub, self.blocks, other.blocks))

    def __neg__(self):
        return SchurElement(self.algebra, map(sparse_neg, self.blocks))

    def __mul__(self, other):
        if not isinstance(other, SchurElement):
            return self.scale(other)
        self._check(other)
        return SchurElement(self.algebra,
                            map(sparse_mul, self.blocks, other.blocks))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, int):
            c = self.algebra.field.from_int(c)
        if not c:
            return self.algebra.zero()
        return SchurElement(self.algebra,
                            [sparse_scale(c, b) for b in self.blocks])

    def is_zero(self):
        return not any(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, SchurElement):
            return NotImplemented
        return (self.algebra.same_algebra(other.algebra)
                and self.blocks == other.blocks)

    def _check(self, other):
        if not self.algebra.same_algebra(other.algebra):
            raise ValueError("elements of different algebras")

    def flatten(self):
        """Sparse dict (linear index) -> coefficient, for span computations."""
        out = {}
        off = 0
        for b, n in zip(self.blocks, self.algebra.block_dims):
            for r, row in b.items():
                base = off + r * n
                for c, x in row.items():
                    out[base + c] = x
            off += n * n
        return out

    def __repr__(self):
        return f"SchurElement(pi={list(self.algebra.pi)})"


class BlockAlgebra:
    """What the generic and the specialized algebras share: one block per
    module of the saturated set `pi`, in the weight order of the module.

    A subclass sets `field` and provides `_divided_power_blocks` (the
    blocks of E_i^(k) or F_i^(k)), `basis`, `key` (equal exactly when two
    algebras have the same saturated set and the same scalars), `_scalar`
    (the image in `field` of a Q(v) coefficient of a word expression) and
    `_poly` (the image of a Laurent polynomial)."""

    def __init__(self, pi, modules):
        self.pi = pi
        self.datum = pi.datum
        self.modules = modules
        self.orbit = pi.orbit_weights()
        self.block_dims = [m.dim for m in modules]
        self.expected_dim = sum(d * d for d in self.block_dims)
        self._basis = None
        self._dimension = None
        self._dp_cache = {}
        self._idem_cache = {}

    def same_algebra(self, other):
        """Whether elements of the two algebras may be combined."""
        return self is other or self.key() == other.key()

    def zero(self):
        return SchurElement(self, [{} for _ in self.block_dims])

    def one(self):
        one = self.field.one
        return SchurElement(self, [
            sparse_diagonal(dict.fromkeys(range(d), one))
            for d in self.block_dims])

    def divided_power(self, sign, i, k):
        """E_i^k / [k]!_i (sign > 0) or F_i^k / [k]!_i."""
        key = (1 if sign > 0 else -1, i, k)
        el = self._dp_cache.get(key)
        if el is None:
            el = SchurElement(self, self._divided_power_blocks(sign, i, k))
            self._dp_cache[key] = el
        return el

    def generator(self, sign, i):
        return self.divided_power(sign, i, 1)

    def simple_generators(self):
        """E_i and F_i for every simple root i."""
        return [self.generator(s, i)
                for s in (1, -1) for i in range(self.datum.rank)]

    def idempotent(self, lam):
        """The weight projector; the zero element when lam is outside the
        orbit of the saturated set."""
        lam = tuple(lam)
        el = self._idem_cache.get(lam)
        if el is None:
            one = self.field.one
            blocks = []
            for m in self.modules:
                off = m.offsets.get(lam, 0)
                blocks.append(sparse_diagonal(dict.fromkeys(
                    range(off, off + m.dims.get(lam, 0)), one)))
            el = SchurElement(self, blocks)
            self._idem_cache[lam] = el
        return el

    def k_element(self, h):
        """K_h = sum over orbit weights of v^<h,lam> 1_lam."""
        h = tuple(h)
        blocks = []
        for m in self.modules:
            diag = {}
            for nu in m.weights:
                x = self._poly(LaurentPoly.monomial(1, self.datum.pair(h, nu)))
                off = m.offsets[nu]
                diag.update(dict.fromkeys(range(off, off + m.dims[nu]), x))
            blocks.append(sparse_diagonal(diag))
        return SchurElement(self, blocks)

    def evaluate_symbol(self, sym):
        kind = sym[0]
        if kind == "E":
            return self.generator(sym[1], sym[2])
        if kind == "Ed":
            return self.divided_power(sym[1], sym[2], sym[3])
        if kind == "K":
            return self.k_element(sym[1])
        if kind == "1":
            return self.idempotent(sym[1])
        raise ValueError(f"unknown symbol {sym!r}")

    def evaluate_word(self, word):
        out = self.one()
        for sym in word:
            out = out * self.evaluate_symbol(sym)
            if out.is_zero():
                break
        return out

    def evaluate_expr(self, expr):
        """Image of a formal word expression under the quotient map."""
        out = self.zero()
        for word, c in expr.terms.items():
            out = out + self.evaluate_word(word).scale(self._scalar(c))
        return out

    def _closure(self, gens):
        """Echelonized spanning basis of the realized algebra: the span of
        the idempotents closed under left multiplication by gens."""
        ech = SparseEchelon(self.field)
        basis = [el for el in map(self.idempotent, sorted(self.orbit))
                 if ech.insert(el.flatten())]
        for el in basis:  # the list grows while it is walked: breadth first
            for g in gens:
                prod = g * el
                if ech.insert(prod.flatten()):
                    basis.append(prod)
        return basis

    def dimension(self):
        if self._dimension is None:
            self.basis()
        return self._dimension

    # -- presentation checks -----------------------------------------------

    def verify_presentation(self):
        """Exact checks of the defining relations; returns a list of
        {relation, ok, witness} entries."""
        report = []
        datum = self.datum
        r = datum.rank
        orbit = sorted(self.orbit)

        def entry(name, ok, witness=None):
            report.append({"relation": name, "ok": bool(ok),
                           "witness": witness})

        # (a) orthogonal idempotents summing to the identity
        total = self.zero()
        ok_a = True
        for lam in orbit:
            total = total + self.idempotent(lam)
            for mu in orbit:
                prod = self.idempotent(lam) * self.idempotent(mu)
                expect = self.idempotent(lam) if lam == mu else self.zero()
                if not (prod == expect):
                    ok_a = False
                    entry("a:orthogonality", False, {"lam": lam, "mu": mu})
        if ok_a:
            entry("a:orthogonality", True)
        entry("a:completeness", total == self.one())

        # (b)/(b') idempotent intertwining with the convention outside W.pi
        ok_b = True
        for i in range(r):
            alpha = datum.simple_roots[i]
            for sign in (1, -1):
                g = self.generator(sign, i)
                for lam in orbit:
                    shifted = tuple(x + sign * a for x, a in zip(lam, alpha))
                    lhs = g * self.idempotent(lam)
                    rhs = self.idempotent(shifted) * g
                    if not (lhs == rhs):
                        ok_b = False
                        entry("b:intertwine", False,
                              {"i": i, "sign": sign, "lam": lam})
        if ok_b:
            entry("b:intertwine", True)

        # (c) commutator identity
        ok_c = True
        for i in range(r):
            for j in range(r):
                lhs = (self.generator(1, i) * self.generator(-1, j)
                       - self.generator(-1, j) * self.generator(1, i))
                rhs = self.zero()
                if i == j:
                    d = datum.cartan.d(i)
                    for lam in orbit:
                        n = datum.pair_i(i, lam)
                        if n != 0:
                            rhs = rhs + self.idempotent(lam).scale(
                                self._poly(qint(n, d)))
                if not (lhs == rhs):
                    ok_c = False
                    entry("c:commutator", False, {"i": i, "j": j})
        if ok_c:
            entry("c:commutator", True)

        # (d) quantum Serre relations in divided-power form
        ok_d = True
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                n = 1 - datum.pair_i(i, datum.simple_roots[j])
                for sign in (1, -1):
                    total_s = self.zero()
                    for s in range(n + 1):
                        sp = n - s
                        term = (self.divided_power(sign, i, s)
                                * self.generator(sign, j)
                                * self.divided_power(sign, i, sp))
                        if sp % 2 == 1:
                            term = -term
                        total_s = total_s + term
                    if not total_s.is_zero():
                        ok_d = False
                        entry("d:serre", False,
                              {"i": i, "j": j, "sign": sign})
        if ok_d:
            entry("d:serre", True)
        return report


class SchurAlgebra(BlockAlgebra):
    """The image of the quantized enveloping algebra on the direct sum of
    the highest-weight modules indexed by a finite saturated set."""

    field = RatFuncField
    certificate = None  # set by basis(): ("modular", p, a) or ("exact",)

    def __init__(self, pi, modules=None):
        if modules is None:
            modules = [weyl_module(pi.datum, lam) for lam in pi]
        super().__init__(pi, modules)

    # -- elements ---------------------------------------------------------

    def _divided_power_blocks(self, sign, i, k):
        return [m.divided_power(sign, i, k) for m in self.modules]

    @staticmethod
    def _scalar(c):
        return c

    _poly = staticmethod(RatFunc.from_poly)

    # -- density certificate and basis ------------------------------------

    def basis(self):
        """The block matrix units, a basis once density is proved: by a
        modular rank at the first point of `_MODULAR_POINTS` where it
        reaches the sum of squared block dimensions, else by the exact
        closure."""
        if self._basis is None:
            self.certificate = self._certify()
            self._basis = self._matrix_units()
            self._dimension = len(self._basis)
        return self._basis

    def _certify(self):
        for p, a in _MODULAR_POINTS:
            if _ModularImage(self, RingPoint.modular(p, a)).rank() \
                    == self.expected_dim:
                return ("modular", p, a)
        self._exact_closure()
        return ("exact",)

    def _exact_closure(self):
        """Echelonized spanning basis of the realized algebra over Q(v),
        computed by closing the span of the idempotents under left
        multiplication by the generators; raises RuntimeError unless its
        rank is the sum of squared block dimensions."""
        basis = self._closure(self.simple_generators())
        if len(basis) != self.expected_dim:
            raise RuntimeError(
                f"density violated: span closure rank {len(basis)} "
                f"!= sum of squared block dimensions {self.expected_dim}")
        return basis

    def _matrix_units(self):
        """The units e_ij of every block, block by block, row by row."""
        one = self.field.one
        units = []
        for k, d in enumerate(self.block_dims):
            blocks = [{} for _ in self.block_dims]
            for i in range(d):
                for j in range(d):
                    blocks[k] = {i: {j: one}}
                    units.append(SchurElement(self, blocks))
        return units

    def key(self):
        return self.pi.key()

    def __repr__(self):
        return f"SchurAlgebra(pi={list(self.pi)})"


class _ModularImage(BlockAlgebra):
    """The images of the generators of a SchurAlgebra under v -> a in F_p,
    for the density certificate."""

    def __init__(self, algebra, point):
        super().__init__(algebra.pi, algebra.modules)
        self.point = point
        self.field = point.field

    def _divided_power_blocks(self, sign, i, k):
        return [sparse_map(self._scalar, m.divided_power(sign, i, k))
                for m in self.modules]

    def _scalar(self, c):
        return evaluate(c, self.point)

    def rank(self):
        """The F_p-rank of the span closure of the images."""
        return len(self._closure(self.simple_generators()))


_algebra_cache = {}


def build_schur(pi):
    """Cached pure construction of the algebra for a saturated set."""
    key = pi.key()
    alg = _algebra_cache.get(key)
    if alg is None:
        alg = SchurAlgebra(pi)
        _algebra_cache[key] = alg
    return alg


class TruncationMap:
    """Block restriction from the algebra of a larger saturated set onto the
    algebra of a smaller one."""

    # also check f(g * b) == f(g) * f(b) for every generator g and source
    # basis element b
    multiplicative_sample = True
    _algebra = staticmethod(build_schur)

    def __init__(self, target_pi, source_pi):
        if not target_pi.issubset(source_pi):
            raise ValueError("target saturated set is not contained in the "
                             "source")
        self.target_pi = target_pi
        self.source_pi = source_pi
        self.source = self._algebra(source_pi)
        self.target = self._algebra(target_pi)
        self._indices = [list(source_pi).index(lam) for lam in target_pi]

    def apply(self, x):
        if not x.algebra.same_algebra(self.source):
            raise ValueError("element does not belong to the source algebra")
        return SchurElement(self.target,
                            [x.blocks[k] for k in self._indices])

    def verify(self):
        """Checks that the map is a surjective algebra homomorphism sending
        generators to generators; returns a report list."""
        return self._verify()

    def _verify(self):
        report = []
        src, tgt = self.source, self.target

        def entry(name, ok, witness=None):
            report.append({"check": name, "ok": bool(ok), "witness": witness})

        for sign in (1, -1):
            for i in range(src.datum.rank):
                ok = self.apply(src.generator(sign, i)) == tgt.generator(
                    sign, i)
                entry(f"generator({'+' if sign > 0 else '-'}{i})", ok)
        for lam in sorted(src.orbit):
            image = self.apply(src.idempotent(lam))
            expect = tgt.idempotent(lam)  # zero when lam leaves the orbit
            entry(f"idempotent{lam}", image == expect)
        entry("unit", self.apply(src.one()) == tgt.one())

        if self.multiplicative_sample:
            basis = src.basis()
            ok_mul = True
            for g in src.simple_generators():
                for b in basis:
                    if not (self.apply(g * b)
                            == self.apply(g) * self.apply(b)):
                        ok_mul = False
            entry("multiplicative", ok_mul)

        # surjectivity: images of the source basis span the target
        ech = SparseEchelon(src.field)
        for b in src.basis():
            ech.insert(self.apply(b).flatten())
        entry("surjective", ech.rank == tgt.dimension(),
              {"image_rank": ech.rank, "target_dim": tgt.dimension()})
        return report


def truncation_map(target_pi, source_pi):
    return TruncationMap(target_pi, source_pi)
