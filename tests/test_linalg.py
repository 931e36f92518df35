"""The mod-p kernel of `linalg` against its reference: `ModPEchelon` against
`SparseEchelon` over the field object `reference_eval.PrimeField`, and
`residues` against `RingPoint.image` at the same point."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.laurent import LaurentPoly
from qschur.linalg import ModPEchelon, SparseEchelon, residues
from qschur.weylmod import PRIME_POINTS

from reference_eval import PrimeField, prime_point

# small primes, where pivots vanish often, and the first prime of the points
PRIMES = (2, 3, 5, 7, PRIME_POINTS[0][0])

# small entries, and the large ones that a spin over the ints makes
entries = st.one_of(st.integers(-9, 9), st.integers(-2 ** 1000, 2 ** 1000))


@st.composite
def prime_and_vectors(draw):
    """A prime and a list of sparse integer vectors on a few indices."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 7))
    vec = st.dictionaries(st.integers(0, n - 1), entries, max_size=n)
    return p, draw(st.lists(vec, max_size=12))


@st.composite
def point_and_polys(draw):
    """A point (p, a), a a unit mod p, and a list of Laurent polynomials."""
    p = draw(st.sampled_from(PRIMES))
    a = draw(st.integers(1, p - 1))
    poly = st.dictionaries(st.integers(-8, 8), entries, max_size=5)
    return p, a, [LaurentPoly(c) for c in draw(st.lists(poly, max_size=6))]


def over_field(field, vec):
    return {k: field.from_int(x) for k, x in vec.items()}


class TestModPEchelon:
    @settings(max_examples=300, deadline=None)
    @given(prime_and_vectors())
    def test_verdicts_rank_and_pivots_match_the_reference_field(self, case):
        p, vecs = case
        field = PrimeField(p)
        ech, ref = ModPEchelon(p), SparseEchelon(field)
        for vec in vecs:
            assert ech.insert(vec) == ref.insert(over_field(field, vec))
            assert ech.rank == ref.rank
        assert list(ech.pivots) == list(ref.pivots)


class TestResidues:
    @settings(max_examples=200, deadline=None)
    @given(point_and_polys())
    def test_residue_is_the_image_in_the_reference_field(self, case):
        p, a, polys = case
        residue, point = residues(p, a), prime_point(p, a)
        for x in polys:
            assert residue(x) == point.image(x).n
            assert 0 <= residue(x) < p

    def test_one_map_per_point(self):
        assert residues(5, 2) is residues(5, 2)
        assert residues(5, 2) is not residues(5, 3)
