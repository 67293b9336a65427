"""The Geometry's tables against the definitions they replace, and its
isolation: derived state lives in the object, never across objects."""

import pytest

from chaingeom.chains import stabilizer_generators
from chaingeom.duality import PerpNotCyclicError, perp_point
from chaingeom.geometry import Geometry
from chaingeom.projline import line_generators
from chaingeom.rings import FiniteFieldRing, build_subfield, subfield_in_opposite

from reference import apply_matrix, apply_matrix_dual, corrupt


@pytest.fixture(scope="module")
def geometries(zoo_g, m2f2_g, m2f3_g):
    """The zoo Geometries and those over the opposites of its two
    noncommutative rings."""
    opposites = [Geometry(g.ring.opposite(), subfield_in_opposite(g.subfield))
                 for g in (m2f2_g, m2f3_g)]
    return zoo_g + opposites


def test_permutation_tables_match_the_matrix_action(geometries):
    """Every entry of the four generator tables is the matrix action on the
    point, or dual point, it indexes."""
    for g in geometries:
        R = g.ring
        for gens, table, act, pts in (
                (line_generators(R), g.line_perms, apply_matrix, g.points),
                (stabilizer_generators(R), g.stabilizer_perms, apply_matrix, g.points),
                (line_generators(R), g.dual_line_perms, apply_matrix_dual, g.dual_points),
                (stabilizer_generators(R), g.dual_stabilizer_perms, apply_matrix_dual,
                 g.dual_points)):
            assert table.shape == (len(gens), len(pts))
            for M, perm in zip(gens, table.tolist()):
                assert [pts[j] for j in perm] == [act(R, p, M) for p in pts], (R.name, M)


def test_perp_array_matches_the_oracle(geometries):
    for g in geometries:
        assert [g.dual_points[j] for j in g.perp] == [perp_point(g.ring, p)
                                                      for p in g.points], g.ring.name


def test_geometries_share_no_state(f4, f4_k):
    """A Geometry over a freshly built F4 with 2*1 corrupted to 1 has a
    non-cyclic kernel at R(1, 2); its failure must not reach a Geometry over
    the clean ring, nor come back as an answer, and the clean answers are
    the Geometry's own."""
    p = (1, 2)
    clean = Geometry(f4, f4_k)
    assert clean.perp_of(p) == (1, 3)
    # 0 would already break the dual-point enumeration
    fresh = corrupt(FiniteFieldRing(f4.spec), "mul", (2, 1), 1)
    for _ in range(2):  # a failure is not kept either
        with pytest.raises(PerpNotCyclicError):
            Geometry(fresh, build_subfield(fresh, "prime")).perp
    again = Geometry(f4, f4_k)
    assert again.perp_of(p) == (1, 3)
    assert again.perp is not clean.perp and again.points is not clean.points
