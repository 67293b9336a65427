"""The Geometry's tables against the definitions they replace, and its
isolation: derived state lives in the object, never across objects."""

import pytest

from chaingeom.duality import (
    PerpNotCyclicError,
    dual_infinity,
    perp_point,
)
from chaingeom.geometry import Geometry
from chaingeom.projline import (
    MethodDisagreementError,
    enumerate_points,
    infinity,
    line_generators,
    orbit_generators,
)
from chaingeom.rings import FiniteFieldRing, build_subfield

from reference import apply_matrix, apply_matrix_dual, corrupt


def test_permutation_tables_match_the_matrix_action(zoo_and_opposites_g):
    """Every entry of the two orbit generator tables is the matrix action on
    the point, or dual point, it indexes, and rows 1 onward fix the far
    point and the far dual point."""
    for g in zoo_and_opposites_g:
        R = g.ring
        for table, act, pts, far in ((g.perms, apply_matrix, g.points, infinity(R)),
                                     (g.dual.perms, apply_matrix_dual, g.dual.points,
                                      dual_infinity(R))):
            gens = orbit_generators(R)
            assert table.shape == (len(gens), len(pts))
            for M, perm in zip(gens, table.tolist()):
                assert [pts[j] for j in perm] == [act(R, p, M) for p in pts], (R.name, M)
            assert {pts[j] for j in table[1:, pts.index(far)]} == {far}, R.name


def test_orbit_stacks_have_nine_rows_on_matrix2(m2f2_g, m2f3_g):
    """The orbits apply 9 matrices per side on both matrix2 rings; the
    covariance sweep keeps the whole family of 28 and 177."""
    for g, family in ((m2f2_g, 28), (m2f3_g, 177)):
        assert g.perms.shape[0] == g.dual.perms.shape[0] == 9
        assert len(line_generators(g.ring)) == family


def test_perp_array_matches_the_oracle(zoo_and_opposites_g):
    for g in zoo_and_opposites_g:
        assert [g.dual.points[j] for j in g.perp] == [perp_point(g.ring, p)
                                                      for p in g.points], g.ring.name


def test_dual_coords_match_the_definition(zoo_and_opposites_g):
    """dual_coords holds -w v^-1 at a dual point (v, w)^T R with v a unit,
    the x of (-1, x)^T R, and -1 where v is no unit, off the dual residue;
    perp_coords reads it at the annihilators of the points R(x, 1)."""
    for g in zoo_and_opposites_g:
        R = g.ring
        want = [-1 if R.inv(v) is None else R.neg(R.mul(w, R.inv(v)))
                for v, w in g.dual.points]
        assert g.dual_coords.tolist() == want, R.name
        assert list(g.perp_coords) == [want[g.dual.points.index(perp_point(R, (x, R.one)))]
                                       for x in R.elements()], R.name


def test_geometries_share_no_state(f4, f4_k):
    """A Geometry over a freshly built F4 with 2*1 corrupted to 3 has a
    non-cyclic kernel at R(1, 2); its failure must not reach a Geometry over
    the clean ring, nor come back as an answer, and the clean answers are
    the Geometry's own."""
    p = (1, 2)
    clean = Geometry(f4, f4_k)
    assert clean.perp_of(p) == (1, 3)
    # 0 or 1 would already break the dual-point enumeration
    fresh = corrupt(FiniteFieldRing(f4.spec), "mul", (2, 1), 3)
    for _ in range(2):  # a failure is not kept either
        with pytest.raises(PerpNotCyclicError):
            Geometry(fresh, build_subfield(fresh, "prime")).perp
    again = Geometry(f4, f4_k)
    assert again.perp_of(p) == (1, 3)
    assert again.perp is not clean.perp and again.points is not clean.points


@pytest.mark.parametrize("value, orbit_size", [(0, 4), (1, 3)])
def test_orbit_cross_check_catches_a_corrupted_product(f4, value, orbit_size):
    """On a freshly built F4 with 2*1 corrupted to 0 or 1, the orbit of
    (1, 0)^T R under the generating set misses dual points that the scan
    of the column-admissibility table finds, and enumeration raises."""
    fresh = corrupt(FiniteFieldRing(f4.spec), "mul", (2, 1), value)
    with pytest.raises(MethodDisagreementError,
                       match=f"orbit gives {orbit_size} dual points, scan gives 5"):
        enumerate_points(fresh, dual=True)
