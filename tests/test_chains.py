from itertools import combinations

import pytest

from chaingeom.projline import (
    VerificationError,
    distant,
    enumerate_points,
    infinity,
    make_point,
)
from chaingeom.chains import (
    blocks_through,
    chain_orbit,
    apply_matrix_chain,
    residue_at,
    standard_chain,
    stabilizer_generators,
)
from chaingeom.projline import line_generators
from chaingeom.rings import conjugate_subfield


def test_standard_chain_sizes(f4, f4_k, dual2, dual2_k, m2f2, m2f2_k):
    assert len(standard_chain(f4, f4_k)) == 3
    assert standard_chain(f4, f4_k) == {
        make_point(f4, 0, 1), make_point(f4, 1, 1), make_point(f4, 1, 0)}
    assert len(standard_chain(dual2, dual2_k)) == 3
    assert len(standard_chain(m2f2, m2f2_k)) == 5


def test_chains_pairwise_distant(zoo):
    for R, K in zoo:
        through = infinity(R) if R.size > 16 else None
        for C in chain_orbit(R, K, through=through):
            assert len(C) == len(K.elements) + 1
            for p, q in combinations(C, 2):
                assert distant(R, p, q)


def test_chain_counts_small(f4, f4_k, dual2, dual2_k, prod22, prod22_k, m2f2, m2f2_k):
    assert len(chain_orbit(f4, f4_k)) == 10      # Moebius plane of order 2
    assert len(chain_orbit(dual2, dual2_k)) == 8
    assert len(chain_orbit(prod22, prod22_k)) == 6
    assert len(chain_orbit(m2f2, m2f2_k)) == 56  # regular spreads of PG(3,2)


def test_f4_every_triple_is_a_chain(f4, f4_k):
    pts = enumerate_points(f4)
    triples = {frozenset(t) for t in combinations(pts, 3)}
    assert chain_orbit(f4, f4_k) == triples


def test_dual2_chains_are_exactly_distant_triangles(dual2, dual2_k):
    pts = enumerate_points(dual2)
    triangles = {
        frozenset(t) for t in combinations(pts, 3)
        if all(distant(dual2, p, q) for p, q in combinations(t, 2))
    }
    assert chain_orbit(dual2, dual2_k) == triangles


def test_chains_through_infinity_agree_with_filter(small_zoo):
    for R, K in small_zoo:
        via_stab = chain_orbit(R, K, through=infinity(R))
        via_filter = frozenset(C for C in chain_orbit(R, K) if infinity(R) in C)
        assert via_stab == via_filter


def test_chains_through_other_point(f4, f4_k):
    p = make_point(f4, 0, 1)
    through = chain_orbit(f4, f4_k, through=p)
    assert len(through) == 6
    assert all(p in C for C in through)


def test_chain_count_through_infinity(f4, f4_k, m2f3, m2f3_k):
    assert len(chain_orbit(f4, f4_k, through=infinity(f4))) == 6
    # conjugates of K * unit cosets * additive translates: 3 * 6 * 9
    n_conj = len({conjugate_subfield(m2f3_k, u).elements for u in m2f3.units})
    n_cosets = len(m2f3.units) // len(m2f3_k.nonzero)
    n_translates = m2f3.size // len(m2f3_k.elements)
    assert n_conj * n_cosets * n_translates == 162
    assert len(chain_orbit(m2f3, m2f3_k, through=infinity(m2f3))) == 162


def test_chain_set_gl_invariant(small_zoo):
    for R, K in small_zoo:
        chains = chain_orbit(R, K)
        for M in line_generators(R):
            for C in chains:
                assert apply_matrix_chain(R, C, M) in chains


def test_chain_set_stabilizer_invariant_m2f3(m2f3, m2f3_k):
    chains = chain_orbit(m2f3, m2f3_k, through=infinity(m2f3))
    for M in stabilizer_generators(m2f3):
        for C in chains:
            assert apply_matrix_chain(m2f3, C, M) in chains


def test_residue_f4(f4, f4_k):
    res = residue_at(f4, f4_k, infinity(f4))
    assert len(res.points) == 4
    assert sorted(res.coord_of.values()) == [0, 1, 2, 3]
    assert len(res.blocks) == 6
    assert all(len(B) == 2 for B in res.blocks)


def test_residue_dual2(dual2, dual2_k):
    res = residue_at(dual2, dual2_k, infinity(dual2))
    assert len(res.points) == 4
    assert len(res.blocks) == 4
    # blocks are cosets of the unit-direction K-lines {0,1} and {0,1+e}
    assert set(res.blocks) == {frozenset({0, 1}), frozenset({2, 3}),
                               frozenset({0, 3}), frozenset({1, 2})}


def test_residue_coordinatization_all_zoo(zoo):
    for R, K in zoo:
        res = residue_at(R, K, infinity(R))
        assert len(res.points) == R.size
        assert sorted(res.coord_of.values()) == list(R.elements())
        for B in res.blocks:
            assert len(B) == len(K.elements)
            for x in B:
                for y in B:
                    if x != y:
                        assert R.is_unit(R.sub(x, y))


def test_blocks_through(f4, f4_k, dual2, dual2_k, m2f3, m2f3_k):
    res = residue_at(f4, f4_k, infinity(f4))
    assert len(blocks_through(res, {0, 1})) == 1  # affine plane of order 2
    res = residue_at(dual2, dual2_k, infinity(dual2))
    assert blocks_through(res, {0, 2}) == set()   # e - 0 is no unit
    res = residue_at(m2f3, m2f3_k, infinity(m2f3))
    got = blocks_through(res, {0, m2f3.one})
    conjs = {frozenset(conjugate_subfield(m2f3_k, u).elements) for u in m2f3.units}
    assert got == conjs  # 0 and 1 joined by every conjugate of K
    assert len(got) == 3


def test_two_points_joined_iff_distant(zoo):
    for R, K in zoo:
        res = residue_at(R, K, infinity(R))
        joined = {}
        for B in res.blocks:
            for x in B:
                for y in B:
                    if x < y:
                        joined[(x, y)] = joined.get((x, y), 0) + 1
        for x in R.elements():
            for y in R.elements():
                if x < y:
                    if R.is_unit(R.sub(y, x)):
                        assert joined.get((x, y), 0) >= 1
                    else:
                        assert (x, y) not in joined


def test_residue_at_other_point(f4, f4_k):
    p = make_point(f4, 0, 1)
    res = residue_at(f4, f4_k, p)
    assert res.coord_of is None and res.blocks is None
    assert len(res.points) == 4
    assert len(res.point_blocks) == 6
    for B in res.point_blocks:
        assert p not in B
        assert all(distant(f4, p, x) for x in B)


def test_residue_points_match_pairwise_distant(zoo):
    """The residue reads its points off the distant-graph kernel; they are
    the points distant from p by mat_invert, in enumerate_points order."""
    for R, K in zoo:
        pts = enumerate_points(R)
        for p in (infinity(R), pts[-1]) if R.size <= 16 else (infinity(R),):
            res = residue_at(R, K, p)
            assert res.points == tuple(q for q in pts if distant(R, p, q)), (R.name, p)


def test_blocks_through_needs_coordinates(f4, f4_k):
    res = residue_at(f4, f4_k, make_point(f4, 0, 1))
    with pytest.raises(VerificationError, match="not coordinatized"):
        blocks_through(res, [0])


def test_orbit_cap(f4, f4_k):
    from chaingeom.chains import OrbitCapExceededError
    with pytest.raises(OrbitCapExceededError):
        chain_orbit(f4, f4_k, cap=3)


def test_triangular_family_pipeline():
    """A non-zoo family exercises the enumeration tripwires end to end."""
    from chaingeom.rings import RingSpec, build_ring, build_subfield
    from chaingeom.projline import distant_graph
    R = build_ring(RingSpec("upper-triangular2", 2))
    K = build_subfield(R, "scalar")
    assert len(enumerate_points(R)) == 18  # orbit and scan agree
    g = distant_graph(R)
    assert g.n_components == 1 and g.diameter == 2
    chains = chain_orbit(R, K)
    assert len(chains) == 48
    res = residue_at(R, K, infinity(R))
    assert len(res.blocks) == 8


def test_block_translated_closed_under_some_conjugate(zoo):
    for R, K in zoo:
        res = residue_at(R, K, infinity(R))
        conjs = [frozenset(conjugate_subfield(K, u).elements) for u in R.units]
        for B in res.blocks:
            c = min(B)
            B0 = frozenset(R.sub(x, c) for x in B)
            assert any(
                all(R.mul(k, b) in B0 for k in Kc for b in B0) for Kc in conjs
            )
