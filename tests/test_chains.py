from itertools import combinations
from math import comb

import numpy as np
import pytest

from chaingeom.geometry import Geometry
from chaingeom.projline import (
    OrbitCapExceededError,
    carries,
    index_of,
    infinity,
    make_point,
    orbit,
)
from chaingeom.chains import standard_chain
from chaingeom.cli import passes
from chaingeom.suites import chain_report
from chaingeom.rings import conjugate_subfield

from reference import as_pairs, changed_keys, distant, line_perms, point_sets


def blocks_through(res, xs) -> set:
    """Coordinate blocks of the far-point residue containing every x in xs,
    as sorted tuples."""
    return {tuple(B) for B in res.blocks.tolist() if set(xs) <= set(B)}


def test_standard_chain_sizes(f4, f4_k, dual2, dual2_k, m2f2, m2f2_k):
    assert len(standard_chain(f4, f4_k)) == 3
    assert as_pairs(standard_chain(f4, f4_k), f4.size) == sorted([
        make_point(f4, 0, 1), make_point(f4, 1, 1), make_point(f4, 1, 0)])
    assert len(standard_chain(dual2, dual2_k)) == 3
    assert len(standard_chain(m2f2, m2f2_k)) == 5


def test_chain_rows_are_sorted_and_distinct(zoo_and_opposites_g):
    """Each chain set is an int array of sorted index rows in strictly
    increasing lexicographic order, so equal sets have equal arrays."""
    for g in zoo_and_opposites_g:
        for rows in (g.chains, g.chains_at_infinity, g.dual.chains,
                     g.dual.chains_at_infinity):
            assert rows.dtype.kind == "i", g.ring.name
            assert (np.diff(rows, axis=1) > 0).all(), g.ring.name
            assert [tuple(r) for r in rows.tolist()] == sorted(set(map(tuple, rows.tolist())))


def test_chains_pairwise_distant(zoo_g):
    for g in zoo_g:
        R, K = g.ring, g.subfield
        for C in point_sets(g, g.chains_at_infinity if R.size > 16 else g.chains):
            assert len(C) == len(K.elements) + 1
            for p, q in combinations(C, 2):
                assert distant(R, p, q)


def test_chain_counts_small(f4_g, dual2_g, prod22_g, m2f2_g):
    assert len(f4_g.chains) == 10      # Moebius plane of order 2
    assert len(dual2_g.chains) == 8
    assert len(prod22_g.chains) == 6
    assert len(m2f2_g.chains) == 56  # regular spreads of PG(3,2)


def test_f4_every_triple_is_a_chain(f4_g):
    triples = {frozenset(t) for t in combinations(f4_g.points, 3)}
    assert point_sets(f4_g, f4_g.chains) == triples


def test_dual2_chains_are_exactly_distant_triangles(dual2, dual2_g):
    triangles = {
        frozenset(t) for t in combinations(dual2_g.points, 3)
        if all(distant(dual2, p, q) for p, q in combinations(t, 2))
    }
    assert point_sets(dual2_g, dual2_g.chains) == triangles


def test_chains_through_infinity_agree_with_filter(zoo_g):
    for g in zoo_g:
        inf = infinity(g.ring)
        assert point_sets(g, g.chains_at_infinity) == {
            C for C in point_sets(g, g.chains) if inf in C}


def test_chains_through_other_point(f4, f4_g):
    p = make_point(f4, 0, 1)
    through = {C for C in point_sets(f4_g, f4_g.chains) if p in C}
    assert len(through) == 6
    assert all(p in C for C in through)


def test_chain_count_through_infinity(f4_g, m2f3, m2f3_k, m2f3_g):
    assert len(f4_g.chains_at_infinity) == 6
    # conjugates of K * unit cosets * additive translates: 3 * 6 * 9
    n_conj = len({conjugate_subfield(m2f3_k, u).elements for u in m2f3.units})
    n_cosets = len(m2f3.units) // len(m2f3_k.nonzero)
    n_translates = m2f3.size // len(m2f3_k.elements)
    assert n_conj * n_cosets * n_translates == 162
    assert len(m2f3_g.chains_at_infinity) == 162


def subset_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """The rank of each sorted row of k distinct indices below n among all
    k-subsets, sum_j C(row[j], j + 1): one distinct int64 per set (the
    combinatorial number system)."""
    k = rows.shape[-1]
    if comb(n, k) >= 2 ** 63:
        raise OverflowError(f"{comb(n, k)} subsets need more than int64 keys")
    binom = np.array([[comb(v, j + 1) for v in range(n)] for j in range(k)], dtype=np.int64)
    return binom.ravel()[np.arange(k) * n + rows].sum(axis=-1)


def maps_onto_itself(perms, rows) -> bool:
    """Each permutation table of perms maps the set of distinct sorted index
    rows onto itself: the sorted keys of its image rows equal those of the
    rows.  A permutation maps distinct rows to distinct rows, so equal
    sorted key lists mean equal sets."""
    n = perms.shape[1]
    images = subset_keys(np.sort(perms[:, rows], axis=2), n)
    return bool((np.sort(images, axis=1) == np.sort(subset_keys(rows, n))).all())


def test_chain_set_gl_invariant(zoo_and_opposites_g):
    """The chain orbit, built under the 9-matrix generating set, is
    invariant under every matrix of the whole E(t)/diagonal family.  That
    group contains the generating set ([[1, 0], [c, 1]] = E(0)^-1 E(c)), so
    the orbits under both are the same."""
    for g in zoo_and_opposites_g:
        assert maps_onto_itself(line_perms(g), g.chains), g.ring.name


def test_chain_set_stabilizer_invariant_m2f3(m2f3_g):
    """The chains through the far point, the orbit under 8 stabilizer
    generators, are invariant under every diagonal matrix of the whole
    family (rows |R| onward of its tables)."""
    perms = line_perms(m2f3_g)
    rows = m2f3_g.chains_at_infinity
    assert len(perms[m2f3_g.ring.size:]) == 96
    assert maps_onto_itself(perms[m2f3_g.ring.size:], rows)


def residue_points(g) -> tuple:
    """The points of the far-point residue of the Geometry g: those the
    distant graph joins to R(1, 0), in enumerate_points order."""
    return tuple(g.points[j] for j in np.flatnonzero(g.graph.adj[g.far]).tolist())


def coordinatized(g) -> bool:
    """x -> R(x, 1) is a bijection of the ring onto the residue points."""
    R = g.ring
    return sorted(make_point(R, x, R.one) for x in R.elements()) == sorted(residue_points(g))


def test_residue_blocks_are_sorted_rows(zoo_g):
    """The far-point blocks are the int array of the coordinate rows of the
    chains through R(1, 0), less that point, in sorted_rows order."""
    for g in zoo_g:
        R, blocks = g.ring, g.residue.blocks
        coord = {g.affine[x]: x for x in R.elements()}
        far = g.far
        want = sorted(sorted(coord[i] for i in C if i != far)
                      for C in g.chains_at_infinity.tolist())
        assert blocks.dtype.kind == "i", R.name
        assert blocks.tolist() == want, R.name


def test_residue_f4(f4_g):
    res = f4_g.residue
    assert len(residue_points(f4_g)) == 4
    assert coordinatized(f4_g)
    assert len(res.blocks) == 6
    assert all(len(B) == 2 for B in res.blocks)


def test_residue_dual2(dual2_g):
    res = dual2_g.residue
    assert len(residue_points(dual2_g)) == 4
    assert len(res.blocks) == 4
    # blocks are cosets of the unit-direction K-lines {0,1} and {0,1+e}
    assert res.blocks.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_residue_coordinatization_all_zoo(zoo_g):
    for g in zoo_g:
        R, K, res = g.ring, g.subfield, g.residue
        assert len(residue_points(g)) == R.size
        assert coordinatized(g)
        for B in res.blocks.tolist():
            assert len(B) == len(K.elements)
            for x in B:
                for y in B:
                    if x != y:
                        assert R.is_unit(R.sub(x, y))


def test_blocks_through(f4_g, dual2_g, m2f3, m2f3_k, m2f3_g):
    res = f4_g.residue
    assert len(blocks_through(res, {0, 1})) == 1  # affine plane of order 2
    res = dual2_g.residue
    assert blocks_through(res, {0, 2}) == set()   # e - 0 is no unit
    res = m2f3_g.residue
    got = blocks_through(res, {0, m2f3.one})
    conjs = {conjugate_subfield(m2f3_k, u).elements for u in m2f3.units}
    assert got == conjs  # 0 and 1 joined by every conjugate of K
    assert len(got) == 3


def test_two_points_joined_iff_distant(zoo_g):
    for g in zoo_g:
        R, res = g.ring, g.residue
        joined = {}
        for B in res.blocks.tolist():
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


def test_residue_points_match_pairwise_distant(zoo_g):
    """The residue's points, read off the distant-graph kernel, are the
    points distant from R(1, 0) by the scalar mat_invert, in
    enumerate_points order."""
    for g in zoo_g:
        R, pts, p = g.ring, g.points, infinity(g.ring)
        assert residue_points(g) == tuple(q for q in pts if distant(R, p, q)), R.name


def test_orbit_cap(f4_g):
    # the ten chains of F4 exceed a cap of 3 but not one of 10
    seed = [index_of(f4_g.keys, standard_chain(f4_g.ring, f4_g.subfield))]
    with pytest.raises(OrbitCapExceededError):
        orbit(seed, f4_g.perms, cap=3)
    assert len(orbit(seed, f4_g.perms, cap=10)) == 10


class CountingPerms(np.ndarray):
    """A permutation table that adds the number of images of every gather
    by an index array to gathered."""

    gathered = 0

    def __getitem__(self, index):
        out = super().__getitem__(index)
        if any(isinstance(i, np.ndarray) for i in (index if isinstance(index, tuple)
                                                   else (index,))):
            CountingPerms.gathered += out.size
            return np.asarray(out)
        return out


@pytest.mark.parametrize("through_infinity", [False, True])
def test_chain_report_cap_is_checked_on_the_built_set(m2f3, m2f3_k, through_infinity):
    """The chain set is built once, under ORBIT_CAP, whatever the report's
    cap: a cap of 1 raises once the set is built, a built set over the cap
    raises the same message, and a report within the cap adds one carries
    check of every chain (2,106 chains, 162 through the far point)."""
    geom = Geometry(m2f3, m2f3_k)
    geom.perms = geom.perms.view(CountingPerms)
    generators = len(geom.perms) - through_infinity
    chains = 162 if through_infinity else 2106
    per_pass = generators * chains * 10  # every generator's image of every chain
    CountingPerms.gathered = 0
    with pytest.raises(OrbitCapExceededError, match="^chain orbit on matrix2.3. exceeded cap 1$"):
        chain_report(geom, through_infinity, cap=1)
    assert CountingPerms.gathered == per_pass  # the engine's images
    rep = chain_report(geom, through_infinity)
    assert passes("chain-orbit", rep) and rep["chains_through_infinity" if through_infinity
                                              else "chains"] == chains
    assert CountingPerms.gathered == 2 * per_pass  # the report's carries check
    with pytest.raises(OrbitCapExceededError,
                       match=f"^chain orbit on matrix2.3. exceeded cap {chains - 1}$"):
        chain_report(geom, through_infinity, cap=chains - 1)
    assert CountingPerms.gathered == 2 * per_pass  # nothing built again


@pytest.mark.parametrize("through_infinity", [False, True])
def test_chain_report_ok_can_fail(zoo_g, through_infinity):
    """Negative controls: a row with a repeated point, and the chain set
    with one row dropped, each turn chains_closed false and fail the task;
    the clean set passes."""
    attr = "chains_at_infinity" if through_infinity else "chains"
    for g in zoo_g[:4]:
        geom = Geometry(g.ring, g.subfield)
        clean = getattr(geom, attr)
        assert passes("chain-orbit", chain_report(geom, through_infinity)), g.ring.name
        repeated = clean.copy()
        repeated[0, 1] = repeated[0, 0]
        for bad in (repeated, clean[1:]):
            setattr(geom, attr, bad)
            rep = chain_report(geom, through_infinity)
            assert rep["chains_closed"] is False, g.ring.name
            assert not passes("chain-orbit", rep), g.ring.name


@pytest.mark.parametrize("through_infinity", [False, True])
def test_chain_report_row_order_fails_alone(zoo_g, through_infinity):
    """Negative control of the row-order check alone: with every point of
    every row given twice, each generator still carries the chain set onto
    itself (the rows sort as before), yet no row lists distinct points, so
    chains_closed alone turns false, the task fails, and the counts are as
    before."""
    attr = "chains_at_infinity" if through_infinity else "chains"
    for g in zoo_g[:4]:
        geom = Geometry(g.ring, g.subfield)
        clean = chain_report(geom, through_infinity)
        doubled = np.repeat(getattr(geom, attr), 2, axis=1)
        setattr(geom, attr, doubled)
        perms = geom.perms[1:] if through_infinity else geom.perms
        assert all(carries(p, doubled, doubled) for p in perms), g.ring.name
        rep = chain_report(geom, through_infinity)
        assert passes("chain-orbit", clean) and not passes("chain-orbit", rep), g.ring.name
        assert changed_keys(clean, rep) == {"chains_closed"}, g.ring.name


def test_triangular_family_pipeline():
    """A non-zoo family exercises the enumeration tripwires end to end."""
    from chaingeom.rings import RingSpec, build_ring, build_subfield
    R = build_ring(RingSpec("upper-triangular2", 2))
    g = Geometry(R, build_subfield(R, "scalar"))
    assert len(g.points) == 18  # orbit and scan agree
    assert g.graph.n_components == 1 and g.graph.diameter == 2
    assert len(g.chains) == 48
    assert len(g.residue.blocks) == 8


def test_block_translated_closed_under_some_conjugate(zoo_g):
    for g in zoo_g:
        R, K, res = g.ring, g.subfield, g.residue
        conjs = [frozenset(conjugate_subfield(K, u).elements) for u in R.units]
        for B in res.blocks.tolist():
            c = min(B)
            B0 = frozenset(R.sub(x, c) for x in B)
            assert any(
                all(R.mul(k, b) in B0 for k in Kc for b in B0) for Kc in conjs
            )
