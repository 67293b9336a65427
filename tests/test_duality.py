import random

import pytest
from hypothesis import given, settings, strategies as st

from chaingeom.projline import (
    distant,
    distant_graph,
    elementary,
    enumerate_points,
    infinity,
    line_generators,
    make_point,
    point_word,
    word_point,
)
from chaingeom.chains import chain_orbit
from chaingeom.rings import FiniteFieldRing
from chaingeom.duality import (
    PerpNotCyclicError,
    _kernel,
    annihilator_pairs,
    bidual_fixes,
    commutative_perp_formula,
    covariance_holds,
    dual_chain_orbit,
    dual_distant,
    dual_infinity,
    dual_matches_opposite,
    dual_standard_chain,
    enumerate_dual_points,
    length2_perp_formula,
    length3_perp_formula,
    make_dual_point,
    perp_chain,
    perp_point,
    word_dual_point,
)


def test_perp_of_infinity(zoo):
    for R, _ in zoo:
        assert perp_point(R, infinity(R)) == dual_infinity(R)


def test_perp_of_affine_points(zoo):
    # R(t, 1) -> (-1, t)^T R for every t
    for R, _ in zoo:
        for t in R.elements():
            p = make_point(R, t, R.one)
            assert perp_point(R, p) == make_dual_point(R, R.neg(R.one), t)


def test_perp_commutative_formula(f4, dual2, prod22):
    for R in (f4, dual2, prod22):
        for p in enumerate_points(R):
            assert perp_point(R, p) == commutative_perp_formula(R, p)


def test_annihilator_vectorized_matches_loop(m2f2, m2f3):
    rng = random.Random(5)
    for R in (m2f2, m2f3):
        for _ in range(20):
            a, b = rng.randrange(R.size), rng.randrange(R.size)
            fast = annihilator_pairs(R, [(a, b)])
            slow = {(x, y) for x in R.elements() for y in R.elements()
                    if R.add(R.mul(a, x), R.mul(b, y)) == 0}
            assert fast == slow


def test_perp_memo_matches_uncached_scan(zoo, m2f3):
    for R in [r for r, _ in zoo] + [m2f3.opposite()]:
        for p in enumerate_points(R):
            assert perp_point(R, p) == perp_point.__wrapped__(R, p), (R.name, p)


def test_perp_memo_is_per_ring_instance(f4):
    # a separately built F4 with 2*1 corrupted to 0 has a non-cyclic kernel
    # at R(1, 2); it must not get the clean instance's memoized answer back
    p = (1, 2)
    assert perp_point(f4, p) == (1, 3)
    fresh = FiniteFieldRing(f4.spec)
    rows = [list(row) for row in fresh._mul_t]
    rows[2][1] = 0
    fresh._mul_t = tuple(map(tuple, rows))
    for _ in range(2):  # failures are not memoized either
        with pytest.raises(PerpNotCyclicError):
            perp_point(fresh, p)
    assert perp_point(f4, p) == (1, 3)


def test_bidual_left_kernel_matches_loop(small_rings, m2f3):
    cases = [(R, enumerate_points(R)) for R in small_rings]
    cases.append((m2f3, enumerate_points(m2f3)[::7]))
    for R, pts in cases:
        for p in pts:
            v, w = perp_point(R, p)
            Rv, Rw = R.right_products(v), R.right_products(w)
            loop = {(a, b) for a in R.elements() for b in R.elements()
                    if R.add(Rv[a], Rw[b]) == R.zero}
            assert _kernel(R._neg_t, Rv, Rw) == loop, (R.name, p)
            assert bidual_fixes(R, p), (R.name, p)


def test_perp_bijective(zoo):
    for R, _ in zoo:
        pts = enumerate_points(R)
        duals = enumerate_dual_points(R)
        image = {perp_point(R, p) for p in pts}
        assert len(image) == len(pts)
        assert image == set(duals)


def test_perp_preserves_distant(small_zoo):
    for R, _ in small_zoo:
        pts = enumerate_points(R)
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert distant(R, p, q) == dual_distant(R, perp_point(R, p),
                                                        perp_point(R, q))


def test_perp_standard_chain(f4, f4_k):
    want = {make_dual_point(f4, f4.neg(f4.one), k) for k in f4_k.elements}
    want.add(dual_infinity(f4))
    from chaingeom.chains import standard_chain
    assert perp_chain(f4, standard_chain(f4, f4_k)) == want


def test_perp_maps_chains_onto_dual_chains(zoo):
    for R, K in zoo:
        if R.size > 16:
            chains = chain_orbit(R, K, through=infinity(R))
            dual_chains = dual_chain_orbit(R, K, through=dual_infinity(R))
        else:
            chains = chain_orbit(R, K)
            dual_chains = dual_chain_orbit(R, K)
        image = {perp_chain(R, C) for C in chains}
        assert image == set(dual_chains)


def test_dual_chains_through_agree_with_filter(small_zoo):
    for R, K in small_zoo:
        via_stab = dual_chain_orbit(R, K, through=dual_infinity(R))
        via_filter = frozenset(C for C in dual_chain_orbit(R, K)
                               if dual_infinity(R) in C)
        assert via_stab == via_filter


def test_covariance_identity_and_elementary(small_zoo):
    for R, _ in small_zoo:
        U = [(R.one, R.zero)]
        I = (R.one, R.zero, R.zero, R.one)
        assert covariance_holds(R, U, I)
        for t in R.elements():
            assert covariance_holds(R, U, elementary(R, t))


def test_covariance_exhaustive_generators_x_singletons(small_zoo):
    for R, _ in small_zoo:
        for M in line_generators(R):
            for a in R.elements():
                for b in R.elements():
                    assert covariance_holds(R, [(a, b)], M)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3),
       st.integers(0, 3), st.integers(0, 3))
def test_covariance_random_subsets_dual2(dual2, U, t1, t2):
    M = elementary(dual2, t1)
    from chaingeom.projline import mat_mul
    M = mat_mul(dual2, M, elementary(dual2, t2))
    assert covariance_holds(dual2, U, M)


def test_word_formula_n0_n1(zoo):
    for R, _ in zoo:
        assert word_dual_point(R, ()) == dual_infinity(R)
        for t in R.elements():
            assert word_dual_point(R, (t,)) == make_dual_point(R, R.neg(R.one), t)
            assert word_dual_point(R, (t,)) == perp_point(R, word_point(R, (t,)))


def test_word_formulas_exhaustive(small_zoo):
    """Lengths 2 and 3, all tuples, formula == word formula == oracle."""
    for R, _ in small_zoo:
        for t1 in R.elements():
            for t2 in R.elements():
                p, q = length2_perp_formula(R, t1, t2)
                assert word_point(R, (t1, t2)) == p
                assert word_dual_point(R, (t1, t2)) == q
                assert perp_point(R, p) == q
        if R.size > 4:
            continue  # keep the length-3 cube for the tiny rings here
        for t1 in R.elements():
            for t2 in R.elements():
                for t3 in R.elements():
                    p, q = length3_perp_formula(R, t1, t2, t3)
                    assert word_point(R, (t1, t2, t3)) == p
                    assert word_dual_point(R, (t1, t2, t3)) == q
                    assert perp_point(R, p) == q


def test_word_formulas_m2f2_length3_exhaustive(m2f2):
    R = m2f2
    for t1 in R.elements():
        for t2 in R.elements():
            for t3 in R.elements():
                p, q = length3_perp_formula(R, t1, t2, t3)
                assert word_point(R, (t1, t2, t3)) == p
                assert word_dual_point(R, (t1, t2, t3)) == q
                assert perp_point(R, p) == q


def test_word_formulas_m2f3_sampled(m2f3):
    R = m2f3
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice((1, 2, 3))
        ts = tuple(rng.randrange(R.size) for _ in range(n))
        p = word_point(R, ts)
        assert word_dual_point(R, ts) == perp_point(R, p)


def test_length2_formula_covers_connected_diameter2(zoo):
    # rings whose graph is connected with diameter <= 2: the length-2 words
    # alone reach every point, so the length-2 image formula covers the line
    for R, _ in zoo:
        g = distant_graph(R)
        if g.n_components != 1 or g.diameter > 2:
            continue
        covered = {word_point(R, (t1, t2))
                   for t1 in R.elements() for t2 in R.elements()}
        assert covered == set(enumerate_points(R))


def test_bidual(zoo):
    for R, _ in zoo:
        pts = enumerate_points(R)
        sample = pts if R.size <= 16 else pts[::7]
        for p in sample:
            assert bidual_fixes(R, p)


def test_dual_matches_opposite(f4, f4_k, dual2, dual2_k, prod22, prod22_k,
                               m2f2, m2f2_k):
    assert dual_matches_opposite(f4, f4_k)
    assert dual_matches_opposite(dual2, dual2_k)
    assert dual_matches_opposite(prod22, prod22_k)
    assert dual_matches_opposite(m2f2, m2f2_k)


def test_word_length_bound_matches(zoo):
    # every point of the component has a word no longer than max{2, diameter}
    for R, _ in zoo:
        g = distant_graph(R)
        for p in g.points:
            w = point_word(R, p)
            assert w is not None and len(w) <= max(2, g.diameter)
