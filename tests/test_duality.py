import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaingeom.geometry import Geometry
from chaingeom import suites
from chaingeom.projline import (
    VerificationError,
    elementary,
    enumerate_points,
    infinity,
    line_generators,
    make_point,
    mat_invert,
    word_points,
)
from chaingeom.rings import (
    DualNumbersRing,
    FiniteFieldRing,
    RingSpec,
    build_ring,
    build_subfield,
    subfield_in_opposite,
)
from chaingeom.duality import (
    _cyclic_generator,
    annihilator_pairs,
    bidual_point,
    covariance_failures,
    dual_infinity,
    dual_matches_opposite,
    perp_point,
    word_dual_point,
    word_dual_points,
)

import reference
from reference import (
    as_pairs,
    commutative_perp_formula,
    corrupt,
    covariance_holds,
    distant,
    length2_perp_formula,
    length3_perp_formula,
    make_dual_point,
    point_sets,
    point_words,
    word_arrays,
)


def perp_chain(R, C):
    return frozenset(perp_point(R, p) for p in C)


def pairs(R, mask):
    """The pairs (x, y) of a kernel mask over the keys x*|R| + y."""
    return set(zip(*(k.tolist() for k in np.divmod(np.flatnonzero(mask), R.size))))


def test_perp_of_infinity(zoo):
    for R, _ in zoo:
        assert perp_point(R, infinity(R)) == dual_infinity(R)


def test_perp_of_affine_points(zoo):
    # R(t, 1) -> (-1, t)^T R for every t
    for R, _ in zoo:
        for t in R.elements():
            p = make_point(R, t, R.one)
            assert perp_point(R, p) == make_dual_point(R, R.neg(R.one), t)


def test_perp_commutative_formula(f4_g, dual2_g, prod22_g):
    for g in (f4_g, dual2_g, prod22_g):
        for p in g.points:
            assert perp_point(g.ring, p) == commutative_perp_formula(g.ring, p)


def test_annihilator_vectorized_matches_loop(m2f2, m2f3):
    """The mask of one row against the plain loop, and of sets of up to
    three rows, none included, against the dict-bucket scan."""
    rng = random.Random(5)
    for R in (m2f2, m2f3):
        for _ in range(20):
            a, b = rng.randrange(R.size), rng.randrange(R.size)
            fast = annihilator_pairs(R, [(a, b)])
            assert fast.shape == (R.size ** 2,)
            slow = {(x, y) for x in R.elements() for y in R.elements()
                    if R.add(R.mul(a, x), R.mul(b, y)) == 0}
            assert pairs(R, fast) == slow
        for n in (0, 2, 3):
            rows = [(rng.randrange(R.size), rng.randrange(R.size)) for _ in range(n)]
            assert pairs(R, annihilator_pairs(R, rows)) == reference.annihilator(R, rows)


def test_bidual_left_kernel_matches_loop(small_rings, m2f3):
    cases = [(R, enumerate_points(R)) for R in small_rings]
    cases.append((m2f3, enumerate_points(m2f3)[::7]))
    for R, pts in cases:
        for p in pts:
            v, w = perp_point(R, p)
            Rv, Rw = R.right_products(v), R.right_products(w)
            loop = {(a, b) for a in R.elements() for b in R.elements()
                    if R.add(Rv[a], Rw[b]) == R.zero}
            assert reference.kernel_scan(R._neg_t, Rv, Rw) == loop, (R.name, p)
            assert bidual_point(R, (v, w)) == p, (R.name, p)


def reference_rings(small_rings):
    """Every ring of at most 16 elements and the opposite of each, and
    upper-triangular2(2) and (3) with their opposites."""
    rings = small_rings + [R.opposite() for R in small_rings]
    tri = [build_ring(RingSpec("upper-triangular2", q)) for q in (2, 3)]
    return rings + tri + [R.opposite() for R in tri]


def test_perp_and_bidual_match_reference_scan(small_rings, m2f3):
    """The mask kernel and its cyclic-generator search give the dual point
    of the dict-bucket scan and its generator loop, and the bidual gives the
    point of the left-kernel loop, at every point of every reference ring
    and all 130 points of matrix2(3)."""
    for R in reference_rings(small_rings) + [m2f3]:
        for p in enumerate_points(R):
            q = perp_point(R, p)
            assert q == reference.perp_point(R, p), (R.name, p)
            assert bidual_point(R, q) == reference.bidual_point(R, q) == p, (R.name, p)


def test_cyclic_generator_needs_the_whole_kernel(m2f3):
    """Both halves of the set equality bite: a kernel with one extra column
    holds the span of the true generator but has more members, and a
    kernel with one column swapped out has as many members but does not
    hold that span; neither has a generator."""
    R = m2f3
    for p in enumerate_points(R)[::13]:
        kern = annihilator_pairs(R, [p])
        v, w = _cyclic_generator(kern, R._mul_a, R._cols_ok)
        assert R.canonical_pair_right(v, w) == perp_point(R, p)
        outside = int(np.flatnonzero(~kern)[0])
        bigger = kern.copy()
        bigger[outside] = True
        assert _cyclic_generator(bigger, R._mul_a, R._cols_ok) is None, p
        swapped = bigger.copy()
        swapped[int(np.flatnonzero(kern)[-1])] = False
        assert _cyclic_generator(swapped, R._mul_a, R._cols_ok) is None, p


def test_perp_bijective(zoo_g):
    for g in zoo_g:
        pts, duals = g.points, g.dual_points
        image = {perp_point(g.ring, p) for p in pts}
        assert len(image) == len(pts)
        assert image == set(duals)


def test_perp_preserves_distant(small_zoo_g):
    for g in small_zoo_g:
        R, pts = g.ring, g.points
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                (v1, w1), (v2, w2) = perp_point(R, p), perp_point(R, q)
                assert distant(R, p, q) == (mat_invert(R, (v1, v2, w1, w2)) is not None)


def test_perp_standard_chain(f4, f4_k):
    want = {make_dual_point(f4, f4.neg(f4.one), k) for k in f4_k.elements}
    want.add(dual_infinity(f4))
    from chaingeom.chains import standard_chain
    assert perp_chain(f4, as_pairs(standard_chain(f4, f4_k), f4.size)) == want


def test_perp_maps_chains_onto_dual_chains(zoo_g):
    for g in zoo_g:
        if g.ring.size > 16:
            chains, dual_chains = g.chains_at_infinity, g.dual_chains_at_infinity
        else:
            chains, dual_chains = g.chains, g.dual_chains
        image = {perp_chain(g.ring, C) for C in point_sets(g, chains)}
        assert image == {frozenset(g.dual_points[j] for j in row)
                         for row in dual_chains.tolist()}


def test_dual_chains_through_agree_with_filter(small_zoo_g):
    for g in small_zoo_g:
        dinf = g.dual_index(dual_infinity(g.ring))
        assert np.array_equal(g.dual_chains_at_infinity,
                              g.dual_chains[(g.dual_chains == dinf).any(axis=1)])


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


def loop_covariance_failures(R, M, rows):
    return sum(not covariance_holds(R, [u], M) for u in rows)


def test_covariance_failures_matches_holds(small_rings):
    """The batched sweep counts what covariance_holds finds row by row, for
    every generator and row of every ring with at most 16 elements."""
    for R in small_rings:
        rows = [(a, b) for a in R.elements() for b in R.elements()]
        for M in line_generators(R):
            assert covariance_failures(R, M, rows) == loop_covariance_failures(R, M, rows)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 176), st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)),
                                     min_size=1, max_size=12))
def test_covariance_failures_matches_holds_m2f3(m2f3, g, rows):
    M = line_generators(m2f3)[g]
    assert covariance_failures(m2f3, M, rows) == loop_covariance_failures(m2f3, M, rows)


def covariance_sweep(R, count):
    """Per generator, the failure count over every row, or "raise"."""
    rows = [(a, b) for a in R.elements() for b in R.elements()]
    out = []
    for M in line_generators(R):
        try:
            out.append(count(R, M, rows))
        except VerificationError:
            out.append("raise")
    return out


@pytest.mark.parametrize("cls, spec", [(FiniteFieldRing, RingSpec("finite-field", 4)),
                                       (DualNumbersRing, RingSpec("dual-numbers", 2))])
def test_covariance_sweep_negative_control(cls, spec):
    """Every single corrupted product makes the sweep fail or raise, never
    pass, and the batched counts equal the row-by-row ones."""
    clean = build_ring(spec)._mul_t
    for a, b, value in itertools.product(range(len(clean)), repeat=3):
        if value == clean[a][b]:
            continue
        R = corrupt(cls(spec), "mul", (a, b), value)
        swept = covariance_sweep(R, covariance_failures)
        assert any(x == "raise" or x > 0 for x in swept), (a, b, value)
        assert (covariance_sweep(R, covariance_failures)
                == covariance_sweep(R, loop_covariance_failures)), (a, b, value)


def word_images(R, ws):
    """The word points and the closed-form dual points of the words ws,
    each from one call of its kernel."""
    letters, lengths = word_arrays(ws)
    return (as_pairs(word_points(R, letters, lengths), R.size),
            as_pairs(word_dual_points(R, letters, lengths), R.size))


def test_word_formula_n0_n1(zoo):
    for R, _ in zoo:
        assert word_dual_point(R, ()) == dual_infinity(R)
        pts, duals = word_images(R, [(t,) for t in R.elements()])
        for t, p, q in zip(R.elements(), pts, duals):
            assert q == make_dual_point(R, R.neg(R.one), t)
            assert q == perp_point(R, p)


def perp_formulas_hold(R, ws):
    """formula == word formula == oracle on every word of ws (lengths 2
    and 3); the kernels see all the words at once."""
    for ts, p, q in zip(ws, *word_images(R, ws)):
        formula = length2_perp_formula if len(ts) == 2 else length3_perp_formula
        assert (p, q) == formula(R, *ts), ts
        assert perp_point(R, p) == q, ts


def test_word_formulas_exhaustive(small_zoo):
    """Lengths 2 and 3, all tuples, formula == word formula == oracle."""
    for R, _ in small_zoo:
        els = R.elements()
        ws = list(itertools.product(els, repeat=2))
        if R.size <= 4:  # keep the length-3 cube for the tiny rings here
            ws += itertools.product(els, repeat=3)
        perp_formulas_hold(R, ws)


def test_word_formulas_m2f2_length3_exhaustive(m2f2):
    perp_formulas_hold(m2f2, list(itertools.product(m2f2.elements(), repeat=3)))


def test_word_formulas_m2f3_sampled(m2f3):
    R = m2f3
    rng = random.Random(11)
    ws = []
    for _ in range(300):
        n = rng.choice((1, 2, 3))
        ws.append(tuple(rng.randrange(R.size) for _ in range(n)))
    for p, q in zip(*word_images(R, ws)):
        assert q == perp_point(R, p)


def test_length2_formula_covers_connected_diameter2(zoo_g):
    # rings whose graph is connected with diameter <= 2: the length-2 words
    # alone reach every point, so the length-2 image formula covers the line
    for geom in zoo_g:
        R, g = geom.ring, geom.graph
        if g.n_components != 1 or g.diameter > 2:
            continue
        letters, lengths = word_arrays(itertools.product(R.elements(), repeat=2))
        covered = set(as_pairs(word_points(R, letters, lengths), R.size))
        assert covered == set(geom.points)


def test_bidual(zoo_g):
    for g in zoo_g:
        R, pts = g.ring, g.points
        sample = pts if R.size <= 16 else pts[::7]
        for p in sample:
            assert bidual_point(R, perp_point(R, p)) == p


def test_dual_matches_opposite(small_zoo_g):
    for g in small_zoo_g:
        op = Geometry(g.ring.opposite(), subfield_in_opposite(g.subfield))
        assert dual_matches_opposite(g, op)


def test_own_geometry_is_no_opposite(m2f2_g, monkeypatch):
    """Negative control: matrix2(2)'s own Geometry, passed as its opposite,
    fails the opposite-ring check and the suite's opposite_equivalent; so
    does the opposite ring with the scalar subfield for the Singer one,
    whose line is the same and whose chains are not."""
    assert not dual_matches_opposite(m2f2_g, m2f2_g)
    R = m2f2_g.ring
    scalar = Geometry(R.opposite(), subfield_in_opposite(build_subfield(R, "scalar")))
    assert np.array_equal(m2f2_g.dual_keys, scalar.point_keys)
    assert not dual_matches_opposite(m2f2_g, scalar)
    monkeypatch.setattr(suites, "Geometry", lambda R, K: m2f2_g)
    rep = suites.duality_suite(m2f2_g)
    assert rep["opposite_equivalent"] is False and not rep["ok"]


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_swapped_perp_entries_fail_chains_and_bidual(name, request, monkeypatch):
    """Negative control: with the annihilators of R(0, 1) and R(1, 1)
    swapped in perp, the suite's chain bijection and bidual check fail."""
    g = request.getfixturevalue(f"{name}_g")
    rep = suites.duality_suite(g)
    assert rep["chain_bijection"] and rep["bidual_fixed"]
    perp = g.perp.copy()
    perp[g.affine[:2]] = perp[g.affine[1::-1]]
    monkeypatch.setattr(g, "perp", perp)
    rep = suites.duality_suite(g)
    assert rep["chain_bijection"] is False and rep["bidual_fixed"] is False
    assert not rep["ok"]


def test_word_length_bound_matches(zoo_g):
    # every point of the component has a word no longer than max{2, diameter}
    for geom in zoo_g:
        g = geom.graph
        words = point_words(geom.ring)
        for p in g.points:
            w = words.get(p)
            assert w is not None and len(w) <= max(2, g.diameter)
