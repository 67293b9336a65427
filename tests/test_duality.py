import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaingeom.geometry import Geometry
from chaingeom import duality, projline, suites
from chaingeom.cli import passes
from chaingeom.projline import (
    VerificationError,
    distant_graph,
    elementary,
    enumerate_points,
    infinity,
    line_generators,
    make_point,
    mat_inverses,
    solution_slabs,
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
    _generators,
    annihilator_pairs,
    bidual_keys,
    bidual_point,
    covariance_failures,
    dual_infinity,
    dual_matches_opposite,
    perp_keys,
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
    slab_costs,
    word_keys,
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


def solution_masks(R, rows, dual=False):
    """The masks of solution_slabs for the rows (a, b), or with dual the
    columns (v, w), stacked in order; checks that the slabs cover the keys
    in order."""
    parts, masks = zip(*solution_slabs(R, [a * R.size + b for a, b in rows], dual))
    assert [p.start for p in parts] == list(range(0, len(rows), len(masks[0])))
    return np.concatenate(masks)


def test_annihilator_vectorized_matches_loop(m2f2, m2f3):
    """The scanned mask of every row against the plain loop, on columns and
    on rows, over more rows than one slab holds, and annihilator_pairs of
    one row and of sets of up to three rows, none included, against the
    dict-bucket scan."""
    rng = random.Random(5)
    for R in (m2f2, m2f3):
        rows = [(rng.randrange(R.size), rng.randrange(R.size)) for _ in range(20)]
        right, left = solution_masks(R, rows), solution_masks(R, rows, True)
        assert right.shape == left.shape == (20, R.size ** 2)
        for (a, b), r, l in zip(rows, right, left):
            assert pairs(R, r) == {(x, y) for x in R.elements() for y in R.elements()
                                   if R.add(R.mul(a, x), R.mul(b, y)) == 0}
            assert pairs(R, l) == {(x, y) for x in R.elements() for y in R.elements()
                                   if R.add(R.mul(x, a), R.mul(y, b)) == 0}
            assert np.array_equal(annihilator_pairs(R, [(a, b)]), r)
        for n in (0, 2, 3):
            rows = [(rng.randrange(R.size), rng.randrange(R.size)) for _ in range(n)]
            assert pairs(R, annihilator_pairs(R, rows)) == reference.annihilator(R, rows)


def test_solution_keys_are_the_sorted_masks(zoo_g):
    """With as_keys every point's kernel comes back as the sorted keys of
    its mask, |R| of them."""
    for g in zoo_g:
        R = g.ring
        masks = solution_masks(R, g.points)
        keys = np.concatenate([k for _, k in solution_slabs(R, g.keys, as_keys=True)])
        assert keys.shape == (len(g.points), R.size), R.name
        assert np.array_equal(keys, np.nonzero(masks)[1].reshape(keys.shape)), R.name


def test_solution_set_of_the_wrong_size_raises(f4):
    """On F4 with 1*2 corrupted to 3, 1*x is no longer onto: the kernel of
    R(1, 1) has 6 members, which the key scan gives as they are, and the
    distant graph raises."""
    fresh = corrupt(FiniteFieldRing(f4.spec), "mul", (1, 2), 3)
    (_, keys), = solution_slabs(fresh, [1 * 4 + 1], as_keys=True)
    assert keys.tolist() == [sorted(np.flatnonzero(annihilator_pairs(fresh, [(1, 1)])))]
    assert len(keys[0]) == 6
    with pytest.raises(VerificationError, match=r"\(1, 1\) has 6 solutions, not 4"):
        distant_graph(fresh, enumerate_points(f4))


def test_bidual_left_kernel_matches_loop(small_rings, m2f3):
    cases = [(R, enumerate_points(R)) for R in small_rings]
    cases.append((m2f3, enumerate_points(m2f3)[::7]))
    for R, pts in cases:
        for p in pts:
            v, w = perp_point(R, p)
            Rv, Rw = R._mul_a[:, v].tolist(), R._mul_a[:, w].tolist()
            loop = {(a, b) for a in R.elements() for b in R.elements()
                    if R.add(Rv[a], Rw[b]) == R.zero}
            assert reference.kernel_scan(reference.tables(R)[2], Rv, Rw) == loop, (R.name, p)
            assert bidual_point(R, (v, w)) == p, (R.name, p)


def reference_rings(small_rings):
    """Every ring of at most 16 elements and the opposite of each, and
    upper-triangular2(2) and (3) with their opposites."""
    rings = small_rings + [R.opposite for R in small_rings]
    tri = [build_ring(RingSpec("upper-triangular2", q)) for q in (2, 3)]
    return rings + tri + [R.opposite for R in tri]


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


def test_cyclic_generator_needs_the_whole_kernel(m2f3, monkeypatch):
    """Both halves of the set equality bite: a kernel with one extra column
    holds the span of the true generator but has more members, and a
    kernel with one column swapped out has as many members but does not
    hold that span; neither has a generator.  The batch finds the same,
    and only those two rows reach its fallback, one _cyclic_generator call
    each."""
    R = m2f3
    calls = []

    def counted(kernel, products, ok):
        calls.append(kernel.copy())
        return _cyclic_generator(kernel, products, ok)

    monkeypatch.setattr(duality, "_cyclic_generator", counted)
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
        calls.clear()
        batch = _generators(np.stack([kern, bigger, swapped]), R._mul_a, R._cols_ok)
        assert batch.tolist() == [v * R.size + w, -1, -1], p
        assert len(calls) == 2 and np.array_equal(calls[0], bigger) \
            and np.array_equal(calls[1], swapped), p


def test_batched_perp_and_bidual_match_reference(zoo_and_opposites_g):
    """One perp_keys call over every point and one bidual_keys call over
    every dual point give the per-point reference loops' answers, on the
    ten Geometries of the zoo rings and their opposites."""
    for g in zoo_and_opposites_g:
        R = g.ring
        assert as_pairs(perp_keys(R, g.keys), R.size) == [
            reference.perp_point(R, p) for p in g.points], R.name
        assert as_pairs(bidual_keys(R, g.dual.keys), R.size) == [
            reference.bidual_point(R, q) for q in g.dual.points], R.name


# A non-cyclic kernel under python -O: on F4 with 2*1 corrupted to 3 the
# kernel of R(1, 2) has no admissible generator, in the batch over every
# point and in the one-point call.
PERP_NOT_CYCLIC_UNDER_OPTIMIZE = """
from chaingeom.duality import PerpNotCyclicError, perp_keys, perp_point
from chaingeom.rings import FiniteFieldRing, RingSpec
assert not __debug__, "expected to run under python -O"
R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
mul = R._mul_a.copy(); mul[2, 1] = 3
R._mul_a = mul; R._fill_arrays()
points = [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]  # the line of the clean ring
for call in (lambda: perp_keys(R, [a * 4 + b for a, b in points]),
             lambda: perp_point(R, (1, 2))):
    try:
        print(call())
    except PerpNotCyclicError as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.optimized(PERP_NOT_CYCLIC_UNDER_OPTIMIZE)
def test_non_cyclic_kernel_raises_under_optimize(run_optimized):
    proc = run_optimized(PERP_NOT_CYCLIC_UNDER_OPTIMIZE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "PerpNotCyclicError kernel of (1, 2) over finite-field(4) has no admissible "
        "generator"] * 2


def test_perp_bijective(zoo_g):
    for g in zoo_g:
        pts, duals = g.points, g.dual.points
        image = {perp_point(g.ring, p) for p in pts}
        assert len(image) == len(pts)
        assert image == set(duals)


def test_perp_preserves_distant(small_zoo_g):
    for g in small_zoo_g:
        R, pts = g.ring, g.points
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                (v1, w1), (v2, w2) = perp_point(R, p), perp_point(R, q)
                assert distant(R, p, q) == (mat_inverses(R, [(v1, v2, w1, w2)])[0, 0] >= 0)


def test_perp_standard_chain(f4, f4_k):
    want = {make_dual_point(f4, f4.neg(f4.one), k) for k in f4_k.elements}
    want.add(dual_infinity(f4))
    from chaingeom.chains import standard_chain
    assert perp_chain(f4, as_pairs(standard_chain(f4, f4_k), f4.size)) == want


def test_perp_maps_chains_onto_dual_chains(zoo_g):
    for g in zoo_g:
        if g.ring.size > 16:
            chains, dchains = g.chains_at_infinity, g.dual.chains_at_infinity
        else:
            chains, dchains = g.chains, g.dual.chains
        image = {perp_chain(g.ring, C) for C in point_sets(g, chains)}
        assert image == {frozenset(g.dual.points[j] for j in row)
                         for row in dchains.tolist()}


def test_dual_chains_through_agree_with_filter(small_zoo_g):
    for g in small_zoo_g:
        assert np.array_equal(g.dual.chains_at_infinity,
                              g.dual.chains[(g.dual.chains == g.dual.far).any(axis=1)])


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
    M = reference.mat_mul(dual2, M, elementary(dual2, t2))
    assert covariance_holds(dual2, U, M)


def loop_covariance_failures(R, gens, pairs):
    """The pairs (gens[i], row of key k) of pair index i*|R|^2 + k in pairs
    that fail covariance_holds, one row at a time, with repeats."""
    return sum(not covariance_holds(R, [divmod(k, R.size)], gens[i])
               for i, k in (divmod(int(p), R.size ** 2) for p in pairs))


def every_pair(R, gens):
    """The pair indices of every generator x every row, generator major."""
    return range(len(gens) * R.size ** 2)


def test_covariance_failures_matches_holds(small_rings):
    """The one call over every generator x every row counts what
    covariance_holds finds row by row, on every ring with at most 16
    elements."""
    for R in small_rings:
        gens = line_generators(R)
        pairs = every_pair(R, gens)
        assert (covariance_failures(R, gens, pairs)
                == loop_covariance_failures(R, gens, pairs) == 0), R.name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 176), st.just(0) | st.integers(0, 6560)),
                min_size=1, max_size=12),
       st.integers(0, 12))
def test_covariance_failures_matches_holds_m2f3(m2f3, pairs, repeats):
    """Drawn (generator, row) multisets on matrix2(3), with the zero row and
    the first pairs given again."""
    pairs = [i * m2f3.size ** 2 + k for i, k in pairs + pairs[:repeats]]
    gens = line_generators(m2f3)
    assert (covariance_failures(m2f3, gens, pairs)
            == loop_covariance_failures(m2f3, gens, pairs))


def test_covariance_failures_counts_repeats():
    """A failing pair given twice counts twice, next to passing pairs, and
    no pairs count nothing; on a ring with one corrupted product."""
    spec = RingSpec("dual-numbers", 2)
    R = corrupt(DualNumbersRing(spec), "mul", (2, 2), 2)
    gens = line_generators(R)
    pairs = every_pair(R, gens)
    fails = [loop_covariance_failures(R, gens, [p]) == 1 for p in pairs]
    bad, good = fails.index(True), fails.index(False)
    assert covariance_failures(R, gens, [bad]) == 1
    assert covariance_failures(R, gens, np.array([bad, good, bad])) == 2
    assert covariance_failures(R, gens, []) == covariance_failures(R, gens, range(0)) == 0
    assert covariance_failures(R, gens, pairs) == sum(fails)


def test_covariance_failures_compare_sets_of_images():
    """A triple holds iff the distinct images of the kernel of u are the
    kernel of u*M: on dual2 with three corrupted products, M^-1 sends two
    solutions of u to one column for some pairs, and the one call counts
    what covariance_holds counts row by row."""
    R = DualNumbersRing(RingSpec("dual-numbers", 2))
    for at, value in (((3, 1), 2), ((0, 0), 3), ((1, 3), 2)):
        R = corrupt(R, "mul", at, value)
    gens = line_generators(R)
    pairs = every_pair(R, gens)
    kernels = [reference.annihilator(R, [divmod(k, R.size)]) for k in range(R.size ** 2)]
    assert any(len({reference.mat_times_col(R, reference.mat_invert(R, M), c) for c in K})
               < len(K) for M in gens for K in kernels)
    assert covariance_failures(R, gens, pairs) == 125
    assert loop_covariance_failures(R, gens, pairs) == 125


def test_covariance_failures_keep_a_triple_of_a_colliding_generator():
    """On dual2 with 0*0 corrupted to 3, M^-1 of M = E(2) sends a column of
    the kernel of (0, 2) and one of the kernel of (0, 3) to one column, yet
    maps each kernel to distinct columns, and the triple of (0, 2) holds:
    a check that failed every triple of a generator whose M^-1 collides on
    the columns it reads would count it.  Given the two pairs alone and
    every row, the one call counts what the row-by-row loop counts."""
    R = corrupt(DualNumbersRing(RingSpec("dual-numbers", 2)), "mul", (0, 0), 3)
    gens = line_generators(R)
    Minv = reference.mat_invert(R, gens[2])
    kernels = [reference.annihilator(R, [u]) for u in ((0, 2), (0, 3))]

    def images(K):
        return {reference.mat_times_col(R, Minv, c) for c in K}

    assert all(len(images(K)) == len(K) for K in kernels)
    assert len(images(kernels[0] | kernels[1])) < len(kernels[0] | kernels[1])
    assert covariance_holds(R, [(0, 2)], gens[2])
    for pairs in ([2 * 16 + 2, 2 * 16 + 3], range(2 * 16, 3 * 16)):
        assert (covariance_failures(R, gens, pairs)
                == loop_covariance_failures(R, gens, pairs) > 0)
    assert covariance_failures(R, gens, [2 * 16 + 2, 2 * 16 + 3]) == 1


@pytest.fixture(scope="module")
def covariance_cases():
    """(ring, gens, pairs, loop count) of every m2f2 pair, of every pair of
    the corrupted dual2 ring of test_covariance_failures_counts_repeats,
    given twice, the second time in reverse order, and of every fifth pair
    of that ring, where the generators read unlike sets of rows: index
    ranges, but for the pairs given twice, an index array."""
    cases = []
    bad = corrupt(DualNumbersRing(RingSpec("dual-numbers", 2)), "mul", (2, 2), 2)
    for R, take in ((build_ring(RingSpec("matrix2", 2)), "all"), (bad, "twice"),
                    (bad, "fifth")):
        gens = line_generators(R)
        pairs = every_pair(R, gens)
        if take == "twice":
            pairs = np.r_[pairs, pairs[::-1]]
        elif take == "fifth":
            pairs = pairs[::5]
        cases.append((R, gens, pairs, loop_covariance_failures(R, gens, pairs)))
    return cases


@pytest.mark.parametrize("budget", ["one-triple", "under-zero-row", None],
                         ids=["one-triple", "under-zero-row", "default"])
def test_covariance_failures_are_exact_at_every_slab_size(covariance_cases, monkeypatch,
                                                           budget):
    """Slab edges change nothing: with one triple per slab, with a budget
    a byte under one zero-row triple (|R|^2 solutions, at the cost the
    check states per solution, its largest triple, while triples of
    smaller classes share a slab), and at the default budget, the one call
    counts what the row-by-row loop counts, repeats included."""
    assert [count > 0 for *_, count in covariance_cases] == [False, True, True]
    for R, gens, pairs, count in covariance_cases:
        if budget == "one-triple":
            monkeypatch.setattr(projline, "SCAN_SLAB", 1)
        elif budget is not None:
            # the triples of each class size (the pairs take theirs in projline)
            triples = slab_costs(lambda: covariance_failures(R, gens, pairs), duality)
            per_key = sorted({cost for count, cost in triples if count})
            top = per_key[-1]
            assert top % R.size ** 2 == 0 and per_key[0] < top
            monkeypatch.setattr(projline, "SCAN_SLAB", top - 1)
        assert covariance_failures(R, gens, pairs) == count, (R.name, budget)


def covariance_sweep(R, count):
    """Per generator, the failure count over every row, or "raise"."""
    gens, rows = line_generators(R), R.size ** 2
    out = []
    for i in range(len(gens)):
        try:
            out.append(count(R, gens, range(i * rows, (i + 1) * rows)))
        except VerificationError:
            out.append("raise")
    return out


@pytest.mark.parametrize("cls, spec", [(FiniteFieldRing, RingSpec("finite-field", 4)),
                                       (DualNumbersRing, RingSpec("dual-numbers", 2))])
def test_covariance_sweep_negative_control(cls, spec):
    """Every single corrupted product makes the one call over every
    generator x every row fail or raise, never pass; per generator, the
    counts equal the row-by-row ones."""
    clean = build_ring(spec)._mul_a
    for a, b, value in itertools.product(range(len(clean)), repeat=3):
        if value == clean[a][b]:
            continue
        R = corrupt(cls(spec), "mul", (a, b), value)
        gens = line_generators(R)
        swept = covariance_sweep(R, covariance_failures)
        try:
            assert covariance_failures(R, gens, every_pair(R, gens)) > 0, (a, b, value)
            assert "raise" not in swept
        except VerificationError:
            assert "raise" in swept
        assert swept == covariance_sweep(R, loop_covariance_failures), (a, b, value)


# The one covariance call under python -O: a corrupted product that keeps
# every generator invertible gives failures, and one that does not raises.
COVARIANCE_UNDER_OPTIMIZE = """
from chaingeom.duality import covariance_failures
from chaingeom.projline import VerificationError, line_generators
from chaingeom.rings import DualNumbersRing, RingSpec
assert not __debug__, "expected to run under python -O"
for at, value in (((2, 2), 2), ((1, 0), 1)):
    R = DualNumbersRing(RingSpec("dual-numbers", 2))  # fresh, not the cached instance
    mul = R._mul_a.copy(); mul[at] = value
    R._mul_a = mul; R._fill_arrays()
    gens = line_generators(R)
    try:
        print(covariance_failures(R, gens, range(len(gens) * 16)))
    except VerificationError as exc:
        print(type(exc).__name__)
"""


@pytest.mark.optimized(COVARIANCE_UNDER_OPTIMIZE)
def test_covariance_failures_fail_under_optimize(run_optimized):
    proc = run_optimized(COVARIANCE_UNDER_OPTIMIZE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    count, raised = proc.stdout.split()
    assert int(count) > 0 and raised == "VerificationError"


def word_images(R, ws):
    """The word points and the closed-form dual points of the words ws,
    each from one call of its kernel per word length."""
    return (as_pairs(word_keys(lambda t: word_points(R, t), ws), R.size),
            as_pairs(word_keys(lambda t: word_dual_points(R, t), ws), R.size))


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
        grid = np.array(list(itertools.product(R.elements(), repeat=2))).T
        covered = set(as_pairs(word_points(R, grid), R.size))
        assert covered == set(geom.points)


def test_bidual(zoo_g):
    for g in zoo_g:
        R, pts = g.ring, g.points
        sample = pts if R.size <= 16 else pts[::7]
        for p in sample:
            assert bidual_point(R, perp_point(R, p)) == p


def test_dual_matches_opposite(small_zoo_g):
    for g in small_zoo_g:
        op = Geometry(g.ring.opposite, subfield_in_opposite(g.subfield))
        assert dual_matches_opposite(g, op)


def test_own_geometry_is_no_opposite(m2f2_g, monkeypatch):
    """Negative control: matrix2(2)'s own Geometry, passed as its opposite,
    fails the opposite-ring check and the suite's opposite_equivalent; so
    does the opposite ring with the scalar subfield for the Singer one,
    whose line is the same and whose chains are not."""
    assert not dual_matches_opposite(m2f2_g, m2f2_g)
    R = m2f2_g.ring
    scalar = Geometry(R.opposite, subfield_in_opposite(build_subfield(R, "scalar")))
    assert np.array_equal(m2f2_g.dual.keys, scalar.keys)
    assert not dual_matches_opposite(m2f2_g, scalar)
    monkeypatch.setattr(suites, "Geometry", lambda R, K: m2f2_g)
    rep = suites.duality_suite(m2f2_g)
    assert rep["opposite_equivalent"] is False and not passes("duality-suite", rep)


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_swapped_perp_entries_fail_chains_and_bidual(name, request, monkeypatch):
    """Negative control: with the annihilators of R(0, 1) and R(1, 1)
    swapped in perp, the suite's chain bijection and bidual check fail.
    With the annihilator of R(0, 1) repeated at R(1, 1), perp is no
    bijection; with the annihilators of the far point and R(0, 1) swapped,
    the far point's image is not (0, 1)^T R."""
    g = request.getfixturevalue(f"{name}_g")
    rep = suites.duality_suite(g)
    assert rep["chain_bijection"] and rep["bidual_fixed"]
    assert rep["bijection"] and rep["far_point_image"]
    assert "bidual_first_mismatch" not in rep
    clean, i, j = g.perp, *g.affine[:2].tolist()
    repeated, far_swapped = clean.copy(), clean.copy()
    repeated[j] = clean[i]
    far_swapped[[g.far, i]] = clean[[i, g.far]]
    for perp, key in ((repeated, "bijection"), (far_swapped, "far_point_image")):
        monkeypatch.setattr(g, "perp", perp)
        rep = suites.duality_suite(g)
        assert rep[key] is False and not passes("duality-suite", rep), key
    perp = clean.copy()
    perp[g.affine[:2]] = perp[g.affine[1::-1]]
    monkeypatch.setattr(g, "perp", perp)
    rep = suites.duality_suite(g)
    assert rep["chain_bijection"] is False and rep["bidual_fixed"] is False
    assert not passes("duality-suite", rep)
    # the first point whose bidual differs, the dual point perp gave it, what
    # came back, and the annihilator a fresh scan gives it
    first, other = sorted(g.affine[:2].tolist())
    assert rep["bidual_first_mismatch"] == {
        "point": g.points[first], "perp": g.dual.points[perp[first]],
        "bidual": g.points[other], "perp_rescanned": g.dual.points[perp[other]]}


def _flipped_alone(clean, rep, key, value):
    """True iff rep is clean with key set to value, no other entry changed,
    and rep fails the duality-suite task that clean passes."""
    rest = {k: v for k, v in rep.items() if k != key}
    return (rep[key] == value and not passes("duality-suite", rep)
            and passes("duality-suite", clean)
            and rest == {k: v for k, v in clean.items() if k != key})


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_dual_line_state_fails_bijection_and_far_point_image_alone(name, request, monkeypatch):
    """Negative controls of bijection and far_point_image alone, which no
    perp array gives (a perp unlike the oracle's moves some bidual, so
    bidual_fixed falls with them): once the clean suite has built every
    state it reads, a dual line with one point more than perp reaches
    fails bijection alone, and the dual far index moved to the next dual
    point fails far_point_image alone; each fails the task."""
    g = request.getfixturevalue(f"{name}_g")
    clean, d = suites.duality_suite(g), g.dual
    for attr, value, key in (("points", d.points + d.points[:1], "bijection"),
                             ("far", (d.far + 1) % len(d.points), "far_point_image")):
        with monkeypatch.context() as patched:
            patched.setattr(d, attr, value)
            assert _flipped_alone(clean, suites.duality_suite(g), key, False), key


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_chains_not_carried_fail_chain_bijection_alone(name, request, monkeypatch):
    """Negative control: with the chain check answering no, the suite's
    chain_bijection alone is false and the task fails."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.duality_suite(g)
    monkeypatch.setattr(suites, "carries", lambda perm, rows, onto: False)
    assert _flipped_alone(clean, suites.duality_suite(g), "chain_bijection", False)


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_moved_bidual_fails_bidual_fixed_alone(name, request, monkeypatch):
    """Negative control: with the bidual of one point moved to the next
    point, the suite's bidual_fixed alone is false, and the report names
    that point, the dual point perp gave it, and what bidual_point and a
    fresh perp scan give for it: the point itself and that dual point."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.duality_suite(g)
    real, i = suites.bidual_keys, 3

    def moved(R, keys):
        back = real(R, keys).copy()
        back[i] = back[i + 1]
        return back

    monkeypatch.setattr(suites, "bidual_keys", moved)
    rep = suites.duality_suite(g)
    q = g.dual.points[g.perp[i]]
    assert rep.pop("bidual_first_mismatch") == {
        "point": g.points[i], "perp": q, "bidual": g.points[i], "perp_rescanned": q}
    assert _flipped_alone(clean, rep, "bidual_fixed", False)


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_covariance_failures_fail_the_suite_alone(name, request, monkeypatch):
    """Negative control: with a nonzero covariance count, the suite reports
    that count, fails the task, and changes nothing else."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.duality_suite(g)
    monkeypatch.setattr(suites, "covariance_failures", lambda R, gens, pairs: 3)
    assert _flipped_alone(clean, suites.duality_suite(g), "covariance_failures", 3)


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_uncovered_point_fails_length2_covers_line(name, request, monkeypatch):
    """Negative control: with every length-2 word that spans one of the
    last two points sent to the far point instead, and the word sweep's
    points left as they are, the suite's length2_covers_line alone is
    false: the report names the first of the two and fails, and every
    other entry is as before; so at the default budget, with one length-2
    word per slab and with 97."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.duality_suite(g)
    assert clean["length2_covers_line"] is True and passes("duality-suite", clean)
    # the cost per word of the length-2 grid, the last slabs() of the suite
    item = slab_costs(lambda: suites.duality_suite(g), projline)[-1][1]
    real, last, far = suites.word_points, g.keys[-2:], g.keys[g.far]
    real_bidual, budget, swept = suites.bidual_keys, [], []

    def bidual(*args):  # after the word sweep, before the length-2 grid
        swept.append(True)
        monkeypatch.setattr(projline, "SCAN_SLAB", budget[0])
        return real_bidual(*args)

    def uncovering(R, letters):
        pts = real(R, letters)
        if swept:
            pts = np.where(np.isin(pts, last), far, pts)
        return pts

    monkeypatch.setattr(suites, "bidual_keys", bidual)
    monkeypatch.setattr(suites, "word_points", uncovering)
    default = projline.SCAN_SLAB
    for budget[:] in ([default], [item], [97 * item]):
        swept.clear()
        monkeypatch.setattr(projline, "SCAN_SLAB", default)
        rep = suites.duality_suite(g)
        assert not passes("duality-suite", rep), budget
        assert rep.pop("length2_covers_line") is False
        assert rep.pop("length2_first_uncovered") == g.points[-2], budget
        assert rep == {k: v for k, v in clean.items() if k != "length2_covers_line"}, budget


def test_word_length_bound_matches(zoo_g):
    # every point of the component has a word no longer than max{2, diameter}
    for geom in zoo_g:
        g = geom.graph
        words = point_words(geom.ring)
        for p in g.points:
            w = words.get(p)
            assert w is not None and len(w) <= max(2, g.diameter)
