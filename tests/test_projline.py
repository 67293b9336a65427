import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaingeom import projline
from chaingeom.duality import PerpNotCyclicError
from chaingeom.projline import (
    MethodDisagreementError,
    NotAdmissibleError,
    OrbitCapExceededError,
    VerificationError,
    _bfs_levels,
    carries,
    distant_graph,
    elementary,
    enumerate_points,
    index_of,
    infinity,
    is_admissible,
    line_generators,
    make_point,
    mat_identity,
    mat_inverses,
    orbit,
    slabs,
    sorted_rows,
    word_point,
)

from chaingeom.rings import FiniteFieldRing

from reference import (
    corrupt,
    distant,
    invertible_completions,
    is_column_admissible,
    line_perms,
    mat_mul,
    mat_times_col,
    point_words,
    row_times_mat,
)
import reference


def mat_invert(R, M):
    """The one-matrix call of mat_inverses, as a tuple or None, checked
    against the reference's scalar column solve."""
    got = mat_inverses(R, [M])[0].tolist()
    got = None if got[0] < 0 else tuple(got)
    assert got == reference.mat_invert(R, M), (R.name, M)
    return got


def test_mat_invert_identity(f4):
    I = mat_identity(f4)
    assert mat_invert(f4, I) == I


@pytest.mark.parametrize("ring_name", ["f4", "dual2", "m2f2", "m2f3"])
def test_mat_invert_elementary(ring_name, request):
    # E(t)^-1 = [[0, -1], [1, t]] for every t
    R = request.getfixturevalue(ring_name)
    for t in R.elements():
        want = (R.zero, R.neg(R.one), R.one, t)
        assert mat_invert(R, elementary(R, t)) == want


def test_mat_invert_absent(dual2):
    # diag(1, e) has a nilpotent row that cannot be completed
    assert mat_invert(dual2, (1, 0, 0, 2)) is None


def scalar_inverses(R, mats):
    """The reference's scalar mat_invert of every matrix, in mat_inverses'
    format: a row of four entries, or of -1 where there is no inverse."""
    return np.array([reference.mat_invert(R, M) or (-1,) * 4 for M in mats]).reshape(-1, 4)


def test_mat_inverses_match_the_scalar_solve_on_small_rings(small_rings):
    """One mat_inverses call over all |R|^4 matrices gives the scalar column
    solve's inverse, or its none, on every ring of at most 16 elements and
    the opposites of the noncommutative ones; the inverses of the inverses
    are the matrices."""
    for R in small_rings:
        mats = np.array(list(itertools.product(R.elements(), repeat=4)))
        got = mat_inverses(R, mats)
        assert np.array_equal(got, scalar_inverses(R, mats)), R.name
        has = got[:, 0] >= 0
        assert np.array_equal(mat_inverses(R, got[has]), mats[has]), R.name


def test_mat_inverses_match_the_scalar_solve_m2f3(m2f3):
    """On matrix2(3) and its opposite: every line generator, and a seeded
    draw of 3,000 matrices, many with a row that is not admissible."""
    rng = np.random.default_rng(18)
    drawn = rng.integers(0, m2f3.size, (3000, 4))
    for R in (m2f3, m2f3.opposite):
        gens = line_generators(R)
        assert np.array_equal(mat_inverses(R, gens), scalar_inverses(R, gens)), R.name
        got = mat_inverses(R, drawn)
        assert np.array_equal(got, scalar_inverses(R, drawn.tolist())), R.name
        rows_ok = R._rows_ok[drawn[:, 0], drawn[:, 1]] & R._rows_ok[drawn[:, 2], drawn[:, 3]]
        assert 0 < (got[:, 0] >= 0).sum() < rows_ok.sum() < len(drawn)


def test_mat_inverses_of_nothing(f4):
    assert mat_inverses(f4, []).shape == (0, 4)


def test_mat_invert_generic_matches_elimination(m2f2, m2f3):
    # spot-check the column solve against explicit multiplication, both ways
    for R, mats in ((m2f2, [elementary(m2f2, 5), (6, 0, 0, 9), (9, 11, 0, 7)]),
                    (m2f3, [elementary(m2f3, 50), (28, 0, 0, 43), (40, 13, 0, 71),
                            (3, 9, 9, 4)])):
        i = mat_identity(R)
        for M in mats:
            N = mat_invert(R, M)
            if N is not None:
                assert mat_mul(R, M, N) == i
                assert mat_mul(R, N, M) == i
    # entries that are all non-units can still form an invertible matrix
    assert mat_invert(m2f3, (3, 9, 9, 4)) is not None
    # equal rows never complete to an invertible matrix
    assert mat_invert(m2f3, (40, 13, 40, 13)) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(0, 80)] * 4), st.tuples(*[st.integers(0, 80)] * 4),
       st.booleans())
def test_matrix_helpers_match_ring_methods_m2f3(m2f3, M, N, opposite):
    # the table-indexed helpers agree with products spelled out via R.add/R.mul
    R = m2f3.opposite if opposite else m2f3
    a, b, c, d = M
    e, f, g, h = N
    dot = lambda x, y, z, w: R.add(R.mul(x, y), R.mul(z, w))
    assert mat_mul(R, M, N) == (dot(a, e, b, g), dot(a, f, b, h),
                                dot(c, e, d, g), dot(c, f, d, h))
    assert row_times_mat(R, (e, f), M) == (dot(e, a, f, c), dot(e, b, f, d))
    assert mat_times_col(R, M, (e, f)) == (dot(a, e, b, f), dot(c, e, d, f))


def test_verification_errors_are_assertion_errors():
    for exc in (VerificationError, MethodDisagreementError, PerpNotCyclicError):
        assert issubclass(exc, VerificationError) and issubclass(exc, AssertionError)


CORRUPT_F4_INVERT = """
import itertools, sys
from chaingeom.projline import VerificationError, mat_inverses
from chaingeom.rings import FiniteFieldRing, RingSpec
assert not __debug__, "expected to run under python -O"
R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
mul = R._mul_a.copy(); mul[2, 1] = 0
R._mul_a = mul; R._fill_arrays()
try:
    mat_inverses(R, list(itertools.product(R.elements(), repeat=4)))
except VerificationError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.optimized(CORRUPT_F4_INVERT)
def test_mat_invert_two_sided_check_raises_under_optimize(run_optimized):
    """The two-sided inverse check must not depend on assert, which python -O
    strips: with one corrupted product, some right inverse is not a left one."""
    proc = run_optimized(CORRUPT_F4_INVERT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "is a right inverse of" in proc.stdout and "not a left inverse" in proc.stdout


def test_is_admissible_basics(f4, dual2):
    assert is_admissible(f4, f4.one, f4.zero)
    assert not is_admissible(dual2, 2, 2)  # (e, e) has no completion
    for R in (f4, dual2):
        for t in R.elements():  # first row of E(t)
            assert is_admissible(R, t, R.one)


def test_admissible_rank_path_matches_completion_scan(small_rings):
    """The unimodularity table tests agree with the completion scan over
    the reference's scalar mat_invert, for rows and for columns, on every
    ring of at most 16 elements; so does the array completion scan."""
    for R in small_rings:
        els = R.elements()
        for a in els:
            for b in els:
                rows = any(reference.mat_invert(R, (a, b, c, d)) is not None
                           for c in els for d in els)
                assert is_admissible(R, a, b) == rows, (R.name, a, b)
                assert invertible_completions(R, a, b, "row").any() == rows
                cols = any(reference.mat_invert(R, (a, x, b, y)) is not None
                           for x in els for y in els)
                assert is_column_admissible(R, a, b) == cols, (R.name, a, b)
                assert invertible_completions(R, a, b, "column").any() == cols


def test_make_point_unit_invariance_small(small_zoo):
    for R, _ in small_zoo:
        for a in R.elements():
            for b in R.elements():
                if not is_admissible(R, a, b):
                    continue
                p = make_point(R, a, b)
                for u in R.units:
                    assert make_point(R, R.mul(u, a), R.mul(u, b)) == p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 80), st.integers(0, 80))
@example(0, 0)
@example(1, 9)  # E11, E21: a row but not a column
@example(1, 3)  # E11, E12: a column but not a row
def test_admissibility_table_matches_completion_scan_m2f3(m2f3, a, b):
    """The table tests agree with the completion scan for rows and columns
    of the 81-element ring: all 6,561 completions of (a, b) at once, by
    the column solves of mat_invert over the operation tables."""
    assert is_admissible(m2f3, a, b) == invertible_completions(m2f3, a, b, "row").any()
    assert (is_column_admissible(m2f3, a, b)
            == invertible_completions(m2f3, a, b, "column").any())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 47))
def test_make_point_unit_invariance_m2f3(m2f3, a, b, ui):
    if not is_admissible(m2f3, a, b):
        return
    u = m2f3.units[ui]
    assert make_point(m2f3, a, b) == make_point(m2f3, m2f3.mul(u, a), m2f3.mul(u, b))


def test_make_point_examples(f4, dual2):
    # unit multiples of (1, 0) collapse
    for u in f4.units:
        assert make_point(f4, u, 0) == make_point(f4, 1, 0)
    assert make_point(f4, 2, 2) == make_point(f4, 1, 1)
    # (1+e, e) ~ (1, e(1+e)) = (1, e)
    assert make_point(dual2, 3, 2) == make_point(dual2, 1, 2)
    with pytest.raises(NotAdmissibleError):
        make_point(dual2, 2, 2)


def test_point_counts(zoo_g):
    # 5 = q+1 over F4; 6 = |R| + |max ideal| over F2[e]; 9 = 3*3 over F2xF2;
    # 35 and 130 = lines of PG(3,2) and PG(3,3)
    want = {"finite-field(4)": 5, "dual-numbers(2)": 6, "product(2,2)": 9,
            "matrix2(2)": 35, "matrix2(3)": 130}
    for g in zoo_g:
        assert len(g.points) == want[g.ring.name]


def test_distant_basics(f4, dual2):
    p0 = make_point(f4, 0, 1)
    p_inf = make_point(f4, 1, 0)
    assert distant(f4, p0, p_inf)
    assert not distant(f4, p0, p0)
    # over F2[e]: R(0,1) and R(e,1) differ by a non-unit
    assert not distant(dual2, make_point(dual2, 0, 1), make_point(dual2, 2, 1))


def test_distant_symmetric_irreflexive(small_zoo_g):
    for g in small_zoo_g:
        R, pts = g.ring, g.points
        for p in pts:
            assert not distant(R, p, p)
            for q in pts:
                assert distant(R, p, q) == distant(R, q, p)


def test_distant_gl_invariant(zoo_g):
    """Every line generator, as a row of the permutation table, is an
    automorphism of the distant graph."""
    for geom in zoo_g:
        g = geom.graph
        for perm in line_perms(geom).tolist():
            for i in range(len(g.points)):
                assert g.adj[perm[i]] == frozenset(perm[j] for j in g.adj[i])


def _pairwise_adjacency(R, pts, pairs):
    return {(i, j): distant(R, pts[i], pts[j]) for i, j in pairs}


def test_kernel_adjacency_matches_pairwise_distant_small(small_rings):
    """The bitset GL2 test agrees with mat_invert on every ordered pair of
    points, on every ring of at most 16 elements and both opposites."""
    for R in small_rings:
        g = distant_graph(R, enumerate_points(R))
        n = len(g.points)
        want = _pairwise_adjacency(R, g.points, [(i, j) for i in range(n) for j in range(n)])
        assert {(i, j): j in g.adj[i] for i in range(n) for j in range(n)} == want, R.name


def test_kernel_adjacency_matches_pairwise_distant_m2f3(m2f3, m2f3_g):
    g = m2f3_g.graph
    n = len(g.points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert len(pairs) == 8385
    want = _pairwise_adjacency(m2f3, g.points, pairs)
    assert {(i, j): j in g.adj[i] for i, j in pairs} == want
    assert all(i not in g.adj[i] for i in range(n))
    assert g.n_edges == sum(want.values())


def reference_bfs(adj, src):
    """Plain breadth-first search, the loop the boolean-product levels
    replaced: {vertex: distance} for every vertex reachable from src."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reference_levels(adj, src):
    """(component per vertex numbered by least member, diameter per
    component, distances from src) from one plain BFS per vertex."""
    n = len(adj)
    runs = [reference_bfs(adj, v) for v in range(n)]
    roots = sorted({min(run) for run in runs})
    component = [roots.index(min(runs[v])) for v in range(n)]
    diameters = [max(max(runs[v].values()) for v in range(n) if component[v] == c)
                 for c in range(len(roots))]
    return component, diameters, runs[src]


def test_graph_levels_match_reference_bfs(zoo_g, small_rings):
    """Components, diameter and distances from R(1, 0) agree with one plain
    BFS per point, on every zoo ring and every ring of at most 16 elements."""
    graphs = [g.graph for g in zoo_g] + [distant_graph(R, enumerate_points(R))
                                        for R in small_rings]
    for g in graphs:
        R = g.ring
        component, diameters, dist = reference_levels(g.adj, g.points.index(infinity(R)))
        assert g.component == component, R.name
        assert g.n_components == len(diameters) and {g.diameter} == set(diameters), R.name
        assert g.dist_from_infinity == {g.points[j]: d for j, d in dist.items()}, R.name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    st.integers(0, n - 1), st.just(n))))
def test_bfs_levels_match_reference_on_any_graph(graph):
    """The boolean-product levels on arbitrary undirected graphs, most of
    them disconnected, against the plain BFS reference."""
    edges, src, n = graph
    adj = [set() for _ in range(n)]
    matrix = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
            matrix[i, j] = matrix[j, i] = True
    component, diameters, dist = _bfs_levels(matrix, src)
    want_component, want_diameters, want_dist = reference_levels(adj, src)
    assert (component, diameters) == (want_component, want_diameters)
    assert {j: int(d) for j, d in enumerate(dist) if d >= 0} == want_dist
    assert all(d == -1 for j, d in enumerate(dist) if j not in want_dist)


CORRUPT_F4_GRAPH = """
import sys
from chaingeom.projline import VerificationError, distant_graph, enumerate_points
from chaingeom.rings import FiniteFieldRing, RingSpec
assert not __debug__, "expected to run under python -O"
R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
mul = R._mul_a.copy(); mul[2, 1] = 0
R._mul_a = mul; R._fill_arrays()
try:
    distant_graph(R, enumerate_points(R))
except VerificationError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.optimized(CORRUPT_F4_GRAPH)
def test_distant_graph_left_inverse_check_raises_under_optimize(run_optimized):
    """The batched left-inverse check of the distant-graph kernel fails, as
    mat_invert's does, on F4 with one corrupted product, under python -O."""
    proc = run_optimized(CORRUPT_F4_GRAPH)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(0, 1, 1, 0) is a right inverse of (0, 1, 1, 2) but not a left inverse" \
        in proc.stdout


def pairwise_distant(R, pts):
    """The distant adjacency from one scalar mat_invert per pair i < j, in
    row-major order, or the message of the first VerificationError."""
    adj = np.zeros((len(pts), len(pts)), dtype=bool)
    for i, j in itertools.combinations(range(len(pts)), 2):
        try:
            adj[i, j] = reference.mat_invert(R, pts[i] + pts[j]) is not None
        except VerificationError as exc:
            return str(exc)
    return adj | adj.T


def graph_adjacency(R, pts):
    """The adjacency of distant_graph on the points pts, as a boolean matrix."""
    adj = distant_graph(R, pts).adj
    return np.array([[j in row for j in range(len(pts))] for row in adj])


def test_distant_kernel_under_every_corrupted_f4_product(f4):
    """Every single corrupted product of F4, on the clean ring's points: the
    batched kernel gives mat_invert's adjacency, raises its left-inverse
    error at the same first pair, or raises for a solution set of another
    size than |R|.  Each outcome occurs."""
    pts = enumerate_points(f4)
    seen = set()
    for a, b, value in itertools.product(range(4), repeat=3):
        if value == f4.mul(a, b):
            continue
        R = corrupt(FiniteFieldRing(f4.spec), "mul", (a, b), value)
        want = pairwise_distant(R, pts)
        try:
            got = graph_adjacency(R, pts)
        except VerificationError as exc:
            got = str(exc)
        if isinstance(got, str) and "solutions, not" in got:
            seen.add("size")
        elif isinstance(want, str):
            seen.add("left inverse")
            assert got == want, (a, b, value)
        else:
            seen.add("adjacency")
            assert np.array_equal(got, want), (a, b, value)
    assert seen == {"size", "left inverse", "adjacency"}


def test_graph_f4_complete(f4_g):
    g = f4_g.graph
    assert len(g.points) == 5 and g.n_edges == 10
    assert g.diameter == 1 and g.n_components == 1


def test_graph_dual2_octahedron(dual2_g):
    g = dual2_g.graph
    assert len(g.points) == 6 and g.n_edges == 12
    assert g.diameter == 2 and g.n_components == 1
    # octahedron: every vertex misses exactly one other
    for i in range(6):
        assert len(g.adj[i]) == 4


def test_graph_m2f2(m2f2_g):
    g = m2f2_g.graph
    assert len(g.points) == 35 and g.n_components == 1 and g.diameter == 2


def test_graph_m2f3(m2f3_g):
    g = m2f3_g.graph
    assert len(g.points) == 130 and g.n_components == 1 and g.diameter == 2


def test_graph_prod22(prod22_g):
    g = prod22_g.graph
    assert len(g.points) == 9 and g.n_components == 1 and g.diameter == 2
    for i in range(9):
        assert len(g.adj[i]) == 4


def test_word_point_basics(f4, dual2, m2f2):
    for R in (f4, dual2, m2f2):
        assert word_point(R, ()) == infinity(R)
        for t in R.elements():
            assert word_point(R, (t,)) == make_point(R, t, R.one)
        for t1 in R.elements():
            for t2 in R.elements():
                want = make_point(R, R.sub(R.mul(t2, t1), R.one), t2)
                assert word_point(R, (t1, t2)) == want


def test_word_all_zero_even_collapses(f4, m2f2):
    # E(0)^2 = -I, so even all-zero words span R(1, 0) again
    for R in (f4, m2f2):
        for n in (2, 4, 6):
            assert word_point(R, (R.zero,) * n) == infinity(R)


def test_point_word_lengths_match_graph_distance(zoo_g):
    for geom in zoo_g:
        R, g = geom.ring, geom.graph
        bound = max(2, g.diameter)
        words = point_words(R)
        for p in g.points:
            w = words.get(p)
            if p in g.dist_from_infinity:
                assert w is not None and len(w) <= bound
                assert len(w) == g.dist_from_infinity[p]
                assert word_point(R, w) == p
            else:
                assert w is None


def test_point_word_examples(f4, dual2):
    words = point_words(f4)
    assert words[infinity(f4)] == ()
    for t in f4.elements():
        assert words[make_point(f4, t, 1)] == (t,)
    # R(1, e) is distance 2 from infinity over F2[e]
    w = point_words(dual2).get(make_point(dual2, 1, 2))
    assert w is not None and len(w) == 2


def test_index_of_refuses_a_key_outside_the_set(zoo_g):
    """index_of gathers from a table over 0..keys[-1] + 1: a negative key
    would wrap around to a table entry, so -1 and -2 must raise as well,
    also where 0 is a key.  A 2-D wanted, as the permutation tables pass,
    keeps its shape, and on every zoo Line and its dual the positions are
    searchsorted's."""
    keys = np.array([1, 3, 5])
    assert index_of(keys, [5, 1, 3]).tolist() == [2, 0, 1]
    assert index_of(keys, [[5, 1], [3, 3]]).tolist() == [[2, 0], [1, 1]]
    for known, wanted in ((keys, [3, 4]), (keys, [6]), (keys, [0]), (keys, [-1]),
                          (keys, [-2]), (keys, [[1, 3], [5, 7]]), (np.array([0, 2]), [-1])):
        with pytest.raises(VerificationError, match="left the indexed set"):
            index_of(known, wanted)
    for line in [line for g in zoo_g for line in (g, g.dual)]:
        wanted = line.keys[line.perms]
        assert np.array_equal(index_of(line.keys, wanted),
                              np.searchsorted(line.keys, wanted))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 60))
def test_slabs_cover_the_items_within_the_budget(costs, budget):
    """slabs, with SCAN_SLAB patched after import, covers every item once
    and in order.  A slab goes over the budget only as a single item, an
    item that costs more than the budget has a slab of its own, and the
    next item would not fit into the slab before it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projline, "SCAN_SLAB", budget)
        parts = list(slabs(np.array(costs, dtype=np.intp)))
    assert [i for part in parts for i in range(len(costs))[part]] == list(range(len(costs)))
    for part in parts:
        assert sum(costs[part]) <= budget or part.stop - part.start == 1
    for i, cost in enumerate(costs):
        assert cost <= budget or slice(i, i + 1) in parts
    for part, after in zip(parts, parts[1:]):
        assert sum(costs[part]) + costs[after.start] > budget


def test_slabs_of_nothing_and_at_the_default_budget(monkeypatch):
    """The slices at a budget of 2^16 bytes, patched, and at the default:
    an item over the budget alone, one at the budget alone, and the rest
    packed up to it."""
    assert list(slabs(np.array([], dtype=np.intp))) == []
    assert projline.SCAN_SLAB == 7 << 16
    assert list(slabs(np.full(20, 1 << 16))) == [slice(0, 7), slice(7, 14), slice(14, 20)]
    assert list(slabs([1 << 19, 1, 7 << 16])) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    monkeypatch.setattr(projline, "SCAN_SLAB", 1 << 16)
    assert list(slabs(np.full(20, 6561))) == [slice(0, 9), slice(9, 18), slice(18, 20)]
    assert list(slabs([1 << 17, 1, 1 << 16])) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def reference_orbit(seeds, perms):
    """Plain BFS over frozensets, the loop the frontier-batched engine
    replaced: the orbit of the seed sets under the permutations."""
    seen = {frozenset(s) for s in seeds}
    frontier = list(seen)
    while frontier:
        S = frontier.pop()
        for perm in perms:
            T = frozenset(perm[i] for i in S)
            if T not in seen:
                seen.add(T)
                frontier.append(T)
    return seen


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_orbit_matches_reference_bfs(data):
    """The engine on stacks of permutations of up to 12 symbols, rows of
    width 1 to 3, with and without a cap: the same orbit as the plain BFS,
    each member once as a sorted row, and the cap error exactly when the
    orbit has more than cap members."""
    n = data.draw(st.integers(1, 12))
    width = data.draw(st.integers(1, min(3, n)))
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    seeds = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=width,
                                        max_size=width, unique=True),
                               min_size=1, max_size=3))
    cap = data.draw(st.none() | st.integers(1, 40))
    want = reference_orbit(seeds, perms)
    if cap is not None and len(want) > cap:
        with pytest.raises(OrbitCapExceededError):
            orbit(seeds, np.array(perms), cap)
        return
    rows = orbit(seeds, np.array(perms), cap).tolist()
    assert all(row == sorted(row) for row in rows)
    assert rows == sorted(rows)
    assert len(rows) == len(want)
    assert set(map(frozenset, rows)) == want


def set_rows(sets) -> np.ndarray:
    return sorted_rows([sorted(S) for S in sets])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_carries_decides_as_the_set_images_do(data):
    """carries(perm, rows, onto) holds iff the images of the index sets
    under perm are exactly the sets of onto, with onto the image set itself
    or another set of index sets of the same width."""
    n = data.draw(st.integers(2, 8))
    width = data.draw(st.integers(1, min(3, n - 1)))
    subsets = st.frozensets(st.integers(0, n - 1), min_size=width, max_size=width)
    perm = np.array(data.draw(st.permutations(range(n))))
    sets = data.draw(st.sets(subsets, min_size=1, max_size=6))
    image = {frozenset(perm[i] for i in S) for S in sets}
    onto = data.draw(st.sampled_from([image]) | st.sets(subsets, min_size=1, max_size=6))
    assert carries(perm, set_rows(sets), set_rows(onto)) == (image == onto)
