import pytest
from hypothesis import given, settings, strategies as st

from chaingeom.duality import PerpNotCyclicError
from chaingeom.projline import (
    MethodDisagreementError,
    NotAdmissibleError,
    VerificationError,
    apply_matrix,
    distant,
    distant_graph,
    elementary,
    enumerate_points,
    infinity,
    is_admissible,
    is_column_admissible,
    line_generators,
    make_point,
    mat_identity,
    mat_invert,
    mat_mul,
    mat_times_col,
    point_permutation,
    point_word,
    row_times_mat,
    word_point,
)


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
    R = m2f3.opposite() if opposite else m2f3
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
from chaingeom.projline import VerificationError, mat_invert
from chaingeom.rings import FiniteFieldRing, RingSpec
assert not __debug__, "expected to run under python -O"
R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
rows = [list(row) for row in R._mul_t]
rows[2][1] = 0
R._mul_t = tuple(map(tuple, rows))
try:
    for M in itertools.product(R.elements(), repeat=4):
        mat_invert(R, M)
except VerificationError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


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
    mat_invert, for rows and for columns, on every ring of at most 16
    elements."""
    for R in small_rings:
        els = R.elements()
        for a in els:
            for b in els:
                rows = any(mat_invert(R, (a, b, c, d)) is not None
                           for c in els for d in els)
                assert is_admissible(R, a, b) == rows, (R.name, a, b)
                cols = any(mat_invert(R, (a, x, b, y)) is not None
                           for x in els for y in els)
                assert is_column_admissible(R, a, b) == cols, (R.name, a, b)


def test_make_point_unit_invariance_small(small_zoo):
    for R, _ in small_zoo:
        for a in R.elements():
            for b in R.elements():
                if not is_admissible(R, a, b):
                    continue
                p = make_point(R, a, b)
                for u in R.units:
                    assert make_point(R, R.mul(u, a), R.mul(u, b)) == p


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


def test_point_counts(zoo):
    # 5 = q+1 over F4; 6 = |R| + |max ideal| over F2[e]; 9 = 3*3 over F2xF2;
    # 35 and 130 = lines of PG(3,2) and PG(3,3)
    want = {"finite-field(4)": 5, "dual-numbers(2)": 6, "product(2,2)": 9,
            "matrix2(2)": 35, "matrix2(3)": 130}
    for R, _ in zoo:
        assert len(enumerate_points(R)) == want[R.name]


def test_distant_basics(f4, dual2):
    p0 = make_point(f4, 0, 1)
    p_inf = make_point(f4, 1, 0)
    assert distant(f4, p0, p_inf)
    assert not distant(f4, p0, p0)
    # over F2[e]: R(0,1) and R(e,1) differ by a non-unit
    assert not distant(dual2, make_point(dual2, 0, 1), make_point(dual2, 2, 1))


def test_distant_symmetric_irreflexive(small_zoo):
    for R, _ in small_zoo:
        pts = enumerate_points(R)
        for p in pts:
            assert not distant(R, p, p)
            for q in pts:
                assert distant(R, p, q) == distant(R, q, p)


def test_distant_gl_invariant(zoo):
    for R, _ in zoo:
        g = distant_graph(R)
        for M in line_generators(R):
            perm = point_permutation(R, M)
            iperm = [g.index[perm[p]] for p in g.points]
            for i in range(len(g.points)):
                assert g.adj[iperm[i]] == frozenset(iperm[j] for j in g.adj[i])


def test_graph_f4_complete(f4):
    g = distant_graph(f4)
    assert len(g.points) == 5 and g.n_edges == 10
    assert g.diameter == 1 and g.n_components == 1


def test_graph_dual2_octahedron(dual2):
    g = distant_graph(dual2)
    assert len(g.points) == 6 and g.n_edges == 12
    assert g.diameter == 2 and g.n_components == 1
    # octahedron: every vertex misses exactly one other
    for i in range(6):
        assert len(g.adj[i]) == 4


def test_graph_m2f2(m2f2):
    g = distant_graph(m2f2)
    assert len(g.points) == 35 and g.n_components == 1 and g.diameter == 2


def test_graph_m2f3(m2f3):
    g = distant_graph(m2f3)
    assert len(g.points) == 130 and g.n_components == 1 and g.diameter == 2


def test_graph_prod22(prod22):
    g = distant_graph(prod22)
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


def test_point_word_lengths_match_graph_distance(zoo):
    for R, _ in zoo:
        g = distant_graph(R)
        bound = max(2, g.diameter)
        for p in g.points:
            w = point_word(R, p)
            if p in g.dist_from_infinity:
                assert w is not None and len(w) <= bound
                assert len(w) == g.dist_from_infinity[p]
                assert word_point(R, w) == p
            else:
                assert w is None


def test_point_word_examples(f4, dual2):
    assert point_word(f4, infinity(f4)) == ()
    for t in f4.elements():
        assert point_word(f4, make_point(f4, t, 1)) == (t,)
    # R(1, e) is distance 2 from infinity over F2[e]
    w = point_word(dual2, make_point(dual2, 1, 2))
    assert w is not None and len(w) == 2
