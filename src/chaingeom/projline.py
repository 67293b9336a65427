"""The projective line over a finite ring and its distant graph.

Points are canonical admissible pairs (a, b): the index-lexicographically
least pair among the left unit multiples (u*a, u*b).  Matrices over the
ring are plain row-major 4-tuples (a, b, c, d) for [[a, b], [c, d]].

Point enumeration runs two independent methods, an orbit BFS from (1, 0)
under elementary and diagonal matrices and a full admissible-pair scan,
and treats disagreement as fatal: over exotic rings membership of R(x,y)
in the line does not force admissibility of (x, y), and the cross-check
guards the convention that points are represented by admissible pairs
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from chaingeom.rings import Ring

Point = tuple[int, int]
Matrix2 = tuple[int, int, int, int]


class NotAdmissibleError(ValueError):
    pass


class VerificationError(AssertionError):
    """An internal cross-check failed; raised explicitly, so python -O keeps it."""


class MethodDisagreementError(VerificationError):
    """Orbit enumeration and admissible-pair scan produced different point sets."""


# matrices ----------------------------------------------------------------

def mat_identity(R: Ring) -> Matrix2:
    return (R.one, R.zero, R.zero, R.one)


def mat_mul(R: Ring, M: Matrix2, N: Matrix2) -> Matrix2:
    add, mul = R._add_t, R._mul_t
    ma, mb, mc, md = mul[M[0]], mul[M[1]], mul[M[2]], mul[M[3]]
    e, f, g, h = N
    return (add[ma[e]][mb[g]], add[ma[f]][mb[h]],
            add[mc[e]][md[g]], add[mc[f]][md[h]])


def elementary(R: Ring, t: int) -> Matrix2:
    """The elementary matrix [[t, 1], [-1, 0]]."""
    return (t, R.one, R.neg(R.one), R.zero)


def row_times_mat(R: Ring, row: tuple[int, int], M: Matrix2) -> tuple[int, int]:
    add, mul = R._add_t, R._mul_t
    ma, mb = mul[row[0]], mul[row[1]]
    return add[ma[M[0]]][mb[M[2]]], add[ma[M[1]]][mb[M[3]]]


def mat_times_col(R: Ring, M: Matrix2, col: tuple[int, int]) -> tuple[int, int]:
    add, mul = R._add_t, R._mul_cols
    cv, cw = mul[col[0]], mul[col[1]]
    return add[cv[M[0]]][cw[M[1]]], add[cv[M[2]]][cw[M[3]]]


@cache
def _value_buckets(R: Ring, b: int) -> dict:
    """{value: [every y with b*y == value]}, built on first use per (ring, b)."""
    buckets: dict = {}
    for y, by in enumerate(R._mul_t[b]):
        buckets.setdefault(by, []).append(y)
    return buckets


def mat_invert(R: Ring, M: Matrix2) -> Optional[Matrix2]:
    """Two-sided inverse of M in GL2(R), or None.

    Solves M * (x, y)^T = e_1 and = e_2 column by column over R^2, indexing
    the operation tables directly: the products b*y are bucketed by value
    once per b, so each column solve is linear in |R|.  Raises
    VerificationError if the solution is only a one-sided inverse.
    """
    a, b, c, d = M
    add, mul, neg = R._add_t, R._mul_t, R._neg_t
    ma, mc, md = mul[a], mul[c], mul[d]
    buckets = _value_buckets(R, b)
    cols = []
    for e1, e2 in ((R.one, R.zero), (R.zero, R.one)):
        row1 = add[e1]
        found = None
        for x in R.elements():
            for y in buckets.get(row1[neg[ma[x]]], ()):
                if add[mc[x]][md[y]] == e2:
                    found = (x, y)
                    break
            if found:
                break
        if found is None:
            return None
        cols.append(found)
    N = (cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    # finite rings are Dedekind-finite, so the one-sided inverse is two-sided
    if mat_mul(R, N, M) != mat_identity(R):
        raise VerificationError(
            f"{R.name}: {N} is a right inverse of {M} but not a left inverse")
    return N


# admissibility and points --------------------------------------------------

def _unimodular(R: Ring, r: tuple[int, ...], s: tuple[int, ...]) -> bool:
    """True iff 1 = r[x] + s[y] for some x, y, given two product rows."""
    one_minus = R._add_t[R.one]
    neg = R._neg_t
    targets = set(s)
    return any(one_minus[neg[v]] in targets for v in set(r))


@cache
def is_admissible(R: Ring, a: int, b: int) -> bool:
    """True iff (a, b) extends to the first row of a matrix in GL2(R).

    One table test: 1 lies in aR + bR.  Over a ring of stable rank at most
    2, and every finite ring qualifies, unimodular rows are exactly the
    admissible ones; the tests keep the completion scan over mat_invert as
    the reference.  Results are cached per ring.
    """
    return _unimodular(R, R.left_products(a), R.left_products(b))


@cache
def is_column_admissible(R: Ring, v: int, w: int) -> bool:
    """True iff (v, w)^T extends to the first column of a matrix in GL2(R):
    the table test 1 in Rv + Rw, cached per ring."""
    return _unimodular(R, R.right_products(v), R.right_products(w))


def make_point(R: Ring, a: int, b: int) -> Point:
    """Canonical representative of R(a, b); raises NotAdmissibleError."""
    if not is_admissible(R, a, b):
        raise NotAdmissibleError(f"({a}, {b}) is not admissible over {R.name}")
    return R.canonical_pair_left(a, b)


def infinity(R: Ring) -> Point:
    """The point R(1, 0)."""
    return R.canonical_pair_left(R.one, R.zero)


def apply_matrix(R: Ring, p: Point, M: Matrix2) -> Point:
    """The point p * M, canonicalized."""
    return R.canonical_pair_left(*row_times_mat(R, p, M))


def line_generators(R: Ring) -> list[Matrix2]:
    """{E(t) : t in R} plus diag(u, 1) and diag(1, u) for units u."""
    gens = [elementary(R, t) for t in R.elements()]
    gens += [(u, R.zero, R.zero, R.one) for u in R.units]
    gens += [(R.one, R.zero, R.zero, u) for u in R.units]
    return gens


def _checked_orbit(R: Ring, start, act, scanned: set, what: str) -> tuple:
    """Sorted orbit of start under line_generators acting by act(R, x, M);
    raises MethodDisagreementError unless it equals the scanned set."""
    gens = line_generators(R)
    seen = {start}
    frontier = [start]
    while frontier:
        p = frontier.pop()
        for M in gens:
            q = act(R, p, M)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    if seen != scanned:
        raise MethodDisagreementError(
            f"{R.name}: orbit gives {len(seen)} {what}, scan gives {len(scanned)}")
    return tuple(sorted(seen))


@cache
def enumerate_points(R: Ring) -> tuple[Point, ...]:
    """All points, by orbit BFS cross-checked against the admissible scan."""
    scanned = {R.canonical_pair_left(a, b)
               for a in R.elements() for b in R.elements()
               if is_admissible(R, a, b)}
    return _checked_orbit(R, infinity(R), apply_matrix, scanned, "points")


def distant(R: Ring, p: Point, q: Point) -> bool:
    """True iff the stacked representatives form a matrix in GL2(R)."""
    return mat_invert(R, (p[0], p[1], q[0], q[1])) is not None


@dataclass
class DistantGraph:
    """Distant graph with components and the (shared) diameter."""

    ring: Ring
    points: tuple[Point, ...]
    index: dict
    adj: list[frozenset]
    component: list[int]
    n_components: int
    diameter: int
    dist_from_infinity: dict

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2


def _bfs(adj, src):
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


@cache
def distant_graph(R: Ring) -> DistantGraph:
    """Build the full graph; every component must share one diameter."""
    pts = enumerate_points(R)
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    adj_sets: list[set] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if distant(R, pts[i], pts[j]):
                adj_sets[i].add(j)
                adj_sets[j].add(i)
    adj = [frozenset(s) for s in adj_sets]
    component = [-1] * n
    diameters = []
    n_comp = 0
    for i in range(n):
        if component[i] != -1:
            continue
        dist = _bfs(adj, i)
        ecc = max(dist.values())
        for j in dist:
            component[j] = n_comp
        # diameter of the component: max over all sources inside it
        diam = ecc
        for j in dist:
            diam = max(diam, max(_bfs(adj, j).values()))
        diameters.append(diam)
        n_comp += 1
    if len(set(diameters)) != 1:
        raise VerificationError(f"{R.name}: components disagree on diameter: {diameters}")
    inf_idx = index[infinity(R)]
    dist_inf = _bfs(adj, inf_idx)
    return DistantGraph(
        ring=R,
        points=pts,
        index=index,
        adj=adj,
        component=component,
        n_components=n_comp,
        diameter=diameters[0],
        dist_from_infinity={pts[j]: d for j, d in dist_inf.items()},
    )


# elementary words ----------------------------------------------------------

def word_point(R: Ring, ts: tuple[int, ...]) -> Point:
    """The point spanned by (1, 0) * E(t_n) * ... * E(t_1)."""
    row = (R.one, R.zero)
    for t in reversed(ts):
        row = row_times_mat(R, row, elementary(R, t))
    return R.canonical_pair_left(*row)


@cache
def _word_table(R: Ring) -> dict:
    """Shortest elementary word for every reachable point, by a single BFS.

    The search stops one step past max{2, m} (m the graph diameter), which
    suffices for every point of the component of (1, 0).
    """
    bound = max(2, distant_graph(R).diameter) + 1
    layer = {infinity(R): ()}
    seen = dict(layer)
    for _ in range(bound):
        nxt = {}
        for q, w in layer.items():
            for t in R.elements():
                r = apply_matrix(R, q, elementary(R, t))
                if r not in seen:
                    word = (t,) + w
                    seen[r] = word
                    nxt[r] = word
        layer = nxt
        if not layer:
            break
    return seen


def point_word(R: Ring, p: Point) -> Optional[tuple[int, ...]]:
    """A shortest elementary word for p, or None outside the component of (1,0)."""
    return _word_table(R).get(p)


def point_permutation(R: Ring, M: Matrix2) -> dict:
    """The permutation p -> p*M of the whole point set."""
    return {p: apply_matrix(R, p, M) for p in enumerate_points(R)}
