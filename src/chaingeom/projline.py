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

import numpy as np

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

@cache
def _table_arrays(R: Ring) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The add, mul and neg tables as integer arrays, built on first use per ring."""
    return tuple(np.array(t, dtype=np.intp) for t in (R._add_t, R._mul_t, R._neg_t))


@cache
def _admissibility(R: Ring) -> tuple[tuple, tuple]:
    """(rows, cols) with rows[a][b] iff 1 in aR + bR and cols[v][w] iff
    1 in Rv + Rw, for all |R|^2 pairs, built on first use per ring.

    member[a, v] says v lies in aR.  The pair (a, b) is unimodular iff some
    v in aR has 1 - v in bR, so the whole row table is one boolean product
    member @ member[:, 1 - v].T; the column table is the same product over
    the memberships in Ra.
    """
    add, mul, neg = _table_arrays(R)
    n = R.size
    one_minus = add[R.one][neg]
    tables = []
    for products in (mul, mul.T):  # products[a] = (a*x) for rows, (x*a) for columns
        member = np.zeros((n, n), dtype=bool)
        member[np.arange(n)[:, None], products] = True
        tables.append(tuple(map(tuple, (member @ member[:, one_minus].T).tolist())))
    return tuple(tables)


def is_admissible(R: Ring, a: int, b: int) -> bool:
    """True iff (a, b) extends to the first row of a matrix in GL2(R).

    One table test: 1 lies in aR + bR.  Over a ring of stable rank at most
    2, and every finite ring qualifies, unimodular rows are exactly the
    admissible ones; the tests keep the completion scan over mat_invert as
    the reference.  Reads the admissibility table of the ring.
    """
    return _admissibility(R)[0][a][b]


def is_column_admissible(R: Ring, v: int, w: int) -> bool:
    """True iff (v, w)^T extends to the first column of a matrix in GL2(R):
    the table test 1 in Rv + Rw."""
    return _admissibility(R)[1][v][w]


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


def _checked_orbit(R: Ring, start, act, table: tuple, canonical, what: str) -> tuple:
    """Sorted orbit of start under line_generators acting by act(R, x, M);
    raises MethodDisagreementError unless it equals the scan of every
    admissible pair in table, canonicalized by canonical(a, b)."""
    scanned = {canonical(a, b) for a, row in enumerate(table)
               for b, ok in enumerate(row) if ok}
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
    return _checked_orbit(R, infinity(R), apply_matrix, _admissibility(R)[0],
                          R.canonical_pair_left, "points")


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


# leading zero bits of every byte value
_LEADING_ZEROS = np.array([8 - v.bit_length() for v in range(256)], dtype=np.intp)


def _first_bits(packed: np.ndarray) -> np.ndarray:
    """Index of the first set bit of every row of np.packbits output; each
    row must have one."""
    k = (packed != 0).argmax(axis=1)
    return 8 * k + _LEADING_ZEROS[packed[np.arange(len(packed)), k]]


def _distant_pairs(R: Ring, pts: tuple[Point, ...]) -> np.ndarray:
    """Adjacency of the distant relation: mat_invert's column solve for every
    pair of points at once.

    For p = (a, b), ones[p] and zeros[p] pack the columns (x, y) in
    x-major order with a*x + b*y = 1 and = 0.  The stacked matrix (p; q) has
    a right inverse iff ones[p] & zeros[q] and zeros[p] & ones[q] both have a
    set bit, and the first ones are the columns mat_invert finds.  Their
    left-inverse check runs for every distant pair together and raises the
    same VerificationError as mat_invert.
    """
    add, mul, _ = _table_arrays(R)
    size = R.size
    sums = add.astype(np.uint8).ravel()  # sums[u * size + v] = u + v
    ones, zeros = [], []
    for a, b in pts:
        vals = sums[(mul[a] * size)[:, None] + mul[b]]
        ones.append(np.packbits(vals == R.one))
        zeros.append(np.packbits(vals == R.zero))
    ones, zeros = np.array(ones), np.array(zeros)
    n = len(pts)
    adj = np.zeros((n, n), dtype=bool)
    solved = []  # per row i, the first column of each solve for every distant j > i
    for i in range(n - 1):
        oz, zo = ones[i] & zeros[i + 1:], zeros[i] & ones[i + 1:]
        js = np.flatnonzero(oz.any(axis=1) & zo.any(axis=1))
        adj[i, i + 1 + js] = True
        solved.append((_first_bits(oz[js]), _first_bits(zo[js])))
    i, j = np.nonzero(adj)  # row-major, the order of solved
    c1, c2 = (np.concatenate(part) for part in zip(*solved))
    x1, y1 = np.divmod(c1, size)
    x2, y2 = np.divmod(c2, size)
    P = np.array(pts, dtype=np.intp)
    a, b, c, d = P[i, 0], P[i, 1], P[j, 0], P[j, 1]
    # N * M for N = [[x1, x2], [y1, y2]] and M = [[a, b], [c, d]], entrywise
    NM = (add[mul[x1, a], mul[x2, c]], add[mul[x1, b], mul[x2, d]],
          add[mul[y1, a], mul[y2, c]], add[mul[y1, b], mul[y2, d]])
    left = np.all([e == want for e, want in zip(NM, mat_identity(R))], axis=0)
    if not left.all():
        k = int(np.argmin(left))
        N = tuple(int(v[k]) for v in (x1, x2, y1, y2))
        M = tuple(int(v[k]) for v in (a, b, c, d))
        raise VerificationError(
            f"{R.name}: {N} is a right inverse of {M} but not a left inverse")
    return adj | adj.T


def _bfs_levels(adj: np.ndarray, src: int) -> tuple[list[int], list[int], np.ndarray]:
    """Breadth-first search from every vertex at once, by boolean products.

    After step k, reach[v] holds the vertices within distance k of v; the
    eccentricity of v is the last step that grew its row.  Returns the
    component of every vertex (numbered in order of least member), the
    diameter of every component, and the distance from src (-1 if
    unreachable).
    """
    reach = np.eye(len(adj), dtype=bool)
    ecc = np.zeros(len(adj), dtype=np.intp)
    dist = np.where(reach[src], 0, -1)
    step = 0
    while True:
        nxt = reach | (reach @ adj)
        grew = (nxt != reach).any(axis=1)
        if not grew.any():
            break
        step += 1
        ecc[grew] = step
        dist[nxt[src] & ~reach[src]] = step
        reach = nxt
    roots, component = np.unique(reach.argmax(axis=1), return_inverse=True)
    diameters = [int(ecc[component == c].max()) for c in range(len(roots))]
    return component.tolist(), diameters, dist


@cache
def distant_graph(R: Ring) -> DistantGraph:
    """Build the full graph; every component must share one diameter."""
    pts = enumerate_points(R)
    index = {p: i for i, p in enumerate(pts)}
    adj = _distant_pairs(R, pts)
    component, diameters, dist = _bfs_levels(adj, index[infinity(R)])
    if len(set(diameters)) != 1:
        raise VerificationError(f"{R.name}: components disagree on diameter: {diameters}")
    return DistantGraph(
        ring=R,
        points=pts,
        index=index,
        adj=[frozenset(np.flatnonzero(row).tolist()) for row in adj],
        component=component,
        n_components=len(diameters),
        diameter=diameters[0],
        dist_from_infinity={pts[j]: int(dist[j]) for j in np.flatnonzero(dist >= 0)},
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
