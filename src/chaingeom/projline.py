"""The projective line over a finite ring and its distant graph.

Points are canonical admissible pairs (a, b): the index-lexicographically
least pair among the left unit multiples (u*a, u*b).  Matrices over the
ring are plain row-major 4-tuples (a, b, c, d) for [[a, b], [c, d]].

Point enumeration runs two independent methods, an orbit from (1, 0)
under a generating set of GL2(R) and a full admissible-pair scan,
and treats disagreement as fatal: over exotic rings membership of R(x,y)
in the line does not force admissibility of (x, y), and the cross-check
guards the convention that points are represented by admissible pairs
only.

Every orbit of the package comes from one engine, `orbit`, over
permutation tables: here of canonical pairs, elsewhere of points, dual
points and ring elements.  Orbits under GL2(R) apply its generating set
orbit_generators (9 matrices on both matrix2 rings); line_generators is
the whole E(t) and diagonal family, which the covariance sweep checks one
matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from chaingeom.rings import Ring, additive_generators, unit_generators

Point = tuple[int, int]
Matrix2 = tuple[int, int, int, int]


class NotAdmissibleError(ValueError):
    pass


class VerificationError(AssertionError):
    """An internal cross-check failed; raised explicitly, so python -O keeps it."""


class MethodDisagreementError(VerificationError):
    """Orbit enumeration and admissible-pair scan produced different point sets."""


class OrbitCapExceededError(RuntimeError):
    pass


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


def mat_invert(R: Ring, M: Matrix2) -> Optional[Matrix2]:
    """Two-sided inverse of M in GL2(R), or None.

    Solves M * (x, y)^T = e_1 and = e_2 column by column over R^2, indexing
    the operation tables directly: the products b*y are bucketed by value
    first, so each column solve is linear in |R|.  Raises
    VerificationError if the solution is only a one-sided inverse.
    """
    a, b, c, d = M
    add, mul, neg = R._add_t, R._mul_t, R._neg_t
    ma, mc, md = mul[a], mul[c], mul[d]
    buckets: dict = {}
    for y, by in enumerate(mul[b]):
        buckets.setdefault(by, []).append(y)
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

def is_admissible(R: Ring, a: int, b: int) -> bool:
    """True iff (a, b) extends to the first row of a matrix in GL2(R).

    One table test: 1 lies in aR + bR.  Over a ring of stable rank at most
    2, and every finite ring qualifies, unimodular rows are exactly the
    admissible ones; the tests keep the completion scan over mat_invert as
    the reference.  Reads the admissibility table of the ring.
    """
    return bool(R._rows_ok[a, b])


def make_point(R: Ring, a: int, b: int) -> Point:
    """Canonical representative of R(a, b); raises NotAdmissibleError."""
    if not is_admissible(R, a, b):
        raise NotAdmissibleError(f"({a}, {b}) is not admissible over {R.name}")
    return R.canonical_pair_left(a, b)


def infinity(R: Ring) -> Point:
    """The point R(1, 0)."""
    return R.canonical_pair_left(R.one, R.zero)


def line_generators(R: Ring) -> list[Matrix2]:
    """{E(t) : t in R} plus diag(u, 1) and diag(1, u) for units u."""
    gens = [elementary(R, t) for t in R.elements()]
    gens += [(u, R.zero, R.zero, R.one) for u in R.units]
    gens += [(R.one, R.zero, R.zero, u) for u in R.units]
    return gens


def orbit_generators(R: Ring) -> list[Matrix2]:
    """E(0), then generators of the stabilizer of R(1, 0), the matrices
    [[a, 0], [c, d]]: diag(u, 1) and diag(1, u) for each unit generator u
    and [[1, 0], [c, 1]] for each additive generator c.  They generate the
    group of line_generators: [[1, 0], [c, 1]] = E(0)^-1 E(c), and these
    reach every E(t) = E(0) [[1, 0], [t, 1]]."""
    units = unit_generators(R)
    gens = [elementary(R, R.zero)]
    gens += [(u, R.zero, R.zero, R.one) for u in units]
    gens += [(R.one, R.zero, R.zero, u) for u in units]
    gens += [(R.one, R.zero, c, R.one) for c in additive_generators(R)]
    return gens


def sorted_rows(rows) -> np.ndarray:
    """The integer table rows with each row sorted and the rows in
    lexicographic order: the one form of a set of index sets, so that two
    sets of distinct index sets are equal iff their sorted_rows are."""
    rows = np.sort(np.asarray(rows, dtype=np.intp), axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def carries(perm: np.ndarray, rows: np.ndarray, onto: np.ndarray) -> bool:
    """True iff the permutation i -> perm[i] carries the set of index sets
    rows onto the set onto, both given as sorted_rows."""
    return np.array_equal(sorted_rows(perm[rows]), onto)


def orbit(seeds, perms: np.ndarray, cap: Optional[int] = None) -> np.ndarray:
    """The orbit of the index sets given as rows of seeds under the
    permutations perms[g]: i -> perms[g][i], as sorted_rows, each member
    once.  The whole frontier moves at once, and images are deduplicated
    as one np.void value per row.  Raises OrbitCapExceededError iff the
    orbit has more than cap members.
    """
    frontier = np.sort(np.asarray(seeds, dtype=np.intp), axis=1)
    void = np.dtype((np.void, frontier.itemsize * frontier.shape[1]))
    seen: set = set()
    found = []
    while len(frontier):
        keys = np.ascontiguousarray(frontier).view(void).ravel()
        _, first = np.unique(keys, return_index=True)
        fresh = np.sort([i for i, k in zip(first.tolist(), keys[first].tolist())
                         if k not in seen]).astype(np.intp)
        seen.update(keys[fresh].tolist())
        if cap is not None and len(seen) > cap:
            raise OrbitCapExceededError(f"orbit exceeded cap {cap}")
        found.append(frontier[fresh])
        frontier = np.sort(perms[:, found[-1]], axis=2).reshape(-1, frontier.shape[1])
    return sorted_rows(np.concatenate(found))


def index_of(keys: np.ndarray, wanted) -> np.ndarray:
    """Positions of wanted in the sorted array keys; raises VerificationError
    if some wanted key is not among them."""
    wanted = np.asarray(wanted)
    pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
    if not np.array_equal(keys[pos], wanted):
        raise VerificationError("an image left the indexed set")
    return pos


def row_images(R: Ring, keys, gens) -> np.ndarray:
    """Canonical keys a*|R| + b of the rows (a, b) * M, for every generator
    M (axis 0) and every row given by its key (axis 1)."""
    add, mul = R._add_a, R._mul_a
    a, b = np.divmod(np.asarray(keys, dtype=np.intp), R.size)
    m0, m1, m2, m3 = np.asarray(gens, dtype=np.intp).T[:, :, None]
    return R._left_key[add[mul[a, m0], mul[b, m2]], add[mul[a, m1], mul[b, m3]]]


def _checked_orbit(R: Ring, start: int, act, canonical: np.ndarray, ok: np.ndarray,
                   what: str) -> tuple:
    """Sorted pairs of the orbit of the canonical pair with key start under
    orbit_generators, acting on keys by act(R, keys, gens); raises
    MethodDisagreementError unless it equals the scan of every pair that
    the table ok admits, canonicalized by the key table canonical."""
    # distinct keys by counting: a plain np.unique imports numpy.ma (15 ms)
    pairs = np.flatnonzero(np.bincount(canonical.ravel()))  # every canonical pair
    perms = index_of(pairs, act(R, pairs, orbit_generators(R)))
    found = pairs[orbit([index_of(pairs, [start])], perms)[:, 0]]
    scanned = np.flatnonzero(np.bincount(canonical[ok]))
    if not np.array_equal(found, scanned):
        raise MethodDisagreementError(
            f"{R.name}: orbit gives {len(found)} {what}, scan gives {len(scanned)}")
    return tuple(zip(*(x.tolist() for x in np.divmod(found, R.size))))


def enumerate_points(R: Ring) -> tuple[Point, ...]:
    """All points, as an orbit cross-checked against the admissible scan."""
    return _checked_orbit(R, R._left_key[R.one, R.zero], row_images, R._left_key,
                          R._rows_ok, "points")


@dataclass
class DistantGraph:
    """Distant graph with components and the (shared) diameter."""

    ring: Ring
    points: tuple[Point, ...]
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
    add, mul = R._add_a, R._mul_a
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


def distant_graph(R: Ring, pts: tuple[Point, ...]) -> DistantGraph:
    """Build the full graph on the points pts (those of enumerate_points);
    every component must share one diameter."""
    adj = _distant_pairs(R, pts)
    component, diameters, dist = _bfs_levels(adj, pts.index(infinity(R)))
    if len(set(diameters)) != 1:
        raise VerificationError(f"{R.name}: components disagree on diameter: {diameters}")
    return DistantGraph(
        ring=R,
        points=pts,
        adj=[frozenset(np.flatnonzero(row).tolist()) for row in adj],
        component=component,
        n_components=len(diameters),
        diameter=diameters[0],
        dist_from_infinity={pts[j]: int(dist[j]) for j in np.flatnonzero(dist >= 0)},
    )


# elementary words ----------------------------------------------------------

def word_points(R: Ring, letters: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Canonical keys a*|R| + b of the points spanned by
    (1, 0) * E(t_n) * ... * E(t_1), one per row of letters: the word
    (t_1, ..., t_n) is the row's first n = lengths[i] letters, and the rest
    of the row is padding.  Every row steps at once from its last letter,
    (x, y) * E(t) = (x*t - y, x), where lengths > j masks letter j in."""
    add, mul, neg = R._add_a, R._mul_a, R._neg_a
    letters = np.asarray(letters, dtype=np.intp)
    lengths = np.asarray(lengths)
    x = np.full(len(lengths), R.one, dtype=np.intp)
    y = np.full(len(lengths), R.zero, dtype=np.intp)
    for j in reversed(range(letters.shape[1])):
        live = lengths > j
        x, y = np.where(live, add[mul[x, letters[:, j]], neg[y]], x), np.where(live, x, y)
    return R._left_key[x, y]


def one_word(ts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The word ts as the (letters, lengths) arrays of a one-word sweep."""
    return np.array(ts, dtype=np.intp).reshape(1, len(ts)), np.array([len(ts)])


def word_point(R: Ring, ts: tuple[int, ...]) -> Point:
    """The point of the word ts: the one-word call of word_points."""
    return divmod(int(word_points(R, *one_word(ts))[0]), R.size)
