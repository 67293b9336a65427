"""The projective line over a finite ring and its distant graph.

Points are canonical admissible pairs (a, b): the index-lexicographically
least pair among the left unit multiples (u*a, u*b).  Matrices over the
ring are plain row-major 4-tuples (a, b, c, d) for [[a, b], [c, d]].

The dual line of columns (v, w)^T R is the same code on its other side:
each line kernel takes a `dual` flag, and a column M * (v, w)^T is the row
(v, w) * M^T over the transposed mul table.  Point enumeration runs two
independent methods, an orbit from (1, 0) under a generating set of GL2(R)
and a full admissible-pair scan, and treats disagreement as fatal: over
exotic rings membership of R(x,y) in the line does not force
admissibility of (x, y), and the cross-check guards the convention that
points are represented by admissible pairs only.

Every batch of solution sets {(x, y) : a*x + b*y = 0}, of points or of
covariance rows, and the left kernels of the dual points, comes from one
driver, `solution_slabs`.  Every batch kernel cuts its work with `slabs`,
and every sweep over an index range with `index_slabs`, in one budget.

GL2(R) has one solve, `mat_inverses`: the inverse of every matrix of a
batch, or none, read off the kernels of the batch's distinct rows.  The
distant graph is one call over the stacked pairs of points, and the
covariance check one call over its generators.

Every orbit of the package comes from one engine, `orbit`, over
permutation tables: here of canonical pairs, elsewhere of points, dual
points and ring elements.  Orbits under GL2(R) apply its generating set
orbit_generators (9 matrices on both matrix2 rings); line_generators is
the whole E(t) and diagonal family, the generators of the covariance
check.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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


class OrbitCapExceededError(RuntimeError):
    pass


# matrices ----------------------------------------------------------------

def mat_identity(R: Ring) -> Matrix2:
    return (R.one, R.zero, R.zero, R.one)


def elementary(R: Ring, t: int) -> Matrix2:
    """The elementary matrix [[t, 1], [-1, 0]]."""
    return (t, R.one, R.neg(R.one), R.zero)


# admissibility and points --------------------------------------------------

def is_admissible(R: Ring, a: int, b: int) -> bool:
    """True iff (a, b) extends to the first row of a matrix in GL2(R).

    One table test: 1 lies in aR + bR.  Over a ring of stable rank at most
    2, and every finite ring qualifies, unimodular rows are exactly the
    admissible ones; the tests keep the completion scan over a scalar
    column solve as the reference.  Reads the admissibility table of the
    ring.
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
    units = R.unit_generators
    gens = [elementary(R, R.zero)]
    gens += [(u, R.zero, R.zero, R.one) for u in units]
    gens += [(R.one, R.zero, R.zero, u) for u in units]
    gens += [(R.one, R.zero, c, R.one) for c in R.additive_generators]
    return gens


def sorted_rows(rows) -> np.ndarray:
    """The integer table rows with each row sorted and the rows in
    lexicographic order: the one form of a set of index sets, so that two
    sets of distinct index sets are equal iff their sorted_rows are."""
    rows = np.sort(np.asarray(rows, dtype=np.intp), axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def row_keys(rows) -> np.ndarray:
    """One np.void value per row of an integer table, equal iff the rows
    are: the form in which rows are deduplicated and looked up."""
    rows = np.ascontiguousarray(rows, dtype=np.intp)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def rows_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each row of rows is a row of table (never, for another
    width): a set lookup of row_keys, as np.isin imports numpy.ma on all
    but the smallest tables."""
    seen = set(row_keys(table).tolist())
    return np.array([key in seen for key in row_keys(rows).tolist()], dtype=bool)


def carries(perm: np.ndarray, rows: np.ndarray, onto: np.ndarray) -> bool:
    """True iff the permutation i -> perm[i] carries the set of index sets
    rows onto the set onto, both given as sorted_rows."""
    return np.array_equal(sorted_rows(perm[rows]), onto)


def orbit(seeds, perms: np.ndarray, cap: Optional[int] = None) -> np.ndarray:
    """The orbit of the index sets given as rows of seeds under the
    permutations perms[g]: i -> perms[g][i], as sorted_rows, each member
    once.  The whole frontier moves at once; one pass over its row_keys
    keeps, in frontier order, the first row of each key not seen before.
    Raises OrbitCapExceededError iff the orbit has more than cap members.
    """
    frontier = np.sort(np.asarray(seeds, dtype=np.intp), axis=1)
    seen: set = set()
    found = []
    while len(frontier):
        fresh = []
        for i, key in enumerate(row_keys(frontier).tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if cap is not None and len(seen) > cap:
            raise OrbitCapExceededError(f"orbit exceeded cap {cap}")
        found.append(frontier[fresh])
        frontier = np.sort(perms[:, found[-1]], axis=2).reshape(-1, frontier.shape[1])
    return sorted_rows(np.concatenate(found))


def index_of(keys: np.ndarray, wanted) -> np.ndarray:
    """Positions of wanted in the sorted array keys; raises VerificationError
    if some wanted key is not among them.  One scatter writes each key's
    position into a table of keys[-1] + 2 entries, -1 elsewhere, and one
    gather reads it; a wanted key outside 0..keys[-1] is clipped to -1 or
    keys[-1] + 1, whose entry is -1."""
    table = np.full(keys[-1] + 2, -1, dtype=np.intp)
    table[keys] = np.arange(len(keys))
    pos = table[np.clip(np.asarray(wanted, dtype=np.intp), -1, keys[-1] + 1)]
    if (pos < 0).any():
        raise VerificationError("an image left the indexed set")
    return pos


def row_images(R: Ring, keys, gens, dual: bool = False) -> np.ndarray:
    """Canonical keys a*|R| + b of the rows (a, b) * M, for every generator
    M (axis 0) and every row given by its key (axis 1); with dual, the keys
    v*|R| + w of the columns M * (v, w)^T, which are the rows (v, w) * M^T
    over the transposed mul table, canonical as columns."""
    add = R._add_a
    mul, canonical = (R._mul_a.T, R._right_key) if dual else (R._mul_a, R._left_key)
    a, b = np.divmod(np.asarray(keys, dtype=np.intp), R.size)
    m0, m1, m2, m3 = np.asarray(gens, dtype=np.intp).T[:, :, None]
    if dual:
        m1, m2 = m2, m1
    return canonical[add[mul[a, m0], mul[b, m2]], add[mul[a, m1], mul[b, m3]]]


def enumerate_points(R: Ring, dual: bool = False) -> tuple[Point, ...]:
    """All points, or with dual all dual points, as sorted pairs: the orbit
    of R(1, 0), or (1, 0)^T R, under orbit_generators, acting by
    row_images; raises MethodDisagreementError unless it equals the scan of
    every canonical pair that the admissibility table admits."""
    canonical, ok = (R._right_key, R._cols_ok) if dual else (R._left_key, R._rows_ok)
    # distinct keys by counting: a plain np.unique imports numpy.ma (15 ms)
    pairs = np.flatnonzero(np.bincount(canonical.ravel()))  # every canonical pair
    perms = index_of(pairs, row_images(R, pairs, orbit_generators(R), dual))
    start = index_of(pairs, [canonical[R.one, R.zero]])
    found = pairs[orbit([start], perms)[:, 0]]
    scanned = np.flatnonzero(np.bincount(canonical[ok]))
    if not np.array_equal(found, scanned):
        raise MethodDisagreementError(
            f"{R.name}: orbit gives {len(found)} {'dual points' if dual else 'points'}, "
            f"scan gives {len(scanned)}")
    return tuple(zip(*(x.tolist() for x in np.divmod(found, R.size))))


class DistantGraph(NamedTuple):
    """Distant graph: the read-only boolean adjacency matrix over the
    points, the component of every point (numbered in order of least
    member) and the (shared) diameter."""

    points: tuple[Point, ...]
    adj: np.ndarray
    component: np.ndarray
    n_components: int
    diameter: int

    @property
    def n_edges(self) -> int:
        return int(self.adj.sum()) // 2


# The one memory budget of the batch kernels: every byte that one slab of
# slabs() holds at its peak, numpy's temporaries included.  Of 1 to 8
# times 2^16, 2^20 and 2^21, 7 * 2^16 and 2^19 ran both benchmark
# workloads fastest, and 2^20 raised their peak RSS; 7 * 2^16 keeps the
# Desargues scan's largest arrays under glibc's 128 KiB mmap threshold,
# and its times did not move with the checkout's path, as those of 2^19 did
SCAN_SLAB = 7 << 16


def slabs(count: int, cost: int):
    """Consecutive slices of count items of cost bytes each: as many items
    as fit within SCAN_SLAB (read at every call), or one item that alone
    costs more; items that cost nothing share one slab.  An item's cost is
    every byte its slab holds for it at the slab's peak: the arrays of the
    item, the temporaries numpy makes on the way, and what the slab before
    still binds."""
    step = max(1, SCAN_SLAB // cost if cost else count)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def index_slabs(indices, radix, cost: int, dtype=np.intp):
    """The items of indices, a range or an index array, in slabs(): yields
    (part, digits), part the slice of indices of a slab and digits[:, i] the
    mixed-radix digits of its item i in dtype, most significant first.  An
    item costs what the consumer holds for it, cost, plus its index and its
    digits, as intp and in dtype."""
    for part in slabs(len(indices), cost + 8 + (8 + np.dtype(dtype).itemsize) * len(radix)):
        items = indices[part]
        if isinstance(items, range):
            items = np.arange(items.start, items.stop, items.step)
        yield part, np.array(np.unravel_index(items, radix), dtype=dtype)


def padded_rows(mask: np.ndarray) -> np.ndarray:
    """The column indices of the nonzero entries of every row of the 2-D
    mask, increasing, padded with -1 to the longest row."""
    row, col = np.divmod(np.flatnonzero(mask), mask.shape[1])  # 2-D nonzero is slower
    size = np.bincount(row, minlength=len(mask))
    out = np.full((len(mask), size.max()), -1, dtype=np.intp)
    out[row, np.arange(len(row)) - (np.cumsum(size) - size)[row]] = col
    return out


def solution_slabs(R: Ring, keys, dual: bool = False, as_keys: bool = False,
                   held: int = 0):
    """Scan the kernels of many rows at once, in slabs; yields (part, slab)
    in order, part the slice of keys that the slab covers.

    The row (a, b) of key a*|R| + b has the solutions (x, y), as columns,
    with a*x + b*y = 0; with dual, every key v*|R| + w is a column (v, w)^T
    and its solutions are the rows (x, y) with x*v + y*w = 0.  Each set is a
    boolean mask over the keys x*|R| + y of all |R|^2 candidates, tested as
    a*x == -b*y over narrow copies of the tables.  With as_keys each set is
    instead the row of its solution keys in increasing order (padded_rows),
    padded with -1 to the largest set of the slab: |R| keys for an
    admissible row of a ring, any number on a corrupted table.

    A row costs, in slabs(), the bytes of its set, |R|^2 mask bytes or the
    8-byte keys of an admissible row's kernel, plus the larger of held, the
    bytes per row that the consumer holds beside the set, and what building
    the next set holds while the consumer still binds this one: the mask
    and its index copies, and with as_keys the scatter of its keys.
    """
    n = R.size
    small = np.min_scalar_type(n - 1)
    products = (R._mul_a.T if dual else R._mul_a).astype(small)
    neg = R._neg_a.astype(small)
    a, b = np.divmod(np.asarray(keys, dtype=np.intp), n)
    build = n * n + (72 * n if as_keys else 16 * n)
    for part in slabs(len(a), (8 * n if as_keys else n * n) + max(held, build)):
        mask = products[a[part], :, None] == neg[products[b[part], None, :]]
        mask = mask.reshape(len(mask), n * n)
        if as_keys:
            mask = padded_rows(mask)
        yield part, mask


def mat_inverses(R: Ring, mats) -> np.ndarray:
    """The inverse in GL2(R) of every matrix (a, b, c, d) of mats, as the
    rows of a k x 4 array, or a row of -1 where it has none.

    (p; q) has a right inverse iff row p takes the value 1 on the kernel
    of q, at its first column (x1, y1), and q takes 1 on the kernel of p,
    at its second (x2, y2); each is the least such key x*|R| + y.  A row
    that is not admissible (R._rows_ok) takes 1 nowhere.  The kernels of
    the distinct admissible rows come from solution_slabs as sorted keys,
    and each slab tests a*x == 1 - b*y by gathers on the rows paired with
    its kernels only.  Finite rings are Dedekind-finite, so a right
    inverse is two-sided: one left-inverse check raises VerificationError
    at the first matrix that fails it.  The per-matrix arrays keep the
    narrowest dtypes: a fresh 8-byte entry per matrix costs page faults on
    the 8,385 pairs of the matrix2(3) distant graph.
    """
    add, mul = R._add_a, R._mul_a
    n = R.size
    M = np.asarray(mats, dtype=np.min_scalar_type(n - 1)).reshape(-1, 4)
    p = M[:, 0].astype(np.intp) * n + M[:, 1]
    q = M[:, 2].astype(np.intp) * n + M[:, 3]
    both = np.flatnonzero(R._rows_ok.ravel()[p] & R._rows_ok.ravel()[q])
    # distinct rows by a table over all keys: a plain np.unique imports numpy.ma
    index = np.zeros(n * n, dtype=np.intp)
    index[p[both]] = index[q[both]] = 1
    rows = np.flatnonzero(index)
    index[rows] = np.arange(len(rows))
    p, q = index[p[both]], index[q[both]]
    # A[x, i] = a*x for the row i = (a, b), and A[|R|, i] = |R|, which the
    # padding key -1 reads and no B[y, i] = 1 - b*y equals
    a, b = np.divmod(rows, n)
    A = np.vstack([mul[a].T, np.full(len(rows), n)]).astype(np.min_scalar_type(n))
    B = add[R.one][R._neg_a][mul[b]].T.astype(A.dtype)
    paired = np.zeros((len(rows), len(rows)), dtype=bool)
    paired[q, p] = paired[p, q] = True  # [j, i]: row i is tested on the kernel of j
    first = np.full(paired.shape, -1, dtype=np.min_scalar_type(-n * n))
    # per kernel: its keys with a -1 appended, their x and y (intp), and
    # for every row that may be paired with it the gathers of A and B and
    # their test, then the top rank of each and its key (intp)
    held = (n + 1) * (24 + (2 * A.itemsize + 1) * len(rows)) + 16 * len(rows)
    for part, kernel in solution_slabs(R, rows, as_keys=True, held=held):
        kernel = np.column_stack([kernel, np.full(len(kernel), -1)])  # a -1 ends each
        cols = np.flatnonzero(paired[part].any(axis=0))
        x, y = np.divmod(kernel, n)
        # [j, k, i]: row i takes 1 at key k of kernel j; the top rank is its
        # least k, and rank 0 (none) reads the last -1
        width = kernel.shape[1]
        rank = np.arange(width - 1, -1, -1, dtype=np.min_scalar_type(width))
        top = ((A[:, cols].take(x, axis=0) == B[:, cols].take(y, axis=0))
               * rank[:, None]).max(axis=1)
        first[part, cols] = np.take_along_axis(kernel, rank[top], axis=1)
    col1, col2 = first[q, p], first[p, q]
    solved = (col1 >= 0) & (col2 >= 0)
    x1, y1 = np.divmod(col1[solved], n)  # M * (x1, y1)^T = e_1
    x2, y2 = np.divmod(col2[solved], n)  # and (x2, y2)^T gives e_2
    has = both[solved]
    a, b, c, d = M.take(has, axis=0).T
    # N * M for N = [[x1, x2], [y1, y2]], entrywise
    NM = (add[mul[x1, a], mul[x2, c]], add[mul[x1, b], mul[x2, d]],
          add[mul[y1, a], mul[y2, c]], add[mul[y1, b], mul[y2, d]])
    left = np.all([e == want for e, want in zip(NM, mat_identity(R))], axis=0)
    if not left.all():
        k = int(np.argmin(left))
        N = tuple(int(v[k]) for v in (x1, x2, y1, y2))
        raise VerificationError(f"{R.name}: {N} is a right inverse of "
                                f"{tuple(M[has[k]].tolist())} but not a left inverse")
    out = np.full((len(M), 4), -1, dtype=first.dtype)
    out[has] = np.column_stack([x1, x2, y1, y2])
    return out


def _bfs_levels(adj: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Breadth-first search from every vertex at once, by boolean products.

    After step k, reach[v] holds the vertices within distance k of v; the
    eccentricity of v is the last step that grew its row.  No product runs
    whose result is known: step 1 is adj itself, and once every row is
    full the search ends.  Returns the component of every vertex (numbered
    in order of least member) and the diameter of every component.
    """
    reach = np.eye(len(adj), dtype=bool)
    nxt = reach | adj  # the identity times adj is adj
    ecc = np.zeros(len(adj), dtype=np.intp)
    step = 0
    while True:
        grew = (nxt != reach).any(axis=1)
        if not grew.any():
            break
        step += 1
        ecc[grew] = step
        reach = nxt
        if reach.all():  # no full row can grow
            break
        nxt = reach | (reach @ adj)
    roots, component = np.unique(reach.argmax(axis=1), return_inverse=True)
    diameters = [int(ecc[component == c].max()) for c in range(len(roots))]
    return component, diameters


def distant_graph(R: Ring, pts: tuple[Point, ...]) -> DistantGraph:
    """Build the full graph on the points pts (those of enumerate_points):
    p and q are distant iff mat_inverses inverts (p; q).  Every point is
    admissible, so its kernel must have |R| members, and every component
    must share one diameter."""
    n = R.size
    P = np.array(pts, dtype=np.min_scalar_type(n - 1))
    # the kernel of (a, b) has the sum over v of #{x : a*x = v} * #{y : -b*y = v} members
    at = np.arange(len(P))[:, None] * n
    a_x, b_y = (np.bincount((at + t).ravel(), minlength=len(P) * n).reshape(-1, n)
                for t in (R._mul_a[P[:, 0]], R._neg_a[R._mul_a[P[:, 1]]]))
    size = (a_x * b_y).sum(axis=1)
    if (size != n).any():
        k = int(np.argmax(size != n))
        raise VerificationError(f"{R.name}: {pts[k]} has {size[k]} solutions, not {n}")
    i, j = np.triu_indices(len(P), 1)  # every pair i < j, row-major
    adj = np.zeros((len(P), len(P)), dtype=bool)
    stacked = np.hstack([P.take(i, axis=0), P.take(j, axis=0)])  # (p_i; p_j)
    adj[i, j] = mat_inverses(R, stacked)[:, 0] >= 0
    adj |= adj.T
    adj.flags.writeable = False
    component, diameters = _bfs_levels(adj)
    if len(set(diameters)) != 1:
        raise VerificationError(f"{R.name}: components disagree on diameter: {diameters}")
    return DistantGraph(points=pts, adj=adj, component=component,
                        n_components=len(diameters), diameter=diameters[0])


# elementary words ----------------------------------------------------------

def flat_at(R: Ring, table: np.ndarray, x, y) -> np.ndarray:
    """Entry (x, y) of one of R's flat tables (Ring._fill_arrays),
    elementwise: a flat take at x * |R| + y."""
    return table.take(x * R._stride + y)


def word_points(R: Ring, letters: np.ndarray) -> np.ndarray:
    """Canonical keys a*|R| + b of the points spanned by
    (1, 0) * E(t_n) * ... * E(t_1), for words of one length n: row j of
    the n x W array letters holds letter t_(j+1) of every word.  Every word
    steps at once from its last letter, (x, y) * E(t) = (x*t - y, x), by
    flat takes on the narrow tables."""
    add, mul, neg = R._add_f, R._mul_f, R._neg_f
    x, y = np.full(letters.shape[1], R.one, dtype=add.dtype), R.zero
    for t in letters[::-1]:
        x, y = flat_at(R, add, flat_at(R, mul, x, t), neg.take(y)), x
    return flat_at(R, R._left_key.ravel(), x, y)


def one_word(ts: tuple[int, ...]) -> np.ndarray:
    """The word ts as the letters of a sweep of one word."""
    return np.array(ts, dtype=np.intp).reshape(len(ts), 1)


def word_point(R: Ring, ts: tuple[int, ...]) -> Point:
    """The point of the word ts: the one-word call of word_points."""
    return divmod(int(word_points(R, one_word(ts))[0]), R.size)
