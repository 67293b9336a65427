"""References the tests compare the package against.

Most are the plain, per-element form of something the package computes
from its tables, or a definition-level law no scenario runs: the
per-element field tables GF and digit formulas of the ring families, the
unit-closure loop of verify_axioms, the bucketed scalar column solve
mat_invert (with mat_mul) that projline.mat_inverses is held to, the
dict-bucket annihilator scan with its cyclic-generator loops, the
per-module covariance law, the distant relation by matrix inversion with
plain breadth-first searches over a graph's boolean matrix, a
breadth-first search for point words, the four matrix
actions on single rows and columns, the loops the compatibility kernels
and the Desargues scan replaced, the paper's laws on induced maps with
the scalar steps of the sigma composite (dual to point, quarter turn),
and the per-word sweeps of the duality and sigma suites with the closed
formulas they check.  Two are array code, where a scalar loop would cost
seconds on matrix2(3): `invertible_completions`, the completion scan of
the admissibility tables, and `line_perms`, the whole generator family
as permutation tables.  Helpers serve the tests around them: `corrupt`
changes one entry of a fresh ring's operation table,
`word_keys`/`as_pairs` feed a list of words of any lengths to the array
kernels, one call per length, `uniform_bytes` is the byte-by-byte form
of the sampled word draw, `point_sets`, `row_set` and `point_map` read index rows and index
permutations as sets and dicts of points, and `tables` gives the scalar
loops a ring's operation arrays as nested tuples, `slab_costs` the
item counts and costs a kernel states to the one slab budget, and
`changed_keys` the keys where a negative control's report differs from
the clean one.
"""

import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from chaingeom import projline
from chaingeom.projline import (
    VerificationError,
    index_of,
    line_generators,
    make_point,
    mat_identity,
    row_images,
)
from chaingeom.rings import (
    IRREDUCIBLE,
    RingMapError,
    UnsupportedParameterError,
    build_ring,
    prime_power,
)
from chaingeom.suites import EXHAUSTIVE_LIMIT


# ring families ------------------------------------------------------------------

class GF:
    """F_q arithmetic tables for q <= 9, as nested lists built one element
    at a time.

    Elements are integers 0..q-1 read as base-p digit strings: the digits
    are the coefficients of the element as a polynomial in the generator,
    constant term first.  For prime q the index is the residue itself.
    """

    def __init__(self, q: int):
        p, k = prime_power(q)
        if q > 9:
            raise UnsupportedParameterError(f"field order {q} exceeds 9")
        self.q, self.p, self.k = q, p, k
        if k == 1:
            self.add_t = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_t = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            poly = IRREDUCIBLE[q]
            digits = [self._digits(i) for i in range(q)]
            self.add_t = [
                [self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                 for b in range(q)]
                for a in range(q)
            ]
            self.mul_t = [[self._polymul(digits[a], digits[b], poly) for b in range(q)]
                          for a in range(q)]
        self.neg_t = [self.add_t[a].index(0) for a in range(q)]
        self.inv_t = [None] + [self.mul_t[a].index(1) if 1 in self.mul_t[a] else None
                               for a in range(1, q)]

    def _digits(self, i: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(i % self.p)
            i //= self.p
        return out

    def _undigits(self, ds) -> int:
        val = 0
        for d in reversed(ds):
            val = val * self.p + d
        return val

    def _polymul(self, xs, ys, poly) -> int:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                conv[i + j] = (conv[i + j] + x * y) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c = conv[deg]
            if c:
                conv[deg] = 0
                for j in range(k):
                    conv[deg - k + j] = (conv[deg - k + j] - c * poly[j]) % p
        return self._undigits(conv[:k])

    def add(self, a, b):
        return self.add_t[a][b]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def neg(self, a):
        return self.neg_t[a]

    def inv(self, a):
        return self.inv_t[a]

# Per family: the number of F_q digits of an element and its product, digit
# tuple by digit tuple, over the field's mul (m) and add (s) tables.
def _field_mul(m, s, x, y):
    return (m[x[0]][y[0]],)


def _dual_numbers_mul(m, s, x, y):  # (a0 + a1 e)(b0 + b1 e)
    a0, a1 = x
    b0, b1 = y
    return m[a0][b0], s[m[a0][b1]][m[a1][b0]]


def _product_mul(m, s, x, y):
    return m[x[0]][y[0]], m[x[1]][y[1]]


def _upper_triangular_mul(m, s, x, y):  # [[a, b], [0, d]]
    a, b, d = x
    a2, b2, d2 = y
    return m[a][a2], s[m[a][b2]][m[b][d2]], m[d][d2]


def _matrix2_mul(m, s, x, y):  # [[a11, a12], [a21, a22]]
    a11, a12, a21, a22 = x
    b11, b12, b21, b22 = y
    return (s[m[a11][b11]][m[a12][b21]], s[m[a11][b12]][m[a12][b22]],
            s[m[a21][b11]][m[a22][b21]], s[m[a21][b12]][m[a22][b22]])


FAMILY_MUL = {
    "finite-field": (1, _field_mul),
    "dual-numbers": (2, _dual_numbers_mul),
    "product": (2, _product_mul),
    "upper-triangular2": (3, _upper_triangular_mul),
    "matrix2": (4, _matrix2_mul),
}


def family_tables(spec):
    """The add, mul and neg tables of the ring spec as nested lists, one
    element at a time: the element i is the digit tuple of i in base q,
    least significant first; sums and negatives are digitwise in F_q and
    products come from the family's digit formula."""
    gf, q = GF(spec.q), spec.q
    ndigits, mul_digits = FAMILY_MUL[spec.family]
    digits = [tuple(i // q ** k % q for k in range(ndigits)) for i in range(q ** ndigits)]

    def encode(ds):
        return sum(d * q ** k for k, d in enumerate(ds))

    add = [[encode([gf.add_t[x][y] for x, y in zip(a, b)]) for b in digits] for a in digits]
    mul = [[encode(mul_digits(gf.mul_t, gf.add_t, a, b)) for b in digits] for a in digits]
    neg = [encode([gf.neg_t[x] for x in a]) for a in digits]
    return add, mul, neg


def table_mismatch(R, add, mul, neg):
    """The first operation ("add", "mul" or "neg") whose table in R differs
    from the given nested lists, or None if all three agree."""
    for name, want in (("add", add), ("mul", mul), ("neg", neg)):
        if getattr(R, f"_{name}_a").tolist() != want:
            return name
    return None


def ring_map_failure(m):
    """The message verify_ring_map gives for the additivity and
    multiplicativity of the table m, by the pair loop: the first pair
    (a, b) in row-major order that breaks a law, additivity first; None if
    both laws hold."""
    R, S, t = m.source, m.target, m.table
    for a in R.elements():
        for b in R.elements():
            if t[R.add(a, b)] != S.add(t[a], t[b]):
                return f"additivity fails at ({a}, {b})"
            want = S.mul(t[a], t[b]) if m.kind == "isomorphism" else S.mul(t[b], t[a])
            if t[R.mul(a, b)] != want:
                return f"multiplicativity fails at ({a}, {b})"
    return None


def normality_witness(K):
    """A unit u with u^-1 K* u != K*, or None if K* is normal in R*: the
    scalar loop over the units that the conjugate table replaced."""
    ring = K.ring
    kstar = frozenset(K.nonzero)
    for u in ring.units:
        uinv = ring.inv(u)
        if any(ring.mul(ring.mul(uinv, k), u) not in kstar for k in kstar):
            return u
    return None


def unit_closure_failure(ring):
    """The message verify_axioms gives for the units of ring, by the loop:
    for each unit u in order, its inverse and then each product u*v must
    be a unit; None if all are."""
    for u in ring.units:
        if ring.inv(u) not in ring.unit_set:
            return f"inverse of the unit {u} is not a unit"
        for v in ring.units:
            if ring.mul(u, v) not in ring.unit_set:
                return f"units not closed under product at ({u}, {v})"
    return None


# corrupted rings -----------------------------------------------------------------

def corrupt(R, table, at, value):
    """Set the entry at of R's operation table table ("add", "mul" or "neg")
    to value and rederive the ring's views; returns R.  The table is
    copied, changed and assigned back, since the tables are read-only; the
    units and canonical keys stay as built from the clean table.  R must be
    a freshly built ring, not the instance build_ring shares."""
    if build_ring(R.spec) is R:
        raise ValueError(f"{R.name} is the shared instance; corrupt a fresh one")
    name = f"_{table}_a"
    changed = getattr(R, name).copy()
    changed[at] = value
    setattr(R, name, changed)
    R._fill_arrays()
    return R


# matrix actions ---------------------------------------------------------------

_TABLES: dict = {}  # ring -> (its operation arrays, their nested tuples)


def tables(R):
    """R's add, mul and neg tables as nested tuples, for the scalar loops:
    built once per ring, and again when corrupt gives it new arrays."""
    arrays = (R._add_a, R._mul_a, R._neg_a)
    held = _TABLES.get(R)
    if held is None or any(x is not y for x, y in zip(held[0], arrays)):
        held = _TABLES[R] = arrays, (tuple(map(tuple, R._add_a.tolist())),
                                     tuple(map(tuple, R._mul_a.tolist())),
                                     tuple(R._neg_a.tolist()))
    return held[1]


def mat_mul(R, M, N):
    add, mul, _ = tables(R)
    ma, mb, mc, md = mul[M[0]], mul[M[1]], mul[M[2]], mul[M[3]]
    e, f, g, h = N
    return (add[ma[e]][mb[g]], add[ma[f]][mb[h]],
            add[mc[e]][md[g]], add[mc[f]][md[h]])


def mat_invert(R, M):
    """Two-sided inverse of M in GL2(R), or None: the scalar column solve.

    Solves M * (x, y)^T = e_1 and = e_2 column by column over R^2, indexing
    the operation tables directly: the products b*y are bucketed by value
    first, so each column solve is linear in |R|.  Raises
    VerificationError, in projline.mat_inverses' words, if the solution is
    only a one-sided inverse.
    """
    a, b, c, d = M
    add, mul, neg = tables(R)
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


def row_times_mat(R, row, M):
    add, mul, _ = tables(R)
    ma, mb = mul[row[0]], mul[row[1]]
    return add[ma[M[0]]][mb[M[2]]], add[ma[M[1]]][mb[M[3]]]


def mat_times_col(R, M, col):
    add, mul, _ = tables(R)
    v, w = col
    return add[mul[M[0]][v]][mul[M[1]][w]], add[mul[M[2]][v]][mul[M[3]][w]]


def apply_matrix(R, p, M):
    """The point p * M, canonicalized."""
    return R.canonical_pair_left(*row_times_mat(R, p, M))


def apply_matrix_dual(R, q, M):
    """The dual point M * q, canonicalized."""
    return R.canonical_pair_right(*mat_times_col(R, M, q))


# the line ---------------------------------------------------------------------

def is_column_admissible(R, v, w):
    """True iff (v, w)^T extends to the first column of a matrix in GL2(R):
    the table test 1 in Rv + Rw."""
    return bool(R._cols_ok[v, w])


def distant(R, p, q):
    """True iff the stacked representatives form a matrix in GL2(R)."""
    return mat_invert(R, (p[0], p[1], q[0], q[1])) is not None


def pairwise_adjacency(R, pts, pairs):
    """{(i, j): whether pts[i] and pts[j] are distant} over the index pairs,
    in their order."""
    return {(i, j): distant(R, pts[i], pts[j]) for i, j in pairs}


def reference_bfs(adj, src):
    """Plain breadth-first search over the boolean adjacency matrix adj, the
    loop the boolean-product levels replaced: {vertex: distance} for every
    vertex reachable from src."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in np.flatnonzero(adj[x]).tolist():
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reference_levels(adj):
    """(component per vertex numbered by least member, diameter per
    component) from one plain BFS per vertex."""
    n = len(adj)
    runs = [reference_bfs(adj, v) for v in range(n)]
    roots = sorted({min(run) for run in runs})
    component = [roots.index(min(runs[v])) for v in range(n)]
    diameters = [max(max(runs[v].values()) for v in range(n) if component[v] == c)
                 for c in range(len(roots))]
    return component, diameters


def invertible_completions(R, a, b, side):
    """For every pair (c, d), by its key c*|R| + d: whether the matrix with
    rows (a, b) and (c, d) (side "row"), or with columns (a, b)^T and
    (c, d)^T (side "column"), is invertible, for all |R|^2 completions at
    once.  A row matrix is invertible iff some column (x, y) solves it to
    e_1 and some to e_2, the two column solves of mat_invert (finite rings
    are Dedekind-finite, so a one-sided inverse is two-sided); a column
    matrix takes the same solves for rows (r, s) on its left.  When some
    column solves a*x + b*y = 1, the columns with a*x + b*y = 0 form a
    kernel of |R| members, so every array here has |R|^2 x |R| entries."""
    add = R._add_a
    mul = R._mul_a if side == "row" else R._mul_a.T  # mul[a, x]: a*x, or x*a
    n = R.size
    x, y = np.divmod(np.arange(n * n), n)
    first = add[mul[a, x], mul[b, y]]  # a*x + b*y for every column (x, y)

    def second(solves):  # c*x + d*y, row c*|R| + d, over the given columns
        cx, dy = mul[:, x[solves]], mul[:, y[solves]]
        return add[cx[:, None, :], dy[None, :, :]].reshape(n * n, -1)

    to_e1 = (second(first == R.one) == R.zero).any(axis=1)
    if not to_e1.any():
        return to_e1
    return to_e1 & (second(first == R.zero) == R.one).any(axis=1)


def line_perms(geom):
    """The whole family line_generators as permutation tables of the
    Geometry's points: row g holds the index of points[i] * line_generators[g]."""
    keys = geom.keys
    return index_of(keys, row_images(geom.ring, keys, line_generators(geom.ring)))


def point_words(R):
    """A shortest elementary word for every point of the component of (1, 0),
    by one breadth-first search over the steps p -> p * E(t)."""
    add, mul, neg = tables(R)
    layer = {R.canonical_pair_left(R.one, R.zero): ()}
    seen = dict(layer)
    while layer:
        nxt = {}
        for (x, y), w in layer.items():
            for t in R.elements():
                r = R.canonical_pair_left(add[mul[x][t]][neg[y]], x)
                if r not in seen:
                    seen[r] = nxt[r] = (t,) + w
        layer = nxt
    return seen


# the annihilator oracle ---------------------------------------------------------

def kernel_scan(neg, r, s):
    """{(x, y) : r[x] + s[y] = 0}, each x matched against the bucket of -s[y]."""
    buckets = {}
    for y, sy in enumerate(s):
        buckets.setdefault(neg[sy], []).append(y)
    return {(x, y) for x, rx in enumerate(r) for y in buckets.get(rx, ())}


def annihilator(R, rows):
    """The raw solution set {(x, y) : a*x + b*y = 0 for every (a, b) in rows},
    as a frozenset of pairs."""
    sol = None
    for a, b in rows:
        cur = kernel_scan(tables(R)[2], R.left_products(a), R.left_products(b))
        sol = cur if sol is None else sol & cur
    if sol is None:  # no equations: every column solves them
        sol = {(x, y) for x in R.elements() for y in R.elements()}
    return frozenset(sol)


def perp_point(R, p):
    """The least admissible column of the kernel, in sorted order, whose
    cyclic span is the kernel; None if there is none."""
    kern = annihilator(R, [p])
    for v, w in sorted(kern):
        if is_column_admissible(R, v, w) and set(
                zip(R.left_products(v), R.left_products(w))) == kern:
            return R.canonical_pair_right(v, w)
    return None


def bidual_point(R, q):
    """The least admissible row of the left kernel of q whose cyclic span is
    that kernel; None if there is none."""
    col = R._mul_a.T.tolist()  # col[a][x] = x*a
    kern = kernel_scan(tables(R)[2], col[q[0]], col[q[1]])
    for a, b in sorted(kern):
        if R._rows_ok[a, b] and set(zip(col[a], col[b])) == kern:
            return R.canonical_pair_left(a, b)
    return None


def covariance_holds(R, U, M):
    """(U*M)-perp equals M^-1 * (U-perp), as raw solution sets."""
    U = list(U)
    Minv = mat_invert(R, M)
    if Minv is None:
        raise VerificationError(f"covariance needs an invertible matrix, got {M}")
    lhs = annihilator(R, [row_times_mat(R, u, M) for u in U])
    rhs = frozenset(mat_times_col(R, Minv, c) for c in annihilator(R, U))
    return lhs == rhs


def commutative_perp_formula(R, p):
    """R(a, b) -> (-b, a)^T R, valid over commutative rings."""
    a, b = p
    return R.canonical_pair_right(R.neg(b), a)


# compatibility ------------------------------------------------------------------

def coordinate_action_holds(R):
    """The affine coordinate maps x -> x*a, x -> a*x and x -> x + c, one
    generator at a time, against the matrix actions of [[a, 0], [0, 1]],
    [[1, 0], [c, 1]] on the points R(x, 1) and of [[1, 0], [0, a]],
    [[1, 0], [-c, 1]] on the dual points (-1, x)^T R."""
    one, zero = R.one, R.zero
    pt = [R.canonical_pair_left(x, one) for x in R.elements()]
    dual = [R.canonical_pair_right(R.neg(one), x) for x in R.elements()]
    for x in R.elements():
        for a in R.unit_generators:
            if (apply_matrix(R, pt[x], (a, zero, zero, one)) != pt[R.mul(x, a)]
                    or apply_matrix_dual(R, dual[x], (one, zero, zero, a))
                    != dual[R.mul(a, x)]):
                return False
        for c in R.additive_generators:
            if (apply_matrix(R, pt[x], (one, zero, c, one)) != pt[R.add(x, c)]
                    or apply_matrix_dual(R, dual[x], (one, zero, R.neg(c), one))
                    != dual[R.add(x, c)]):
                return False
    return True


def cosets_hold(res, cls):
    """(i) every block is a coset of a 1-dim left witness-subspace (right
    subspace on the dual side), (ii) every direction that occurs comes
    with all of its cosets: the block loop the row kernel replaced."""
    R = res.ring
    Kp = cls.witness.elements
    directions: dict = {}
    for B in map(frozenset, np.asarray(cls.blocks).tolist()):
        c = min(B)
        B0 = frozenset(R.sub(x, c) for x in B)
        b = min(x for x in B0 if x != R.zero)
        if cls.side == "compatibility":
            span = frozenset(R.mul(k, b) for k in Kp)
        else:
            span = frozenset(R.mul(b, k) for k in Kp)
        if B0 != span:
            return False
        directions[B0] = directions.get(B0, 0) + 1
    n_cosets = R.size // len(Kp)
    return all(count == n_cosets for count in directions.values())


def missing_directions(res, cls):
    """The directions K'x (x*K' on the dual side), x != 0, that no block of
    the class has, as sets; raises VerificationError as the row kernel
    does."""
    R, Kp = res.ring, cls.witness.elements
    blocks = list(map(frozenset, np.asarray(cls.blocks).tolist()))
    if cls.side == "compatibility":
        ambient = {frozenset(R.mul(k, x) for k in Kp) for x in R.elements() if x != R.zero}
    else:
        ambient = {frozenset(R.mul(x, k) for k in Kp) for x in R.elements() if x != R.zero}
    if any(len(B) != len(Kp) for B in blocks):
        raise VerificationError(f"{R.name}: a block is no coset of the witness")
    have = {frozenset(R.sub(x, min(B)) for x in B) for B in blocks}
    if not have <= ambient:
        raise VerificationError(f"{R.name}: a block direction is no witness subspace")
    return len(ambient) - len(have)


def validate_partial_affine(res, cls):
    """The class forms a partial affine space on the residue points:
    (i) and (ii) of cosets_hold, and (iii) two points at unit difference
    lie on exactly one block."""
    return cosets_hold(res, cls) and joins_unit_pairs_once(res.ring, cls.blocks)


def eq9_family(R, K, side: str) -> frozenset:
    """The family {K a + c : a unit, c in R} (compatibility side) or
    {d K + c : d unit, c in R} (dual side), as coordinate block sets: the
    loop `coset_family` replaced."""
    out = set()
    for a in R.units:
        if side == "compatibility":
            base = [R.mul(k, a) for k in K.elements]
        else:
            base = [R.mul(a, k) for k in K.elements]
        for c in R.elements():
            out.add(frozenset(R.add(x, c) for x in base))
    return frozenset(out)


def joins_unit_pairs_once(R, blocks) -> bool:
    """Two points at unit difference lie on exactly one of the blocks."""
    joined: dict = {}
    for B in blocks:
        for x, y in combinations(sorted(B), 2):
            joined[(x, y)] = joined.get((x, y), 0) + 1
    return all(joined.get((x, y), 0) == 1
               for x in R.elements() for y in R.elements()
               if x < y and R.is_unit(R.sub(y, x)))


def all_2dim_subspaces(R, q: int) -> list:
    """Every span {i x + j y} of two nonzero elements with q^2 members."""
    def multiples(x):
        out = [R.zero]
        for _ in range(q - 1):
            out.append(R.add(out[-1], x))
        return out

    out = set()
    for x in R.elements():
        for y in R.elements():
            if R.zero in (x, y):
                continue
            span = {R.add(a, b) for a in multiples(x) for b in multiples(y)}
            if len(span) == q * q:
                out.add(frozenset(span))
    return sorted(out, key=sorted)


def affine_checks(R, lines) -> tuple[bool, bool, int]:
    """Two-point axiom, Playfair and lines per point (-1 if it varies)."""
    pair_line: dict = {}
    two_point = True
    for li, L in enumerate(lines):
        for x, y in combinations(sorted(L), 2):
            if (x, y) in pair_line:
                two_point = False
            pair_line[(x, y)] = li
    n = R.size
    if len(pair_line) != n * (n - 1) // 2:
        two_point = False
    by_point: dict = {x: [] for x in R.elements()}
    for li, L in enumerate(lines):
        for x in L:
            by_point[x].append(li)
    playfair = True
    line_sets = [frozenset(L) for L in lines]
    for li, L in enumerate(lines):
        for x in R.elements():
            if x in line_sets[li]:
                continue
            parallels = [m for m in by_point[x]
                         if not (line_sets[m] & line_sets[li])]
            if len(parallels) != 1:
                playfair = False
    r_counts = {len(v) for v in by_point.values()}
    lines_per_point = r_counts.pop() if len(r_counts) == 1 else -1
    return two_point, playfair, lines_per_point


# the Desargues scan -------------------------------------------------------------

def desargues_scan(points, lines, find_failure: bool, cap: int):
    """The loop sweep the table kernel replaced, kept as its reference.

    Same order, count and cap semantics; returns (witness, configurations
    examined), where a cut-off scan has examined exactly cap of them.
    """
    line_of = {}
    for li, L in enumerate(lines):
        for a, b in combinations(L, 2):
            key = (a, b) if a < b else (b, a)
            assert key not in line_of, "projective completion is not linear"
            line_of[key] = li
    by_point: dict = {p: [] for p in points}
    for li, L in enumerate(lines):
        for p in L:
            by_point[p].append(li)
    line_pts = [tuple(L) for L in lines]
    meets: dict = {}

    def meet(l1, l2):
        key = (l1, l2) if l1 < l2 else (l2, l1)
        got = meets.get(key)
        if got is None:
            got = (set(line_pts[l1]) & set(line_pts[l2])).pop()
            meets[key] = got
        return got

    def lt(a, b):
        return line_of[(a, b) if a < b else (b, a)]

    count = 0
    for O in points:
        ls = by_point[O]
        for l1, l2, l3 in combinations(ls, 3):
            p1 = [p for p in line_pts[l1] if p != O]
            p2 = [p for p in line_pts[l2] if p != O]
            p3 = [p for p in line_pts[l3] if p != O]
            for A in p1:
                for A2 in p1:
                    if A2 == A:
                        continue
                    for B in p2:
                        for B2 in p2:
                            if B2 == B:
                                continue
                            ab, ab2 = lt(A, B), lt(A2, B2)
                            if ab == ab2:
                                continue
                            P = meet(ab, ab2)
                            for C in p3:
                                for C2 in p3:
                                    if C2 == C:
                                        continue
                                    count += 1
                                    if find_failure and count > cap:
                                        return None, cap
                                    ac, ac2 = lt(A, C), lt(A2, C2)
                                    bc, bc2 = lt(B, C), lt(B2, C2)
                                    if ac == ac2 or bc == bc2:
                                        continue
                                    Q = meet(ac, ac2)
                                    S = meet(bc, bc2)
                                    if P == Q or P == S or Q == S:
                                        continue
                                    if S in line_pts[lt(P, Q)]:
                                        continue
                                    witness = {
                                        "center": O,
                                        "lines": [l1, l2, l3],
                                        "triangle": [A, B, C],
                                        "image": [A2, B2, C2],
                                        "axis_points": [P, Q, S],
                                    }
                                    return witness, count
    return None, count


# induced maps ---------------------------------------------------------------------

def make_dual_point(R, v, w):
    """The dual point (v, w)^T R, canonicalized."""
    return R.canonical_pair_right(v, w)


def antiiso_dual_to_point(m, q):
    """(v, w)^T R -> R'(v^phi, w^phi) for a ring antiisomorphism."""
    if m.kind != "antiisomorphism":
        raise RingMapError(f"antiiso_dual_to_point needs an antiisomorphism, got an {m.kind}")
    return m.target.canonical_pair_left(m(q[0]), m(q[1]))


def quarter_turn(S, p):
    """R'(a', b') -> R'(b', -a'), the point action of E(0')^-1."""
    return S.canonical_pair_left(p[1], S.neg(p[0]))


def point_sets(geom, rows):
    """Index rows of the Geometry's points, such as a chain set, as the set
    of their point sets."""
    return {frozenset(geom.points[j] for j in row) for row in np.asarray(rows).tolist()}


def row_set(rows):
    """Rows of an integer table as a set of sorted tuples."""
    return {tuple(sorted(r)) for r in np.asarray(rows).tolist()}


def point_map(geom, table):
    """An index permutation of the Geometry's points as a dict on points."""
    return {p: geom.points[j] for p, j in zip(geom.points, np.asarray(table).tolist())}


def iso_point_map(m, p):
    """R(a, b) -> R'(a^phi, b^phi) for a ring isomorphism."""
    if m.kind != "isomorphism":
        raise RingMapError(f"iso_point_map needs an isomorphism, got an {m.kind}")
    return m.target.canonical_pair_left(m(p[0]), m(p[1]))


def transpose_law_holds(m, M, q):
    """(M * q) mapped entrywise equals (q mapped entrywise) * (M^T)^phi."""
    R, S = m.source, m.target
    lhs = antiiso_dual_to_point(m, R.canonical_pair_right(*mat_times_col(R, M, q)))
    Mt_phi = (m(M[0]), m(M[2]), m(M[1]), m(M[3]))
    rhs = S.canonical_pair_left(*row_times_mat(S, (m(q[0]), m(q[1])), Mt_phi))
    return lhs == rhs


def residue_restriction_is_ring_map(m, point_map):
    """Under the coordinate identifications, the restriction of the induced
    map point_map (a callable on points) to the residue at the far point is
    the ring map itself."""
    R, S = m.source, m.target
    return all(point_map(make_point(R, x, R.one)) == make_point(S, m(x), S.one)
               for x in R.elements())


# word sweeps ----------------------------------------------------------------------

def uniform_bytes(rng, n, count):
    """count values uniform in range(n) from rng.randbytes, one byte at a
    time: a round asks for one byte per value still missing, and each byte
    b < 256 - 256 % n in it gives the value b % n; the other bytes are
    dropped."""
    values = []
    while len(values) < count:
        for b in rng.randbytes(count - len(values)):
            if b < 256 - 256 % n:
                values.append(b % n)
    return values


def words(R, samples, seed):
    """Elementary words of length 1 to 3.  Rings with at most
    EXHAUSTIVE_LIMIT elements give every word, each (t1,) followed by its
    extensions (t1, t2), each of those followed by its (t1, t2, t3); larger
    rings give `samples` words from random.Random(seed), by the suites' two
    rejection draws from its bytes (every length, then three letters per
    word, of which the word keeps the first n), one word at a time."""
    if R.size <= EXHAUSTIVE_LIMIT:
        for t1 in R.elements():
            yield (t1,)
            for t2 in R.elements():
                yield (t1, t2)
                for t3 in R.elements():
                    yield (t1, t2, t3)
    else:
        rng = random.Random(seed)
        lengths = [k + 1 for k in uniform_bytes(rng, 3, samples)]
        letters = uniform_bytes(rng, R.size, 3 * samples)
        for i, n in enumerate(lengths):
            yield tuple(letters[3 * i:3 * i + n])


def stepped_word_point(R, ts):
    """The point spanned by (1, 0) * E(t_n) * ... * E(t_1), stepping the row
    in place: (x, y) * E(t) = (x*t - y, x)."""
    add, mul, neg = tables(R)
    x, y = R.one, R.zero
    for t in reversed(ts):
        x, y = add[mul[x][t]][neg[y]], x
    return R.canonical_pair_left(x, y)


def stepped_word_dual_point(R, ts):
    """The closed word formula E(0) * E(-t_1) * ... * E(-t_n) * E(0) * (0, 1)^T,
    stepping the column in place: E(s) * (v, w)^T = (s*v + w, -v)^T."""
    add, mul, neg = tables(R)
    v, w = R.one, R.zero  # E(0) * (0, 1)^T
    for t in reversed(ts):
        v, w = add[mul[neg[t]][v]][w], neg[v]
    return R.canonical_pair_right(w, neg[v])  # a last E(0)


def stepped_antiiso_word_point(m, ts):
    """R'(1', 0') * E(t_n^phi) * ... * E(t_1^phi), stepping the row in place."""
    return stepped_word_point(m.target, tuple(m(t) for t in ts))


def length2_perp_formula(R, t1, t2):
    """R(t2*t1 - 1, t2) maps to (-t2, t1*t2 - 1)^T R."""
    p = make_point(R, R.sub(R.mul(t2, t1), R.one), t2)
    q = R.canonical_pair_right(R.neg(t2), R.sub(R.mul(t1, t2), R.one))
    return p, q


def length3_perp_formula(R, t1, t2, t3):
    """R(t3*t2*t1 - t3 - t1, t3*t2 - 1) maps to
    (-t2*t3 + 1, t1*t2*t3 - t1 - t3)^T R."""
    a = R.sub(R.sub(R.mul(R.mul(t3, t2), t1), t3), t1)
    b = R.sub(R.mul(t3, t2), R.one)
    v = R.add(R.neg(R.mul(t2, t3)), R.one)
    w = R.sub(R.sub(R.mul(R.mul(t1, t2), t3), t1), t3)
    return make_point(R, a, b), R.canonical_pair_right(v, w)


def length1_sigma_formula(R, p1):
    return make_point(R, p1, R.one)


def length2_sigma_formula(R, p1, p2):
    return make_point(R, R.sub(R.mul(p2, p1), R.one), p2)


def length3_sigma_formula(R, p1, p2, p3):
    a = R.sub(R.sub(R.mul(R.mul(p3, p2), p1), p3), p1)
    return make_point(R, a, R.sub(R.mul(p3, p2), R.one))


SIGMA_FORMULAS = (length1_sigma_formula, length2_sigma_formula, length3_sigma_formula)


def duality_formulas_hold(geom, ts, word_dual=stepped_word_dual_point,
                          length2=length2_perp_formula, length3=length3_perp_formula):
    """The duality suite's check of one word: the closed word form, then
    the formula of the word's length, against the Geometry's oracle image
    of the word point."""
    R = geom.ring
    p = stepped_word_point(R, ts)
    oracle = geom.perp_of(p)
    if word_dual(R, ts) != oracle:
        return False
    if len(ts) == 1:
        return R.canonical_pair_right(R.neg(R.one), ts[0]) == oracle
    formula = length2 if len(ts) == 2 else length3
    return formula(R, *ts) == (p, oracle)


def sigma_formulas_hold(m, sigma, ts, word_form=stepped_antiiso_word_point,
                        entrywise=SIGMA_FORMULAS):
    """The sigma suite's check of one word: the closed word form, then the
    entrywise formula of the word's length, against the composite sigma (a
    dict on points) of the word point."""
    R = m.source
    composite = sigma[stepped_word_point(R, ts)]
    if word_form(m, ts) != composite:
        return False
    return entrywise[len(ts) - 1](R, *(m(t) for t in ts)) == composite


def word_keys(kernel, ws) -> np.ndarray:
    """The keys the word kernel gives for the words ws, in their order: one
    call kernel(letters) per length k, on the k x W_k array whose row j
    holds letter t_(j+1) of each word of length k."""
    ws = list(ws)
    out = np.empty(len(ws), dtype=np.intp)
    for k in sorted({len(w) for w in ws}):
        at = [i for i, w in enumerate(ws) if len(w) == k]
        out[at] = kernel(np.array([ws[i] for i in at], dtype=np.intp).reshape(len(at), k).T)
    return out


def as_pairs(keys, n):
    """Canonical keys x*n + y as a list of pairs (x, y)."""
    return [divmod(k, n) for k in np.asarray(keys).tolist()]


def word_sweep(holds, ws):
    """(checks, mismatches, first failing word or None) of the predicate
    holds over the words ws, one word at a time."""
    checks, failing = 0, []
    for ts in ws:
        checks += 1
        if not holds(ts):
            failing.append(ts)
    return checks, len(failing), (failing[0] if failing else None)


def changed_keys(clean: dict, bad: dict) -> set:
    """The report keys where two reports differ."""
    return {k for k in clean.keys() | bad.keys() if clean.get(k) != bad.get(k)}


def slab_costs(call, module) -> list:
    """The (count, cost) of every slabs() call that call makes from module,
    in order: the items and the cost per item each kernel states to the
    one slab budget."""
    seen, real = [], projline.slabs

    def spy(count, cost):
        seen.append((count, cost))
        return real(count, cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "slabs", spy)
        call()
    return seen
