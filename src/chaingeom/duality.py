"""The dual projective line and the canonical isomorphism onto it.

Dual points are cyclic right submodules of column pairs, canonicalized as
the least (v*u, w*u) over units u.  GL2(R) acts on them from the left.

The annihilator map sends a point R(a, b) to the full solution set
{(x, y)^T : a*x + b*y = 0}, computed by an exhaustive kernel scan over all
|R|^2 candidate columns, followed by extraction of an admissible cyclic
generator.  This is the definition-level oracle that every closed formula
in the package is tested against, so it never reuses those formulas.  The
scan reads the ring's operation tables and bucket-matches a*x against
-(b*y) over all x and y, which inspects every candidate column.  perp_point
scans once per (ring instance, point); its memo holds only the oracle's own
results and never feeds a formula.  The covariance law is swept per
generator: covariance_failures builds the same kernels for a batch of rows
as boolean stacks from the tables, and covariance_holds stays the per-module
check.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Optional

import numpy as np

from chaingeom.rings import Ring, Subfield, subfield_in_opposite
from chaingeom.projline import (
    Matrix2,
    Point,
    VerificationError,
    _checked_orbit,
    elementary,
    enumerate_points,
    is_admissible,
    is_column_admissible,
    line_generators,
    make_point,
    mat_invert,
    mat_times_col,
    row_times_mat,
)
from chaingeom.chains import chain_orbit, stabilizer_generators

DualPoint = tuple[int, int]


class PerpNotCyclicError(VerificationError):
    """The annihilator of a point failed to be cyclic with admissible generator."""


def make_dual_point(R: Ring, v: int, w: int) -> DualPoint:
    return R.canonical_pair_right(v, w)


def dual_infinity(R: Ring) -> DualPoint:
    """The dual point (0, 1)^T R, the annihilator image of R(1, 0)."""
    return R.canonical_pair_right(R.zero, R.one)


def apply_matrix_dual(R: Ring, q: DualPoint, M: Matrix2) -> DualPoint:
    """The dual point M * q, canonicalized."""
    return R.canonical_pair_right(*mat_times_col(R, M, q))


@cache
def enumerate_dual_points(R: Ring) -> tuple[DualPoint, ...]:
    """All dual points: left-action orbit of (1,0)^T R, cross-checked
    against the column-admissible scan."""
    scanned = {R.canonical_pair_right(v, w)
               for v in R.elements() for w in R.elements()
               if is_column_admissible(R, v, w)}
    return _checked_orbit(R, R.canonical_pair_right(R.one, R.zero), apply_matrix_dual,
                         scanned, "dual points")


def dual_distant(R: Ring, q1: DualPoint, q2: DualPoint) -> bool:
    """True iff the columns side by side form a matrix in GL2(R)."""
    return mat_invert(R, (q1[0], q2[0], q1[1], q2[1])) is not None


@cache
def dual_standard_chain(R: Ring, K: Subfield) -> frozenset:
    """{(k, 1)^T R : k in K} together with (1, 0)^T R."""
    pts = {make_dual_point(R, k, R.one) for k in K.elements}
    pts.add(R.canonical_pair_right(R.one, R.zero))
    return frozenset(pts)


def apply_matrix_dual_chain(R: Ring, C: frozenset, M: Matrix2) -> frozenset:
    return frozenset(apply_matrix_dual(R, q, M) for q in C)


def _dual_orbit(R: Ring, seed: frozenset, gens) -> frozenset:
    seen = {seed}
    frontier = [seed]
    while frontier:
        C = frontier.pop()
        for M in gens:
            D = apply_matrix_dual_chain(R, C, M)
            if D not in seen:
                seen.add(D)
                frontier.append(D)
    return frozenset(seen)


@cache
def dual_chain_orbit(R: Ring, K: Subfield, through: Optional[DualPoint] = None) -> frozenset:
    """All dual chains, or all through a given dual point."""
    if through is None:
        return _dual_orbit(R, dual_standard_chain(R, K), line_generators(R))
    if through == dual_infinity(R):
        # shift the standard chain through (0,1)^T R first, then walk its stabilizer
        seed = apply_matrix_dual_chain(R, dual_standard_chain(R, K), elementary(R, R.zero))
        assert through in seed
        return _dual_orbit(R, seed, stabilizer_generators(R))
    return frozenset(C for C in dual_chain_orbit(R, K) if through in C)


# the annihilator oracle ----------------------------------------------------

def _kernel(neg: tuple[int, ...], r: tuple[int, ...], s: tuple[int, ...]) -> set:
    """{(x, y) : r[x] + s[y] = 0}, each x matched against the bucket of -s[y]."""
    buckets: dict = {}
    for y, sy in enumerate(s):
        buckets.setdefault(neg[sy], []).append(y)
    return {(x, y) for x, rx in enumerate(r) for y in buckets.get(rx, ())}


def annihilator_pairs(R: Ring, rows: Iterable[tuple[int, int]]) -> frozenset:
    """The raw solution set {(x, y) : a*x + b*y = 0 for every (a, b) in rows}.

    Exhaustive over all |R|^2 candidate columns: for each row, every x is
    matched against the bucket of y with -(b*y) = a*x.
    """
    sol = None
    for a, b in rows:
        cur = _kernel(R._neg_t, R.left_products(a), R.left_products(b))
        sol = cur if sol is None else sol & cur
    if sol is None:  # no equations: every column solves them
        sol = {(x, y) for x in R.elements() for y in R.elements()}
    return frozenset(sol)


@cache
def perp_point(R: Ring, p: Point) -> DualPoint:
    """The annihilator of R(a, b) as a canonical dual point.

    Scans the kernel, verifies it is a cyclic right submodule spanned by an
    admissible column, and returns that generator; raises PerpNotCyclicError
    otherwise (never on zoo rings).  Memoized per (ring instance, point).
    """
    kern = annihilator_pairs(R, [p])
    for v, w in sorted(kern):
        if not is_column_admissible(R, v, w):
            continue
        if set(zip(R.left_products(v), R.left_products(w))) == kern:
            return R.canonical_pair_right(v, w)
    raise PerpNotCyclicError(f"kernel of {p} over {R.name} has no admissible generator")


def perp_chain(R: Ring, C: frozenset) -> frozenset:
    return frozenset(perp_point(R, p) for p in C)


def covariance_holds(R: Ring, U: Iterable[tuple[int, int]], M: Matrix2) -> bool:
    """(U*M)-perp equals M^-1 * (U-perp), as raw solution sets."""
    U = list(U)
    Minv = mat_invert(R, M)
    if Minv is None:
        raise VerificationError(f"covariance needs an invertible matrix, got {M}")
    lhs = annihilator_pairs(R, [row_times_mat(R, u, M) for u in U])
    rhs = frozenset(mat_times_col(R, Minv, c) for c in annihilator_pairs(R, U))
    return lhs == rhs


@cache
def _table_arrays(R: Ring) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The add, mul and neg tables as integer arrays, built on first use per ring."""
    return tuple(np.array(t, dtype=np.intp) for t in (R._add_t, R._mul_t, R._neg_t))


# rows per slab of covariance_failures: at most this many kernel entries
_COV_SLAB = 1 << 15


def _kernel_stack(neg: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row i is the raveled |R| x |R| mask r[i, x] + s[i, y] = 0, tested as
    r[i, x] == -s[i, y] over every candidate column (x, y)."""
    return (r[:, :, None] == neg[s][:, None, :]).reshape(len(r), -1)


def covariance_failures(R: Ring, M: Matrix2, rows: Iterable[tuple[int, int]]) -> int:
    """The number of rows u (with repeats) where (u*M)-perp differs from
    M^-1 * (u-perp), as raw solution sets: covariance_holds(R, [u], M) for
    every row at once.

    Both kernels are boolean stacks over all |R|^2 candidate columns, built
    from the operation tables in slabs of rows; the map c -> M^-1 * c is an
    index table over the columns.
    """
    Minv = mat_invert(R, M)
    if Minv is None:
        raise VerificationError(f"covariance needs an invertible matrix, got {M}")
    add, mul, neg = _table_arrays(R)
    n = R.size
    v, w = np.arange(n)[:, None], np.arange(n)[None, :]
    image = (add[mul[Minv[0], v], mul[Minv[1], w]] * n
             + add[mul[Minv[2], v], mul[Minv[3], w]]).ravel()
    rows = np.array(list(rows), dtype=np.intp).reshape(-1, 2)
    failures = 0
    step = max(1, _COV_SLAB // (n * n))
    for r0 in range(0, len(rows), step):
        a, b = rows[r0:r0 + step].T
        am, bm = mul[a], mul[b]
        ker = _kernel_stack(neg, am, bm)
        # the rows u*M = (a*M0 + b*M2, a*M1 + b*M3)
        lhs = _kernel_stack(neg, mul[add[am[:, M[0]], bm[:, M[2]]]],
                            mul[add[am[:, M[1]], bm[:, M[3]]]])
        rhs = np.zeros_like(lhs)
        i, c = np.nonzero(ker)
        rhs[i, image[c]] = True
        failures += int(np.count_nonzero((lhs != rhs).any(axis=1)))
    return failures


# closed formulas ------------------------------------------------------------

def word_dual_point(R: Ring, ts: tuple[int, ...]) -> DualPoint:
    """Annihilator image of the word point, by the closed word formula:
    E(0) * E(-t_1) * ... * E(-t_n) * E(0) * (0, 1)^T, sign factor dropped."""
    col = (R.zero, R.one)
    col = mat_times_col(R, elementary(R, R.zero), col)
    for t in reversed(ts):
        col = mat_times_col(R, elementary(R, R.neg(t)), col)
    col = mat_times_col(R, elementary(R, R.zero), col)
    return R.canonical_pair_right(*col)


def commutative_perp_formula(R: Ring, p: Point) -> DualPoint:
    """R(a, b) -> (-b, a)^T R, valid over commutative rings."""
    a, b = p
    return R.canonical_pair_right(R.neg(b), a)


def length2_perp_formula(R: Ring, t1: int, t2: int) -> tuple[Point, DualPoint]:
    """The length-2 instance: R(t2*t1 - 1, t2) maps to (-t2, t1*t2 - 1)^T R."""
    p = make_point(R, R.sub(R.mul(t2, t1), R.one), t2)
    q = R.canonical_pair_right(R.neg(t2), R.sub(R.mul(t1, t2), R.one))
    return p, q


def length3_perp_formula(R: Ring, t1: int, t2: int, t3: int) -> tuple[Point, DualPoint]:
    """The length-3 instance: R(t3*t2*t1 - t3 - t1, t3*t2 - 1) maps to
    (-t2*t3 + 1, t1*t2*t3 - t1 - t3)^T R."""
    a = R.sub(R.sub(R.mul(R.mul(t3, t2), t1), t3), t1)
    b = R.sub(R.mul(t3, t2), R.one)
    v = R.add(R.neg(R.mul(t2, t3)), R.one)
    w = R.sub(R.sub(R.mul(R.mul(t1, t2), t3), t1), t3)
    return make_point(R, a, b), R.canonical_pair_right(v, w)


# bidual and opposite --------------------------------------------------------

def bidual_point(R: Ring, p: Point) -> Point:
    """Apply the annihilator twice, returning to the line via the canonical
    identification of R^2 with its bidual."""
    v, w = perp_point(R, p)
    # left kernel: rows (a, b) with a*v + b*w = 0, over all |R|^2 rows
    kern = _kernel(R._neg_t, R.right_products(v), R.right_products(w))
    for a, b in sorted(kern):
        if not is_admissible(R, a, b):
            continue
        if set(zip(R.right_products(a), R.right_products(b))) == kern:
            return R.canonical_pair_left(a, b)
    raise PerpNotCyclicError(f"left kernel of {p} over {R.name} not cyclic")


def bidual_fixes(R: Ring, p: Point) -> bool:
    return bidual_point(R, p) == p


def dual_matches_opposite(R: Ring, K: Subfield) -> bool:
    """Transposing columns to rows over the opposite ring carries the dual
    line onto the line over R-opposite and dual chains onto its chains."""
    op = R.opposite()
    Kop = subfield_in_opposite(K)
    if set(enumerate_dual_points(R)) != set(enumerate_points(op)):
        return False
    dual_chains = dual_chain_orbit(R, K)
    op_chains = chain_orbit(op, Kop)
    return {frozenset(q for q in C) for C in dual_chains} == set(op_chains)
