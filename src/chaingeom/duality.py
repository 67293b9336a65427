"""The dual projective line and the canonical isomorphism onto it.

Dual points are cyclic right submodules of column pairs, canonicalized as
the least (v*u, w*u) over units u.  GL2(R) acts on them from the left.

The annihilator map sends a point R(a, b) to the full solution set
{(x, y)^T : a*x + b*y = 0}, computed by an exhaustive kernel scan over all
|R|^2 candidate columns, followed by extraction of an admissible cyclic
generator.  This is the definition-level oracle that every closed formula
in the package is tested against, so it never reuses those formulas.  One
kernel builds every solution set: a boolean mask over the keys x*|R| + y
of all candidate columns, r[x] == -s[y] tested from the operation tables.
perp_point and bidual_point read a generator off that mask by one cyclic
span test, an exact set equality.  perp_point scans on every call and
remembers nothing; a Geometry calls it once per point and keeps the
answers as its perp index array, which never feeds a formula.  The
covariance law is swept per generator: covariance_failures builds the
same kernels for a batch of rows.  The closed formulas under test are
array functions over the operation tables, evaluated for every word of a
sweep at once; word_dual_point is the one-word call of word_dual_points.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from chaingeom.rings import Ring
from chaingeom.projline import (
    Matrix2,
    Point,
    VerificationError,
    _checked_orbit,
    carries,
    mat_invert,
    one_word,
)

DualPoint = tuple[int, int]


class PerpNotCyclicError(VerificationError):
    """The annihilator of a point failed to be cyclic with admissible generator."""


def dual_infinity(R: Ring) -> DualPoint:
    """The dual point (0, 1)^T R, the annihilator image of R(1, 0)."""
    return R.canonical_pair_right(R.zero, R.one)


def col_images(R: Ring, keys, gens) -> np.ndarray:
    """Canonical keys v*|R| + w of the columns M * (v, w)^T, for every
    generator M (axis 0) and every column given by its key (axis 1)."""
    add, mul = R._add_a, R._mul_a
    v, w = np.divmod(np.asarray(keys, dtype=np.intp), R.size)
    m0, m1, m2, m3 = np.asarray(gens, dtype=np.intp).T[:, :, None]
    return R._right_key[add[mul[m0, v], mul[m1, w]], add[mul[m2, v], mul[m3, w]]]


def enumerate_dual_points(R: Ring) -> tuple[DualPoint, ...]:
    """All dual points: left-action orbit of (1,0)^T R, cross-checked
    against the column-admissible scan."""
    return _checked_orbit(R, R._right_key[R.one, R.zero], col_images, R._right_key,
                          R._cols_ok, "dual points")


# the annihilator oracle ----------------------------------------------------

def _kernel_stack(neg: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row i is the raveled |R| x |R| mask r[i, x] + s[i, y] = 0, tested as
    r[i, x] == -s[i, y] over every candidate column (x, y)."""
    return (r[:, :, None] == neg[s][:, None, :]).reshape(len(r), r.shape[1] * s.shape[1])


def annihilator_pairs(R: Ring, rows: Iterable[tuple[int, int]]) -> np.ndarray:
    """The raw solution set {(x, y) : a*x + b*y = 0 for every (a, b) in rows},
    as a boolean mask over the keys x*|R| + y of all |R|^2 candidate columns."""
    rows = list(rows)
    r = np.array([R.left_products(a) for a, _ in rows], dtype=np.intp).reshape(-1, R.size)
    s = np.array([R.left_products(b) for _, b in rows], dtype=np.intp).reshape(-1, R.size)
    return _kernel_stack(R._neg_a, r, s).all(axis=0)


def _cyclic_generator(kernel: np.ndarray, products: np.ndarray,
                      ok: np.ndarray) -> Optional[tuple[int, int]]:
    """The least pair (v, w), by key v*|R| + w, of the kernel mask that the
    table ok admits and whose cyclic span {(products[v, x], products[w, x])
    : x in R}, as a mask, equals the kernel mask: it lies inside the kernel
    and leaves no member out.  None if no pair qualifies."""
    n = len(products)
    for key in np.flatnonzero(kernel & ok.ravel()).tolist():
        v, w = divmod(key, n)
        span = np.zeros_like(kernel)
        span[products[v] * n + products[w]] = True
        if (span == kernel).all():
            return v, w
    return None


def perp_point(R: Ring, p: Point) -> DualPoint:
    """The annihilator of R(a, b) as a canonical dual point.

    Scans the kernel, finds an admissible column whose cyclic right span
    {(v*x, w*x)} is the whole kernel, and returns it canonicalized; raises
    PerpNotCyclicError if there is none (never on zoo rings).
    """
    gen = _cyclic_generator(annihilator_pairs(R, [p]), R._mul_a, R._cols_ok)
    if gen is None:
        raise PerpNotCyclicError(f"kernel of {p} over {R.name} has no admissible generator")
    return R.canonical_pair_right(*gen)


# rows per slab of covariance_failures: at most this many kernel entries
_COV_SLAB = 1 << 15


def covariance_failures(R: Ring, M: Matrix2, rows: Iterable[tuple[int, int]]) -> int:
    """The number of rows u (with repeats) where (u*M)-perp differs from
    M^-1 * (u-perp), as raw solution sets, for every row at once.

    Both kernels are boolean stacks over all |R|^2 candidate columns, built
    from the operation tables in slabs of rows; the map c -> M^-1 * c is an
    index table over the columns.
    """
    Minv = mat_invert(R, M)
    if Minv is None:
        raise VerificationError(f"covariance needs an invertible matrix, got {M}")
    add, mul, neg = R._add_a, R._mul_a, R._neg_a
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

def word_dual_points(R: Ring, letters: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Canonical keys v*|R| + w of the annihilator images of the word
    points (projline.word_points), by the closed word formula
    E(0) * E(-t_1) * ... * E(-t_n) * E(0) * (0, 1)^T, sign factor dropped.
    Every column steps at once, E(s) * (v, w)^T = (s*v + w, -v)^T, where
    lengths > j masks letter j in."""
    add, mul, neg = R._add_a, R._mul_a, R._neg_a
    letters = np.asarray(letters, dtype=np.intp)
    lengths = np.asarray(lengths)
    v = np.full(len(lengths), R.one, dtype=np.intp)  # E(0) * (0, 1)^T
    w = np.full(len(lengths), R.zero, dtype=np.intp)
    for j in reversed(range(letters.shape[1])):
        live = lengths > j
        v, w = np.where(live, add[mul[neg[letters[:, j]], v], w], v), np.where(live, neg[v], w)
    return R._right_key[w, neg[v]]  # a last E(0)


def word_dual_point(R: Ring, ts: tuple[int, ...]) -> DualPoint:
    """Annihilator image of the word point by the closed word formula: the
    one-word call of word_dual_points."""
    return divmod(int(word_dual_points(R, *one_word(ts))[0]), R.size)


# The closed length-1, -2 and -3 formulas, elementwise over arrays of
# letters: each gives the entries of its pairs, not yet canonicalized.

def length1_perp_formula(R: Ring, t1: np.ndarray) -> tuple:
    """The length-1 instance: R(t1, 1) maps to (-1, t1)^T R; gives (v, w)."""
    return np.full_like(t1, R.neg(R.one)), t1


def length2_perp_formula(R: Ring, t1: np.ndarray, t2: np.ndarray) -> tuple:
    """The length-2 instance: R(t2*t1 - 1, t2) maps to (-t2, t1*t2 - 1)^T R;
    gives ((a, b), (v, w))."""
    add, mul, neg = R._add_a, R._mul_a, R._neg_a
    minus_one = neg[R.one]
    return ((add[mul[t2, t1], minus_one], t2),
            (neg[t2], add[mul[t1, t2], minus_one]))


def length3_perp_formula(R: Ring, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> tuple:
    """The length-3 instance: R(t3*t2*t1 - t3 - t1, t3*t2 - 1) maps to
    (-t2*t3 + 1, t1*t2*t3 - t1 - t3)^T R; gives ((a, b), (v, w))."""
    add, mul, neg = R._add_a, R._mul_a, R._neg_a
    minus_one = neg[R.one]
    t3t2 = mul[t3, t2]
    a = add[add[mul[t3t2, t1], neg[t3]], neg[t1]]
    w = add[add[mul[mul[t1, t2], t3], neg[t1]], neg[t3]]
    return (a, add[t3t2, minus_one]), (add[neg[mul[t2, t3]], R.one], w)


# bidual and opposite --------------------------------------------------------

def bidual_point(R: Ring, q: DualPoint) -> Point:
    """The annihilator of a dual point, back on the line via the canonical
    identification of R^2 with its bidual: the bidual of p is
    bidual_point(R, perp_point(R, p)).  The left kernel holds the rows
    (a, b) with a*v + b*w = 0, over all |R|^2 rows; its generator spans it
    as {(x*a, x*b)}."""
    cols = R._mul_a.T  # cols[v, x] = x*v
    kern = _kernel_stack(R._neg_a, cols[[q[0]]], cols[[q[1]]])[0]
    gen = _cyclic_generator(kern, cols, R._rows_ok)
    if gen is None:
        raise PerpNotCyclicError(f"left kernel of {q} over {R.name} not cyclic")
    return R.canonical_pair_left(*gen)


def dual_matches_opposite(geom, op) -> bool:
    """Transposing columns to rows over the opposite ring carries the dual
    line of the Geometry geom onto the line of the Geometry op over
    R-opposite, and dual chains onto its chains: the two key arrays are
    equal, so the map is the identity on indices."""
    return (np.array_equal(geom.dual_keys, op.point_keys)
            and carries(np.arange(len(op.points)), geom.dual_chains, op.chains))
