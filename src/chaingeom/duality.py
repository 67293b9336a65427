"""The canonical isomorphism of the projective line onto its dual.

Dual points are cyclic right submodules of column pairs, canonicalized as
the least (v*u, w*u) over units u.  GL2(R) acts on them from the left; they
are enumerated, acted on and formed into chains by the same code as the
points, on its dual side (geometry.Line, projline.row_images).

The annihilator map sends a point R(a, b) to the full solution set
{(x, y)^T : a*x + b*y = 0}, computed by an exhaustive kernel scan over all
|R|^2 candidate columns, followed by extraction of an admissible cyclic
generator.  This is the definition-level oracle that every closed formula
in the package is tested against, so it never reuses those formulas.  One
driver, projline.solution_slabs, scans the solution sets of whole batches
as boolean masks over the keys x*|R| + y, a*x == -b*y tested from the
operation tables.  perp_keys and bidual_keys read the generators of a
batch of points, or dual points, off those masks by one exact cyclic span
test per slab, and fall back to a search in key order; perp_point is the
one-point oracle, annihilator_pairs searched in key order.  They remember
nothing; a Geometry keeps one perp_keys call as its perp index array,
which never feeds a formula.  The covariance law is checked in one call
per suite: covariance_failures groups the masks of every row that occurs
into kernel classes, each kept as its sorted solution keys, and checks
each distinct (generator, kernel class, kernel class) triple once, with
the inverses of the generators from one projline.mat_inverses call.
Every batch kernel takes its slabs from projline.slabs, within one byte
budget.
The closed formulas under test are array functions over the operation
tables, evaluated for every word of a sweep at once.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from chaingeom.rings import Ring
from chaingeom.projline import (
    Point,
    VerificationError,
    carries,
    mat_inverses,
    one_word,
    slabs,
    solution_slabs,
)

DualPoint = tuple[int, int]


class PerpNotCyclicError(VerificationError):
    """The annihilator of a point failed to be cyclic with admissible generator."""


def dual_infinity(R: Ring) -> DualPoint:
    """The dual point (0, 1)^T R, the annihilator image of R(1, 0)."""
    return R.canonical_pair_right(R.zero, R.one)


# the annihilator oracle ----------------------------------------------------

def annihilator_pairs(R: Ring, rows: Iterable[tuple[int, int]]) -> np.ndarray:
    """The raw solution set {(x, y) : a*x + b*y = 0 for every (a, b) in rows},
    as a boolean mask over the keys x*|R| + y of all |R|^2 candidate columns."""
    rows = list(rows)
    r = np.array([R.left_products(a) for a, _ in rows], dtype=np.intp).reshape(-1, R.size)
    s = np.array([R.left_products(b) for _, b in rows], dtype=np.intp).reshape(-1, R.size)
    return (r[:, :, None] == R._neg_a[s][:, None, :]).all(axis=0).ravel()


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


def _generators(kernels: np.ndarray, products: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The key of _cyclic_generator for every kernel mask, a row of kernels,
    or -1 where it finds none.  The least admitted key of every row is
    tried at once, by one span-equality test; a row where it does not span
    goes to _cyclic_generator, which tries the rest in order."""
    n, admitted = len(products), ok.ravel()
    rows = np.arange(len(kernels))
    first = (kernels & admitted).argmax(axis=1)  # 0 if the row admits none
    v, w = np.divmod(first, n)
    span = np.zeros_like(kernels)
    span[rows[:, None], products[v] * n + products[w]] = True
    span ^= kernels  # no member left iff the span is the kernel
    gen = np.where(admitted[first] & kernels[rows, first] & ~span.any(axis=1), first, -1)
    for i in np.flatnonzero(gen < 0).tolist():
        found = _cyclic_generator(kernels[i], products, ok)
        if found is not None:
            gen[i] = found[0] * n + found[1]
    return gen


def _generator_keys(R: Ring, keys, dual: bool, failure: str) -> np.ndarray:
    """Canonical keys of the generators of the kernels of keys
    (solution_slabs; with dual the left kernels of columns), slab by slab:
    the least admissible pair, by key, whose cyclic span is the set (with
    dual, admissible as a row and spanning {(x*a, x*b)}).  Raises
    PerpNotCyclicError, with failure formatted by the first such pair and
    the ring name, at the first key whose set has no generator."""
    n = R.size
    products, ok, canonical = ((R._mul_a.T, R._rows_ok, R._left_key) if dual
                               else (R._mul_a, R._cols_ok, R._right_key))
    keys = np.asarray(keys, dtype=np.intp)
    out = np.empty(len(keys), dtype=np.intp)
    # per kernel, beside its mask: the span (a mask), four intp index
    # arrays of |R| entries to scatter it, and five intp scalars
    held = n * n + 32 * n + 40
    for part, kernels in solution_slabs(R, keys, dual, held=held):
        gen = _generators(kernels, products, ok)
        if (gen < 0).any():
            bad = int(keys[part][np.argmax(gen < 0)])
            raise PerpNotCyclicError(failure.format(divmod(bad, n), R.name))
        out[part] = canonical.ravel()[gen]
    return out


def perp_keys(R: Ring, keys) -> np.ndarray:
    """The annihilators of the points of keys a*|R| + b, as canonical dual
    keys v*|R| + w.

    Scans the kernel {(x, y)^T : a*x + b*y = 0} of every point, finds the
    least admissible column whose cyclic right span {(v*x, w*x)} is the
    whole kernel, and canonicalizes it; raises PerpNotCyclicError if there
    is none (never on zoo rings).
    """
    return _generator_keys(R, keys, False, "kernel of {} over {} has no admissible generator")


def perp_point(R: Ring, p: Point) -> DualPoint:
    """The annihilator of R(a, b) as a canonical dual point, by the
    one-point scan: the annihilator_pairs mask searched by
    _cyclic_generator.  Gives what perp_keys gives for p, the same
    PerpNotCyclicError included."""
    gen = _cyclic_generator(annihilator_pairs(R, [p]), R._mul_a, R._cols_ok)
    if gen is None:
        raise PerpNotCyclicError(f"kernel of {p} over {R.name} has no admissible generator")
    return R.canonical_pair_right(*gen)


def _kernel_triples(R: Ring, gens, which, keys) -> tuple:
    """(triples, counts, classes): every distinct (generator index, class of
    u, class of u*M) of the pairs (M = gens[which[i]], u = the row of key
    keys[i]), as three sorted arrays, with the number of pairs each stands
    for, and the sorted solution keys x*|R| + y of every kernel class.  Rows
    that occur as u or u*M share a class iff their solution_slabs masks are
    equal as bytes; classes are numbered in order of first row, whose mask
    gives the keys.  The pairs go in slabs and keep only the key of u*M, in
    the narrowest dtype, and the triple code."""
    n = R.size
    small = np.min_scalar_type(n - 1)
    add, mul = R._add_a.astype(small), R._mul_a.astype(small)
    gens = np.asarray(gens, dtype=small)
    which, keys = np.asarray(which), np.asarray(keys)
    images = np.empty(len(keys), dtype=np.min_scalar_type(n * n - 1))  # u*M

    def image_keys(part):  # the entries of a chunk go with the call
        a, b = np.divmod(keys[part], n)
        m0, m1, m2, m3 = gens[which[part]].T
        return (add[mul[a, m0], mul[b, m2]].astype(images.dtype) * n
                + add[mul[a, m1], mul[b, m3]])

    # per pair: its row entries and the gathers of u*M, or the terms of its
    # code, with the intp copies numpy makes of narrow index arrays
    chunks = list(slabs(np.full(len(keys), 48)))
    for part in chunks:
        images[part] = image_keys(part)
    present = np.zeros(n * n, dtype=bool)
    present[keys] = present[images] = True
    rows = np.flatnonzero(present)
    cls = np.zeros(n * n, dtype=images.dtype)
    masks: dict = {}
    classes: list = []
    for part, ker in solution_slabs(R, rows):
        of = [masks.setdefault(m.tobytes(), len(masks)) for m in np.packbits(ker, axis=1)]
        classes += [ker[of.index(c)].nonzero()[0].astype(images.dtype)
                    for c in range(len(classes), len(masks))]
        cls[rows[part]] = of
    c = len(classes)
    # intp, a dtype every run has sorted already: a narrower one pages in more sort code
    code = np.empty(len(keys), dtype=np.intp)
    for part in chunks:
        code[part] = (which[part] * c + cls[keys[part]]) * c + cls[images[part]]
    # distinct triples by sorting: a plain np.unique imports numpy.ma
    flat, counts = np.unique(code, return_counts=True)
    g, rest = np.divmod(flat, c * c)
    return (g, *np.divmod(rest, c)), counts, classes


def covariance_failures(R: Ring, gens, which, keys) -> int:
    """The number of pairs i, with repeats, where (u*M)-perp differs from
    M^-1 * (u-perp) as raw solution sets, for M = gens[which[i]] and the
    row u = (a, b) of key keys[i] = a*|R| + b.

    The check of a pair depends only on M and the kernels of u and u*M.  So
    every row that occurs gets its kernel from one scan, and each distinct
    (generator, class of u, class of u*M) triple (_kernel_triples) is
    checked once: the sorted keys of the class of u go through the column
    map c -> M^-1 * c by table gathers, with every M^-1 from one
    mat_inverses call over the distinct generators, and the triple holds
    iff its distinct images are exactly the keys of the class of u*M; a
    failing triple counts once for every pair it stands for.
    """
    n = R.size
    add, mul = R._add_a.ravel(), R._mul_a.ravel()
    (g, ker_u, ker_um), counts, classes = _kernel_triples(R, gens, which, keys)
    size = np.array([len(k) for k in classes])
    # M^-1 per generator, entries scaled by |R| as row offsets into the
    # flat tables: M^-1 * (v, w)^T = (i0*v + i1*w, i2*v + i3*w)
    used = np.flatnonzero(np.bincount(g, minlength=len(gens)))
    inverse = np.zeros((len(gens), 4), dtype=np.intp)
    inverse[used] = mat_inverses(R, [gens[i] for i in used.tolist()])
    singular = used[inverse[used, 0] < 0]
    if len(singular):
        raise VerificationError(
            f"covariance needs an invertible matrix, got {gens[singular[0]]}")
    inverse = inverse.T * n
    failures = 0
    # per solution of u: its triple and entries, the intp terms of its image
    # and the sorted codes of the images and of u*M's keys
    for part in slabs(96 * size[ker_u]):
        # codes t*|R|^2 + key, t the triple: the images of u's keys, sorted; u*M's keys
        t = np.repeat(np.arange(len(counts[part])), size[ker_u[part]])
        v, w = np.divmod(np.concatenate([classes[c] for c in ker_u[part].tolist()]), n)
        i0, i1, i2, i3 = inverse[:, g[part]]
        got = np.sort(t * (n * n) + add[mul[i0[t] + v] * n + mul[i1[t] + w]] * n
                      + add[mul[i2[t] + v] * n + mul[i3[t] + w]])
        want = (np.repeat(np.arange(len(counts[part])), size[ker_um[part]]) * (n * n)
                + np.concatenate([classes[c] for c in ker_um[part].tolist()]))
        if np.array_equal(got, want):  # every triple of the slab holds
            continue
        # else a triple fails iff one of its distinct codes is in got or want alone
        got = got[np.r_[True, got[1:] != got[:-1]]]
        bad = np.zeros(len(counts[part]), dtype=bool)
        bad[np.setxor1d(got, want, assume_unique=True) // (n * n)] = True
        failures += int(counts[part][bad].sum())
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

def bidual_keys(R: Ring, keys) -> np.ndarray:
    """The annihilators of the dual points of keys v*|R| + w, back on the
    line via the canonical identification of R^2 with its bidual, as
    canonical point keys a*|R| + b: the bidual of p is the perp_keys image
    sent through bidual_keys.  The left kernel holds the rows (a, b) with
    a*v + b*w = 0, over all |R|^2 rows; its generator spans it as
    {(x*a, x*b)}."""
    return _generator_keys(R, keys, True, "left kernel of {} over {} not cyclic")


def bidual_point(R: Ring, q: DualPoint) -> Point:
    """The bidual image of the dual point q: the one-point call of
    bidual_keys."""
    return divmod(int(bidual_keys(R, [q[0] * R.size + q[1]])[0]), R.size)


def dual_matches_opposite(geom, op) -> bool:
    """Transposing columns to rows over the opposite ring carries the dual
    Line of the Geometry geom onto the Line op over R-opposite, and its
    chains onto the chains of op: the two key arrays are equal, so the map
    is the identity on indices."""
    return (np.array_equal(geom.dual.keys, op.keys)
            and carries(np.arange(len(op.points)), geom.dual.chains, op.chains))
