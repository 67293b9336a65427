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
per suite, over the index range or array of its (generator, row) pairs:
covariance_failures groups the masks of every row that occurs into
kernel classes, held as one table of sorted solution keys per class
size, and checks each distinct (generator, kernel class, kernel class)
triple once, with the inverses of the generators from one
projline.mat_inverses call.  Every batch kernel takes its slabs from
projline.slabs, or index_slabs over it, within one byte budget.
The closed formulas under test are array functions over the flat
operation tables, each evaluated on the words of its own length.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from chaingeom.rings import Ring
from chaingeom.projline import (
    Point,
    VerificationError,
    carries,
    flat_at,
    index_slabs,
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


def _pair_keys(R: Ring, p, q) -> np.ndarray:
    """The keys x*|R| + y of x = p0*q0 + p1*q1 and y = p2*q2 + p3*q3,
    elementwise, each p given times |R| as a row offset into R's flat
    tables: flat takes, whose every index fits the dtype of a key."""
    add, mul, n = R._add_f, R._mul_f, R._stride

    def entry(i, j):  # p_i*q_i + p_j*q_j
        return add.take(mul.take(p[i] + q[i]) * n + mul.take(p[j] + q[j]))
    return entry(0, 1) * n + entry(2, 3)


def _kernel_triples(R: Ring, gens, pairs) -> tuple:
    """(triples, counts, classes): every distinct (generator index, class of
    u, class of u*M) of the pairs (as in covariance_failures), as three
    sorted arrays, with the number of pairs each stands for, and the kernel
    classes, built once as (size, slot, tables): class c has size[c]
    solution keys x*|R| + y, increasing, as row slot[c] of tables[size[c]],
    one table per class size.  Rows that occur as u or u*M share a class
    iff their solution_slabs masks are equal as bytes; classes are numbered
    in order of first row, whose mask gives the keys.  The pairs go in
    slabs twice: to mark the rows that occur, then to count the distinct
    triple codes of each slab, merged at the end."""
    n = R.size
    key_t = R._stride.dtype
    m0, m1, m2, m3 = np.asarray(gens, dtype=key_t).reshape(-1, 4).T

    def sweep():  # per slab: its generator indices, u and u*M = (a*m0 + b*m2, a*m1 + b*m3)
        # per pair: u's entries and offsets, the takes and key of u*M, its code and sort
        for _, (w, u) in index_slabs(pairs, (len(gens), n * n), 16, key_t):
            b = u % n
            a, b = u - b, b * n  # a*|R|, b*|R|
            yield w, u, _pair_keys(R, (a, b, a, b), [m.take(w) for m in (m0, m2, m1, m3)])

    present = np.zeros(n * n, dtype=bool)
    for _, u, image in sweep():
        present[u] = present[image] = True
    rows = np.flatnonzero(present)
    cls = np.zeros(n * n, dtype=key_t)
    masks: dict = {}
    found: list = []  # per class, its solution keys
    for part, ker in solution_slabs(R, rows):
        packed = np.packbits(ker, axis=1)  # one np.void key per mask
        of = [masks.setdefault(m, len(masks))
              for m in packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()]
        found += [ker[of.index(c)].nonzero()[0].astype(key_t)
                  for c in range(len(found), len(masks))]
        cls[rows[part]] = of
    size = np.array([len(k) for k in found])
    slot = np.zeros(len(found), dtype=np.intp)
    by_size = {}
    for s in sorted(set(size.tolist())):
        members = np.flatnonzero(size == s)
        slot[members] = np.arange(len(members))
        by_size[s] = np.array([found[i] for i in members.tolist()], dtype=key_t)
    c = np.intp(len(found))
    # intp codes, a dtype every run has sorted already: a narrower one pages
    # in more sort code; distinct by sorting: a plain np.unique imports numpy.ma
    codes, tallies = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]  # no pairs
    for w, u, image in sweep():
        code, tally = np.unique((w * c + cls[u]) * c + cls[image], return_counts=True)
        codes.append(code)
        tallies.append(tally)
    flat, inverse = np.unique(np.concatenate(codes), return_inverse=True)
    counts = np.bincount(inverse, np.concatenate(tallies)).astype(np.intp)
    g, rest = np.divmod(flat, c * c)
    return (g, *np.divmod(rest, c)), counts, (size, slot, by_size)


def covariance_failures(R: Ring, gens, pairs) -> int:
    """The number of pairs, with repeats, where (u*M)-perp differs from
    M^-1 * (u-perp) as raw solution sets, a pair given by its index
    i*|R|^2 + k in pairs, a range or an index array: M = gens[i] and u =
    (a, b) the row of key k = a*|R| + b.

    The check of a pair depends only on M and the kernels of u and u*M.  So
    every row that occurs gets its kernel from one scan, and each distinct
    (generator, class of u, class of u*M) triple (_kernel_triples) is
    checked once, with every M^-1 from one mat_inverses call over the
    distinct generators.  The triples go in slabs, one class size at a
    time: a triple's solution keys are one row of the table of its size,
    and so are its images c -> M^-1 * c, by flat takes on the operation
    tables.  A triple holds iff its distinct images are exactly the keys of
    the class of u*M: where the two classes have one size, iff its images,
    sorted row by row, equal those keys; else (only on a corrupted table)
    by comparing the sets.  A failing triple counts once for every pair it
    stands for.
    """
    n = R.size
    key_t = R._stride.dtype
    triples, counts, (size, slot, by_size) = _kernel_triples(R, gens, pairs)
    g, ker_u, ker_um = triples
    # M^-1 per generator, entries scaled by |R| as row offsets into the
    # flat tables: M^-1 * (v, w)^T = (i0*v + i1*w, i2*v + i3*w)
    used = np.flatnonzero(np.bincount(g, minlength=len(gens)))
    inverse = np.zeros((len(gens), 4), dtype=np.intp)
    inverse[used] = mat_inverses(R, [gens[i] for i in used.tolist()])
    singular = used[inverse[used, 0] < 0]
    if len(singular):
        raise VerificationError(
            f"covariance needs an invertible matrix, got {gens[singular[0]]}")
    inverse = (inverse.T * n).astype(key_t)[:, :, None]

    def images(k, cols):  # of the columns of keys cols, row i under M^-1 of k[i]
        v, w = np.divmod(cols, R._stride)
        return _pair_keys(R, inverse[:, k], (v, w, v, w))

    entries, cols_at = size[ker_u], slot[ker_u]
    # the row of u*M's keys in the table of u's size, or -1: another size,
    # compared after the slabs
    want_at = np.where(size[ker_um] == entries, slot[ker_um], -1)
    holds = np.zeros(len(counts), dtype=bool)
    for s in sorted(set(entries.tolist())):
        of_size = np.flatnonzero(entries == s)
        # per solution key of a triple: the key, the terms of its image, the
        # image and the key of u*M beside it
        for p in slabs(len(of_size), 24 * s):
            sel = of_size[p]
            image = images(g[sel], by_size[s][cols_at[sel]])
            image.sort(axis=1)
            holds[sel] = (image == by_size[s][want_at[sel]]).all(axis=1)
    # a class of u*M of another size than u's, on a corrupted table: the
    # triple holds iff its distinct images are the keys of that class
    for i in np.flatnonzero(want_at < 0).tolist():
        image = images(g[i:i + 1], by_size[entries[i]][cols_at[i]][None, :])
        holds[i] = sorted(set(image.ravel().tolist())) == by_size[size[ker_um[i]]][
            slot[ker_um[i]]].tolist()
    return int(counts[~holds].sum())


# closed formulas ------------------------------------------------------------

def word_dual_points(R: Ring, letters: np.ndarray) -> np.ndarray:
    """Canonical keys v*|R| + w of the annihilator images of the word
    points (projline.word_points) of words of one length n, row j of
    letters holding letter t_(j+1), by the closed word formula
    E(0) * E(-t_1) * ... * E(-t_n) * E(0) * (0, 1)^T, sign factor dropped.
    Every column steps at once, E(s) * (v, w)^T = (s*v + w, -v)^T, by flat
    takes on the narrow tables."""
    add, mul, neg = R._add_f, R._mul_f, R._neg_f
    v, w = np.full(letters.shape[1], R.one, dtype=add.dtype), R.zero  # E(0) * (0, 1)^T
    for t in letters[::-1]:
        v, w = flat_at(R, add, flat_at(R, mul, neg.take(t), v), w), neg.take(v)
    return flat_at(R, R._right_key.ravel(), w, neg.take(v))  # a last E(0)


def word_dual_point(R: Ring, ts: tuple[int, ...]) -> DualPoint:
    """Annihilator image of the word point by the closed word formula: the
    one-word call of word_dual_points."""
    return divmod(int(word_dual_points(R, one_word(ts))[0]), R.size)


# The closed length-1, -2 and -3 formulas, elementwise over the letter
# arrays of the words of their length, by flat takes on the narrow tables:
# each gives the entries of its pairs, not yet canonicalized.

def length1_perp_formula(R: Ring, t1: np.ndarray) -> tuple:
    """The length-1 instance: R(t1, 1) maps to (-1, t1)^T R; gives (v, w)."""
    return np.full_like(t1, R.neg(R.one)), t1


def length2_perp_formula(R: Ring, t1: np.ndarray, t2: np.ndarray) -> tuple:
    """The length-2 instance: R(t2*t1 - 1, t2) maps to (-t2, t1*t2 - 1)^T R;
    gives ((a, b), (v, w))."""
    add, mul, neg = R._add_f, R._mul_f, R._neg_f
    minus_one = neg[R.one]
    return ((flat_at(R, add, flat_at(R, mul, t2, t1), minus_one), t2),
            (neg.take(t2), flat_at(R, add, flat_at(R, mul, t1, t2), minus_one)))


def length3_perp_formula(R: Ring, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> tuple:
    """The length-3 instance: R(t3*t2*t1 - t3 - t1, t3*t2 - 1) maps to
    (-t2*t3 + 1, t1*t2*t3 - t1 - t3)^T R; gives ((a, b), (v, w))."""
    add, mul, neg = R._add_f, R._mul_f, R._neg_f

    def minus(x, y, z):  # x - y - z
        return flat_at(R, add, flat_at(R, add, x, neg.take(y)), neg.take(z))
    t3t2 = flat_at(R, mul, t3, t2)
    a = minus(flat_at(R, mul, t3t2, t1), t3, t1)
    w = minus(flat_at(R, mul, flat_at(R, mul, t1, t2), t3), t1, t3)
    return ((a, flat_at(R, add, t3t2, neg[R.one])),
            (flat_at(R, add, neg.take(flat_at(R, mul, t2, t3)), R.one), w))


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
