"""Isomorphisms of chain geometries from ring (anti)isomorphisms.

A ring antiisomorphism reaches the target line through the dual:
annihilator, then the entrywise map on columns, then a quarter turn
R'(a', b') -> R'(b', -a') that puts the far point back onto the far
point.  For an antiautomorphism that composite sigma is an index
permutation of a Geometry's points, read in one array pass off its perp
array, so that it acts on chain rows as perp does.  The closed word
formula evaluates the same composite as
R'(1', 0') * E(t_n^phi) * ... * E(t_1^phi); it and the three entrywise
image formulas are array functions over the words of a sweep.

The catalogue of verified antiisomorphisms: the transpose on matrix2(q),
any automorphism of a commutative ring, and the diagonal flip
[[a,b],[0,d]] -> [[d,b],[0,a]] of upper-triangular2(q).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from chaingeom.rings import (
    FiniteFieldRing,
    Matrix2Ring,
    Ring,
    RingMap,
    RingMapError,
    Subfield,
    UpperTriangularRing,
    conjugate_subfield,
    make_ring_map,
)
from chaingeom.projline import (
    Point, VerificationError, index_of, one_word, rows_in, sorted_rows, word_points)
from chaingeom.compat import same_partition


class SubfieldConditionError(ValueError):
    """No unit conjugates the image of the source subfield onto the target one."""


# catalogue -----------------------------------------------------------------

def transpose_map(R: Matrix2Ring) -> RingMap:
    """[[a, b], [c, d]] -> [[a, c], [b, d]]: digits (a11, a21, a12, a22)."""
    return make_ring_map(R, R, R.permuted_digits((0, 2, 1, 3)).__getitem__,
                         "antiisomorphism")


def frobenius_map(R: FiniteFieldRing, as_antiiso: bool = False) -> RingMap:
    """x -> x^p; over a commutative ring it serves both ways."""
    p = R.q  # the digit field of a finite field is its prime field
    def t(x):
        out = x
        for _ in range(p - 1):
            out = R.mul(out, x)
        return out
    kind = "antiisomorphism" if as_antiiso else "isomorphism"
    return make_ring_map(R, R, t, kind)


def identity_map(R: Ring, as_antiiso: bool = False) -> RingMap:
    kind = "antiisomorphism" if as_antiiso else "isomorphism"
    return make_ring_map(R, R, lambda x: x, kind)


def triangular_flip_map(R: UpperTriangularRing) -> RingMap:
    """[[a, b], [0, d]] -> [[d, b], [0, a]]: digits (d, b, a)."""
    return make_ring_map(R, R, R.permuted_digits((2, 1, 0)).__getitem__,
                         "antiisomorphism")


def find_conjugator(m: RingMap, K: Subfield, K2: Subfield) -> Optional[int]:
    """The least unit u' of the target with image(K) = u'^-1 K2 u': the unit
    of the first row of K2.conjugates equal to the image, confirmed by one
    conjugate_subfield call."""
    image = np.sort(np.asarray(m.table)[list(K.elements)])
    hits = np.flatnonzero(rows_in(K2.conjugates, image[None]))
    if not len(hits):
        return None
    u = K2.ring.units[hits[0]]
    if conjugate_subfield(K2, u).elements != tuple(image.tolist()):
        raise VerificationError(f"{K2.ring.name}: the conjugate table disagrees at {u}")
    return u


def verify_subfield_condition(m: RingMap, K: Subfield, K2: Subfield) -> int:
    u = find_conjugator(m, K, K2)
    if u is None:
        raise SubfieldConditionError(
            f"image of {K.descriptor} is conjugate to no {K2.descriptor}")
    return u


# induced maps ----------------------------------------------------------------

def antiiso_point_table(m: RingMap, geom) -> np.ndarray:
    """The normalized line isomorphism induced by an antiautomorphism m of
    the ring of the Geometry geom, as an index permutation of its points:
    the annihilator (v, w)^T R (read off geom.perp), the entrywise map to
    R'(v^phi, w^phi), then the quarter turn R'(a', b') -> R'(b', -a'), the
    point action of E(0')^-1, which puts the far point back onto the far
    point.  One array pass over every point."""
    if m.kind != "antiisomorphism":
        raise RingMapError(f"antiiso_point_table needs an antiisomorphism, got an {m.kind}")
    S, phi = m.target, np.asarray(m.table)
    v, w = np.divmod(geom.dual_keys[geom.perp], geom.ring.size)
    return index_of(geom.point_keys, S._left_key[phi[w], S._neg_a[phi[v]]])


def antiiso_word_points(m: RingMap, letters: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Closed form R'(1', 0') * E(t_n^phi) * ... * E(t_1^phi) for every word
    of a sweep (projline.word_points): the word points over the target
    ring of the mapped letters, as canonical keys."""
    return word_points(m.target, np.asarray(m.table)[letters], lengths)


def antiiso_word_point(m: RingMap, ts: tuple[int, ...]) -> Point:
    """The closed word form of one word: the one-word call of
    antiiso_word_points."""
    return divmod(int(antiiso_word_points(m, *one_word(ts))[0]), m.target.size)


# The three entrywise image formulas, elementwise over arrays of mapped
# letters p_i = t_i^phi: each gives the entries (a, b) of the image point,
# not yet canonicalized.

def length1_sigma_formula(S: Ring, p1: np.ndarray) -> tuple:
    """sigma(R(t1, 1)) = R'(p1, 1)."""
    return p1, np.full_like(p1, S.one)


def length2_sigma_formula(S: Ring, p1: np.ndarray, p2: np.ndarray) -> tuple:
    """sigma of the word (t1, t2) is R'(p2*p1 - 1, p2)."""
    add, mul, neg = S._add_a, S._mul_a, S._neg_a
    return add[mul[p2, p1], neg[S.one]], p2


def length3_sigma_formula(S: Ring, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> tuple:
    """sigma of the word (t1, t2, t3) is R'(p3*p2*p1 - p3 - p1, p3*p2 - 1)."""
    add, mul, neg = S._add_a, S._mul_a, S._neg_a
    p3p2 = mul[p3, p2]
    return add[add[mul[p3p2, p1], neg[p3]], neg[p1]], add[p3p2, neg[S.one]]


def preserves_compatibility(m: RingMap, geom, geom2) -> bool:
    """True iff the induced map carries the far-point compatibility
    partition of the Geometry geom onto the one of the target Geometry
    geom2.  On the far-point residue the induced map is m itself, so each
    class goes over as its rows read through m's table."""
    table = np.asarray(m.table)
    return same_partition([sorted_rows(table[c.blocks]) for c in geom.compat_classes],
                          [c.blocks for c in geom2.compat_classes])
