"""Isomorphisms of chain geometries from ring (anti)isomorphisms.

A ring isomorphism acts on points entrywise.  A ring antiisomorphism
reaches the target line through the dual: annihilator, then the entrywise
map on columns, then a quarter turn R'(a', b') -> R'(b', -a') that puts the
far point back onto the far point.  The closed word formula evaluates the
same composite as R'(1', 0') * E(t_n^phi) * ... * E(t_1^phi); it and the
three entrywise image formulas are array functions over the words of a
sweep.

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
from chaingeom.projline import Point, one_word, word_points
from chaingeom.duality import DualPoint


class SubfieldConditionError(ValueError):
    """No unit conjugates the image of the source subfield onto the target one."""


# catalogue -----------------------------------------------------------------

def transpose_map(R: Matrix2Ring) -> RingMap:
    """[[a, b], [c, d]] -> [[a, c], [b, d]]: digits (a11, a21, a12, a22)."""
    return make_ring_map(R, R, R.permuted_digits((0, 2, 1, 3)).__getitem__,
                         "antiisomorphism")


def frobenius_map(R: FiniteFieldRing, as_antiiso: bool = False) -> RingMap:
    """x -> x^p; over a commutative ring it serves both ways."""
    p = R.gf.p
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
    """A unit u' of the target with image(K) = u'^-1 K2 u', by exhaustion."""
    S = m.target
    image = frozenset(m(k) for k in K.elements)
    for u in S.units:
        if frozenset(conjugate_subfield(K2, u).elements) == image:
            return u
    return None


def verify_subfield_condition(m: RingMap, K: Subfield, K2: Subfield) -> int:
    u = find_conjugator(m, K, K2)
    if u is None:
        raise SubfieldConditionError(
            f"image of {K.descriptor} is conjugate to no {K2.descriptor}")
    return u


# induced maps ----------------------------------------------------------------

def antiiso_dual_to_point(m: RingMap, q: DualPoint) -> Point:
    """(v, w)^T R -> R'(v^phi, w^phi) for a ring antiisomorphism."""
    if m.kind != "antiisomorphism":
        raise RingMapError(f"antiiso_dual_to_point needs an antiisomorphism, got an {m.kind}")
    return m.target.canonical_pair_left(m(q[0]), m(q[1]))


def quarter_turn(S: Ring, p: Point) -> Point:
    """R'(a', b') -> R'(b', -a'), the point action of E(0')^-1."""
    return S.canonical_pair_left(p[1], S.neg(p[0]))


def antiiso_point_table(m: RingMap, geom) -> dict:
    """The normalized line isomorphism induced by an antiisomorphism, on
    every point of the Geometry geom over its source ring: annihilator (read
    off geom.perp), entrywise map, quarter turn.  Fixes the far point."""
    return {p: quarter_turn(m.target, antiiso_dual_to_point(m, geom.perp_of(p)))
            for p in geom.points}


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


def transported_partition(m: RingMap, classes) -> set:
    """Push a far-point block partition through the residue restriction."""
    return {frozenset(frozenset(m(x) for x in B) for B in c.blocks)
            for c in classes}


def preserves_compatibility(m: RingMap, geom, geom2) -> bool:
    """True iff the induced map carries the far-point compatibility
    partition of the Geometry geom onto the one of the target Geometry
    geom2."""
    return (transported_partition(m, geom.compat_classes)
            == {c.blocks for c in geom2.compat_classes})
