"""Chains, their generators, and residues with coordinatized blocks.

A chain is a frozenset of points: the image of the embedded line over the
subfield K under some matrix in GL2(R).  The full chain set is the orbit
of the standard chain under the projective-line generator set; chains
through the far point R(1, 0) form the orbit under its stabilizer (lower
triangular matrices with unit diagonal), generated by a small
closure-tested generating set.  Both orbits are built by a Geometry;
both routes must agree where both are affordable, which the tests check.

For the largest ring in the zoo (matrix2(3)) the full orbit is never
materialized; every residue computation happens at the far point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from chaingeom.rings import Ring, Subfield, additive_generators, unit_generators
from chaingeom.projline import (
    Matrix2,
    Point,
    VerificationError,
    infinity,
    make_point,
)

Chain = frozenset  # of Point


def standard_chain(R: Ring, K: Subfield) -> Chain:
    """{R(k, 1) : k in K} together with R(1, 0)."""
    pts = {make_point(R, k, R.one) for k in K.elements}
    pts.add(infinity(R))
    return frozenset(pts)


def stabilizer_generators(R: Ring) -> list[Matrix2]:
    """Generators of the stabilizer of R(1, 0): matrices [[a, 0], [c, d]]."""
    gens = [(u, R.zero, R.zero, R.one) for u in unit_generators(R)]
    gens += [(R.one, R.zero, R.zero, u) for u in unit_generators(R)]
    gens += [(R.one, R.zero, c, R.one) for c in additive_generators(R)]
    return gens


@dataclass
class Residue:
    """The residue at a point: points distant from it, blocks = chains
    through it with the point removed.  At the far point the blocks are
    coordinatized through R(x, 1) -> x."""

    ring: Ring
    subfield: Subfield
    at: Point
    points: tuple[Point, ...]
    point_blocks: tuple[frozenset, ...]     # blocks as point sets
    coord_of: Optional[dict]                # Point -> x, only at the far point
    blocks: Optional[tuple[frozenset, ...]]  # coordinate blocks, sorted


def residue_at(geom, p: Point) -> Residue:
    """The residue of the Geometry geom at the point p.  Its chains through
    the far point are the stabilizer orbit; through any other point they
    are filtered out of the full orbit."""
    R, K = geom.ring, geom.subfield
    if p == infinity(R):
        chains = geom.chains_at_infinity
    else:
        chains = frozenset(C for C in geom.chains if p in C)
    g = geom.graph  # its points are enumerate_points(R), in order
    pts = tuple(g.points[j] for j in sorted(g.adj[g.index[p]]))
    point_blocks = tuple(sorted((C - {p} for C in chains), key=sorted))
    coord_of = None
    blocks = None
    if p == infinity(R):
        pt_set = set(pts)
        coord_of = {}
        for x in R.elements():
            q = make_point(R, x, R.one)
            if q not in pt_set or q in coord_of:
                raise VerificationError(
                    f"{R.name}: R({x}, 1) = {q} is not a new point of the far-point residue")
            coord_of[q] = x
        if len(coord_of) != len(pts):  # x -> R(x, 1) is a bijection onto the residue
            raise VerificationError(
                f"{R.name}: {len(coord_of)} coordinates for {len(pts)} residue points")
        blocks = tuple(sorted((frozenset(coord_of[q] for q in B) for B in point_blocks),
                              key=sorted))
    return Residue(R, K, p, pts, point_blocks, coord_of, blocks)

