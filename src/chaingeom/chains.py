"""Chains, chain orbits, and residues with coordinatized blocks.

A chain is a frozenset of points: the image of the embedded line over the
subfield K under some matrix in GL2(R).  The full chain set is an orbit
BFS under the projective-line generator set; chains through the far point
R(1, 0) come from a BFS under its stabilizer (lower triangular matrices
with unit diagonal), generated by a small closure-tested generating set.
Both routes must agree where both are affordable, which the tests check.

For the largest ring in the zoo (matrix2(3)) the full orbit is never
materialized; every residue computation happens at the far point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from chaingeom.rings import Ring, Subfield, additive_generators, unit_generators
from chaingeom.projline import (
    Matrix2,
    Point,
    VerificationError,
    apply_matrix,
    distant_graph,
    infinity,
    line_generators,
    make_point,
)

Chain = frozenset  # of Point


class OrbitCapExceededError(RuntimeError):
    pass


@cache
def standard_chain(R: Ring, K: Subfield) -> Chain:
    """{R(k, 1) : k in K} together with R(1, 0)."""
    pts = {make_point(R, k, R.one) for k in K.elements}
    pts.add(infinity(R))
    return frozenset(pts)


def apply_matrix_chain(R: Ring, C: Chain, M: Matrix2) -> Chain:
    return frozenset(apply_matrix(R, p, M) for p in C)


def stabilizer_generators(R: Ring) -> list[Matrix2]:
    """Generators of the stabilizer of R(1, 0): matrices [[a, 0], [c, d]]."""
    gens = [(u, R.zero, R.zero, R.one) for u in unit_generators(R)]
    gens += [(R.one, R.zero, R.zero, u) for u in unit_generators(R)]
    gens += [(R.one, R.zero, c, R.one) for c in additive_generators(R)]
    return gens


def _orbit(R: Ring, seed: Chain, gens: list[Matrix2], cap: int) -> frozenset:
    seen = {seed}
    frontier = [seed]
    while frontier:
        C = frontier.pop()
        for M in gens:
            D = apply_matrix_chain(R, C, M)
            if D not in seen:
                if len(seen) >= cap:
                    raise OrbitCapExceededError(
                        f"chain orbit on {R.name} exceeded cap {cap}")
                seen.add(D)
                frontier.append(D)
    return frozenset(seen)


@cache
def chain_orbit(R: Ring, K: Subfield, through: Optional[Point] = None,
                cap: int = 10 ** 6) -> frozenset:
    """All chains, or all chains through a given point.

    through=None walks the full GL2(R) orbit of the standard chain;
    through=R(1,0) walks the stabilizer orbit (the standard chain already
    passes through it); any other point filters the full orbit.
    """
    if through is None:
        return _orbit(R, standard_chain(R, K), line_generators(R), cap)
    if through == infinity(R):
        return _orbit(R, standard_chain(R, K), stabilizer_generators(R), cap)
    return frozenset(C for C in chain_orbit(R, K, None, cap) if through in C)


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


@cache
def residue_at(R: Ring, K: Subfield, p: Point) -> Residue:
    chains = chain_orbit(R, K, through=p)
    g = distant_graph(R)  # its points are enumerate_points(R), in order
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


def blocks_through(res: Residue, xs) -> set:
    """Coordinate blocks of the far-point residue containing every x in xs."""
    if res.blocks is None:
        raise VerificationError(f"blocks at {res.at} over {res.ring.name} are not coordinatized")
    want = set(xs)
    return {B for B in res.blocks if want <= B}
