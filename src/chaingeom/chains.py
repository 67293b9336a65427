"""Chains and residues with coordinatized blocks.

A chain is the image of the embedded line over the subfield K under some
matrix in GL2(R).  A Geometry holds each set of chains as one int array:
a row per chain, the sorted indices of its points, the rows in
lexicographic order.  The full chain set is the orbit of the standard
chain under projline.orbit_generators; chains through the far point
R(1, 0) form the orbit under its stabilizer (lower triangular matrices
with unit diagonal), whose generators are the same list less its first
matrix E(0).  The tests check that both routes agree.  A residue reads
its blocks off the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from chaingeom.rings import Ring, Subfield
from chaingeom.projline import Point, VerificationError, infinity, sorted_rows


def standard_chain(R: Ring, K: Subfield, keys: Optional[np.ndarray] = None) -> np.ndarray:
    """The keys a*|R| + b of {R(k, 1) : k in K} together with R(1, 0),
    sorted; with keys=R._right_key, the keys v*|R| + w of the standard dual
    chain {(k, 1)^T R : k in K} together with (1, 0)^T R."""
    keys = R._left_key if keys is None else keys
    return np.sort(np.append(keys[np.array(K.elements), R.one], keys[R.one, R.zero]))


def blocks_at(rows: np.ndarray, i: int) -> np.ndarray:
    """The rows through the index i, each less i, in their order: of
    sorted_rows, the blocks of the residue at i as sorted_rows."""
    through = rows[(rows == i).any(axis=1)]
    return through[through != i].reshape(len(through), -1)


@dataclass
class Residue:
    """The residue at a point: points distant from it, blocks = chains
    through it with the point removed.  At the far point the blocks are
    coordinatized through R(x, 1) -> x."""

    ring: Ring
    subfield: Subfield
    points: tuple[Point, ...]
    point_blocks: np.ndarray                 # blocks as point-index rows
    blocks: Optional[tuple[frozenset, ...]]  # coordinate blocks, sorted


def residue_at(geom, p: Point) -> Residue:
    """The residue of the Geometry geom at the point p.  Its chains through
    the far point are the stabilizer orbit; through any other point they
    are filtered out of the full orbit."""
    R, K = geom.ring, geom.subfield
    i = geom.point_index(p)
    far = p == infinity(R)
    point_blocks = blocks_at(geom.chains_at_infinity if far else geom.chains, i)
    near = sorted(geom.graph.adj[i])
    blocks = None
    if far:
        if sorted(geom.affine.tolist()) != near:
            raise VerificationError(
                f"{R.name}: x -> R(x, 1) is not a bijection onto the far-point residue")
        coord = np.full(len(geom.points), -1, dtype=np.intp)
        coord[geom.affine] = np.arange(R.size)
        blocks = tuple(map(frozenset, sorted_rows(coord[point_blocks]).tolist()))
    return Residue(R, K, tuple(geom.points[j] for j in near), point_blocks, blocks)
