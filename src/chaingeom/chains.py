"""Chains and residues with coordinatized blocks.

A chain is the image of the embedded line over the subfield K under some
matrix in GL2(R).  A Geometry holds each set of chains as one int array:
a row per chain, the sorted indices of its points, the rows in
lexicographic order.  The full chain set is the orbit of the standard
chain under projline.orbit_generators; chains through the far point
R(1, 0) form the orbit under its stabilizer (lower triangular matrices
with unit diagonal), whose generators are the same list less its first
matrix E(0).  The tests check that both routes agree.  A residue reads
its blocks off the same rows, in ring coordinates at the far point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from chaingeom.rings import Ring, Subfield
from chaingeom.projline import VerificationError, sorted_rows


def standard_chain(R: Ring, K: Subfield, dual: bool = False) -> np.ndarray:
    """The keys a*|R| + b of {R(k, 1) : k in K} together with R(1, 0),
    sorted; with dual, the keys v*|R| + w of the standard dual chain
    {(k, 1)^T R : k in K} together with (1, 0)^T R."""
    keys = R._right_key if dual else R._left_key
    return np.sort(np.append(keys[np.array(K.elements), R.one], keys[R.one, R.zero]))


def blocks_at(rows: np.ndarray, i: int) -> np.ndarray:
    """The rows through the index i, each less i, in their order: of
    sorted_rows, the blocks of the residue at i as sorted_rows."""
    through = rows[(rows == i).any(axis=1)]
    return through[through != i].reshape(len(through), -1)


class Residue(NamedTuple):
    """The residue at the far point R(1, 0): its blocks, the chains through
    it less that point, coordinatized through R(x, 1) -> x, as the int
    array of their coordinate rows in sorted_rows order."""

    ring: Ring
    subfield: Subfield
    blocks: np.ndarray


def residue_at(geom) -> Residue:
    """The residue of the Geometry geom at its far point R(1, 0); its
    chains through that point are the stabilizer orbit, and its points,
    those distant from the far point, must be the R(x, 1)."""
    R = geom.ring
    if not np.array_equal(np.sort(geom.affine), np.flatnonzero(geom.graph.adj[geom.far])):
        raise VerificationError(
            f"{R.name}: x -> R(x, 1) is not a bijection onto the far-point residue")
    coord = np.full(len(geom.points), -1, dtype=np.intp)
    coord[geom.affine] = np.arange(R.size)
    return Residue(R, geom.subfield,
                   sorted_rows(coord[blocks_at(geom.chains_at_infinity, geom.far)]))
