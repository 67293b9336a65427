"""One scenario's derived state: the Geometry of a ring and a subfield.

A derived value is a cached property of the object it derives from: what
depends on the ring alone (its opposite, its generating sets) belongs to
the Ring, the conjugates of a subfield to the Subfield, and everything
that needs both to the Geometry, so two Geometries share no state beyond
their ring and subfield.  The projective line and its dual are one type,
a Line with a side flag: the Geometry is the Line of the points R(a, b),
and its `dual` the Line of the dual points (v, w)^T R.  Points are indices
into their sorted tuple, found by index_of on the sorted keys.  A set of
chains is the orbit engine's output as it stands: an int array of sorted
index rows in lexicographic order, so two chain sets are equal iff their
arrays are.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from chaingeom.rings import Ring, Subfield
from chaingeom.projline import (
    Point,
    VerificationError,
    distant_graph,
    enumerate_points,
    index_of,
    infinity,
    orbit,
    orbit_generators,
    row_images,
)
from chaingeom.chains import residue_at, standard_chain
from chaingeom.duality import DualPoint, dual_infinity, perp_keys
from chaingeom import compat

# orbit members a Geometry builds at most (2,106 chains on matrix2(3))
ORBIT_CAP = 10 ** 6


class Line:
    """The chain geometry of one projective line over a ring and a
    subfield: of the points R(a, b), or with dual of the dual points
    (v, w)^T R, on which GL2(R) acts from the left.  Each derived object is
    a cached property: the points, the orbit generators as one permutation
    table on them, and the chain orbits (from the one engine
    `projline.orbit`, under ORBIT_CAP)."""

    def __init__(self, ring: Ring, subfield: Subfield, dual: bool = False):
        self.ring = ring
        self.subfield = subfield
        self.is_dual = dual

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return enumerate_points(self.ring, self.is_dual)

    @cached_property
    def keys(self) -> np.ndarray:
        """The keys a*|R| + b of the points, sorted as the points are."""
        return np.array([a * self.ring.size + b for a, b in self.points], dtype=np.intp)

    def index(self, p: Point) -> int:
        """The index of the point p in points."""
        return int(index_of(self.keys, p[0] * self.ring.size + p[1]))

    @cached_property
    def far(self) -> int:
        """The index of the far point: R(1, 0), or (0, 1)^T R on the dual side."""
        return self.index((dual_infinity if self.is_dual else infinity)(self.ring))

    @cached_property
    def perms(self) -> np.ndarray:
        """perms[g][i]: the index of the image of points[i] under
        orbit_generators[g]; rows 1 onward fix the far point."""
        keys = self.keys
        return index_of(keys, row_images(self.ring, keys, orbit_generators(self.ring),
                                         self.is_dual))

    @cached_property
    def _seed(self) -> np.ndarray:
        return index_of(self.keys, standard_chain(self.ring, self.subfield, self.is_dual))

    @cached_property
    def chains(self) -> np.ndarray:
        """Every chain: the orbit of the standard chain."""
        return orbit([self._seed], self.perms, ORBIT_CAP)

    @cached_property
    def chains_at_infinity(self) -> np.ndarray:
        """The chains through the far point, which the standard chain passes
        through (at k = 0 on the dual side): its stabilizer orbit."""
        if self.far not in self._seed:
            raise VerificationError(f"{self.ring.name}: the standard chain misses the far point")
        return orbit([self._seed], self.perms[1:], ORBIT_CAP)


class Geometry(Line):
    """The chain geometry of a ring and a subfield: the Line of its points,
    with its dual Line in `dual`, and what spans both sides, each a cached
    property computed on first use and shared by every task of one run:
    perp, the distant graph, the coordinates x of the points R(x, 1) and
    dual points (-1, x)^T R, and the far-point residue with its two
    compatibility partitions."""

    def __init__(self, ring: Ring, subfield: Subfield):
        super().__init__(ring, subfield)
        self.dual = Line(ring, subfield, dual=True)

    @cached_property
    def perp(self) -> np.ndarray:
        """perp[i]: the dual-point index of the annihilator of points[i],
        from one batched oracle scan over every point (perp_keys)."""
        return index_of(self.dual.keys, perp_keys(self.ring, self.keys))

    def perp_of(self, p: Point) -> DualPoint:
        """The annihilator of the point p, read off perp."""
        return self.dual.points[self.perp[self.index(p)]]

    @cached_property
    def affine(self) -> np.ndarray:
        """affine[x]: the index of the point R(x, 1)."""
        R = self.ring
        return index_of(self.keys, R._left_key[np.arange(R.size), R.one])

    @cached_property
    def dual_coords(self) -> np.ndarray:
        """dual_coords[j]: the x with dual.points[j] = (-1, x)^T R, the
        coordinate on the dual residue; -1 at each dual point off it."""
        R = self.ring
        x = np.arange(R.size)
        coords = np.full(len(self.dual.points), -1, dtype=np.intp)
        coords[index_of(self.dual.keys, R._right_key[R.neg(R.one), x])] = x
        return coords

    @cached_property
    def perp_coords(self) -> np.ndarray:
        """The annihilator on the far-point residue: perp_coords[x] is the
        dual coordinate of perp R(x, 1), -1 off the dual residue."""
        return self.dual_coords[self.perp[self.affine]]

    @cached_property
    def graph(self):
        return distant_graph(self.ring, self.points)

    @cached_property
    def residue(self):
        """The residue at the far point, with coordinatized blocks."""
        return residue_at(self)

    @cached_property
    def compat_classes(self) -> tuple:
        return compat.delta_orbits(self.residue)

    @cached_property
    def dual_compat_classes(self) -> tuple:
        return compat.dual_compat_classes(self.residue, self.perp_coords)
