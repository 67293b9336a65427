"""One scenario's derived state: the Geometry of a ring and a subfield.

A derived value is a cached property of the object it derives from: what
depends on the ring alone (its opposite, its generating sets) belongs to
the Ring, the conjugates of a subfield to the Subfield, and everything
that needs both to the Geometry, so two Geometries share no state beyond
their ring and subfield.  Points and dual points are indices into their
sorted tuples, found by index_of on the sorted keys.
A set of chains, or of dual chains, is the orbit engine's output as it
stands: an int array of sorted index rows in lexicographic order, so two
chain sets are equal iff their arrays are.
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
from chaingeom.duality import (
    DualPoint,
    col_images,
    dual_infinity,
    enumerate_dual_points,
    perp_keys,
)
from chaingeom import compat

# orbit members a Geometry builds at most (2,106 chains on matrix2(3))
ORBIT_CAP = 10 ** 6


class Geometry:
    """The chain geometry of a ring and a subfield.  Each derived object is
    a cached property, computed on first use and shared by every task of
    one run: points and dual points, the orbit generators as one
    permutation table on each, perp, the distant graph, the chain and
    dual-chain orbits (all from the one engine `projline.orbit`, under
    ORBIT_CAP), the coordinates x of the points R(x, 1) and dual points
    (-1, x)^T R, and the far-point residue with its two compatibility
    partitions."""

    def __init__(self, ring: Ring, subfield: Subfield):
        self.ring = ring
        self.subfield = subfield

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return enumerate_points(self.ring)

    @cached_property
    def dual_points(self) -> tuple[DualPoint, ...]:
        return enumerate_dual_points(self.ring)

    @cached_property
    def point_keys(self) -> np.ndarray:
        """The keys a*|R| + b of the points, sorted as the points are."""
        return np.array([a * self.ring.size + b for a, b in self.points], dtype=np.intp)

    @cached_property
    def dual_keys(self) -> np.ndarray:
        """The keys v*|R| + w of the dual points, sorted as they are."""
        return np.array([v * self.ring.size + w for v, w in self.dual_points], dtype=np.intp)

    def point_index(self, p: Point) -> int:
        """The index of the point p in points."""
        return int(index_of(self.point_keys, p[0] * self.ring.size + p[1]))

    def dual_index(self, q: DualPoint) -> int:
        """The index of the dual point q in dual_points."""
        return int(index_of(self.dual_keys, q[0] * self.ring.size + q[1]))

    @cached_property
    def perms(self) -> np.ndarray:
        """perms[g][i]: the index of points[i] * orbit_generators[g]; rows 1
        onward fix R(1, 0)."""
        keys = self.point_keys
        return index_of(keys, row_images(self.ring, keys, orbit_generators(self.ring)))

    @cached_property
    def dual_perms(self) -> np.ndarray:
        """dual_perms[g][i]: the index of orbit_generators[g] * dual_points[i];
        rows 1 onward fix (0, 1)^T R."""
        keys = self.dual_keys
        return index_of(keys, col_images(self.ring, keys, orbit_generators(self.ring)))

    @cached_property
    def perp(self) -> np.ndarray:
        """perp[i]: the dual-point index of the annihilator of points[i],
        from one batched oracle scan over every point (perp_keys)."""
        return index_of(self.dual_keys, perp_keys(self.ring, self.point_keys))

    def perp_of(self, p: Point) -> DualPoint:
        """The annihilator of the point p, read off perp."""
        return self.dual_points[self.perp[self.point_index(p)]]

    @cached_property
    def affine(self) -> np.ndarray:
        """affine[x]: the index of the point R(x, 1)."""
        R = self.ring
        return index_of(self.point_keys, R._left_key[np.arange(R.size), R.one])

    @cached_property
    def dual_coords(self) -> np.ndarray:
        """dual_coords[j]: the x with dual_points[j] = (-1, x)^T R, the
        coordinate on the dual residue; -1 at each dual point off it."""
        R = self.ring
        x = np.arange(R.size)
        coords = np.full(len(self.dual_points), -1, dtype=np.intp)
        coords[index_of(self.dual_keys, R._right_key[R.neg(R.one), x])] = x
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
    def _seed(self) -> np.ndarray:
        return index_of(self.point_keys, standard_chain(self.ring, self.subfield))

    @cached_property
    def _dual_seed(self) -> np.ndarray:
        R = self.ring
        return index_of(self.dual_keys, standard_chain(R, self.subfield, R._right_key))

    @cached_property
    def chains(self) -> np.ndarray:
        """Every chain: the orbit of the standard chain."""
        return orbit([self._seed], self.perms, ORBIT_CAP)

    @cached_property
    def chains_at_infinity(self) -> np.ndarray:
        """The chains through R(1, 0), which the standard chain passes
        through: its stabilizer orbit."""
        return orbit([self._seed], self.perms[1:], ORBIT_CAP)

    @cached_property
    def dual_chains(self) -> np.ndarray:
        return orbit([self._dual_seed], self.dual_perms, ORBIT_CAP)

    @cached_property
    def dual_chains_at_infinity(self) -> np.ndarray:
        """The dual chains through (0, 1)^T R: the standard dual chain shifted
        through it by E(0), then its stabilizer orbit."""
        R = self.ring
        seed = self.dual_perms[0][self._dual_seed]
        if self.dual_index(dual_infinity(R)) not in seed:
            raise VerificationError(
                f"{R.name}: shifted standard chain misses {dual_infinity(R)}")
        return orbit([seed], self.dual_perms[1:], ORBIT_CAP)

    @cached_property
    def residue(self):
        """The residue at the far point, with coordinatized blocks."""
        return residue_at(self, infinity(self.ring))

    @cached_property
    def compat_classes(self) -> tuple:
        return compat.delta_orbits(self.residue)

    @cached_property
    def dual_compat_classes(self) -> tuple:
        return compat.dual_compat_classes(self.residue, self.perp_coords)
