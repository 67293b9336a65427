"""One scenario's derived state: the Geometry of a ring and a subfield.

Nothing derived is cached outside a Geometry, so two of them share no
state and a run times everything it builds.
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
    make_point,
    orbit,
    orbit_generators,
    row_images,
)
from chaingeom.chains import residue_at, standard_chain
from chaingeom.duality import (
    DualPoint,
    col_images,
    dual_infinity,
    dual_standard_chain,
    enumerate_dual_points,
    perp_point,
)
from chaingeom import compat

# orbit members a Geometry builds at most (2,106 chains on matrix2(3))
ORBIT_CAP = 10 ** 6


class Geometry:
    """The chain geometry of a ring and a subfield.  Each derived object is
    a cached property, computed on first use and shared by every task of
    one run: points and dual points, the orbit generators as one
    permutation table on each, perp, the distant graph, the chain and
    dual-chain orbits (all from the one engine `projline.orbit`), and the
    far-point residue with its two compatibility partitions."""

    def __init__(self, ring: Ring, subfield: Subfield):
        self.ring = ring
        self.subfield = subfield

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return enumerate_points(self.ring)

    @cached_property
    def index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def dual_points(self) -> tuple[DualPoint, ...]:
        return enumerate_dual_points(self.ring)

    @cached_property
    def dual_index(self) -> dict:
        return {q: i for i, q in enumerate(self.dual_points)}

    @cached_property
    def point_keys(self) -> np.ndarray:
        """The keys a*|R| + b of the points, sorted as the points are."""
        return np.array([a * self.ring.size + b for a, b in self.points], dtype=np.intp)

    @cached_property
    def dual_keys(self) -> np.ndarray:
        """The keys v*|R| + w of the dual points, sorted as they are."""
        return np.array([v * self.ring.size + w for v, w in self.dual_points], dtype=np.intp)

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
        """perp[i]: the dual-point index of the annihilator of points[i], by
        one oracle scan per point."""
        return np.array([self.dual_index[perp_point(self.ring, p)] for p in self.points],
                        dtype=np.intp)

    def perp_of(self, p: Point) -> DualPoint:
        """The annihilator of the point p, read off perp."""
        return self.dual_points[self.perp[self.index[p]]]

    @cached_property
    def perp_coords(self) -> tuple:
        """The annihilator on the far-point residue: x -> the dual coordinate
        of perp R(x, 1), None off the dual residue."""
        R = self.ring
        return tuple(compat.dual_residue_coord(R, self.perp_of(make_point(R, x, R.one)))
                     for x in R.elements())

    @cached_property
    def graph(self):
        return distant_graph(self.ring, self.points)

    def _orbit(self, pairs, seed, perms) -> frozenset:
        """The orbit of the index set seed, as frozensets of members of pairs."""
        rows = orbit([sorted(seed)], perms, ORBIT_CAP)
        return frozenset(frozenset(pairs[i] for i in row) for row in rows.tolist())

    @cached_property
    def _seed(self) -> list[int]:
        return [self.index[p] for p in standard_chain(self.ring, self.subfield)]

    @cached_property
    def _dual_seed(self) -> list[int]:
        return [self.dual_index[q] for q in dual_standard_chain(self.ring, self.subfield)]

    @cached_property
    def chains(self) -> frozenset:
        """Every chain: the orbit of the standard chain."""
        return self._orbit(self.points, self._seed, self.perms)

    @cached_property
    def chains_at_infinity(self) -> frozenset:
        """The chains through R(1, 0), which the standard chain passes
        through: its stabilizer orbit."""
        return self._orbit(self.points, self._seed, self.perms[1:])

    @cached_property
    def dual_chains(self) -> frozenset:
        return self._orbit(self.dual_points, self._dual_seed, self.dual_perms)

    @cached_property
    def dual_chains_at_infinity(self) -> frozenset:
        """The dual chains through (0, 1)^T R: the standard dual chain shifted
        through it by E(0), then its stabilizer orbit."""
        R = self.ring
        seed = self.dual_perms[0][self._dual_seed]
        if self.dual_index[dual_infinity(R)] not in seed:
            raise VerificationError(
                f"{R.name}: shifted standard chain misses {dual_infinity(R)}")
        return self._orbit(self.dual_points, seed, self.dual_perms[1:])

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
