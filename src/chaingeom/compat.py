"""Compatibility and dual compatibility of residue blocks.

Everything happens in the residue at the far point, where blocks, and
the blocks of a class, are the sorted rows of ring coordinates of one int
array in sorted_rows order.  Compatibility is the orbit relation under
the affine right action x -> x*a + c (a a unit), dual compatibility is
the pullback along the annihilator map of the mirrored left action
x -> d*x + c.  Both actions are step tables read off the mul and add
tables, with a one-time check per residue that the coordinate action
agrees with the matrix action.  The coset conditions and the derived
plane read one direction table, each row less its first entry.

The derivation analogue replaces one regulus of the spread of left
K-subspaces with its opposite regulus of right K''-cosets, where K'' is a
second conjugate subfield, and validates the outcome as an affine plane of
order q^2 including an exhaustive or witness-producing Desargues search.
That search is one kernel over every configuration of the projective
completion, in the order of the plain nested loop: axis-point tables for
the slabs of blocks it reaches and the closing test on them.  The
witness families, the unit-pair joins, the 2-dim subspace and regulus
searches and the affine-plane checks are table kernels too, over rows of
ring elements read from the add and mul tables or over an incidence
matrix.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from chaingeom.rings import Ring, Subfield, conjugate_subfield, normality_witness
from chaingeom.projline import (
    VerificationError, orbit, padded_rows, row_images, row_keys, rows_in, slabs, sorted_rows)
from chaingeom.chains import Residue


class RegulusNotFoundError(RuntimeError):
    pass


class DerivedPlaneError(RuntimeError):
    pass


class CompatClass:
    """One orbit of blocks, the int array of their coordinate rows as
    sorted_rows, with the conjugate subfield that reproduces it as
    {(u^-1 K u)a + c} (or the mirrored right-space family).  Classes
    compare by identity, their blocks as arrays."""

    def __init__(self, side: str, blocks: np.ndarray, witness: Subfield):
        self.side = side  # "compatibility" | "dual-compatibility"
        self.blocks = blocks
        self.witness = witness

    def __len__(self):
        return len(self.blocks)


def _witnessed_orbits(res: Residue, blocks: np.ndarray, side: str) -> list[tuple]:
    """The orbits of the affine action x -> x*a + c (compatibility side) or
    x -> a*x + c (dual side) on coordinate blocks given as sorted_rows,
    each as sorted_rows with its conjugate-subfield witness, in the order
    of their first rows.  The generators act as step tables read off the
    mul and add tables; raises VerificationError if the action leaves the
    block set or a class has no witness."""
    R = res.ring
    act = R._mul_a.T if side == "compatibility" else R._mul_a  # act[a][x]: x*a or a*x
    steps = np.concatenate([act[list(R.unit_generators)],
                            R._add_a[:, list(R.additive_generators)].T])
    left = {key: i for i, key in enumerate(row_keys(blocks).tolist())}  # in block order
    classes = []
    while left:  # the least block left seeds the next class
        cls = orbit(blocks[[next(iter(left.values()))]], steps)
        if None in [left.pop(key, None) for key in row_keys(cls).tolist()]:
            raise VerificationError(f"{R.name}: affine action left the block set")
        classes.append(cls)
    witnesses = [_find_witness(R, res.subfield, cls, side) for cls in classes]
    if None in witnesses:
        raise VerificationError(f"{R.name}: {side} class without a witness")
    return list(zip(classes, witnesses))


def _distinct_sets(rows) -> np.ndarray:
    """The distinct sets among the rows of an integer table, as
    sorted_rows: each row of sorted_rows that differs from the row before."""
    rows = sorted_rows(rows)
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _translates(R: Ring, rows: np.ndarray) -> np.ndarray:
    """The distinct sets {x + c : x in row} of every row, translated by
    every c in R: one table read from the add table."""
    family = R._add_a[rows[:, None, :], np.arange(R.size)[:, None]]
    return _distinct_sets(family.reshape(-1, rows.shape[1]))


def coset_family(R: Ring, K: Subfield, side: str) -> np.ndarray:
    """The family {K a + c : a unit, c in R} (compatibility side) or
    {d K + c : d unit, c in R} (dual side) of Eq. 9, as distinct sorted rows
    read from the add and mul tables: the distinct bases K a (|R*| / |K*| of
    them), then one table of their translates by every c."""
    k, u = np.array(K.elements), np.array(R.units)
    base = R._mul_a[k, u[:, None]] if side == "compatibility" else R._mul_a[u[:, None], k]
    return _translates(R, _distinct_sets(base))


def _find_witness(R: Ring, K: Subfield, blocks: np.ndarray, side: str) -> Optional[Subfield]:
    """The conjugate subfield u^-1 K u, least unit u first, that is a block
    of the class with the rows blocks and whose coset family is exactly
    the class; each distinct row of K.conjugates is tried once."""
    first: dict = {}  # each distinct conjugate's first row
    for i, key in enumerate(row_keys(K.conjugates).tolist()):
        first.setdefault(key, i)
    in_class = set(row_keys(blocks).tolist())
    for key, i in first.items():
        if key in in_class:
            witness = conjugate_subfield(K, R.units[i])
            if check_class_structure(CompatClass(side, blocks, witness)):
                return witness
    return None


def _verify_coordinate_action(R: Ring) -> None:
    """Each generator of the class orbits acts on the coordinates as its
    matrix acts on the residue: x -> x*a (a a unit generator) and x -> x + c
    (c an additive generator) as [[a, 0], [0, 1]] and [[1, 0], [c, 1]] on
    the points R(x, 1), and x -> a*x and x -> x + c as [[1, 0], [0, a]] and
    [[1, 0], [-c, 1]] on the dual points (-1, x)^T R.  Compares key tables
    of row_images, on both sides, with the coordinate maps."""
    one, zero = R.one, R.zero
    x = np.arange(R.size)
    units, shifts = R.unit_generators, R.additive_generators
    points, duals = R._left_key[x, one], R._right_key[R.neg(one), x]
    moved = [R._add_a[x, c] for c in shifts]
    for side, keys, got, coords in (
            ("point", points,
             row_images(R, points, [(a, zero, zero, one) for a in units]
                        + [(one, zero, c, one) for c in shifts]),
             [R._mul_a[x, a] for a in units] + moved),
            ("dual point", duals,
             row_images(R, duals, [(one, zero, zero, a) for a in units]
                        + [(one, zero, R.neg(c), one) for c in shifts], dual=True),
             [R._mul_a[a, x] for a in units] + moved)):
        bad = np.argwhere(got != keys[np.array(coords)])
        if len(bad):
            g, at = bad[0].tolist()
            gen = f"a={units[g]}" if g < len(units) else f"c={shifts[g - len(units)]}"
            raise VerificationError(f"{R.name}: the affine coordinate action at x={at}, "
                                    f"{gen} is not the matrix action on the {side}s")


def delta_orbits(res: Residue) -> tuple[CompatClass, ...]:
    """Compatibility classes at the far point: orbits under x -> x*a + c."""
    _verify_coordinate_action(res.ring)
    return tuple(CompatClass("compatibility", cls, w)
                 for cls, w in _witnessed_orbits(res, res.blocks, "compatibility"))


def dual_compat_classes(res: Residue, perp_coords: np.ndarray) -> tuple[CompatClass, ...]:
    """Dual compatibility: pull the left-affine orbit relation on the
    annihilator images back to the blocks.  perp_coords[x] is the dual
    coordinate of the annihilator of R(x, 1), -1 off the dual residue; a
    block's image is its row of perp_coords, sorted, and each class holds
    the blocks whose images lie in one orbit, in the order of the orbits."""
    R = res.ring
    images = np.sort(perp_coords[res.blocks], axis=1)
    if np.any(images == -1):
        raise VerificationError(f"{R.name}: a block point maps off the dual residue")
    side = "dual-compatibility"
    return tuple(CompatClass(side, res.blocks[rows_in(images, icls)], w)
                 for icls, w in _witnessed_orbits(res, _distinct_sets(images), side))


def check_class_structure(cls: CompatClass) -> bool:
    """True iff the class is exactly the coset family of its witness: the
    two sorted_rows arrays are equal, not merely one inside the other."""
    return np.array_equal(cls.blocks, coset_family(cls.witness.ring, cls.witness, cls.side))


def same_partition(parts, others) -> bool:
    """True iff two families of row sets, each set as sorted_rows, hold the
    same sets: their sorted lists of rows are equal."""
    return sorted(p.tolist() for p in parts) == sorted(p.tolist() for p in others)


# partial affine spaces ------------------------------------------------------

def _directions(R: Ring, rows: np.ndarray) -> np.ndarray:
    """The direction table of sorted rows of ring elements: each row L less
    its first entry, L - L[0], sorted.  A coset's direction is its
    subgroup."""
    return np.sort(R._add_a[rows, R._neg_a[rows[:, :1]]], axis=1)


def joins_unit_pairs_once(R: Ring, blocks) -> bool:
    """Two points at unit difference lie on exactly one of the blocks, rows
    of one width (a repeated block counts twice).  The pairs x < y of every
    block are counted at once, as a bincount of x |R| + y."""
    n = R.size
    rows = np.sort(np.array(blocks, dtype=np.intp, ndmin=2), axis=1)
    i, j = np.triu_indices(rows.shape[1], 1)
    joined = np.bincount((rows[:, i] * n + rows[:, j]).ravel(), minlength=n * n)
    unit = np.zeros(n, dtype=bool)
    unit[list(R.units)] = True
    # [x, y]: x < y and y - x a unit
    need = np.triu(unit[R._add_a[:, R._neg_a]].T, 1)
    return bool(np.all(joined.reshape(n, n)[need] == 1))


def _ambient_directions(R: Ring, cls: CompatClass) -> np.ndarray:
    """The 1-dim witness subspaces K'x (x*K' on the dual side), x != 0, as
    the distinct sorted rows of one slice of the mul table."""
    k, x = np.array(cls.witness.elements), np.arange(1, R.size)  # zero is 0
    return _distinct_sets(R._mul_a[k, x[:, None]] if cls.side == "compatibility"
                          else R._mul_a[x[:, None], k])


def cosets_hold(res: Residue, cls: CompatClass) -> bool:
    """The first two conditions of a partial affine space on the residue
    points, the third being joins_unit_pairs_once:

    (i)   every block is a coset of a 1-dim left witness-subspace (right
          subspace on the dual side): its row of the direction table is
          one of the ambient directions,
    (ii)  every direction that occurs comes with all of its cosets.
    """
    R, k = res.ring, len(cls.witness)
    if cls.blocks.shape[1] != k:
        return False
    cosets = Counter(row_keys(_directions(R, cls.blocks)).tolist())
    ambient = set(row_keys(_ambient_directions(R, cls)).tolist())
    return all(key in ambient and c == R.size // k for key, c in cosets.items())


def missing_directions(res: Residue, cls: CompatClass) -> int:
    """Parallel classes of the ambient affine space absent from the class:
    ambient directions less the distinct rows of the class's direction
    table.  Raises VerificationError unless every direction of the class
    is one of the ambient ones."""
    R = res.ring
    ambient = _ambient_directions(R, cls)
    if cls.blocks.shape[1] != len(cls.witness):
        raise VerificationError(f"{R.name}: a block is no coset of the witness")
    have = _distinct_sets(_directions(R, cls.blocks))
    if not rows_in(have, ambient).all():
        raise VerificationError(f"{R.name}: a block direction is no witness subspace")
    return len(ambient) - len(have)


# the derivation analogue -----------------------------------------------------

class PlaneReport(NamedTuple):
    points: int
    lines: int
    line_size: int
    two_point_axiom: bool
    playfair: bool
    desargues: Optional[bool]  # None where the lines are no affine plane
    desargues_method: str
    desargues_witness: Optional[dict] = None
    degenerate_replacement: bool = False
    replaced_regulus_size: int = 0
    lines_outside_block_set: int = 0
    second_subfield: Optional[tuple] = None


def left_subspace_spread(R: Ring, K: Subfield) -> np.ndarray:
    """All 1-dim left K-subspaces Kx, x != 0, as distinct sorted rows: a
    spread of R as F_q-space."""
    k, x = np.array(K.elements), np.arange(1, R.size)  # zero is 0
    members = _distinct_sets(R._mul_a[k, x[:, None]])
    q2 = len(k)
    if np.any(members[:, 1:] == members[:, :-1]):
        raise VerificationError("spread member of the wrong size")
    count = np.bincount(members.ravel(), minlength=R.size)
    if np.any(count == 0):
        raise VerificationError("spread does not cover the ring")
    shared = np.flatnonzero(count[1:] > 1)  # every member holds 0
    if len(shared):
        m1, m2 = members[np.any(members == shared[0] + 1, axis=1)][:2].tolist()
        raise VerificationError(f"spread members {m1}, {m2} meet")
    if len(members) != (R.size - 1) // (q2 - 1):
        raise VerificationError(f"spread has {len(members)} members")
    return members


def _all_2dim_subspaces(R: Ring, q: int) -> np.ndarray:
    """Every additive subgroup of order q^2 arising as a span of two
    elements (q prime here, so these are the F_q-subspaces), as
    sorted_rows.  The spans {i x + j y} of all pairs x < y of nonzero
    elements are the rows of one table; rows with q^2 distinct entries are
    kept."""
    n = R.size
    mult = np.zeros((n, q), dtype=np.intp)  # mult[x, i] = i x
    for i in range(1, q):
        mult[:, i] = R._add_a[mult[:, i - 1], np.arange(n)]
    x, y = np.triu_indices(n, 1)
    nonzero = x != R.zero
    spans = R._add_a[mult[x[nonzero], :, None], mult[y[nonzero], None, :]].reshape(-1, q * q)
    rows = _distinct_sets(spans)
    return rows[np.all(rows[:, 1:] != rows[:, :-1], axis=1)]


def regulus_through(R: Ring, q: int, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The regulus spanned by three pairwise-skew 2-dim subspaces, the rows
    gens, and its opposite regulus (the transversal family), as sorted_rows,
    by exhaustive search over _all_2dim_subspaces: the sizes |W & T| are
    the entries of a product of incidence matrices."""
    subspaces = _all_2dim_subspaces(R, q)
    inc = _incidence(R.size, subspaces)
    trans = subspaces[np.all(inc @ _incidence(R.size, gens).T == q, axis=1)]
    if len(trans) != q + 1:
        raise RegulusNotFoundError(f"{len(trans)} transversals through the three generators")
    reg = subspaces[np.all(inc @ _incidence(R.size, trans).T == q, axis=1)]
    if len(reg) != q + 1:
        raise RegulusNotFoundError(f"regulus came out with {len(reg)} members")
    return reg, trans


def _incidence(n_points: int, lines) -> np.ndarray:
    """The lines x points 0/1 incidence matrix, by one scatter."""
    sizes = [len(L) for L in lines]
    inc = np.zeros((len(sizes), n_points), dtype=np.int64)
    inc[np.repeat(np.arange(len(sizes)), sizes), np.concatenate(lines)] = 1
    return inc


def _shared(inc: np.ndarray) -> np.ndarray:
    """[x, y]: the number of rows of the 0/1 matrix inc with a 1 in both
    columns x and y, 1 on the diagonal: one bincount over the ordered pairs
    x != y of each row's list of columns, the lists padded with -1."""
    lists = padded_rows(inc)
    x, y = lists[:, :, None], lists[:, None, :]
    n = inc.shape[1]
    common = np.bincount((x * n + y)[(x != y) & (x >= 0) & (y >= 0)], minlength=n * n)
    common = common.reshape(n, n)
    np.fill_diagonal(common, 1)
    return common


def _affine_checks(R: Ring, lines: list) -> tuple[bool, bool, int]:
    """Two-point axiom, Playfair and the number of lines per point (-1 if
    it varies) for a line family over point set R, from the incidence
    matrix: every two points share exactly one line, and every line misses
    each point off it by exactly one line through that point."""
    inc = _incidence(R.size, lines)
    # [l, x]: the lines through x that miss l, a gather over each point's
    # lines whose padding -1 reads an appended column of False
    miss = np.hstack([_shared(inc.T) == 0, np.zeros((len(inc), 1), dtype=bool)])
    parallels = miss[:, padded_rows(inc.T)].sum(axis=2)
    per_point = inc.sum(axis=0)
    return (bool(np.all(_shared(inc) == 1)), bool(np.all(parallels[inc == 0] == 1)),
            int(per_point[0]) if np.all(per_point == per_point[0]) else -1)


def _projective_completion(R: Ring, lines: np.ndarray) -> tuple[list, list]:
    """Affine points get ids 0..n-1, directions n.. in order of first
    appearance; the lines are sorted rows.  Returns (points, lines) with
    lines as sorted tuples of point ids, last line at infinity."""
    n = R.size
    dirs = list(map(tuple, _directions(R, lines).tolist()))
    dir_id = {d: n + at for at, d in enumerate(dict.fromkeys(dirs))}
    proj_lines = [tuple(L) + (dir_id[d],) for L, d in zip(lines.tolist(), dirs)]
    proj_lines.append(tuple(range(n, n + len(dir_id))))
    return list(range(n + len(dir_id))), proj_lines


def _plane_tables(n_points: int, lines) -> tuple:
    """The tables the Desargues scan indexes: line_of (N x N line ids, -1 on
    the diagonal), meet (L x L point ids, -1 on the diagonal), the L x N 0/1
    incidence matrix and through (N x (n+1), each point's lines, increasing).
    Raises VerificationError unless every two points share exactly one line,
    every two lines exactly one point, and all lines have one size."""
    inc = _incidence(n_points, lines)
    for what, X in (("lines through points", inc), ("points on lines", inc.T)):
        common = _shared(X)
        bad = np.argwhere(common != 1)
        if len(bad):
            i, j = bad[0].tolist()
            raise VerificationError(
                f"projective completion is not linear: {common[i, j]} {what} {i} and {j}")
    if np.ptp(inc.sum(axis=1)):
        raise VerificationError("projective completion has lines of different sizes")
    through = np.nonzero(inc.T)[1].reshape(n_points, -1)
    # one scatter each: every two points name their line, every two lines their point
    line_of, meet = np.full((n_points, n_points), -1), np.full((len(inc), len(inc)), -1)
    for table, X in ((line_of, np.nonzero(inc)[1].reshape(len(inc), -1)), (meet, through)):
        table[X[:, :, None], X[:, None, :]] = np.arange(len(X))[:, None, None]
        np.fill_diagonal(table, -1)
    return line_of, meet, inc, through


def _desargues_scan(points, lines, find_failure: bool, cap: int):
    """Deterministic sweep over centrally-perspective triangle pairs.

    Points are the ids 0..N-1.  Returns (witness, configurations examined).
    find_failure=True returns the first non-closing configuration (or None
    after the cap, a diagnostic); find_failure=False proves the statement
    by sweeping every configuration (no cap).

    One kernel examines every configuration (O, l1 < l2 < l3 through O,
    A != A' on l1, B != B' on l2, C != C' on l3) in lexicographic order,
    on slabs of whole (O, l1, l2, l3) blocks where one fits in the slabs()
    budget, else of (A, A') rows of one block.  For the blocks of a slab,
    and only for the slabs the scan reaches, the axis points
    P = AB.A'B', Q = AC.A'C' and S = BC.B'C' are tables over the ordered
    pairs; the closing test, S off the line PQ, reads the line ids of PQ
    and the incidence table, and the count carries across the slabs.  The
    witness is read off the count, the index of the first failing
    configuration in the scan order.  In a projective plane (checked by
    _plane_tables) AB != A'B', AC != A'C' and BC != B'C', so no
    configuration is skipped uncounted.
    """
    n = len(points)
    line_of, meet, inc, through = _plane_tables(n, lines)
    # off[l n + x]: x is off line l; where P == Q line_of is -1, and the
    # last row, read there, holds every point, so that configuration closes
    off = np.vstack([inc == 0, np.zeros(n, dtype=bool)]).ravel()
    line_n, meet_flat = (line_of * n).ravel(), meet.ravel()
    rest = np.array(lines, dtype=np.intp)[through]  # each line through O, less O
    rest = rest[rest != np.arange(n)[:, None, None]].reshape(*through.shape, -1)
    triples = np.array(list(combinations(range(through.shape[1]), 3)), dtype=np.intp)
    k = rest.shape[2]
    i, j = np.nonzero(~np.eye(k, dtype=bool))  # the ordered pairs (X, X')
    m = max(len(i), 1)
    # bytes: an (A, A') row of the test holds two intp arrays of m*m
    # entries, the keys P*n + Q and the lines PQ, or PQ and the keys of S
    # on them, with up to two more that numpy buffers to broadcast, beside
    # the flags of the rows before; a block holds its tables, the points X,
    # their joins and P, Q and S (intp), and beside them m rows, or the
    # tables of the slab before and two more arrays like P while its own
    # are gathered
    row = 25 * m * m
    rows = list(slabs(m, row))
    tables = 24 * k * (k + 1) + 24 * m * m
    block = tables + max(tables + 48 * m * m, m * row)
    count = 0
    for slab in slabs(n * len(triples), block):
        O, t = np.divmod(np.arange(slab.start, slab.stop), len(triples))
        X = rest[O[:, None], triples[t]]  # block x line x point
        # joins XY on the sides (l1, l2), (l1, l3), (l2, l3); meets XY.X'Y'
        join = line_of[X[:, [0, 0, 1], :, None], X[:, [1, 2, 2], None, :]].reshape(len(O), 3, -1)
        # by take, in C order: take copies an index array in another order
        P, Q, S = meet_flat.take(join.take(i[:, None] * k + i, axis=2) * len(meet)
                                 + join.take(j[:, None] * k + j, axis=2)).swapaxes(0, 1)
        for part in rows:
            fail = off.take(line_n.take(P[:, part, :, None] * n + Q[:, part, None])
                            + S[:, None])
            hits = np.flatnonzero(fail)
            count += int(hits[0]) + 1 if hits.size else fail.size
            if find_failure and count > cap:
                return None, cap
            if hits.size:
                # the failing block, and in it the pairs (A, A'), (B, B'), (C, C')
                at, abc = divmod(count - 1, m ** 3)
                a, b, c = abc // (m * m), abc // m % m, abc % m
                center, triple = divmod(at, len(triples))
                sides = rest[center, triples[triple]]
                tri = sides[[0, 1, 2], i[[a, b, c]]].tolist()
                img = sides[[0, 1, 2], j[[a, b, c]]].tolist()
                axis = [int(meet[line_of[tri[u], tri[v]], line_of[img[u], img[v]]])
                        for u, v in ((0, 1), (0, 2), (1, 2))]  # AB.A'B', AC.A'C', BC.B'C'
                return {"center": center, "lines": through[center, triples[triple]].tolist(),
                        "triangle": tri, "image": img, "axis_points": axis}, count
    return None, count


def derive_plane(geom, skip_replacement: bool = False,
                 desargues_cap: int = 10 ** 7) -> PlaneReport:
    """Regulus replacement in the spread of left K-subspaces of matrix2(q),
    for the Geometry geom of (R, K).

    Removes the lines of the ambient affine plane AG(2, q^2) whose
    directions lie in the regulus determined by the second conjugate
    subfield K'' = u^-1 K u, u the least unit that moves K, and inserts the
    blocks {a K'' + c : a in K*, c in R}.  When no second conjugate exists
    (q = 2) the replacement degenerates to the identity and the plane is
    the Desarguesian AG(2, 4).  Lines that fail the two-point axiom or
    Playfair are reported so, with no completion and no Desargues verdict.
    """
    R, K = geom.ring, geom.subfield
    if R.spec.family != "matrix2" or R.spec.q not in (2, 3):
        raise RegulusNotFoundError("derivation analogue needs matrix2(2) or matrix2(3)")
    q = R.spec.q
    kclass = next(c for c in geom.compat_classes if list(K.elements) in c.blocks.tolist())
    # the spread, AG(2, q^2), the regulus, its opposite and the lines as
    # tables of sorted rows
    spread = left_subspace_spread(R, K)
    ag = _translates(R, spread)
    if len(ag) != (q * q + 1) * q * q:
        raise VerificationError(f"AG(2, q^2) came out with {len(ag)} lines")
    if not rows_in(kclass.blocks, ag).all():
        raise VerificationError("the class does not extend to AG(2, q^2)")

    u = normality_witness(K)
    K2 = None if skip_replacement or u is None else conjugate_subfield(K, u)
    degenerate = K2 is None
    if degenerate:
        lines = ag
        replaced_size = 0 if skip_replacement else 1
    else:
        k, k2 = np.array(K.elements), np.array(K2.elements)
        regulus = _distinct_sets(R._mul_a[k, np.array(K2.nonzero)[:, None]])  # K x, x in K2*
        if len(regulus) != q + 1 or not rows_in(regulus, spread).all():
            raise RegulusNotFoundError("conjugate subfield did not span a regulus")
        opposite = _distinct_sets(R._mul_a[np.array(K.nonzero)[:, None], k2])  # a K2, a in K*
        if len(opposite) != q + 1:
            raise RegulusNotFoundError("opposite family has the wrong size")
        if set(opposite.ravel().tolist()) != set(regulus.ravel().tolist()):
            raise RegulusNotFoundError("opposite family misses the regulus carrier")
        # |T & m| for every opposite member T and regulus member m
        if np.any(_incidence(R.size, opposite) @ _incidence(R.size, regulus).T != q):
            raise RegulusNotFoundError("non-transversal opposite member")
        # cross-check against the 3-generated regulus search
        reg2, trans = regulus_through(R, q, regulus[:3])
        if not (np.array_equal(reg2, regulus) and np.array_equal(trans, opposite)):
            raise RegulusNotFoundError("3-generated regulus disagrees")
        lines = np.concatenate([ag[~rows_in(_directions(R, ag), regulus)],
                                _translates(R, opposite)])
        replaced_size = len(regulus)

    two_point, playfair, lines_per_point = _affine_checks(R, lines)
    affine = two_point and playfair
    if affine and len(lines) * (q * q) != R.size * lines_per_point:
        raise VerificationError("line and point counts of the plane disagree")

    if not affine:
        # no plane to complete: the verdicts report it, and no Desargues one
        desargues, method, witness = None, "not-an-affine-plane", None
    elif skip_replacement:
        # negative control: the line set is exactly AG(2, q^2), the field plane
        desargues, method, witness = True, "field-plane-identity", None
    elif q == 2:
        witness, _ = _desargues_scan(*_projective_completion(R, lines),
                                     find_failure=False, cap=0)
        desargues, method = witness is None, "exhaustive"
    else:
        witness, _ = _desargues_scan(*_projective_completion(R, lines),
                                     find_failure=True, cap=desargues_cap)
        if witness is None:
            raise DerivedPlaneError(
                "no Desargues failure within the search cap; cannot classify")
        desargues, method = False, "witness-search"

    outside = int(np.count_nonzero(~rows_in(lines, geom.residue.blocks)))
    return PlaneReport(
        points=R.size,
        lines=len(lines),
        line_size=q * q,
        two_point_axiom=two_point,
        playfair=playfair,
        desargues=desargues,
        desargues_method=method,
        desargues_witness=witness,
        degenerate_replacement=degenerate and not skip_replacement,
        replaced_regulus_size=replaced_size,
        lines_outside_block_set=outside,
        second_subfield=None if K2 is None else K2.elements,
    )
