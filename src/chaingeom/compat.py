"""Compatibility and dual compatibility of residue blocks.

Everything happens in the residue at the far point, where blocks live in
ring coordinates.  Compatibility is the orbit relation under the affine
right action x -> x*a + c (a a unit), dual compatibility is the pullback
along the annihilator map of the mirrored left action x -> d*x + c.  Both
actions are realized on coordinates as permutation tables, with a
one-time check per residue that the coordinate action agrees with the
matrix action.

The derivation analogue replaces one regulus of the spread of left
K-subspaces with its opposite regulus of right K''-cosets, where K'' is a
second conjugate subfield, and validates the outcome as an affine plane of
order q^2 including an exhaustive or witness-producing Desargues search.
That search is a sliced table kernel: join, meet and incidence tables of
the projective completion, indexed by numpy over bounded slabs that still
examine every configuration, in the order of the plain nested loop.  The
witness families, the unit-pair joins, the 2-dim subspace search and the
affine-plane checks are table kernels too, over rows of ring elements read
from the add and mul tables or over an incidence matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from chaingeom.rings import (
    Ring,
    Subfield,
    additive_generators,
    conjugate_subfield,
    unit_generators,
)
from chaingeom.projline import VerificationError, orbit, row_images, sorted_rows
from chaingeom.chains import Residue
from chaingeom.duality import col_images


class RegulusNotFoundError(RuntimeError):
    pass


class DerivedPlaneError(RuntimeError):
    pass


@dataclass(frozen=True)
class CompatClass:
    """One orbit of blocks, with the conjugate subfield that reproduces it
    as {(u^-1 K u)a + c} (or the mirrored right-space family)."""

    side: str  # "compatibility" | "dual-compatibility"
    blocks: frozenset
    witness: Subfield

    def __len__(self):
        return len(self.blocks)


def _witnessed_orbits(res: Residue, blocks, products, side: str) -> list[tuple]:
    """The orbits of the affine action x -> x*a + c (products =
    R.right_products) or x -> a*x + c (products = R.left_products) on a set
    of coordinate blocks, sorted, each with its conjugate-subfield witness.
    The generators act as permutation tables; raises VerificationError if
    the action leaves the block set or a class has no witness."""
    R = res.ring
    steps = np.array([products(g) for g in unit_generators(R)]
                     + [[R.add(x, h) for x in R.elements()] for h in additive_generators(R)],
                     dtype=np.intp)
    unassigned = set(blocks)
    classes = []
    while unassigned:
        seed = min(unassigned, key=sorted)
        cls = frozenset(map(frozenset, orbit([sorted(seed)], steps).tolist()))
        if not cls <= unassigned:
            raise VerificationError(f"{R.name}: affine action left the block set")
        classes.append(cls)
        unassigned -= cls
    out = []
    for cls in sorted(classes, key=lambda c: sorted(map(sorted, c))):
        w = _find_witness(R, res.subfield, cls, side)
        if w is None:
            raise VerificationError(f"{R.name}: {side} class without a witness")
        out.append((cls, w))
    return out


def _distinct_sets(rows) -> np.ndarray:
    """The distinct sets among the rows of an integer table, as
    sorted_rows, each kept where it differs from the one before (a plain
    np.unique over rows imports numpy.ma, about 16 ms cold)."""
    rows = sorted_rows(rows)
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
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


def _find_witness(R: Ring, K: Subfield, class_blocks: frozenset, side: str) -> Optional[Subfield]:
    """The conjugate subfield u^-1 K u, least unit u first, that is a block
    of the class and whose coset family is exactly the class."""
    k, u = np.array(K.elements), np.array(R.units)
    inv = np.array([R.inv(x) for x in R.units])
    tried = set()
    for unit, row in zip(R.units, R._mul_a[R._mul_a[inv[:, None], k], u[:, None]].tolist()):
        block = frozenset(row)
        if block in class_blocks and block not in tried:
            tried.add(block)
            conj = conjugate_subfield(K, unit)
            if check_class_structure(CompatClass(side, class_blocks, conj)):
                return conj
    return None


def _verify_coordinate_action(R: Ring) -> None:
    """Each generator of the class orbits acts on the coordinates as its
    matrix acts on the residue: x -> x*a (a a unit generator) and x -> x + c
    (c an additive generator) as [[a, 0], [0, 1]] and [[1, 0], [c, 1]] on
    the points R(x, 1), and x -> a*x and x -> x + c as [[1, 0], [0, a]] and
    [[1, 0], [-c, 1]] on the dual points (-1, x)^T R.  Compares key tables
    of row_images and col_images with the coordinate maps."""
    one, zero = R.one, R.zero
    x = np.arange(R.size)
    units, shifts = unit_generators(R), additive_generators(R)
    points, duals = R._left_key[x, one], R._right_key[R.neg(one), x]
    moved = [R._add_a[x, c] for c in shifts]
    for side, keys, got, coords in (
            ("point", points,
             row_images(R, points, [(a, zero, zero, one) for a in units]
                        + [(one, zero, c, one) for c in shifts]),
             [R._mul_a[x, a] for a in units] + moved),
            ("dual point", duals,
             col_images(R, duals, [(one, zero, zero, a) for a in units]
                        + [(one, zero, R.neg(c), one) for c in shifts]),
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
    return tuple(CompatClass("compatibility", cls, w) for cls, w in
                 _witnessed_orbits(res, res.blocks, res.ring.right_products, "compatibility"))


def dual_compat_classes(res: Residue, perp_coords) -> tuple[CompatClass, ...]:
    """Dual compatibility: pull the left-affine orbit relation on the
    annihilator images back to the blocks.  perp_coords[x] is the dual
    coordinate of the annihilator of R(x, 1), -1 off the dual residue."""
    R = res.ring
    img = {B: frozenset(perp_coords[x] for x in B) for B in res.blocks}
    if any(-1 in I for I in img.values()):
        raise VerificationError(f"{R.name}: a block point maps off the dual residue")
    side = "dual-compatibility"
    return tuple(CompatClass(side, frozenset(B for B, I in img.items() if I in icls), w)
                 for icls, w in
                 _witnessed_orbits(res, set(img.values()), R.left_products, side))


def check_class_structure(cls: CompatClass) -> bool:
    """True iff the class is exactly the coset family of its witness: the
    two row sets are equal, not merely one inside the other."""
    family = coset_family(cls.witness.ring, cls.witness, cls.side)
    rows = _distinct_sets([list(B) for B in cls.blocks])
    return rows.shape == family.shape and bool(np.all(rows == family))


# partial affine spaces ------------------------------------------------------

def joins_unit_pairs_once(R: Ring, blocks) -> bool:
    """Two points at unit difference lie on exactly one of the blocks (all
    of one size; a repeated block counts twice).  The pairs x < y of every
    block are counted at once, as a bincount of x |R| + y."""
    n = R.size
    rows = np.array([sorted(B) for B in blocks], dtype=np.intp, ndmin=2)
    i, j = np.triu_indices(rows.shape[1], 1)
    joined = np.bincount((rows[:, i] * n + rows[:, j]).ravel(), minlength=n * n)
    unit = np.zeros(n, dtype=bool)
    unit[list(R.units)] = True
    # [x, y]: x < y and y - x a unit
    need = np.triu(unit[R._add_a[:, R._neg_a]].T, 1)
    return bool(np.all(joined.reshape(n, n)[need] == 1))


def cosets_hold(res: Residue, cls: CompatClass) -> bool:
    """The first two conditions of a partial affine space on the residue
    points, the third being joins_unit_pairs_once:

    (i)   every block is a coset of a 1-dim left witness-subspace (right
          subspace on the dual side),
    (ii)  every direction that occurs comes with all of its cosets.
    """
    R = res.ring
    Kp = cls.witness.elements
    directions: dict = {}
    for B in cls.blocks:
        c = min(B)
        B0 = frozenset(R.sub(x, c) for x in B)
        b = min(x for x in B0 if x != R.zero)
        if cls.side == "compatibility":
            span = frozenset(R.mul(k, b) for k in Kp)
        else:
            span = frozenset(R.mul(b, k) for k in Kp)
        if B0 != span:
            return False
        directions[B0] = directions.get(B0, 0) + 1
    n_cosets = R.size // len(Kp)
    return all(count == n_cosets for count in directions.values())


def missing_directions(res: Residue, cls: CompatClass) -> int:
    """Parallel classes of the ambient affine space absent from the class.
    The ambient directions K'x (x*K' on the dual side), x != 0, are the
    distinct sorted rows of one slice of the mul table, and the class's
    directions are its blocks shifted to 0, B - min(B), sorted the same way.
    Raises VerificationError unless every direction of the class is one of
    the ambient ones."""
    R = res.ring
    k, x = np.array(cls.witness.elements), np.arange(1, R.size)  # zero is 0
    spans = R._mul_a[k, x[:, None]] if cls.side == "compatibility" else R._mul_a[x[:, None], k]
    ambient = {row.tobytes() for row in np.sort(spans, axis=1)}
    if any(len(B) != len(k) for B in cls.blocks):
        raise VerificationError(f"{R.name}: a block is no coset of the witness")
    rows = np.array([sorted(B) for B in cls.blocks], dtype=np.intp).reshape(-1, len(k))
    have = {row.tobytes() for row in np.sort(R._add_a[rows, R._neg_a[rows[:, :1]]], axis=1)}
    if not have <= ambient:
        raise VerificationError(f"{R.name}: a block direction is no witness subspace")
    return len(ambient) - len(have)


# the derivation analogue -----------------------------------------------------

@dataclass(frozen=True)
class PlaneReport:
    points: int
    lines: int
    line_size: int
    two_point_axiom: bool
    playfair: bool
    desargues: bool
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


def _all_2dim_subspaces(R: Ring, q: int) -> list:
    """Every additive subgroup of order q^2 arising as a span of two
    elements (q prime here, so these are the F_q-subspaces), sorted.  The
    spans {i x + j y} of all pairs x < y of nonzero elements are the rows
    of one table; rows with q^2 distinct entries are kept."""
    n = R.size
    mult = np.zeros((n, q), dtype=np.intp)  # mult[x, i] = i x
    for i in range(1, q):
        mult[:, i] = R._add_a[mult[:, i - 1], np.arange(n)]
    x, y = np.triu_indices(n, 1)
    nonzero = x != R.zero
    spans = R._add_a[mult[x[nonzero], :, None], mult[y[nonzero], None, :]].reshape(-1, q * q)
    rows = _distinct_sets(spans)
    rows = rows[np.all(rows[:, 1:] != rows[:, :-1], axis=1)]
    return [frozenset(r) for r in rows.tolist()]


def regulus_through(R: Ring, q: int, m1, m2, m3, subspaces=None) -> tuple[frozenset, frozenset]:
    """The regulus spanned by three pairwise-skew 2-dim subspaces and its
    opposite regulus (the transversal family), by exhaustive search."""
    if subspaces is None:
        subspaces = _all_2dim_subspaces(R, q)
    gens = [m1, m2, m3]
    transversals = [T for T in subspaces
                    if all(len(T & m) == q for m in gens)]
    if len(transversals) != q + 1:
        raise RegulusNotFoundError(
            f"{len(transversals)} transversals through the three generators")
    reg = [W for W in subspaces if all(len(W & T) == q for T in transversals)]
    if len(reg) != q + 1:
        raise RegulusNotFoundError(f"regulus came out with {len(reg)} members")
    return frozenset(reg), frozenset(transversals)


def second_conjugate(R: Ring, K: Subfield) -> Optional[Subfield]:
    """The conjugate subfield u^-1 K u != K with the least witness unit."""
    for u in R.units:
        conj = conjugate_subfield(K, u)
        if conj.elements != K.elements:
            return conj
    return None


def _incidence(n_points: int, lines) -> np.ndarray:
    """The lines x points 0/1 incidence matrix."""
    inc = np.zeros((len(lines), n_points), dtype=np.int64)
    for li, L in enumerate(lines):
        inc[li, list(L)] = 1
    return inc


def _affine_checks(R: Ring, lines: list) -> tuple[bool, bool, int]:
    """Two-point axiom, Playfair and the number of lines per point (-1 if
    it varies) for a line family over point set R, from the incidence
    matrix: every two points share exactly one line, and every line misses
    each point off it by exactly one line through that point."""
    inc = _incidence(R.size, lines)
    common = inc.T @ inc
    np.fill_diagonal(common, 1)
    parallels = ((inc @ inc.T) == 0).astype(np.int64) @ inc  # [l, x]: lines through x missing l
    per_point = inc.sum(axis=0)
    return (bool(np.all(common == 1)), bool(np.all(parallels[inc == 0] == 1)),
            int(per_point[0]) if np.all(per_point == per_point[0]) else -1)


def _directions(R: Ring, rows: np.ndarray) -> list[tuple]:
    """The direction L - min(L) of every line L, a sorted row of the table,
    as a sorted tuple."""
    return list(map(tuple, np.sort(R._add_a[rows, R._neg_a[rows[:, :1]]], axis=1).tolist()))


def _projective_completion(R: Ring, lines: list) -> tuple[list, list]:
    """Affine points get ids 0..n-1, directions n.. in order of first
    appearance; returns (points, lines) with lines as sorted tuples of
    point ids, last line at infinity."""
    n = R.size
    rows = np.sort(np.array(lines, dtype=np.intp), axis=1)
    dirs = _directions(R, rows)
    dir_id: dict = {}
    for d in dirs:
        dir_id.setdefault(d, n + len(dir_id))
    proj_lines = [tuple(L) + (dir_id[d],) for L, d in zip(rows.tolist(), dirs)]
    proj_lines.append(tuple(range(n, n + len(dir_id))))
    return list(range(n + len(dir_id))), proj_lines


# entries per slab of the Desargues kernel: one (A, A') row on order 9
_SLAB = 72 * 72


def _plane_tables(n_points: int, lines) -> tuple:
    """The tables the Desargues scan indexes: line_of (N x N line index, -1 on
    the diagonal), meet (L x L point index, -1 on the diagonal) and the L x N
    0/1 incidence matrix.  Raises VerificationError unless every two points
    lie on exactly one line and every two lines meet in exactly one point."""
    inc = _incidence(n_points, lines)
    # each product entry sums over the common lines (points); where exactly
    # one is common, the index-weighted product names it
    for what, X in (("lines through points", inc), ("points on lines", inc.T)):
        common = X.T @ X
        np.fill_diagonal(common, 1)
        bad = np.argwhere(common != 1)
        if len(bad):
            i, j = bad[0].tolist()
            raise VerificationError(
                f"projective completion is not linear: {common[i, j]} {what} {i} and {j}")
    line_of = (inc.T * np.arange(len(lines))) @ inc
    meet = (inc * np.arange(n_points)) @ inc.T
    np.fill_diagonal(line_of, -1)
    np.fill_diagonal(meet, -1)
    return line_of, meet, inc


def _ordered_pairs(m: int) -> tuple:
    """Index arrays of every ordered pair (i, j), i != j, lexicographically."""
    return np.nonzero(~np.eye(m, dtype=bool))


def _desargues_scan(points, lines, find_failure: bool, cap: int):
    """Deterministic sweep over centrally-perspective triangle pairs.

    Points are the ids 0..N-1.  Returns (witness, configurations examined).
    find_failure=True returns the first non-closing configuration (or None
    after the cap, a diagnostic); find_failure=False proves the statement
    by sweeping every configuration (no cap).

    Every configuration (O, l1 < l2 < l3 through O, A != A' on l1,
    B != B' on l2, C != C' on l3) is examined, in lexicographic order.  For
    one (O, l1, l2, l3) the axis points P = AB.A'B', Q = AC.A'C' and
    S = BC.B'C' are index tables over the ordered pairs, and the closing
    test runs on slabs of whole (A, A') rows of at most _SLAB entries.  In
    a projective plane (checked by _plane_tables) AB != A'B', AC != A'C'
    and BC != B'C' always, so no configuration is skipped uncounted.
    """
    line_of, meet, inc = _plane_tables(len(points), lines)
    line_pts = [np.array(L) for L in lines]
    count = 0
    for O in points:
        for l1, l2, l3 in combinations(np.flatnonzero(inc[:, O]).tolist(), 3):
            sides = []
            for li in (l1, l2, l3):
                pts = line_pts[li][line_pts[li] != O]
                i, j = _ordered_pairs(len(pts))
                sides.append((pts[i], pts[j]))
            (A, A2), (B, B2), (C, C2) = sides
            P = meet[line_of[A[:, None], B], line_of[A2[:, None], B2]]
            Q = meet[line_of[A[:, None], C], line_of[A2[:, None], C2]]
            S = meet[line_of[B[:, None], C], line_of[B2[:, None], C2]]
            rows = max(1, _SLAB // S.size)
            for r0 in range(0, len(A), rows):
                p = P[r0:r0 + rows, :, None]
                q = Q[r0:r0 + rows, None, :]
                # P, Q, S distinct and not collinear: S off the line PQ, which
                # holds P and Q; where P == Q line_of is -1, masked by p != q
                fail = (p != q) & (inc[line_of[p, q], S] == 0)
                hits = np.flatnonzero(fail)
                if hits.size:
                    examined = count + int(hits[0]) + 1
                    if find_failure and examined > cap:
                        return None, cap
                    a, rest = divmod(int(hits[0]), S.size)
                    b, c = divmod(rest, S.shape[1])
                    a += r0
                    witness = {
                        "center": O,
                        "lines": [l1, l2, l3],
                        "triangle": [int(A[a]), int(B[b]), int(C[c])],
                        "image": [int(A2[a]), int(B2[b]), int(C2[c])],
                        "axis_points": [int(P[a, b]), int(Q[a, c]), int(S[b, c])],
                    }
                    return witness, examined
                count += fail.size
                if find_failure and count > cap:
                    return None, cap
    return None, count


def derive_plane(geom, skip_replacement: bool = False,
                 desargues_cap: int = 10 ** 7) -> PlaneReport:
    """Regulus replacement in the spread of left K-subspaces of matrix2(q),
    for the Geometry geom of (R, K).

    Removes the lines of the ambient affine plane AG(2, q^2) whose
    directions lie in the regulus determined by a second conjugate subfield
    K'' and inserts the blocks {a K'' + c : a in K*, c in R}.  When no
    second conjugate exists (q = 2) the replacement degenerates to the
    identity and the plane is the Desarguesian AG(2, 4).
    """
    R, K = geom.ring, geom.subfield
    if R.spec.family != "matrix2" or R.spec.q not in (2, 3):
        raise RegulusNotFoundError("derivation analogue needs matrix2(2) or matrix2(3)")
    q = R.spec.q
    res = geom.residue
    classes = geom.compat_classes
    kblock = frozenset(K.elements)
    kclass = next(c for c in classes if kblock in c.blocks)
    # the spread, AG(2, q^2), the regulus and its opposite as tables of
    # sorted rows; a line is the tuple of its row
    spread = left_subspace_spread(R, K)
    ag = _translates(R, spread)
    if len(ag) != (q * q + 1) * q * q:
        raise VerificationError(f"AG(2, q^2) came out with {len(ag)} lines")
    ag_lines = list(map(tuple, ag.tolist()))
    if not {tuple(sorted(B)) for B in kclass.blocks} <= set(ag_lines):
        raise VerificationError("the class does not extend to AG(2, q^2)")
    block_set = frozenset(res.blocks)

    K2 = second_conjugate(R, K)
    degenerate = skip_replacement or K2 is None
    if skip_replacement:
        K2 = None
    if degenerate:
        lines = ag_lines
        replaced_size = 0 if skip_replacement else 1
    else:
        k, k2 = np.array(K.elements), np.array(K2.elements)
        regulus = _distinct_sets(R._mul_a[k, np.array(K2.nonzero)[:, None]])  # K x, x in K2*
        reg_lines = set(map(tuple, regulus.tolist()))
        if len(regulus) != q + 1 or not reg_lines <= set(map(tuple, spread.tolist())):
            raise RegulusNotFoundError("conjugate subfield did not span a regulus")
        opposite = _distinct_sets(R._mul_a[np.array(K.nonzero)[:, None], k2])  # a K2, a in K*
        if len(opposite) != q + 1:
            raise RegulusNotFoundError("opposite family has the wrong size")
        if set(opposite.ravel().tolist()) != set(regulus.ravel().tolist()):
            raise RegulusNotFoundError("opposite family misses the regulus carrier")
        # |T & m| for every opposite member T and regulus member m
        meets = (opposite[:, None, :, None] == regulus[None, :, None, :]).sum(axis=(2, 3))
        if np.any(meets != q):
            raise RegulusNotFoundError("non-transversal opposite member")
        # cross-check against the 3-generated regulus search
        reg_sets, opp_sets = ({frozenset(r) for r in t.tolist()} for t in (regulus, opposite))
        reg2, trans = regulus_through(R, q, *map(frozenset, regulus[:3].tolist()))
        if reg2 != reg_sets or trans != opp_sets:
            raise RegulusNotFoundError("3-generated regulus disagrees")
        lines = [L for L, d in zip(ag_lines, _directions(R, ag)) if d not in reg_lines]
        lines += map(tuple, _translates(R, opposite).tolist())
        replaced_size = len(regulus)

    two_point, playfair, lines_per_point = _affine_checks(R, lines)
    if not (two_point and playfair):
        raise DerivedPlaneError("derived structure is not an affine plane")
    if len(lines) * (q * q) != R.size * lines_per_point:
        raise VerificationError("line and point counts of the plane disagree")

    points, proj_lines = _projective_completion(R, lines)
    if degenerate and skip_replacement:
        # negative control: the line set is exactly AG(2, q^2), the field plane
        desargues, method, witness = True, "field-plane-identity", None
    elif q == 2:
        witness, _ = _desargues_scan(points, proj_lines, find_failure=False, cap=0)
        desargues, method = witness is None, "exhaustive"
    else:
        witness, _ = _desargues_scan(points, proj_lines, find_failure=True,
                                     cap=desargues_cap)
        if witness is None:
            raise DerivedPlaneError(
                "no Desargues failure within the search cap; cannot classify")
        desargues, method = False, "witness-search"

    outside = sum(1 for L in lines if frozenset(L) not in block_set)
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
