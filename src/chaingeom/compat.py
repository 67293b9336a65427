"""Compatibility and dual compatibility of residue blocks.

Everything happens in the residue at the far point, where blocks live in
ring coordinates.  Compatibility is the orbit relation under the affine
right action x -> x*a + c (a a unit), dual compatibility is the pullback
along the annihilator map of the mirrored left action x -> d*x + c.  Both
actions are realized on coordinates, with a one-time check per residue
that the coordinate action agrees with the matrix action.

The derivation analogue replaces one regulus of the spread of left
K-subspaces with its opposite regulus of right K''-cosets, where K'' is a
second conjugate subfield, and validates the outcome as an affine plane of
order q^2 including an exhaustive or witness-producing Desargues search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from chaingeom.rings import (
    Ring,
    Subfield,
    additive_generators,
    conjugate_subfield,
    is_normal_subgroup,
    normality_witness,
    unit_generators,
)
from chaingeom.projline import make_point
from chaingeom.chains import Residue, residue_at
from chaingeom.duality import (
    dual_chain_orbit,
    dual_infinity,
    perp_point,
)
from chaingeom.projline import infinity

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


def _affine_steps(R: Ring, products):
    """Generators of the affine action x -> x*a + c (products =
    R.right_products) or x -> a*x + c (products = R.left_products)."""
    muls = [products(g) for g in unit_generators(R)]
    adds = [[R.add(x, h) for x in R.elements()] for h in additive_generators(R)]
    return [lambda B, t=t: frozenset(t[x] for x in B) for t in muls + adds]


def _partition(blocks, steps):
    blocks = set(blocks)
    classes = []
    unassigned = set(blocks)
    while unassigned:
        seed = min(unassigned, key=sorted)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            B = frontier.pop()
            for step in steps:
                C = step(B)
                if C not in orbit:
                    assert C in blocks, "affine action left the block set"
                    orbit.add(C)
                    frontier.append(C)
        classes.append(frozenset(orbit))
        unassigned -= orbit
    return classes


def eq9_family(R: Ring, K: Subfield, side: str) -> frozenset:
    """The family {K a + c : a unit, c in R} (compatibility side) or
    {d K + c : d unit, c in R} (dual side), as coordinate block sets."""
    out = set()
    for a in R.units:
        if side == "compatibility":
            base = [R.mul(k, a) for k in K.elements]
        else:
            base = [R.mul(a, k) for k in K.elements]
        for c in R.elements():
            out.add(frozenset(R.add(x, c) for x in base))
    return frozenset(out)


def _find_witness(R: Ring, K: Subfield, class_blocks: frozenset, side: str) -> Optional[Subfield]:
    seen = set()
    for u in R.units:
        conj = conjugate_subfield(K, u)
        if conj.elements in seen:
            continue
        seen.add(conj.elements)
        if frozenset(conj.elements) not in class_blocks:
            continue
        if eq9_family(R, conj, side) == class_blocks:
            return conj
    return None


def _verify_coordinate_action(res: Residue) -> None:
    """The affine coordinate actions agree with the matrix actions of the
    lower/upper unitriangular groups on (dual) residue points."""
    R = res.ring
    from chaingeom.projline import apply_matrix
    from chaingeom.duality import apply_matrix_dual, make_dual_point
    coord_pt = {x: make_point(R, x, R.one) for x in R.elements()}
    for a in unit_generators(R):
        for c in additive_generators(R):
            M = (a, R.zero, c, R.one)
            for x in R.elements():
                got = apply_matrix(R, coord_pt[x], M)
                assert got == coord_pt[R.add(R.mul(x, a), c)]
    for d in unit_generators(R):
        for c in additive_generators(R):
            M = (R.one, R.zero, R.neg(c), d)
            for x in R.elements():
                got = apply_matrix_dual(R, make_dual_point(R, R.neg(R.one), x), M)
                assert got == make_dual_point(R, R.neg(R.one), R.add(R.mul(d, x), c))


_delta_memo: dict = {}


def delta_orbits(res: Residue) -> tuple[CompatClass, ...]:
    """Compatibility classes at the far point: orbits under x -> x*a + c."""
    key = (res.ring, res.subfield, res.at, "compat")
    if key in _delta_memo:
        return _delta_memo[key]
    R = res.ring
    _verify_coordinate_action(res)
    classes = _partition(res.blocks, _affine_steps(R, R.right_products))
    out = []
    for cls in sorted(classes, key=lambda c: sorted(map(sorted, c))):
        w = _find_witness(R, res.subfield, cls, "compatibility")
        assert w is not None, "class without a conjugate-subfield witness"
        out.append(CompatClass("compatibility", cls, w))
    _delta_memo[key] = tuple(out)
    return _delta_memo[key]


def dual_residue_coord(R: Ring, q) -> Optional[int]:
    """Coordinate of a dual point under (-1, x)^T R -> x, None if not
    distant from the dual far point."""
    v, w = q
    vinv = R.inv(v)
    if vinv is None:
        return None
    return R.neg(R.mul(w, vinv))


def block_perp_image(res: Residue, B: frozenset) -> frozenset:
    """Annihilator image of a coordinate block, in dual coordinates."""
    R = res.ring
    out = set()
    for x in B:
        y = dual_residue_coord(R, perp_point(R, make_point(R, x, R.one)))
        assert y is not None
        out.add(y)
    return frozenset(out)


def dual_compat_classes(res: Residue) -> tuple[CompatClass, ...]:
    """Dual compatibility: pull the left-affine orbit relation on the
    annihilator images back to the blocks."""
    key = (res.ring, res.subfield, res.at, "dual")
    if key in _delta_memo:
        return _delta_memo[key]
    R = res.ring
    img = {B: block_perp_image(res, B) for B in res.blocks}
    img_classes = _partition(set(img.values()), _affine_steps(R, R.left_products))
    out = []
    for icls in sorted(img_classes, key=lambda c: sorted(map(sorted, c))):
        blocks = frozenset(B for B, I in img.items() if I in icls)
        w = _find_witness(R, res.subfield, icls, "dual-compatibility")
        assert w is not None, "dual class without witness"
        out.append(CompatClass("dual-compatibility", blocks, w))
    _delta_memo[key] = tuple(out)
    return _delta_memo[key]


def check_class_structure(cls: CompatClass) -> bool:
    """True iff the class is exactly the coset family of its witness."""
    R = cls.witness.ring
    return eq9_family(R, cls.witness, cls.side) == cls.blocks


def dual_residue_blocks(R: Ring, K: Subfield) -> frozenset:
    """Blocks of the dual residue at the dual far point, computed from the
    dual chain orbit and coordinatized via (-1, x)^T R -> x."""
    blocks = set()
    dinf = dual_infinity(R)
    for C in dual_chain_orbit(R, K, through=dinf):
        coords = frozenset(dual_residue_coord(R, q) for q in C if q != dinf)
        assert None not in coords
        blocks.add(coords)
    return frozenset(blocks)


@dataclass(frozen=True)
class ResidueComparison:
    """Outcome of comparing the residue at the far point with its dual."""

    points_fixed: bool
    blocks_equal: bool
    partitions_equal: bool
    units_normal: bool
    witness_unit: Optional[int]
    n_classes: int
    n_dual_classes: int

    @property
    def consistent(self) -> bool:
        """All three predicted behaviours hold."""
        return (self.points_fixed and self.blocks_equal
                and self.partitions_equal == self.units_normal)


def compare_residue_with_dual(R: Ring, K: Subfield) -> ResidueComparison:
    """(a) residue points are fixed by the annihilator map under the two
    coordinate identifications, (b) primal and dual block sets coincide,
    (c) the two partitions agree exactly when K* is normal in R*."""
    res = residue_at(R, K, infinity(R))
    points_fixed = all(
        dual_residue_coord(R, perp_point(R, make_point(R, x, R.one))) == x
        for x in R.elements())
    blocks_equal = dual_residue_blocks(R, K) == frozenset(res.blocks)
    classes = delta_orbits(res)
    dual_classes = dual_compat_classes(res)
    part = {c.blocks for c in classes}
    dual_part = {c.blocks for c in dual_classes}
    return ResidueComparison(
        points_fixed=points_fixed,
        blocks_equal=blocks_equal,
        partitions_equal=part == dual_part,
        units_normal=is_normal_subgroup(K, R),
        witness_unit=normality_witness(K),
        n_classes=len(classes),
        n_dual_classes=len(dual_classes),
    )


# partial affine spaces ------------------------------------------------------

def validate_partial_affine(res: Residue, cls: CompatClass) -> bool:
    """The class forms a partial affine space on the residue points:

    (i)   every block is a coset of a 1-dim left witness-subspace (right
          subspace on the dual side),
    (ii)  every direction that occurs comes with all of its cosets,
    (iii) two points at unit difference lie on exactly one block.
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
    if any(count != n_cosets for count in directions.values()):
        return False
    joined: dict = {}
    for B in cls.blocks:
        for x, y in combinations(sorted(B), 2):
            joined[(x, y)] = joined.get((x, y), 0) + 1
    for x in R.elements():
        for y in R.elements():
            if x < y and R.is_unit(R.sub(y, x)):
                if joined.get((x, y), 0) != 1:
                    return False
    return True


def missing_directions(res: Residue, cls: CompatClass) -> int:
    """Parallel classes of the ambient affine space absent from the class."""
    R = res.ring
    Kp = cls.witness.elements
    if cls.side == "compatibility":
        all_dirs = {frozenset(R.mul(k, x) for k in Kp) for x in R.elements() if x != 0}
    else:
        all_dirs = {frozenset(R.mul(x, k) for k in Kp) for x in R.elements() if x != 0}
    have = {frozenset(R.sub(x, min(B)) for x in B) for B in cls.blocks}
    assert have <= all_dirs
    return len(all_dirs) - len(have)


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


def left_subspace_spread(R: Ring, K: Subfield) -> frozenset:
    """All 1-dim left K-subspaces Kx, x != 0: a spread of R as F_q-space."""
    members = {frozenset(R.mul(k, x) for k in K.elements)
               for x in R.elements() if x != R.zero}
    q2 = len(K.elements)
    assert all(len(m) == q2 for m in members)
    covered = set().union(*members)
    assert covered == set(R.elements())
    for m1, m2 in combinations(members, 2):
        assert m1 & m2 == {R.zero}
    assert len(members) == (R.size - 1) // (q2 - 1)
    return frozenset(members)


def _all_2dim_subspaces(R: Ring, q: int) -> list:
    """Every additive subgroup of order q^2 arising as a span of two
    elements (q prime here, so these are the F_q-subspaces)."""
    out = set()
    for x in R.elements():
        if x == R.zero:
            continue
        for y in R.elements():
            if y == R.zero:
                continue
            span = {R.add(self_mul_x, self_mul_y)
                    for self_mul_x in _scalar_multiples(R, x, q)
                    for self_mul_y in _scalar_multiples(R, y, q)}
            if len(span) == q * q:
                out.add(frozenset(span))
    return sorted(out, key=sorted)


def _scalar_multiples(R: Ring, x: int, q: int) -> list:
    out = [R.zero]
    cur = R.zero
    for _ in range(q - 1):
        cur = R.add(cur, x)
        out.append(cur)
    return out[:q]


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


def _affine_checks(R: Ring, lines: list) -> tuple[bool, bool, int, dict]:
    """Two-point axiom and Playfair for a line family over point set R."""
    pair_line: dict = {}
    two_point = True
    for li, L in enumerate(lines):
        for x, y in combinations(sorted(L), 2):
            if (x, y) in pair_line:
                two_point = False
            pair_line[(x, y)] = li
    n = R.size
    if len(pair_line) != n * (n - 1) // 2:
        two_point = False
    by_point: dict = {x: [] for x in R.elements()}
    for li, L in enumerate(lines):
        for x in L:
            by_point[x].append(li)
    playfair = True
    line_sets = [frozenset(L) for L in lines]
    for li, L in enumerate(lines):
        for x in R.elements():
            if x in line_sets[li]:
                continue
            parallels = [m for m in by_point[x]
                         if not (line_sets[m] & line_sets[li])]
            if len(parallels) != 1:
                playfair = False
    r_counts = {len(v) for v in by_point.values()}
    lines_per_point = r_counts.pop() if len(r_counts) == 1 else -1
    return two_point, playfair, lines_per_point, pair_line


def _projective_completion(R: Ring, lines: list) -> tuple[list, list]:
    """Affine points get ids 0..n-1, directions n..; returns (points, lines)
    with lines as sorted tuples of point ids, last line at infinity."""
    dirs = []
    dir_id = {}
    proj_lines = []
    n = R.size
    for L in lines:
        base = min(L)
        d = frozenset(R.sub(x, base) for x in L)
        if d not in dir_id:
            dir_id[d] = n + len(dirs)
            dirs.append(d)
        proj_lines.append(tuple(sorted(L)) + (dir_id[d],))
    proj_lines.append(tuple(range(n, n + len(dirs))))
    points = list(range(n + len(dirs)))
    return points, proj_lines


def _desargues_scan(points, lines, find_failure: bool, cap: int):
    """Deterministic sweep over centrally-perspective triangle pairs.

    find_failure=True returns the first non-closing configuration (or None
    after the cap, a diagnostic); find_failure=False proves the statement
    by sweeping every configuration (no cap).
    """
    line_of = {}
    for li, L in enumerate(lines):
        for a, b in combinations(L, 2):
            key = (a, b) if a < b else (b, a)
            assert key not in line_of, "projective completion is not linear"
            line_of[key] = li
    by_point: dict = {p: [] for p in points}
    for li, L in enumerate(lines):
        for p in L:
            by_point[p].append(li)
    line_pts = [tuple(L) for L in lines]
    meets: dict = {}

    def meet(l1, l2):
        key = (l1, l2) if l1 < l2 else (l2, l1)
        got = meets.get(key)
        if got is None:
            got = (set(line_pts[l1]) & set(line_pts[l2])).pop()
            meets[key] = got
        return got

    def lt(a, b):
        return line_of[(a, b) if a < b else (b, a)]

    count = 0
    for O in points:
        ls = by_point[O]
        for l1, l2, l3 in combinations(ls, 3):
            p1 = [p for p in line_pts[l1] if p != O]
            p2 = [p for p in line_pts[l2] if p != O]
            p3 = [p for p in line_pts[l3] if p != O]
            for A in p1:
                for A2 in p1:
                    if A2 == A:
                        continue
                    for B in p2:
                        for B2 in p2:
                            if B2 == B:
                                continue
                            ab, ab2 = lt(A, B), lt(A2, B2)
                            if ab == ab2:
                                continue
                            P = meet(ab, ab2)
                            for C in p3:
                                for C2 in p3:
                                    if C2 == C:
                                        continue
                                    count += 1
                                    if find_failure and count > cap:
                                        return None
                                    ac, ac2 = lt(A, C), lt(A2, C2)
                                    bc, bc2 = lt(B, C), lt(B2, C2)
                                    if ac == ac2 or bc == bc2:
                                        continue
                                    Q = meet(ac, ac2)
                                    S = meet(bc, bc2)
                                    if P == Q or P == S or Q == S:
                                        continue
                                    if S in line_pts[lt(P, Q)]:
                                        continue
                                    witness = {
                                        "center": O,
                                        "lines": [l1, l2, l3],
                                        "triangle": [A, B, C],
                                        "image": [A2, B2, C2],
                                        "axis_points": [P, Q, S],
                                    }
                                    return witness
    return None


def derive_plane(R: Ring, K: Subfield, skip_replacement: bool = False,
                 desargues_cap: int = 10 ** 7) -> PlaneReport:
    """Regulus replacement in the spread of left K-subspaces of matrix2(q).

    Removes the lines of the ambient affine plane AG(2, q^2) whose
    directions lie in the regulus determined by a second conjugate subfield
    K'' and inserts the blocks {a K'' + c : a in K*, c in R}.  When no
    second conjugate exists (q = 2) the replacement degenerates to the
    identity and the plane is the Desarguesian AG(2, 4).
    """
    if R.spec.family != "matrix2" or R.spec.q not in (2, 3):
        raise RegulusNotFoundError("derivation analogue needs matrix2(2) or matrix2(3)")
    q = R.spec.q
    res = residue_at(R, K, infinity(R))
    classes = delta_orbits(res)
    kblock = frozenset(K.elements)
    kclass = next(c for c in classes if kblock in c.blocks)
    spread = left_subspace_spread(R, K)
    ag_lines = {frozenset(R.add(x, c) for x in m) for m in spread for c in R.elements()}
    assert len(ag_lines) == (q * q + 1) * q * q
    assert kclass.blocks <= ag_lines  # the class extends to AG(2, q^2)
    block_set = frozenset(res.blocks)

    K2 = second_conjugate(R, K)
    degenerate = skip_replacement or K2 is None
    if skip_replacement:
        K2 = None
    if degenerate:
        lines = sorted(ag_lines, key=sorted)
        removed: frozenset = frozenset()
        replaced_size = 0 if skip_replacement else 1
    else:
        regulus = {frozenset(R.mul(k, x) for k in K.elements) for x in K2.nonzero}
        if len(regulus) != q + 1 or not regulus <= spread:
            raise RegulusNotFoundError("conjugate subfield did not span a regulus")
        opposite = {frozenset(R.mul(a, k) for k in K2.elements) for a in K.nonzero}
        if len(opposite) != q + 1:
            raise RegulusNotFoundError("opposite family has the wrong size")
        if set().union(*opposite) != set().union(*regulus):
            raise RegulusNotFoundError("opposite family misses the regulus carrier")
        for T in opposite:
            for m in regulus:
                if len(T & m) != q:
                    raise RegulusNotFoundError("non-transversal opposite member")
        # cross-check against the 3-generated regulus search
        m1, m2, m3 = sorted(regulus, key=sorted)[:3]
        reg2, trans = regulus_through(R, q, m1, m2, m3)
        if reg2 != frozenset(regulus) or trans != frozenset(opposite):
            raise RegulusNotFoundError("3-generated regulus disagrees")
        inserted = {frozenset(R.add(x, c) for x in T)
                    for T in opposite for c in R.elements()}
        lines = sorted((L for L in ag_lines
                        if frozenset(R.sub(x, min(L)) for x in L) not in regulus),
                       key=sorted)
        lines += sorted(inserted, key=sorted)
        removed = frozenset(regulus)
        replaced_size = len(removed)

    two_point, playfair, lines_per_point, _ = _affine_checks(R, lines)
    if not (two_point and playfair):
        raise DerivedPlaneError("derived structure is not an affine plane")
    assert len(lines) * (q * q) == R.size * lines_per_point

    points, proj_lines = _projective_completion(R, lines)
    if degenerate and skip_replacement:
        # negative control: the line set is exactly AG(2, q^2), the field plane
        desargues, method, witness = True, "field-plane-identity", None
    elif q == 2:
        witness = _desargues_scan(points, proj_lines, find_failure=False, cap=0)
        desargues, method = witness is None, "exhaustive"
    else:
        witness = _desargues_scan(points, proj_lines, find_failure=True,
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
