from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaingeom import compat, projline, suites
from chaingeom.projline import (
    VerificationError,
    infinity,
    line_generators,
    make_point,
    sorted_rows,
)
from chaingeom.cli import passes
from chaingeom.suites import vergleich_report
from chaingeom.compat import (
    CompatClass,
    DerivedPlaneError,
    RegulusNotFoundError,
    _affine_checks,
    _all_2dim_subspaces,
    _desargues_scan,
    _plane_tables,
    check_class_structure,
    coset_family,
    cosets_hold,
    derive_plane,
    joins_unit_pairs_once,
    missing_directions,
    same_partition,
)
from chaingeom.geometry import Geometry
from chaingeom.rings import (
    DualNumbersRing,
    FiniteFieldRing,
    Matrix2Ring,
    ProductRing,
    RingSpec,
    build_ring,
    build_subfield,
    conjugate_subfield,
)

import reference
from reference import (apply_matrix, changed_keys, corrupt, point_sets, slab_costs,
                       validate_partial_affine)


def as_blocks(rows) -> frozenset:
    """Rows of an integer table as the set of their sets."""
    return frozenset(map(frozenset, np.asarray(rows).tolist()))


def partition(classes) -> set:
    """A tuple of classes as the set of their block sets."""
    return {as_blocks(c.blocks) for c in classes}


def kernel_partial_affine(res, cls) -> bool:
    """The class as a partial affine space by the row kernels: (i) and (ii)
    of cosets_hold, then the unit-pair joins."""
    return cosets_hold(res, cls) and joins_unit_pairs_once(res.ring, cls.blocks)


def test_dual_classes_reject_a_block_point_off_the_dual_residue(f4_g):
    coords = f4_g.perp_coords.copy()
    coords[0] = -1
    with pytest.raises(VerificationError, match="off the dual residue"):
        compat.dual_compat_classes(f4_g.residue, coords)


def test_single_class_when_units_normal(f4_g, dual2_g, prod22_g, m2f2_g):
    assert [len(c) for c in f4_g.compat_classes] == [6]
    assert [len(c) for c in dual2_g.compat_classes] == [4]
    assert [len(c) for c in prod22_g.compat_classes] == [2]
    assert [len(c) for c in m2f2_g.compat_classes] == [8]


def test_three_classes_m2f3(m2f3_g):
    classes = m2f3_g.compat_classes
    assert len(classes) == 3
    assert all(len(c) == 54 for c in classes)


def test_partitions_cover_blocks(zoo_g):
    """Each partition's classes are sorted_rows whose rows together are the
    residue blocks, each block in one class."""
    for g in zoo_g:
        res = g.residue
        for classes in (g.compat_classes, g.dual_compat_classes):
            for c in classes:
                assert c.blocks.dtype.kind == "i" and np.array_equal(sorted_rows(c.blocks),
                                                                     c.blocks)
            seen = np.concatenate([c.blocks for c in classes])
            assert np.array_equal(sorted_rows(seen), res.blocks)


def test_class_structure(zoo_g):
    for g in zoo_g:
        for c in g.compat_classes + g.dual_compat_classes:
            assert check_class_structure(c)


def test_affine_action_leaving_the_block_set_raises(m2f2_g):
    """A block set that is not closed under the affine action, here the
    residue blocks less the first, is refused by an explicit raise."""
    res = m2f2_g.residue
    with pytest.raises(VerificationError, match="left the block set"):
        compat._witnessed_orbits(res, res.blocks[1:], "compatibility")


@pytest.mark.parametrize("how", ["outside", "taken"])
def test_orbit_off_the_blocks_left_raises(m2f2_g, monkeypatch, how):
    """A stubbed orbit engine whose class holds a row outside the block set
    ("outside"), or a block that an earlier class took ("taken"), is
    refused by the explicit raise."""
    R, blocks = m2f2_g.ring, m2f2_g.residue.blocks
    classes = iter([np.vstack([blocks[:1], blocks[:1] + R.size])] if how == "outside"
                   else [blocks[:2], blocks[1:3]])
    monkeypatch.setattr(compat, "orbit", lambda seeds, steps: next(classes))
    with pytest.raises(VerificationError, match="affine action left the block set"):
        compat._witnessed_orbits(m2f2_g.residue, blocks, "compatibility")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=40))
@example([])
@example([[2, 0, 1]])
@example([[1, 0, 2]] * 5 + [[2, 2, 0], [0, 2, 2]])
def test_distinct_sets_match_a_sorted_set_of_tuples(rows):
    """Empty, one-row and duplicate-heavy tables (entries 0..3, width 3)."""
    got = compat._distinct_sets(np.array(rows, dtype=np.intp).reshape(-1, 3))
    assert got.shape[1] == 3
    assert got.tolist() == [list(r) for r in sorted({tuple(sorted(r)) for r in rows})]


def test_class_structure_negative_control(f4_g):
    cls = f4_g.compat_classes[0]
    corrupted = CompatClass(cls.side, cls.blocks[:-1], cls.witness)
    assert not check_class_structure(corrupted)


def coordinate_action_raises(R) -> bool:
    try:
        compat._verify_coordinate_action(R)
    except VerificationError:
        return True
    return False


def test_coordinate_action_matches_reference(zoo, small_rings):
    """The key-table check passes exactly where the per-generator scalar
    reference holds: on every clean ring and its opposite, and on each
    single corrupted product of the three 4-element zoo rings."""
    for R in [R for R, _ in zoo] + small_rings:
        for S in (R, R.opposite):
            assert not coordinate_action_raises(S), S.name
            assert reference.coordinate_action_holds(S), S.name
    caught = 0
    for cls, spec in ((FiniteFieldRing, RingSpec("finite-field", 4)),
                      (DualNumbersRing, RingSpec("dual-numbers", 2)),
                      (ProductRing, RingSpec("product", 2))):
        clean = build_ring(spec)._mul_a
        for a, b, value in product(range(4), repeat=3):
            if value != clean[a][b]:
                R = corrupt(cls(spec), "mul", (a, b), value)
                raised = coordinate_action_raises(R)
                assert raised != reference.coordinate_action_holds(R), (spec, a, b, value)
                caught += raised
    assert caught > 0


@pytest.mark.parametrize("value", [0, 1, 3])
def test_coordinate_action_without_unit_generators(value):
    """R* = {1} on product(2,2), so no unit generator is tested; the shifts
    x + c alone catch the product of the element 2 = (0, 1) with the one
    (1, 1), element 3, corrupted."""
    R = corrupt(ProductRing(RingSpec("product", 2)), "mul", (2, 3), value)
    assert R.one == 3 and R.unit_generators == ()
    with pytest.raises(VerificationError, match="not the matrix action"):
        compat._verify_coordinate_action(R)


def test_dual_partition_matches_when_normal(small_zoo_g):
    for g in small_zoo_g:
        assert partition(g.compat_classes) == partition(g.dual_compat_classes)


def test_dual_partition_differs_m2f3(m2f3_g):
    assert partition(m2f3_g.compat_classes) != partition(m2f3_g.dual_compat_classes)


def test_same_partition_matches_set_comparison(zoo_g):
    """same_partition answers as the comparison of the partitions as sets of
    sets does: on the two partitions of every zoo residue, in either class
    order, and on a partition with one block moved to another class."""
    for g in zoo_g:
        ours = [c.blocks for c in g.compat_classes]
        for theirs in ([c.blocks for c in g.dual_compat_classes],
                       [c.blocks for c in g.dual_compat_classes][::-1], ours[::-1]):
            want = {as_blocks(b) for b in ours} == {as_blocks(b) for b in theirs}
            assert same_partition(ours, theirs) == want, g.ring.name
        if len(ours) > 1:
            moved = [sorted_rows(np.vstack([ours[1], ours[0][-1:]])), ours[0][:-1]] + ours[2:]
            assert not same_partition(ours, moved)
            assert not same_partition(ours, ours[1:])


def test_uK_dually_compatible_but_not_compatible(m2f3_g):
    """With K* non-normal pick u with uK != Ku: the block uK shares its dual
    class with K but not its compatibility class."""
    R, K = m2f3_g.ring, m2f3_g.subfield
    res = m2f3_g.residue
    kblock = list(K.elements)
    u = next(u for u in R.units
             if sorted(R.mul(u, k) for k in K.elements)
             != sorted(R.mul(k, u) for k in K.elements))
    uK = sorted(R.mul(u, k) for k in K.elements)
    assert uK in res.blocks.tolist()
    compat_of_k = next(c for c in m2f3_g.compat_classes if kblock in c.blocks.tolist())
    dual_of_k = next(c for c in m2f3_g.dual_compat_classes if kblock in c.blocks.tolist())
    assert uK not in compat_of_k.blocks.tolist()
    assert uK in dual_of_k.blocks.tolist()


@pytest.mark.parametrize("name", ["m2f2", "m2f3", "f4"])
def test_vergleich_with_a_shifted_perp_fails_points_fixed(request, name):
    """Negative control: a fresh Geometry whose perp sends R(x, 1) to the
    annihilator of R(x + 1, 1) no longer fixes the residue points.  The
    shift maps every block to a block of its own class, so only
    points_fixed moves, and the task fails."""
    g = request.getfixturevalue(f"{name}_g")
    clean = vergleich_report(g)
    assert passes("vergleich", clean) and clean["points_fixed"]
    R = g.ring
    shifted = Geometry(R, g.subfield)
    perp = g.perp.copy()
    perp[g.affine] = g.perp[g.affine[R._add_a[np.arange(R.size), R.one]]]
    shifted.perp = perp
    rep = vergleich_report(shifted)
    assert not rep["points_fixed"] and not passes("vergleich", rep)
    assert changed_keys(clean, rep) == {"points_fixed"}


@pytest.mark.parametrize("name", ["m2f2", "m2f3", "f4"])
def test_vergleich_without_a_dual_chain_fails_blocks_equal(request, name):
    """Negative control: a fresh Geometry whose dual chains through the far
    dual point lack their first row has one dual block too few; only
    blocks_equal moves, and the task fails."""
    g = request.getfixturevalue(f"{name}_g")
    clean = vergleich_report(g)
    assert passes("vergleich", clean) and clean["blocks_equal"]
    fewer = Geometry(g.ring, g.subfield)
    fewer.dual.chains_at_infinity = g.dual.chains_at_infinity[1:]
    rep = vergleich_report(fewer)
    assert not rep["blocks_equal"] and not passes("vergleich", rep)
    assert changed_keys(clean, rep) == {"blocks_equal"}


@pytest.mark.parametrize("name", ["m2f2", "m2f3", "f4"])
def test_vergleich_with_a_flipped_partition_check_fails_criterion_consistent(
        request, name, monkeypatch):
    """Negative control: same_partition stubbed to answer the opposite
    flips partitions_equal while units_normal stays (false on matrix2(3),
    true on the others), so criterion_consistent moves with it, and the
    task fails."""
    g = request.getfixturevalue(f"{name}_g")
    clean = vergleich_report(g)
    assert passes("vergleich", clean) and clean["criterion_consistent"]
    monkeypatch.setattr(suites, "same_partition", lambda a, b: not same_partition(a, b))
    rep = vergleich_report(g)
    assert rep["partitions_equal"] != clean["partitions_equal"]
    assert rep["criterion_consistent"] is False and not passes("vergleich", rep)
    assert changed_keys(clean, rep) == {"partitions_equal", "criterion_consistent"}


@pytest.mark.parametrize("name", ["m2f2", "m2f3", "f4"])
def test_partial_affine_with_a_pair_joined_twice_fails_exactly_one_block(
        request, name, monkeypatch):
    """Negative control: joins_unit_pairs_once failing on the first class
    turns exactly_one_block_per_class false, and the partial_affine verdict
    of that class, and of no other; the task fails."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.partial_affine_report(g)
    assert passes("partial-affine", clean) and clean["exactly_one_block_per_class"]
    first = g.compat_classes[0].blocks
    monkeypatch.setattr(suites, "joins_unit_pairs_once",
                        lambda R, blocks: blocks is not first
                        and joins_unit_pairs_once(R, blocks))
    rep = suites.partial_affine_report(g)
    assert not rep["exactly_one_block_per_class"] and not passes("partial-affine", rep)
    assert changed_keys(clean, rep) == {"exactly_one_block_per_class", "classes"}
    assert [c["partial_affine"] for c in rep["classes"]] == [
        False] + [c["partial_affine"] for c in clean["classes"][1:]]
    assert [{**c, "partial_affine": True} for c in rep["classes"]] == clean["classes"]


@pytest.mark.parametrize("name", ["m2f2", "m2f3", "f4"])
def test_partial_affine_with_a_coset_failure_fails_cosets_hold(request, name, monkeypatch):
    """Negative control: cosets_hold failing on the first class turns the
    report's cosets_hold false, and the partial_affine verdict of that
    class, and of no other; the task fails."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.partial_affine_report(g)
    assert passes("partial-affine", clean) and clean["cosets_hold"]
    first = g.compat_classes[0]
    monkeypatch.setattr(suites, "cosets_hold",
                        lambda res, cls: cls is not first and cosets_hold(res, cls))
    rep = suites.partial_affine_report(g)
    assert rep["cosets_hold"] is False and not passes("partial-affine", rep)
    assert changed_keys(clean, rep) == {"cosets_hold", "classes"}
    assert [c["partial_affine"] for c in rep["classes"]] == [
        False] + [c["partial_affine"] for c in clean["classes"][1:]]
    assert [{**c, "partial_affine": True} for c in rep["classes"]] == clean["classes"]


def test_residue_comparison_zoo(zoo_g):
    for g in zoo_g:
        R = g.ring
        rep = vergleich_report(g)
        assert rep["points_fixed"]
        assert rep["blocks_equal"]
        assert passes("vergleich", rep)
        if R.name == "matrix2(3)":
            assert not rep["units_normal"] and not rep["partitions_equal"]
            assert rep["normality_witness"] is not None
        else:
            assert rep["units_normal"] and rep["partitions_equal"]


def test_partial_affine_f4_full_plane(f4_g):
    res = f4_g.residue
    cls = f4_g.compat_classes[0]
    assert validate_partial_affine(res, cls)
    assert len(cls.blocks) == 6            # all of AG(2, 2)
    assert missing_directions(res, cls) == 0


def test_partial_affine_dual2_genuinely_partial(dual2, dual2_g):
    res = dual2_g.residue
    cls = dual2_g.compat_classes[0]
    assert validate_partial_affine(res, cls)
    assert missing_directions(res, cls) == 1   # the nilpotent direction {0, e}
    dirs = {frozenset(dual2.sub(x, min(B)) for x in B) for B in cls.blocks.tolist()}
    assert frozenset({0, 2}) not in dirs


def test_partial_affine_all_zoo_classes(zoo_g):
    for g in zoo_g:
        for cls in g.compat_classes + g.dual_compat_classes:
            assert validate_partial_affine(g.residue, cls)


def test_partial_affine_needs_every_unit_pair_joined(f4_g):
    """Dropping every coset of one direction keeps (i) and (ii) but leaves
    the pairs at that unit difference on no block, which (iii) refuses."""
    R, res, cls = f4_g.ring, f4_g.residue, f4_g.compat_classes[0]
    kept = CompatClass(cls.side, np.array([B for B in cls.blocks.tolist()
                                           if [R.sub(x, B[0]) for x in B] != [0, 1]]),
                       cls.witness)
    assert len(kept) == 4
    assert cosets_hold(res, kept) and reference.cosets_hold(res, kept)
    assert not validate_partial_affine(res, kept)
    assert not kernel_partial_affine(res, kept)


def test_union_of_two_classes_fails(m2f3_g):
    res = m2f3_g.residue
    c1, c2 = m2f3_g.compat_classes[:2]
    merged = CompatClass("compatibility", sorted_rows(np.vstack([c1.blocks, c2.blocks])),
                         c1.witness)
    assert not validate_partial_affine(res, merged)
    assert not kernel_partial_affine(res, merged)


def test_classes_maximal(f4_g, m2f2_g):
    """Adding any block outside the class double-joins some distant pair."""
    for g in (f4_g, m2f2_g):
        res = g.residue
        for cls in g.compat_classes:
            for extra in [B for B in res.blocks.tolist() if B not in cls.blocks.tolist()]:
                bigger = CompatClass(cls.side, sorted_rows(cls.blocks.tolist() + [extra]),
                                     cls.witness)
                assert not validate_partial_affine(res, bigger)
                assert not kernel_partial_affine(res, bigger)


def test_compat_transportable(f4_g, dual2_g):
    """Transporting the far-point partition by M agrees with the partition
    computed at the image point via the conjugated group."""
    for g in (f4_g, dual2_g):
        R = g.ring
        chains = point_sets(g, g.chains)
        coord_pt = {x: make_point(R, x, R.one) for x in R.elements()}
        for M in line_generators(R)[:6]:
            p = apply_matrix(R, infinity(R), M)
            transported = [
                frozenset(frozenset(apply_matrix(R, coord_pt[x], M) for x in B)
                          for B in cls.blocks)
                for cls in g.compat_classes
            ]
            # partition blocks at p under the conjugated group
            Minv = reference.mat_invert(R, M)
            group_gens = []
            for a in R.unit_generators:
                group_gens.append((a, R.zero, R.zero, R.one))
            for c in R.additive_generators:
                group_gens.append((R.one, R.zero, c, R.one))
            conj_gens = [reference.mat_mul(R, reference.mat_mul(R, Minv, G), M)
                         for G in group_gens]
            blocks_at_p = [C - {p} for C in chains if p in C]
            classes_at_p = []
            unassigned = {frozenset(B) for B in blocks_at_p}
            while unassigned:
                seed = next(iter(unassigned))
                orbit = {seed}
                frontier = [seed]
                while frontier:
                    B = frontier.pop()
                    for G in conj_gens:
                        C = frozenset(apply_matrix(R, x, G) for x in B)
                        if C not in orbit:
                            orbit.add(C)
                            frontier.append(C)
                classes_at_p.append(frozenset(orbit))
                unassigned -= orbit
            assert set(transported) == set(classes_at_p)


def test_derive_plane_q2(m2f2_g):
    rep = derive_plane(m2f2_g)
    assert (rep.points, rep.lines, rep.line_size) == (16, 20, 4)
    assert rep.two_point_axiom and rep.playfair
    assert rep.desargues and rep.desargues_method == "exhaustive"
    assert rep.degenerate_replacement  # unique F4 subfield, so K'' = K


def test_derive_plane_q3(m2f3_g):
    rep = derive_plane(m2f3_g)
    assert (rep.points, rep.lines, rep.line_size) == (81, 90, 9)
    assert rep.two_point_axiom and rep.playfair
    assert not rep.desargues
    assert rep.desargues_witness is not None
    assert not rep.degenerate_replacement
    assert rep.replaced_regulus_size == 4
    assert rep.lines_outside_block_set == 36


def test_derive_plane_q3_control(m2f3_g):
    rep = derive_plane(m2f3_g, skip_replacement=True)
    assert (rep.points, rep.lines, rep.line_size) == (81, 90, 9)
    assert rep.desargues and rep.desargues_method == "field-plane-identity"


def test_eq9_family_shapes(m2f3, m2f3_k):
    fam = reference.eq9_family(m2f3, m2f3_k, "compatibility")
    assert len(fam) == 54
    assert frozenset(m2f3_k.elements) in fam
    assert as_blocks(coset_family(m2f3, m2f3_k, "compatibility")) == fam


# the compatibility kernels against their scalar references ---------------------

def conjugates(K):
    """The distinct conjugate subfields u^-1 K u, least unit first."""
    out = {}
    for u in K.ring.units:
        conj = conjugate_subfield(K, u)
        out.setdefault(conj.elements, conj)
    return list(out.values())


def test_coset_family_matches_reference(zoo_g):
    """For every conjugate subfield and side the kernel's family is the
    loop's; for every class of either partition the kernel's equality test
    answers as the loop's family does, matching or not; each class's
    witness reproduces it."""
    for g in zoo_g:
        R = g.ring
        classes = g.compat_classes + g.dual_compat_classes
        for conj in conjugates(g.subfield):
            for side in ("compatibility", "dual-compatibility"):
                want = reference.eq9_family(R, conj, side)
                assert as_blocks(coset_family(R, conj, side)) == want, (R.name, conj)
                for cls in classes:
                    probe = CompatClass(side, cls.blocks, conj)
                    assert check_class_structure(probe) == (want == as_blocks(cls.blocks))
        for cls in classes:
            assert reference.eq9_family(R, cls.witness, cls.side) == as_blocks(cls.blocks)


def directions_or_error(missing, res, cls):
    """missing(res, cls), or the message of the VerificationError it raises."""
    try:
        return missing(res, cls)
    except VerificationError as exc:
        return str(exc)


def test_cosets_and_directions_match_reference(zoo_g):
    """On every zoo ring, for every class of either partition probed with
    every conjugate subfield as witness on either side, the row kernels
    cosets_hold and missing_directions answer (or raise) as the block loop
    and the set-based reference do; the classes with their own witnesses
    pass, and some probe fails on every ring with a non-normal K*.  A class
    less its last block leaves one direction short of its cosets, which
    (ii) refuses."""
    for g in zoo_g:
        R, res = g.ring, g.residue
        failed = 0
        for cls in g.compat_classes + g.dual_compat_classes:
            assert cosets_hold(res, cls) and reference.cosets_hold(res, cls), R.name
            assert missing_directions(res, cls) == reference.missing_directions(res, cls)
            short = CompatClass(cls.side, cls.blocks[:-1], cls.witness)
            assert not cosets_hold(res, short) and not reference.cosets_hold(res, short)
            assert missing_directions(res, short) == missing_directions(res, cls)
            for conj in conjugates(g.subfield):
                for side in ("compatibility", "dual-compatibility"):
                    probe = CompatClass(side, cls.blocks, conj)
                    holds = cosets_hold(res, probe)
                    assert holds == reference.cosets_hold(res, probe), (R.name, conj, side)
                    assert (directions_or_error(missing_directions, res, probe)
                            == directions_or_error(reference.missing_directions, res, probe))
                    failed += not holds
        assert (failed > 0) == (R.name == "matrix2(3)"), R.name


def test_joins_match_reference_on_every_class(zoo_g):
    for g in zoo_g:
        for cls in g.compat_classes + g.dual_compat_classes:
            assert joins_unit_pairs_once(g.ring, cls.blocks)
            assert reference.joins_unit_pairs_once(g.ring, cls.blocks)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_joins_match_reference_on_drawn_families(zoo_g, data):
    """Sub-families of a class, drawn with repeats so that some blocks are
    duplicated, get the same answer from kernel and loop."""
    g = data.draw(st.sampled_from(zoo_g))
    classes = g.compat_classes + g.dual_compat_classes
    blocks = data.draw(st.sampled_from(classes)).blocks.tolist()
    drawn = data.draw(st.lists(st.sampled_from(blocks), max_size=len(blocks) + 2))
    assert (joins_unit_pairs_once(g.ring, drawn)
            == reference.joins_unit_pairs_once(g.ring, drawn))


@pytest.mark.parametrize("name, count", [("m2f2", 35), ("m2f3", 130)])
def test_2dim_subspaces_match_reference(request, name, count):
    R = request.getfixturevalue(name)
    spans = _all_2dim_subspaces(R, R.spec.q)
    assert len(spans) == count
    assert spans.tolist() == [sorted(s) for s in reference.all_2dim_subspaces(R, R.spec.q)]


@pytest.fixture(scope="module")
def affine_line_sets(m2f2_g, m2f3_g):
    """{name: (ring, lines)} of the line sets derive_plane checks as affine
    planes: AG(2, 4), AG(2, 9) and the derived set on matrix2(3)."""
    sets = {}
    real = compat._affine_checks

    def spy(R, lines):
        sets[name] = (R, list(map(tuple, lines.tolist())))
        return real(R, lines)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compat, "_affine_checks", spy)
        for name, g, skip in (("AG(2, 4)", m2f2_g, False), ("AG(2, 9)", m2f3_g, True),
                              ("derived", m2f3_g, False)):
            derive_plane(g, skip_replacement=skip)
    return sets


def test_affine_checks_match_reference(affine_line_sets):
    for name, (R, lines) in affine_line_sets.items():
        q2 = round(R.size ** 0.5)
        assert _affine_checks(R, lines) == (True, True, q2 + 1), name
        assert reference.affine_checks(R, lines) == (True, True, q2 + 1), name


# negative controls of the compatibility kernels -------------------------------

def test_class_with_a_shifted_block_has_no_witness(m2f3_g, monkeypatch):
    """One block of a class moved off the coset family (one point swapped
    for another) leaves the class without a witness.  The orbit engine is
    stubbed to hand back that class as the orbit of its blocks."""
    R, res = m2f3_g.ring, m2f3_g.residue
    rows = m2f3_g.compat_classes[0].blocks.tolist()
    B = rows[-1]
    z = next(x for x in R.elements() if x not in B)
    rows[-1] = sorted(B[1:] + [z])
    assert rows[-1] not in res.blocks.tolist()
    rows = sorted_rows(rows)
    monkeypatch.setattr(compat, "orbit", lambda seeds, steps: rows)
    with pytest.raises(VerificationError, match="class without a witness"):
        compat._witnessed_orbits(res, rows, "compatibility")
    assert reference.eq9_family(R, m2f3_g.compat_classes[0].witness,
                                "compatibility") != as_blocks(rows)


def test_duplicated_block_fails_the_joins(zoo_g):
    for g in zoo_g:
        blocks = g.compat_classes[0].blocks.tolist()
        assert not joins_unit_pairs_once(g.ring, blocks + blocks[:1])


def broken_line_sets(lines) -> dict:
    return {"dropped": lines[1:],
            "merged": [tuple(sorted(set(lines[0]) | set(lines[1])))] + lines[2:],
            "doubled": lines + lines[:1]}


def test_dropped_line_fails_playfair(affine_line_sets):
    """One line dropped leaves some point without a parallel, one line
    doubled gives some point two."""
    for name, (R, lines) in affine_line_sets.items():
        broken = broken_line_sets(lines)
        assert not _affine_checks(R, broken["dropped"])[1], name
        assert not _affine_checks(R, broken["doubled"])[1], name


def test_merged_lines_fail_the_two_point_axiom(affine_line_sets):
    for name, (R, lines) in affine_line_sets.items():
        assert not _affine_checks(R, broken_line_sets(lines)["merged"])[0], name


def test_affine_checks_match_reference_on_broken_sets(affine_line_sets):
    for name, (R, lines) in affine_line_sets.items():
        for how, broken in broken_line_sets(lines).items():
            assert _affine_checks(R, broken) == reference.affine_checks(R, broken), (name, how)


@pytest.mark.parametrize("q, a, b", [(2, 5, 9), (2, 14, 7), (3, 50, 54), (3, 1, 80)])
def test_corrupted_addition_makes_derive_plane_raise(q, a, b):
    """A freshly built matrix2(q) (not build_ring's cached one) whose
    classes are found on clean tables, then one sum a + b changed."""
    R = Matrix2Ring(RingSpec("matrix2", q))
    g = Geometry(R, build_subfield(R, "singer"))
    g.compat_classes
    corrupt(R, "add", (a, b), (R.add(a, b) + 1) % R.size)
    with pytest.raises((VerificationError, RegulusNotFoundError, DerivedPlaneError)):
        derive_plane(g)


@pytest.mark.parametrize("key", ["two_point_axiom", "playfair"])
@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_derive_plane_with_a_flipped_affine_verdict_fails_that_key(
        request, name, key, monkeypatch):
    """Negative control: _affine_checks stubbed to flip one verdict turns
    that key false in the derive-plane report, which fails the task, and
    drops the Desargues verdict, since the lines are then no plane to
    complete."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.derive_plane_report(g)
    assert passes("derive-plane", clean) and clean[key]
    real = compat._affine_checks

    def flipped(R, lines):
        two_point, playfair, per_point = real(R, lines)
        if key == "two_point_axiom":
            return not two_point, playfair, per_point
        return two_point, not playfair, per_point

    monkeypatch.setattr(compat, "_affine_checks", flipped)
    rep = suites.derive_plane_report(g)
    assert rep[key] is False and not passes("derive-plane", rep)
    assert rep["desargues_method"] == "not-an-affine-plane"
    assert changed_keys(clean, rep) == {key, "desargues", "desargues_method"} | (
        {"desargues_witness"} if "desargues_witness" in clean else set())


# the Desargues scan ------------------------------------------------------------

def assert_desargues_fails_at(lines, w):
    """Check a witness from the incidence lists alone: the triangles are in
    perspective from the center along the three named lines, the side pairs
    meet at the named axis points, and those are distinct and not collinear."""
    sets = [frozenset(L) for L in lines]

    def join(x, y):
        (L,) = [L for L in sets if x in L and y in L]
        return L

    O = w["center"]
    assert len(set(w["lines"])) == 3
    for li, X, X2 in zip(w["lines"], w["triangle"], w["image"]):
        assert len({O, X, X2}) == 3 and {O, X, X2} <= sets[li]
    for T in (w["triangle"], w["image"]):
        assert T[2] not in join(T[0], T[1]), "degenerate triangle"
    (A, B, C), (A2, B2, C2) = w["triangle"], w["image"]
    P, Q, S = w["axis_points"]
    assert P in join(A, B) & join(A2, B2)
    assert Q in join(A, C) & join(A2, C2)
    assert S in join(B, C) & join(B2, C2)
    assert len({P, Q, S}) == 3 and S not in join(P, Q)


def test_desargues_kernel_matches_loop_order4(completed_planes):
    points, lines = completed_planes[4]
    assert len(points) == 21
    # 21 centers x 10 line triples x 12^3 ordered point pairs
    assert _desargues_scan(points, lines, find_failure=False, cap=0) == (None, 362_880)
    assert reference.desargues_scan(points, lines, False, 0) == (None, 362_880)


def test_desargues_kernel_matches_loop_hall_plane(completed_planes):
    points, lines = completed_planes[9]
    found = _desargues_scan(points, lines, find_failure=True, cap=10 ** 7)
    assert found == reference.desargues_scan(points, lines, True, 10 ** 7)
    witness, examined = found
    assert witness == {"center": 0, "lines": [0, 1, 2], "triangle": [1, 3, 4],
                       "image": [2, 6, 36], "axis_points": [84, 31, 22]}
    assert_desargues_fails_at(lines, witness)
    # the exhaustive mode must find a failure on a non-desarguesian plane too
    exhaustive = _desargues_scan(points, lines, find_failure=False, cap=0)
    assert exhaustive == found == reference.desargues_scan(points, lines, False, 0)
    # the cap cuts off exactly before the witness configuration
    for scan in (_desargues_scan, reference.desargues_scan):
        assert scan(points, lines, True, examined - 1) == (None, examined - 1)
        assert scan(points, lines, True, examined) == found


def relabelled(points, lines, seed):
    """The plane (points, lines) with its point ids permuted, its lines
    reordered and the points within each line shuffled, all by one seed."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(points))
    moved = [[int(perm[x]) for x in L] for L in lines]
    for L in moved:
        rng.shuffle(L)
    return points, [tuple(moved[li]) for li in rng.permutation(len(lines))]


@pytest.mark.parametrize("rows", [1, 5, None], ids=["one-row", "split-block", "default"])
def test_desargues_kernel_is_exact_at_every_slab_size(completed_planes, monkeypatch, rows):
    """Slab edges change nothing: with one (A, A') row per slab, with five
    (which splits every (center, line-triple) block) and at the default
    budget, the kernel returns what the loop reference returns, carrying
    the count across slabs and cutting off at exactly the cap.  The
    budgets are whole rows at the cost the kernel states for a row, its
    first slabs() call, and a block of m rows costs more than five."""
    for order, (points, lines) in sorted(completed_planes.items()):
        if rows is not None:
            m = order * (order - 1)  # ordered pairs on a line less its center
            (per_block, row), (_, block) = slab_costs(
                lambda: _desargues_scan(points, lines, True, 0), compat)
            assert per_block == m and block >= m * row > 5 * row
            monkeypatch.setattr(projline, "SCAN_SLAB", rows * row)
        if order == 4:
            for mode in (False, True):
                assert _desargues_scan(points, lines, mode, 10 ** 7) == (None, 362_880)
            # caps at and beside the row, block and whole-scan edges
            for cap in (0, 1, 143, 144, 145, 720, 1727, 1728, 1729, 362_879):
                assert _desargues_scan(points, lines, True, cap) == (None, cap)
            continue
        found = reference.desargues_scan(points, lines, True, 10 ** 7)
        assert found[1] == 2
        assert _desargues_scan(points, lines, True, 10 ** 7) == found
        assert _desargues_scan(points, lines, False, 0) == found
        for cap in (found[1] - 1, 0):
            assert _desargues_scan(points, lines, True, cap) == (None, cap)
        # other labels put the first failure elsewhere in the first row
        for seed in range(4):
            plane = relabelled(points, lines, seed)
            want = reference.desargues_scan(*plane, True, 10 ** 7)
            assert _desargues_scan(*plane, True, 10 ** 7) == want
            assert_desargues_fails_at(plane[1], want[0])
            assert _desargues_scan(*plane, True, want[1] - 1) == (None, want[1] - 1)


def test_plane_tables_match_set_join_and_meet(completed_planes):
    """line_of and meet agree with joins and meets taken on point sets, and
    incidence and the lines through each point with membership."""
    for points, lines in completed_planes.values():
        line_of, meet, inc, through = _plane_tables(len(points), lines)
        sets = [set(L) for L in lines]
        assert line_of.tolist() == [
            [-1 if x == y else next(li for li, L in enumerate(sets) if {x, y} <= L)
             for y in points] for x in points]
        assert meet.tolist() == [[-1 if a == b else min(A & B) for b, B in enumerate(sets)]
                                 for a, A in enumerate(sets)]
        assert all(len(A & B) == 1 for a, A in enumerate(sets) for B in sets[a + 1:])
        assert inc.tolist() == [[int(x in L) for x in points] for L in sets]
        assert through.tolist() == [[li for li, L in enumerate(sets) if x in L] for x in points]
    # a near-pencil is linear, and two lines always meet, but it is no plane
    with pytest.raises(VerificationError, match="lines of different sizes"):
        _plane_tables(4, [(1, 2, 3), (0, 1), (0, 2), (0, 3)])


DOUBLE_JOIN = """
from chaingeom.compat import _desargues_scan
from chaingeom.projline import VerificationError
assert not __debug__, "expected to run under python -O"
fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
try:
    _desargues_scan(range(7), fano + [(0, 1)], find_failure=False, cap=0)
except VerificationError as exc:
    print(exc)
else:
    raise SystemExit("no error for points 0 and 1 on two lines")
"""


@pytest.mark.optimized(DOUBLE_JOIN)
def test_desargues_linearity_check_survives_optimize(run_optimized):
    """The scan's linearity check must not depend on assert, which python -O
    strips: two points on two lines must raise."""
    proc = run_optimized(DOUBLE_JOIN)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "not linear" in proc.stdout
