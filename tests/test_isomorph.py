import random
from itertools import product

import numpy as np
import pytest

from chaingeom.rings import (
    RingMapError,
    RingSpec,
    build_ring,
    build_subfield,
    conjugate_subfield,
    normality_witness,
)
from chaingeom.suites import catalogue_antiiso
from chaingeom.geometry import Geometry
from chaingeom.projline import (
    VerificationError,
    infinity,
    line_generators,
    make_point,
    word_points,
)
from chaingeom.chains import standard_chain
from chaingeom.compat import CompatClass, check_class_structure, cosets_hold, missing_directions
from chaingeom.duality import dual_infinity, perp_point
from chaingeom import suites
from chaingeom.isomorph import (
    SubfieldConditionError,
    antiiso_point_table,
    antiiso_word_point,
    antiiso_word_points,
    find_conjugator,
    frobenius_map,
    identity_map,
    preserves_compatibility,
    transpose_map,
    triangular_flip_map,
    verify_subfield_condition,
)

import reference
from reference import (
    antiiso_dual_to_point,
    apply_matrix,
    as_pairs,
    changed_keys,
    iso_point_map,
    make_dual_point,
    point_map,
    point_sets,
    quarter_turn,
    residue_restriction_is_ring_map,
    row_set,
    transpose_law_holds,
    word_keys,
)


def word_images(m, ws):
    """The word points over the source ring and the closed-form sigma
    images of the words ws, each from one call of its kernel per word length."""
    return (as_pairs(word_keys(lambda t: word_points(m.source, t), ws), m.source.size),
            as_pairs(word_keys(lambda t: antiiso_word_points(m, t), ws), m.target.size))


def iso_chain_map(m, C):
    return frozenset(iso_point_map(m, p) for p in C)


def test_identity_map_is_identity_on_points(f4, f4_g):
    m = identity_map(f4)
    for p in f4_g.points:
        assert iso_point_map(m, p) == p


def test_iso_map_kind_guards(m2f2, m2f2_g):
    """The map-kind guard raises, also under python -O: an isomorphism has
    no dual-to-point map, so it induces no sigma table."""
    with pytest.raises(RingMapError, match="needs an antiisomorphism"):
        antiiso_point_table(identity_map(m2f2), m2f2_g)


def test_frobenius_permutes_line_and_fixes_standard_chain(f4, f4_k, f4_g):
    m = frobenius_map(f4)
    pts = f4_g.points
    image = {iso_point_map(m, p) for p in pts}
    assert image == set(pts)
    C = frozenset(as_pairs(standard_chain(f4, f4_k), f4.size))
    assert iso_chain_map(m, C) == C
    assert iso_chain_map(m, C) in point_sets(f4_g, f4_g.chains)


def test_iso_maps_chains_to_chains(f4, f4_g, m2f2, m2f2_g):
    m = frobenius_map(f4)
    chains = point_sets(f4_g, f4_g.chains)
    for C in chains:
        assert iso_chain_map(m, C) in chains
    # inner automorphism of M2(F2): chains of the Singer geometry go to
    # chains of the conjugate-subfield geometry, which is the same set
    u = 6
    uinv = m2f2.inv(u)
    from chaingeom.rings import make_ring_map
    conj = make_ring_map(m2f2, m2f2,
                         lambda x: m2f2.mul(m2f2.mul(uinv, x), u), "isomorphism")
    chains = point_sets(m2f2_g, m2f2_g.chains)
    for C in chains:
        assert iso_chain_map(conj, C) in chains


def test_conjugator_search(m2f2, m2f2_k, m2f3, m2f3_k):
    for R, K in ((m2f2, m2f2_k), (m2f3, m2f3_k)):
        m = transpose_map(R)
        u = verify_subfield_condition(m, K, K)
        assert u in R.unit_set


def test_subfield_condition_violated(m2f3, m2f3_k):
    # the scalar prime subfield is fixed by transpose but is not conjugate
    # to the Singer subfield, whose size differs
    m = transpose_map(m2f3)
    prime = build_subfield(m2f3, "prime")
    with pytest.raises(SubfieldConditionError):
        verify_subfield_condition(m, prime, m2f3_k)


def test_dual_to_point_basics(m2f2, m2f2_g):
    m = transpose_map(m2f2)
    R = m2f2
    assert antiiso_dual_to_point(m, dual_infinity(R)) == make_point(R, R.zero, R.one)
    for t in R.elements():
        q = make_dual_point(R, R.neg(R.one), t)
        assert antiiso_dual_to_point(m, q) == make_point(R, R.neg(R.one), m(t))
    # well-defined on every dual point
    for q in m2f2_g.dual.points:
        antiiso_dual_to_point(m, q)


def test_quarter_turn_matches_matrix_action(f4_g, m2f2_g):
    from chaingeom.projline import elementary
    for g in (f4_g, m2f2_g):
        R = g.ring
        E0inv = reference.mat_invert(R, elementary(R, R.zero))
        for p in g.points:
            assert quarter_turn(R, p) == apply_matrix(R, p, E0inv)


def test_sigma_fixes_infinity(zoo_g):
    for g in zoo_g:
        R = g.ring
        if R.spec.family == "matrix2":
            m = transpose_map(R)
        else:
            m = identity_map(R, as_antiiso=True)
        assert point_map(g, antiiso_point_table(m, g))[infinity(R)] == infinity(R)
        assert antiiso_word_point(m, ()) == infinity(R)


def test_sigma_formulas_exhaustive_m2f2(m2f2, m2f2_g):
    """Word images at lengths 1, 2, 3 equal the entrywise closed forms."""
    R = m2f2
    m = transpose_map(R)
    sigma = point_map(m2f2_g, antiiso_point_table(m, m2f2_g))
    for t1 in R.elements():
        p = make_point(R, t1, R.one)
        assert sigma[p] == make_point(R, m(t1), R.one)
    ws = list(product(R.elements(), repeat=2))
    for (t1, t2), p, image in zip(ws, *word_images(m, ws)):
        want = make_point(R, R.sub(R.mul(m(t2), m(t1)), R.one), m(t2))
        assert sigma[p] == want
        assert image == want
    ws = list(product(R.elements(), repeat=3))
    for (t1, t2, t3), p, image in zip(ws, *word_images(m, ws)):
        a = R.sub(R.sub(R.mul(R.mul(m(t3), m(t2)), m(t1)), m(t3)), m(t1))
        b = R.sub(R.mul(m(t3), m(t2)), R.one)
        want = make_point(R, a, b)
        assert sigma[p] == want
        assert image == want


def test_sigma_word_equals_sigma_of_word_point(m2f2_g, f4_g):
    for g, m in ((m2f2_g, transpose_map(m2f2_g.ring)),
                 (f4_g, frobenius_map(f4_g.ring, as_antiiso=True))):
        R, sigma = g.ring, point_map(g, antiiso_point_table(m, g))
        ws = [w for t1, t2, t3 in product(R.elements(), repeat=3)
              for w in ((t1,), (t1, t2), (t1, t2, t3))]
        points, images = word_images(m, ws)
        assert images == [sigma[p] for p in points]


def test_sigma_formulas_sampled_m2f3(m2f3, m2f3_g):
    R = m2f3
    m = transpose_map(R)
    sigma = point_map(m2f3_g, antiiso_point_table(m, m2f3_g))
    rng = random.Random(23)
    ws = []
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        ws.append(tuple(rng.randrange(R.size) for _ in range(n)))
    points, images = word_images(m, ws)
    assert images == [sigma[p] for p in points]


def test_transpose_law(m2f2, m2f2_g):
    R = m2f2
    m = transpose_map(R)
    I = (R.one, R.zero, R.zero, R.one)
    q0 = dual_infinity(R)
    assert transpose_law_holds(m, I, q0)
    duals = m2f2_g.dual.points
    for M in line_generators(R):
        for q in duals[::3]:
            assert transpose_law_holds(m, M, q)


def test_sigma_maps_chains_to_chains_m2f2(m2f2, m2f2_g):
    sigma = antiiso_point_table(transpose_map(m2f2), m2f2_g)
    chains = m2f2_g.chains
    assert row_set(sigma[chains]) == row_set(chains)


def test_sigma_maps_chains_to_chains_f4_frobenius(f4, f4_g):
    sigma = antiiso_point_table(frobenius_map(f4, as_antiiso=True), f4_g)
    chains = f4_g.chains
    assert row_set(sigma[chains]) == row_set(chains)


def test_antiiso_point_table_matches_oracle_composite(zoo_g):
    """The table reads the annihilator off the Geometry; the composite with
    a fresh oracle scan per point gives the same map."""
    for g in zoo_g:
        m, _ = catalogue_antiiso(g.ring)
        want = [quarter_turn(g.ring, antiiso_dual_to_point(m, perp_point(g.ring, p)))
                for p in g.points]
        assert [g.points[j] for j in antiiso_point_table(m, g)] == want


def test_sigma_maps_infinity_chains_m2f3(m2f3, m2f3_g):
    """All 162 chains through the far point map onto chains through it."""
    sigma = antiiso_point_table(transpose_map(m2f3), m2f3_g)
    chains = m2f3_g.chains_at_infinity
    assert len(chains) == 162
    assert row_set(sigma[chains]) == row_set(chains)


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_sigma_with_two_affine_points_swapped_fails_chains_ok(name, request, monkeypatch):
    """Negative control: sigma followed by the transposition of R(0, 1) and
    R(1, 1) no longer carries the suite's chains onto chains."""
    g = request.getfixturevalue(f"{name}_g")
    assert suites.sigma_suite(g)["chains_ok"]
    swap = np.arange(len(g.points))
    swap[g.affine[:2]] = g.affine[1::-1]
    monkeypatch.setattr(suites, "antiiso_point_table",
                        lambda m, geom: swap[antiiso_point_table(m, geom)])
    rep = suites.sigma_suite(g)
    assert not rep["chains_ok"] and not rep["ok"]


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_sigma_that_moves_the_far_point_fails_far_point_fixed(name, request, monkeypatch):
    """Negative control: sigma followed by the transposition of R(1, 0) and
    R(0, 1) moves the far point.  far_point_fixed and ok turn false, and so
    do the word formulas at every word point the swap moves, and chains_ok."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.sigma_suite(g)
    assert clean["ok"] and clean["far_point_fixed"]
    swap = np.arange(len(g.points))
    swap[[g.far, g.affine[0]]] = swap[[g.affine[0], g.far]]
    monkeypatch.setattr(suites, "antiiso_point_table",
                        lambda m, geom: swap[antiiso_point_table(m, geom)])
    rep = suites.sigma_suite(g)
    assert not rep["far_point_fixed"] and not rep["ok"]
    assert changed_keys(clean, rep) == {"far_point_fixed", "ok", "chains_ok",
                                        "word_formula_mismatches",
                                        "word_formula_first_mismatch"}


@pytest.mark.parametrize("name", ["m2f2", "m2f3", "f4"])
def test_sigma_with_the_compatibility_verdict_flipped_fails_criterion_consistent(
        name, request, monkeypatch):
    """Negative control: preserves_compatibility answering the opposite of
    itself breaks the criterion, on a ring whose units are normal in K*
    (matrix2(2), F4) and on one whose are not (matrix2(3)); only
    compatibility_preserved, criterion_consistent and ok move."""
    g = request.getfixturevalue(f"{name}_g")
    clean = suites.sigma_suite(g)
    assert clean["ok"] and clean["criterion_consistent"]
    monkeypatch.setattr(suites, "preserves_compatibility",
                        lambda m, a, b: not preserves_compatibility(m, a, b))
    rep = suites.sigma_suite(g)
    assert not rep["criterion_consistent"] and not rep["ok"]
    assert changed_keys(clean, rep) == {"compatibility_preserved", "criterion_consistent",
                                        "ok"}


def test_residue_restriction_of_induced_maps(zoo_g):
    for g in zoo_g:
        R = g.ring
        m = identity_map(R) if R.spec.family != "matrix2" else None
        if m is not None:
            assert residue_restriction_is_ring_map(m, lambda p: iso_point_map(m, p))
        anti = (transpose_map(R) if R.spec.family == "matrix2"
                else identity_map(R, as_antiiso=True))
        sigma = point_map(g, antiiso_point_table(anti, g))
        assert residue_restriction_is_ring_map(anti, sigma.__getitem__)


def partition(classes) -> set:
    """A tuple of classes as the set of their block sets."""
    return {frozenset(map(frozenset, c.blocks.tolist())) for c in classes}


def test_iso_preserves_compatibility(f4, f4_g):
    # an isomorphism always transports the partition, here checked via the
    # residue restriction for Frobenius and an inner automorphism
    m = frobenius_map(f4)
    src = f4_g.compat_classes
    moved = {frozenset(frozenset(m(x) for x in B) for B in c.blocks.tolist()) for c in src}
    assert moved == partition(src)
    assert preserves_compatibility(m, f4_g, f4_g)


def test_sigma_compatibility_iff_normal(f4, f4_k, f4_g, m2f2, m2f2_k, m2f2_g,
                                        m2f3, m2f3_k, m2f3_g):
    m = frobenius_map(f4, as_antiiso=True)
    assert preserves_compatibility(m, f4_g, f4_g) == (normality_witness(f4_k) is None)
    m = transpose_map(m2f2)
    assert preserves_compatibility(m, m2f2_g, m2f2_g)
    assert normality_witness(m2f2_k) is None
    m = transpose_map(m2f3)
    assert not preserves_compatibility(m, m2f3_g, m2f3_g)
    assert normality_witness(m2f3_k) is not None


def wrong_conjugate(K):
    """The conjugate u^-1 K u != K of the least unit u that moves K, as
    derive_plane takes it."""
    return conjugate_subfield(K, normality_witness(K))


def test_wrong_conjugate_subfield_fails_sigma_and_compatibility_m2f3(
        m2f3, m2f3_k, m2f3_g, monkeypatch):
    """Negative control: K* is not normal in matrix2(3), so some unit u has
    u^-1 K u != K.  The clean sigma suite and partial-affine report pass.
    The conjugator the sigma suite reports carries the transpose of K onto
    K and not onto u^-1 K u, which needs another one.  Swapped in for the
    witness of every compatibility and dual class, a conjugate fails the
    class structure and the coset checks, leaves its directions outside the
    witness subspaces, and the partial-affine report raises.  (K itself
    swapped for u^-1 K u leaves the chains, blocks and both partitions as
    they are, so only the subfield condition and the class witnesses can
    tell the two apart.)"""
    R, K, g = m2f3, m2f3_k, m2f3_g
    rep = suites.sigma_suite(g)
    assert rep["ok"] and suites.partial_affine_report(g)["ok"]
    assert normality_witness(K) is not None
    conj = wrong_conjugate(K)
    m = transpose_map(R)
    image = frozenset(m(k) for k in K.elements)
    assert frozenset(conjugate_subfield(K, rep["conjugator"]).elements) == image
    assert frozenset(conjugate_subfield(conj, rep["conjugator"]).elements) != image
    assert find_conjugator(m, K, conj) not in (None, rep["conjugator"])
    other = Geometry(R, conj)
    assert np.array_equal(other.chains_at_infinity, g.chains_at_infinity)
    for name in ("compat_classes", "dual_compat_classes"):
        assert partition(getattr(other, name)) == partition(getattr(g, name))
    swapped = {}
    for name in ("compat_classes", "dual_compat_classes"):
        swapped[name] = tuple(CompatClass(c.side, c.blocks, wrong_conjugate(c.witness))
                              for c in getattr(g, name))
        for clean, bad in zip(getattr(g, name), swapped[name]):
            assert check_class_structure(clean) and cosets_hold(g.residue, clean)
            assert not check_class_structure(bad) and not cosets_hold(g.residue, bad)
            assert not reference.cosets_hold(g.residue, bad)
            for missing in (missing_directions, reference.missing_directions):
                with pytest.raises(VerificationError, match="no witness subspace"):
                    missing(g.residue, bad)
    for name, classes in swapped.items():
        monkeypatch.setattr(g, name, classes)
    with pytest.raises(VerificationError, match="no witness subspace"):
        suites.partial_affine_report(g)


def test_triangular_flip_in_catalogue():
    ring = build_ring(RingSpec("upper-triangular2", 2))
    m = triangular_flip_map(ring)
    K = build_subfield(ring, "scalar")
    assert verify_subfield_condition(m, K, K) in ring.unit_set
    g = Geometry(ring, K)
    assert point_map(g, antiiso_point_table(m, g))[infinity(ring)] == infinity(ring)


def test_sigma_suite_commutative_zoo(dual2_g, prod22_g):
    from chaingeom.suites import sigma_suite
    for g in (dual2_g, prod22_g):
        rep = sigma_suite(g)
        assert rep["ok"]
        assert rep["word_formula_mismatches"] == 0
        assert rep["compatibility_preserved"]  # commutative, trivially normal
