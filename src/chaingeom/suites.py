"""Verification suites over one (ring, subfield) scenario.

Each suite returns a flat report dict with a boolean "ok", exhaustive or
seeded-sample check counts, and any witnesses worth recording.  Rings with
at most 16 elements are always swept exhaustively; the 81-element matrix
ring takes explicit sample counts and seeds instead.
"""

from __future__ import annotations

import random
from typing import Optional

from chaingeom.rings import Ring, is_normal_subgroup, normality_witness, subfield_in_opposite
from chaingeom.projline import (
    OrbitCapExceededError,
    infinity,
    line_generators,
    make_point,
    word_point,
)
from chaingeom.duality import (
    bidual_point,
    covariance_failures,
    dual_infinity,
    dual_matches_opposite,
    length2_perp_formula,
    length3_perp_formula,
    make_dual_point,
    word_dual_point,
)
from chaingeom.compat import (
    cosets_hold,
    derive_plane,
    dual_residue_coord,
    joins_unit_pairs_once,
    missing_directions,
)
from chaingeom.geometry import Geometry
from chaingeom.isomorph import (
    antiiso_point_table,
    antiiso_word_point,
    frobenius_map,
    identity_map,
    preserves_compatibility,
    transpose_map,
    triangular_flip_map,
    verify_subfield_condition,
)

EXHAUSTIVE_LIMIT = 16


def points_report(geom: Geometry) -> dict:
    pts = geom.points  # raises MethodDisagreementError on mismatch
    return {"ok": True, "points": len(pts), "methods_agree": True}


def graph_report(geom: Geometry) -> dict:
    g = geom.graph
    return {
        "ok": True,
        "points": len(g.points),
        "edges": g.n_edges,
        "components": g.n_components,
        "diameter": g.diameter,
    }


def chain_report(geom: Geometry, through_infinity: Optional[bool] = None,
                 cap: int = 10 ** 6) -> dict:
    """The full chain orbit, or the chains through the far point; by default
    the latter on rings larger than EXHAUSTIVE_LIMIT."""
    R, K = geom.ring, geom.subfield
    if through_infinity is None:
        through_infinity = R.size > EXHAUSTIVE_LIMIT
    chains = geom.chains_at_infinity if through_infinity else geom.chains
    if len(chains) > cap:
        raise OrbitCapExceededError(f"chain orbit on {R.name} exceeded cap {cap}")
    sizes = {len(C) for C in chains}
    key = "chains_through_infinity" if through_infinity else "chains"
    return {"ok": sizes == {len(K.elements) + 1}, key: len(chains),
            "chain_size": len(K.elements) + 1}


def _words(R: Ring, samples: int, seed: int):
    """Elementary words of length 1 to 3.  Rings with at most
    EXHAUSTIVE_LIMIT elements give every word, each (t1,) followed by its
    extensions (t1, t2), each of those followed by its (t1, t2, t3); larger
    rings give `samples` words of random length from random.Random(seed)."""
    if R.size <= EXHAUSTIVE_LIMIT:
        for t1 in R.elements():
            yield (t1,)
            for t2 in R.elements():
                yield (t1, t2)
                for t3 in R.elements():
                    yield (t1, t2, t3)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            n = rng.choice((1, 2, 3))
            yield tuple(rng.randrange(R.size) for _ in range(n))


def _word_sweep(R: Ring, samples: int, seed: int, holds) -> tuple[int, int]:
    """(checks, mismatches) of the predicate holds(ts) over _words."""
    results = [holds(ts) for ts in _words(R, samples, seed)]
    return len(results), results.count(False)


def duality_suite(geom: Geometry, samples: int = 10000, seed: int = 1) -> dict:
    """Canonical-isomorphism checks: bijectivity on points and chains, the
    covariance law, and every closed image formula against the kernel-scan
    oracle, whose answers the Geometry holds as its perp array."""
    R, K = geom.ring, geom.subfield
    small = R.size <= EXHAUSTIVE_LIMIT
    rep: dict = {"mode": "exhaustive" if small else f"sampled({samples}, seed={seed})"}
    pts = geom.points
    perp_of = geom.perp_of
    rep["bijection"] = sorted(geom.perp.tolist()) == list(range(len(geom.dual_points)))

    if small:
        chains, dchains = geom.chains, geom.dual_chains
    else:
        chains, dchains = geom.chains_at_infinity, geom.dual_chains_at_infinity
    rep["chain_bijection"] = ({frozenset(map(perp_of, C)) for C in chains}
                              == set(dchains))
    rep["chains_checked"] = len(chains)

    rep["far_point_image"] = perp_of(infinity(R)) == dual_infinity(R)

    neg_one = R.neg(R.one)

    def formulas_hold(ts):
        p = word_point(R, ts)
        oracle = perp_of(p)
        if word_dual_point(R, ts) != oracle:
            return False
        if len(ts) == 1:
            return make_dual_point(R, neg_one, ts[0]) == oracle
        formula = length2_perp_formula if len(ts) == 2 else length3_perp_formula
        return formula(R, *ts) == (p, oracle)

    checks, mismatches = _word_sweep(R, samples, seed, formulas_hold)
    rep["word_formula_checks"] = checks
    rep["word_formula_mismatches"] = mismatches

    gens = line_generators(R)
    if small:
        all_rows = [(a, b) for a in R.elements() for b in R.elements()]
        cov_rows = {i: all_rows for i in range(len(gens))}
    else:
        rng = random.Random(seed + 1)
        cov_rows = {}
        for _ in range(max(1, samples // 20)):
            i = rng.randrange(len(gens))
            cov_rows.setdefault(i, []).append((rng.randrange(R.size), rng.randrange(R.size)))
    cov_failures = sum(covariance_failures(R, gens[i], rows) for i, rows in cov_rows.items())
    rep["covariance_checks"] = sum(map(len, cov_rows.values()))
    rep["covariance_failures"] = cov_failures

    if small:
        sample = pts
    else:
        rng = random.Random(seed + 2)
        sample = [pts[rng.randrange(len(pts))] for _ in range(50)]
    rep["bidual_fixed"] = all(bidual_point(R, perp_of(p)) == p for p in sample)
    if small:
        op = Geometry(R.opposite(), subfield_in_opposite(K))
        rep["opposite_equivalent"] = dual_matches_opposite(geom, op)

    g = geom.graph
    if g.n_components == 1 and g.diameter <= 2:
        covered = {word_point(R, (t1, t2))
                   for t1 in R.elements() for t2 in R.elements()}
        rep["length2_covers_line"] = covered == set(pts)

    rep["ok"] = (rep["bijection"] and rep["chain_bijection"] and rep["far_point_image"]
                 and mismatches == 0 and cov_failures == 0
                 and rep["bidual_fixed"]
                 and rep.get("opposite_equivalent", True)
                 and rep.get("length2_covers_line", True))
    return rep


def vergleich_report(geom: Geometry) -> dict:
    """The residue at the far point against its dual: (a) residue points are
    fixed by the annihilator map under the two coordinate identifications,
    (b) primal and dual block sets coincide, (c) the two partitions agree
    exactly when K* is normal in R*."""
    R, K = geom.ring, geom.subfield
    classes, dual_classes = geom.compat_classes, geom.dual_compat_classes
    # the dual residue: dual chains through (0, 1)^T R, less that point, in
    # the coordinates (-1, x)^T R -> x
    dinf = dual_infinity(R)
    dual_blocks = {frozenset(dual_residue_coord(R, q) for q in C if q != dinf)
                   for C in geom.dual_chains_at_infinity}
    rep = {
        "points_fixed": all(geom.perp_coords[x] == x for x in R.elements()),
        "blocks_equal": dual_blocks == set(geom.residue.blocks),
        "partitions_equal": {c.blocks for c in classes} == {c.blocks for c in dual_classes},
        "units_normal": is_normal_subgroup(K, R),
        "classes": len(classes),
        "dual_classes": len(dual_classes),
    }
    rep["ok"] = (rep["points_fixed"] and rep["blocks_equal"]
                 and rep["partitions_equal"] == rep["units_normal"])
    witness = normality_witness(K)
    if witness is not None:
        rep["normality_witness"] = witness
        rep["normality_witness_str"] = R.elem_str(witness)
    return rep


def partial_affine_report(geom: Geometry) -> dict:
    """Each class as a partial affine space; two distant points lie on
    exactly one block of every class.  The joins are counted once per
    class and answer both (iii) and exactly_one_block_per_class."""
    R, res = geom.ring, geom.residue
    per_class, joined = [], []
    for cls in geom.compat_classes + geom.dual_compat_classes:
        joined.append(joins_unit_pairs_once(R, cls.blocks))
        per_class.append({
            "side": cls.side,
            "blocks": len(cls.blocks),
            "witness": list(cls.witness.elements),
            "missing_directions": missing_directions(res, cls),
            "partial_affine": cosets_hold(res, cls) and joined[-1],
        })
    return {"ok": all(c["partial_affine"] for c in per_class), "classes": per_class,
            "exactly_one_block_per_class": all(joined)}


def derive_plane_report(geom: Geometry, skip_replacement: bool = False,
                        desargues_cap: int = 10 ** 7) -> dict:
    plane = derive_plane(geom, skip_replacement=skip_replacement,
                         desargues_cap=desargues_cap)
    rep = {
        "points": plane.points,
        "lines": plane.lines,
        "line_size": plane.line_size,
        "two_point_axiom": plane.two_point_axiom,
        "playfair": plane.playfair,
        "desargues": plane.desargues,
        "desargues_method": plane.desargues_method,
        "degenerate_replacement": plane.degenerate_replacement,
        "replaced_regulus_size": plane.replaced_regulus_size,
        "lines_outside_block_set": plane.lines_outside_block_set,
        "ok": plane.two_point_axiom and plane.playfair,
    }
    if plane.desargues_witness is not None:
        rep["desargues_witness"] = plane.desargues_witness
    if plane.second_subfield is not None:
        rep["second_subfield"] = list(plane.second_subfield)
    return rep


def catalogue_antiiso(R: Ring):
    if R.spec.family == "matrix2":
        return transpose_map(R), "transpose"
    if R.spec.family == "finite-field" and R.gf.k > 1:
        return frobenius_map(R, as_antiiso=True), "frobenius"
    if R.spec.family == "upper-triangular2":
        return triangular_flip_map(R), "diagonal-flip"
    return identity_map(R, as_antiiso=True), "identity"


def sigma_suite(geom: Geometry, samples: int = 10000, seed: int = 2) -> dict:
    """Antiisomorphism-induced isomorphism: far-point image, the three
    entrywise image formulas, closed word form versus the composite, chain
    preservation, and the compatibility criterion."""
    R, K = geom.ring, geom.subfield
    small = R.size <= EXHAUSTIVE_LIMIT
    m, name = catalogue_antiiso(R)
    rep: dict = {"map": name,
                 "mode": "exhaustive" if small else f"sampled({samples}, seed={seed})"}
    rep["conjugator"] = verify_subfield_condition(m, K, K)
    sigma = antiiso_point_table(m, geom)
    rep["far_point_fixed"] = sigma[infinity(R)] == infinity(R)

    def formulas_hold(ts):
        composite = sigma[word_point(R, ts)]
        if antiiso_word_point(m, ts) != composite:
            return False
        ph = [m(t) for t in ts]
        if len(ts) == 1:
            want = make_point(R, ph[0], R.one)
        elif len(ts) == 2:
            want = make_point(R, R.sub(R.mul(ph[1], ph[0]), R.one), ph[1])
        else:
            a = R.sub(R.sub(R.mul(R.mul(ph[2], ph[1]), ph[0]), ph[2]), ph[0])
            want = make_point(R, a, R.sub(R.mul(ph[2], ph[1]), R.one))
        return composite == want

    checks, mismatches = _word_sweep(R, samples, seed, formulas_hold)
    rep["word_formula_checks"] = checks
    rep["word_formula_mismatches"] = mismatches

    if small:
        chains = geom.chains
        rep["chains_mapped"] = len(chains)
        rep["chains_ok"] = {frozenset(map(sigma.get, C)) for C in chains} == chains
    else:
        chains = geom.chains_at_infinity
        sample = sorted(chains, key=lambda c: sorted(c))[::9]
        rep["chains_mapped"] = len(sample)
        rep["chains_ok"] = all(frozenset(map(sigma.get, C)) in chains for C in sample)

    preserved = preserves_compatibility(m, geom, geom)
    normal = is_normal_subgroup(K, R)
    rep["compatibility_preserved"] = preserved
    rep["units_normal"] = normal
    rep["criterion_consistent"] = preserved == normal
    if not normal:
        rep["normality_witness"] = normality_witness(K)

    rep["ok"] = (rep["far_point_fixed"] and mismatches == 0 and rep["chains_ok"]
                 and rep["criterion_consistent"])
    return rep
