"""Verification suites over one (ring, subfield) scenario.

Each suite returns a flat report dict with a boolean "ok", exhaustive or
seeded-sample check counts, and any witnesses worth recording.  Rings with
at most 16 elements are always swept exhaustively; the 81-element matrix
ring takes explicit sample counts and seeds instead.
"""

from __future__ import annotations

import random

from chaingeom.rings import Ring, Subfield, is_normal_subgroup, normality_witness
from chaingeom.projline import (
    distant_graph,
    enumerate_points,
    infinity,
    line_generators,
    make_point,
    word_point,
)
from chaingeom.chains import chain_orbit, residue_at
from chaingeom.duality import (
    bidual_fixes,
    covariance_failures,
    dual_chain_orbit,
    dual_infinity,
    enumerate_dual_points,
    length2_perp_formula,
    length3_perp_formula,
    make_dual_point,
    perp_chain,
    perp_point,
    word_dual_point,
)
from chaingeom.compat import (
    compare_residue_with_dual,
    delta_orbits,
    derive_plane,
    dual_compat_classes,
    missing_directions,
    validate_partial_affine,
)
from chaingeom.isomorph import (
    antiiso_chain_map,
    antiiso_point_map,
    antiiso_word_point,
    frobenius_map,
    identity_map,
    preserves_compatibility,
    transpose_map,
    verify_subfield_condition,
)

EXHAUSTIVE_LIMIT = 16


def points_report(R: Ring) -> dict:
    pts = enumerate_points(R)  # raises MethodDisagreementError on mismatch
    return {"ok": True, "points": len(pts), "methods_agree": True}


def graph_report(R: Ring) -> dict:
    g = distant_graph(R)
    return {
        "ok": True,
        "points": len(g.points),
        "edges": g.n_edges,
        "components": g.n_components,
        "diameter": g.diameter,
    }


def chain_report(R: Ring, K: Subfield, through_infinity: bool = False,
                 cap: int = 10 ** 6) -> dict:
    through = infinity(R) if through_infinity else None
    chains = chain_orbit(R, K, through=through, cap=cap)
    sizes = {len(C) for C in chains}
    key = "chains_through_infinity" if through_infinity else "chains"
    return {"ok": sizes == {len(K.elements) + 1}, key: len(chains),
            "chain_size": len(K.elements) + 1}


def _sample_words(R: Ring, rng: random.Random, total: int):
    for _ in range(total):
        n = rng.choice((1, 2, 3))
        yield tuple(rng.randrange(R.size) for _ in range(n))


def duality_suite(R: Ring, K: Subfield, samples: int = 10000, seed: int = 1) -> dict:
    """Canonical-isomorphism checks: bijectivity on points and chains, the
    covariance law, and every closed image formula against the kernel-scan
    oracle."""
    small = R.size <= EXHAUSTIVE_LIMIT
    rep: dict = {"mode": "exhaustive" if small else f"sampled({samples}, seed={seed})"}
    pts = enumerate_points(R)
    duals = enumerate_dual_points(R)
    image = {perp_point(R, p) for p in pts}
    rep["bijection"] = len(image) == len(pts) and image == set(duals)

    if small:
        chains = chain_orbit(R, K)
        dchains = dual_chain_orbit(R, K)
    else:
        chains = chain_orbit(R, K, through=infinity(R))
        dchains = dual_chain_orbit(R, K, through=dual_infinity(R))
    rep["chain_bijection"] = {perp_chain(R, C) for C in chains} == set(dchains)
    rep["chains_checked"] = len(chains)

    rep["far_point_image"] = perp_point(R, infinity(R)) == dual_infinity(R)

    mismatches = 0
    checks = 0
    neg_one = R.neg(R.one)

    def check_word(ts):
        nonlocal mismatches, checks
        checks += 1
        p = word_point(R, ts)
        oracle = perp_point(R, p)
        if word_dual_point(R, ts) != oracle:
            mismatches += 1
            return
        if len(ts) == 1 and make_dual_point(R, neg_one, ts[0]) != oracle:
            mismatches += 1
        elif len(ts) == 2:
            p2, q2 = length2_perp_formula(R, *ts)
            if p2 != p or q2 != oracle:
                mismatches += 1
        elif len(ts) == 3:
            p3, q3 = length3_perp_formula(R, *ts)
            if p3 != p or q3 != oracle:
                mismatches += 1

    if small:
        for t1 in R.elements():
            check_word((t1,))
            for t2 in R.elements():
                check_word((t1, t2))
                for t3 in R.elements():
                    check_word((t1, t2, t3))
    else:
        rng = random.Random(seed)
        for ts in _sample_words(R, rng, samples):
            check_word(ts)
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
        rep["bidual_fixed"] = all(bidual_fixes(R, p) for p in pts)
        from chaingeom.duality import dual_matches_opposite
        rep["opposite_equivalent"] = dual_matches_opposite(R, K)
    else:
        rng = random.Random(seed + 2)
        sample = [pts[rng.randrange(len(pts))] for _ in range(50)]
        rep["bidual_fixed"] = all(bidual_fixes(R, p) for p in sample)

    g = distant_graph(R)
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


def vergleich_report(R: Ring, K: Subfield) -> dict:
    cmp = compare_residue_with_dual(R, K)
    rep = {
        "points_fixed": cmp.points_fixed,
        "blocks_equal": cmp.blocks_equal,
        "partitions_equal": cmp.partitions_equal,
        "units_normal": cmp.units_normal,
        "classes": cmp.n_classes,
        "dual_classes": cmp.n_dual_classes,
        "ok": cmp.consistent,
    }
    if cmp.witness_unit is not None:
        rep["normality_witness"] = cmp.witness_unit
        rep["normality_witness_str"] = R.elem_str(cmp.witness_unit)
    return rep


def partial_affine_report(R: Ring, K: Subfield) -> dict:
    res = residue_at(R, K, infinity(R))
    classes = delta_orbits(res) + dual_compat_classes(res)
    per_class = []
    ok = True
    for cls in classes:
        valid = validate_partial_affine(res, cls)
        ok = ok and valid
        per_class.append({
            "side": cls.side,
            "blocks": len(cls.blocks),
            "witness": list(cls.witness.elements),
            "missing_directions": missing_directions(res, cls),
            "partial_affine": valid,
        })
    # two distant points lie on exactly one block of every class
    joined_ok = True
    for cls in classes:
        joined: dict = {}
        for B in cls.blocks:
            bs = sorted(B)
            for i, x in enumerate(bs):
                for y in bs[i + 1:]:
                    joined[(x, y)] = joined.get((x, y), 0) + 1
        for x in R.elements():
            for y in R.elements():
                if x < y and R.is_unit(R.sub(y, x)):
                    if joined.get((x, y), 0) != 1:
                        joined_ok = False
    return {"ok": ok and joined_ok, "classes": per_class,
            "exactly_one_block_per_class": joined_ok}


def derive_plane_report(R: Ring, K: Subfield, skip_replacement: bool = False,
                        desargues_cap: int = 10 ** 7) -> dict:
    plane = derive_plane(R, K, skip_replacement=skip_replacement,
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
    return identity_map(R, as_antiiso=True), "identity"


def sigma_suite(R: Ring, K: Subfield, samples: int = 10000, seed: int = 2) -> dict:
    """Antiisomorphism-induced isomorphism: far-point image, the three
    entrywise image formulas, closed word form versus the composite, chain
    preservation, and the compatibility criterion."""
    small = R.size <= EXHAUSTIVE_LIMIT
    m, name = catalogue_antiiso(R)
    rep: dict = {"map": name,
                 "mode": "exhaustive" if small else f"sampled({samples}, seed={seed})"}
    rep["conjugator"] = verify_subfield_condition(m, K, K)
    rep["far_point_fixed"] = antiiso_point_map(m, infinity(R)) == infinity(R)

    mismatches = 0
    checks = 0

    def check_word(ts):
        nonlocal mismatches, checks
        checks += 1
        p = word_point(R, ts)
        composite = antiiso_point_map(m, p)
        if antiiso_word_point(m, ts) != composite:
            mismatches += 1
            return
        ph = [m(t) for t in ts]
        if len(ts) == 1:
            want = make_point(R, ph[0], R.one)
        elif len(ts) == 2:
            want = make_point(R, R.sub(R.mul(ph[1], ph[0]), R.one), ph[1])
        else:
            a = R.sub(R.sub(R.mul(R.mul(ph[2], ph[1]), ph[0]), ph[2]), ph[0])
            want = make_point(R, a, R.sub(R.mul(ph[2], ph[1]), R.one))
        if composite != want:
            mismatches += 1

    if small:
        for t1 in R.elements():
            check_word((t1,))
            for t2 in R.elements():
                check_word((t1, t2))
                for t3 in R.elements():
                    check_word((t1, t2, t3))
    else:
        rng = random.Random(seed)
        for ts in _sample_words(R, rng, samples):
            check_word(ts)
    rep["word_formula_checks"] = checks
    rep["word_formula_mismatches"] = mismatches

    if small:
        chains = chain_orbit(R, K)
        rep["chains_mapped"] = len(chains)
        rep["chains_ok"] = {antiiso_chain_map(m, C) for C in chains} == set(chains)
    else:
        chains = chain_orbit(R, K, through=infinity(R))
        sample = sorted(chains, key=lambda c: sorted(c))[::9]
        rep["chains_mapped"] = len(sample)
        rep["chains_ok"] = all(antiiso_chain_map(m, C) in chains for C in sample)

    preserved = preserves_compatibility(m, K, K)
    normal = is_normal_subgroup(K, R)
    rep["compatibility_preserved"] = preserved
    rep["units_normal"] = normal
    rep["criterion_consistent"] = preserved == normal
    if not normal:
        rep["normality_witness"] = normality_witness(K)

    rep["ok"] = (rep["far_point_fixed"] and mismatches == 0 and rep["chains_ok"]
                 and rep["criterion_consistent"])
    return rep


