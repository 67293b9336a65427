"""Verification suites over one (ring, subfield) scenario.

Each suite returns a flat report dict with a boolean "ok", exhaustive or
seeded-sample check counts, and any witnesses worth recording.  Rings with
at most 16 elements are always swept exhaustively; on the 81-element
matrix ring the duality and sigma suites take explicit sample counts and
seeds for their words and covariance rows instead.  Each of those two
suites draws from one random.Random(seed): the word lengths, then their
letters, each in bulk from rng.randbytes by rejection, and in the
duality suite then the covariance (generator, row) pairs with
rng.choices.  The duality suite checks the covariance law in one call
over all its (generator, row) pairs.  The word sweeps are array kernels:
every word is drawn into (letters, lengths) arrays, the words are grouped
by length once, every kernel, the word points and word forms as well as
each closed formula, runs on the letters of one length's words only, and
the checks and point entries go back into word order, where one driver,
_word_sweep, counts the failures over boolean masks.  The chain checks
read the Geometry's chain rows: one helper, projline.carries, decides whether perp or sigma, both
index arrays, carries a chain set onto another, for every chain of the
set, and the bidual check runs on every point in one bidual_keys call; a
failing one names its first point, the dual point perp gave it, what came
back, and the dual point a fresh perp scan gives.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from chaingeom import duality, isomorph
from chaingeom.rings import Ring, normality_witness, subfield_in_opposite
from chaingeom.projline import (
    OrbitCapExceededError,
    carries,
    flat_at,
    index_of,
    line_generators,
    make_point,
    sorted_rows,
    word_point,
    word_points,
)
from chaingeom.duality import (
    bidual_keys,
    bidual_point,
    covariance_failures,
    dual_matches_opposite,
    length1_perp_formula,
    length2_perp_formula,
    length3_perp_formula,
    perp_point,
    word_dual_point,
)
from chaingeom.compat import (
    cosets_hold,
    derive_plane,
    joins_unit_pairs_once,
    missing_directions,
    same_partition,
)
from chaingeom.chains import blocks_at
from chaingeom.geometry import Geometry
from chaingeom.isomorph import (
    antiiso_point_table,
    antiiso_word_point,
    frobenius_map,
    identity_map,
    length1_sigma_formula,
    length2_sigma_formula,
    length3_sigma_formula,
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


def chain_report(geom: Geometry, through_infinity: bool = False,
                 cap: int = 10 ** 6) -> dict:
    """The full chain orbit, or with through_infinity the chains through the
    far point; raises OrbitCapExceededError if there are more than cap.
    It is ok iff every row lists distinct points in increasing order and
    every orbit generator (each but E(0) with through_infinity) carries the
    chain set onto itself."""
    K = geom.subfield
    chains = geom.chains_at_infinity if through_infinity else geom.chains
    if len(chains) > cap:
        raise OrbitCapExceededError(f"chain orbit on {geom.ring.name} exceeded cap {cap}")
    perms = geom.perms[1:] if through_infinity else geom.perms
    key = "chains_through_infinity" if through_infinity else "chains"
    return {"ok": bool((np.diff(chains, axis=1) > 0).all())
            and all(carries(p, chains, chains) for p in perms),
            key: len(chains), "chain_size": len(K.elements) + 1}


def _uniform(rng: random.Random, n: int, count: int) -> np.ndarray:
    """count draws uniform in range(n), for n < 256 (rings have at most
    rings.SIZE_CAP elements), as uint8, from rng.randbytes by rejection:
    each round asks for as many bytes as draws are missing, and a byte b is
    kept, as b % n, iff b < 256 - 256 % n."""
    bound = 256 - 256 % n
    kept = np.empty(0, dtype=np.uint8)
    while len(kept) < count:
        got = np.frombuffer(rng.randbytes(count - len(kept)), dtype=np.uint8)
        kept = np.concatenate([kept, got[got < bound]])
    return kept % n


def _words(R: Ring, samples: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Elementary words of length 1 to 3 as (letters, lengths): word i is
    the first lengths[i] entries of row i of the W x 3 array letters, and
    the rest of the row is zero; letters in the dtype of R's flat tables.
    Rings with at most EXHAUSTIVE_LIMIT elements give every word, each
    (t1,) followed by its extensions (t1, t2), each of those followed by
    its (t1, t2, t3); larger rings give `samples` words drawn from rng in
    two _uniform draws: every length from (1, 2, 3), then three letters per
    word from R, of which the word keeps the first lengths[i]."""
    n = R.size
    if n <= EXHAUSTIVE_LIMIT:
        block = 1 + n * (1 + n)  # (t1,), then (t1, t2) and its n extensions per t2
        t1, r = np.divmod(np.arange(n * block), block)
        t2, s = np.divmod(r - 1, 1 + n)  # for r > 0: s = 0 at (t1, t2), t3 + 1 after
        lengths = np.where(r == 0, 1, np.where(s == 0, 2, 3))
        letters = np.stack([t1, t2, s - 1], axis=1, dtype=R._neg_f.dtype, casting="unsafe")
    else:
        lengths = _uniform(rng, 3, samples) + 1
        letters = _uniform(rng, n, 3 * samples).reshape(samples, 3)
    letters *= np.arange(3) < lengths[:, None]
    return letters, lengths


def _length_groups(letters, lengths) -> tuple[np.ndarray, list]:
    """The words of a sweep grouped by length: order, the indices of the
    length-1, then the length-2, then the length-3 words, each group in
    word order, and for each length k the k x W_k array of the letters of
    its words, row j holding letter t_(j+1)."""
    order = np.argsort(lengths, kind="stable")
    ends = np.cumsum(np.bincount(lengths, minlength=4)).tolist()
    grouped = letters.T[:, order]
    return order, [grouped[:k, ends[k - 1]:ends[k]] for k in (1, 2, 3)]


def _word_sweep(R: Ring, stages, rows=None) -> tuple[int, int, Optional[int]]:
    """(checks, mismatches, first failing index) of a sweep given as boolean
    masks over the words: stages[k][i] says word i passes check k, in the
    order a check of one word evaluates them, and a word fails at its first
    check that does not hold.  rows, if given, are the entries (a, b) of
    the point the last check makes for every word: the first word that
    reaches it with a pair that is not admissible makes make_point raise
    its NotAdmissibleError."""
    reached = np.ones(len(stages[0]), dtype=bool)
    for holds in stages[:-1]:
        reached &= holds
    if rows is not None:
        bad = np.flatnonzero(reached & ~R._rows_ok[rows])
        if len(bad):
            make_point(R, int(rows[0][bad[0]]), int(rows[1][bad[0]]))
    reached &= stages[-1]
    failing = np.flatnonzero(~reached)
    return len(reached), len(failing), (int(failing[0]) if len(failing) else None)


def _word_report(R: Ring, letters, lengths, order, grouped, witness) -> dict:
    """The word_formula_* entries of a suite's report from _word_sweep over
    two checks: the closed word form, then the closed formula of the word's
    length, which makes the points with entries (a, b).  grouped holds the
    two checks' masks and a and b in the order of the length groups
    (_length_groups), and order puts them back into word order.  A failing
    sweep names its first failing word, the check it failed, and the
    values witness(word) gives for it."""
    word_form, closed, a, b = [np.empty_like(values) for values in grouped]
    for out, values in zip((word_form, closed, a, b), grouped):
        out[order] = values
    checks, mismatches, first = _word_sweep(R, [word_form, closed], (a, b))
    rep = {"word_formula_checks": checks, "word_formula_mismatches": mismatches}
    if first is not None:
        ts = tuple(letters[first, :lengths[first]].tolist())
        check = "word form" if not word_form[first] else f"length-{len(ts)} formula"
        rep["word_formula_first_mismatch"] = {"word": list(ts), "check": check,
                                              **witness(ts)}
    return rep


def duality_words(geom: Geometry, letters, lengths) -> dict:
    """The duality suite's word sweep: for every word, the closed word form
    and then the closed formula of its length, against the oracle's image
    of the word point, read off the Geometry's perp array.  Each kernel
    runs on the words of one length at a time."""
    R = geom.ring
    order, groups = _length_groups(letters, lengths)
    pts = np.concatenate([word_points(R, g) for g in groups])
    oracle = geom.dual.keys[geom.perp[index_of(geom.keys, pts)]]
    # the word form read through its module, as its one-word call reads it
    word_form = np.concatenate([duality.word_dual_points(R, g) for g in groups]) == oracle
    v1, w1 = length1_perp_formula(R, *groups[0])
    (a2, b2), (v2, w2) = length2_perp_formula(R, *groups[1])
    (a3, b3), (v3, w3) = length3_perp_formula(R, *groups[2])
    # length-1 words make no point; (1, 0) stands in as an admissible pair
    a = np.concatenate([np.full_like(v1, R.one), a2, a3])
    b = np.concatenate([np.full_like(v1, R.zero), b2, b3])
    closed = flat_at(R, R._right_key.ravel(), np.concatenate([v1, v2, v3]),
                     np.concatenate([w1, w2, w3])) == oracle
    longer = slice(len(v1), None)
    closed[longer] &= flat_at(R, R._left_key.ravel(), a[longer], b[longer]) == pts[longer]

    def witness(ts):
        p = word_point(R, ts)
        return {"point": p, "definition": geom.perp_of(p),
                "closed_form": word_dual_point(R, ts)}

    return _word_report(R, letters, lengths, order, (word_form, closed, a, b), witness)


def duality_suite(geom: Geometry, samples: int = 10000, seed: int = 1) -> dict:
    """Canonical-isomorphism checks: bijectivity on points and chains, the
    covariance law, and every closed image formula against the kernel-scan
    oracle, whose answers the Geometry holds as its perp array."""
    R, K = geom.ring, geom.subfield
    small = R.size <= EXHAUSTIVE_LIMIT
    rep: dict = {"mode": "exhaustive" if small else f"sampled({samples}, seed={seed})"}
    pts, perp = geom.points, geom.perp
    rep["bijection"] = sorted(perp.tolist()) == list(range(len(geom.dual.points)))

    if small:
        chains, dchains = geom.chains, geom.dual.chains
    else:
        chains, dchains = geom.chains_at_infinity, geom.dual.chains_at_infinity
    rep["chain_bijection"] = carries(perp, chains, dchains)
    rep["chains_checked"] = len(chains)

    rep["far_point_image"] = int(perp[geom.far]) == geom.dual.far

    rng = random.Random(seed)
    rep.update(duality_words(geom, *_words(R, samples, rng)))

    gens = line_generators(R)
    if small:  # every generator x every row
        which, keys = np.divmod(np.arange(len(gens) * R.size ** 2), R.size ** 2)
    else:
        count = max(1, samples // 20)
        which = rng.choices(range(len(gens)), k=count)
        keys = rng.choices(range(R.size ** 2), k=count)
    cov_failures = covariance_failures(R, gens, which, keys)
    rep["covariance_checks"] = len(keys)
    rep["covariance_failures"] = cov_failures

    back = bidual_keys(R, geom.dual.keys[perp])
    rep["bidual_fixed"] = bool(np.array_equal(back, geom.keys))
    if not rep["bidual_fixed"]:
        i = int(np.argmax(back != geom.keys))
        q = geom.dual.points[perp[i]]
        rep["bidual_first_mismatch"] = {"point": pts[i], "perp": q,
                                        "bidual": bidual_point(R, q),
                                        "perp_rescanned": perp_point(R, pts[i])}
    if small:
        op = Geometry(R.opposite, subfield_in_opposite(K))
        rep["opposite_equivalent"] = dual_matches_opposite(geom, op)

    g = geom.graph
    if g.n_components == 1 and g.diameter <= 2:  # every (t1, t2), t1 major
        grid = np.indices((R.size, R.size), dtype=R._neg_f.dtype).reshape(2, -1)
        ends = index_of(geom.keys, word_points(R, grid))
        covered = np.bincount(ends, minlength=len(pts)) > 0
        _, missed, first = _word_sweep(R, [covered])
        rep["length2_covers_line"] = missed == 0
        if missed:
            rep["length2_first_uncovered"] = pts[first]

    rep["ok"] = (rep["bijection"] and rep["chain_bijection"] and rep["far_point_image"]
                 and rep["word_formula_mismatches"] == 0 and cov_failures == 0
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
    dual_blocks = blocks_at(geom.dual.chains_at_infinity, geom.dual.far)
    witness = normality_witness(K)
    rep = {
        "points_fixed": np.array_equal(geom.perp_coords, R.elements()),
        "blocks_equal": np.array_equal(sorted_rows(geom.dual_coords[dual_blocks]),
                                       geom.residue.blocks),
        "partitions_equal": same_partition([c.blocks for c in classes],
                                           [c.blocks for c in dual_classes]),
        "units_normal": witness is None,
        "classes": len(classes),
        "dual_classes": len(dual_classes),
    }
    rep["ok"] = (rep["points_fixed"] and rep["blocks_equal"]
                 and rep["partitions_equal"] == rep["units_normal"])
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
    """The fields of derive_plane's PlaneReport that are not None; ok iff
    the derived structure is an affine plane."""
    plane = derive_plane(geom, skip_replacement=skip_replacement,
                         desargues_cap=desargues_cap)
    rep = {key: value for key, value in plane._asdict().items() if value is not None}
    return {**rep, "ok": plane.two_point_axiom and plane.playfair}


def catalogue_antiiso(R: Ring):
    if R.spec.family == "matrix2":
        return transpose_map(R), "transpose"
    if R.spec.family == "finite-field" and R.ndigits > 1:
        return frobenius_map(R, as_antiiso=True), "frobenius"
    if R.spec.family == "upper-triangular2":
        return triangular_flip_map(R), "diagonal-flip"
    return identity_map(R, as_antiiso=True), "identity"


def sigma_words(geom: Geometry, m, sigma: np.ndarray, letters, lengths) -> dict:
    """The sigma suite's word sweep for the antiautomorphism m of the
    Geometry's ring: for every word, the closed word form and then the
    entrywise formula of its length, against the composite sigma of the
    word point, the index permutation of antiiso_point_table.  Each kernel
    runs on the words of one length at a time."""
    R, keys = geom.ring, geom.keys
    order, groups = _length_groups(letters, lengths)
    pts = np.concatenate([word_points(R, g) for g in groups])
    composite = keys[sigma[index_of(keys, pts)]]
    # the word form read through its module, as its one-word call reads it
    word_form = np.concatenate([isomorph.antiiso_word_points(m, g) for g in groups]) == composite
    phi = np.asarray(m.table, dtype=R._neg_f.dtype)
    formulas = (length1_sigma_formula, length2_sigma_formula, length3_sigma_formula)
    rows = [formula(R, *phi.take(g)) for formula, g in zip(formulas, groups)]
    a, b = (np.concatenate([row[k] for row in rows]) for k in (0, 1))
    entrywise = flat_at(R, R._left_key.ravel(), a, b) == composite

    def witness(ts):
        p = word_point(R, ts)
        return {"point": p, "definition": geom.points[sigma[geom.index(p)]],
                "closed_form": antiiso_word_point(m, ts)}

    return _word_report(R, letters, lengths, order, (word_form, entrywise, a, b), witness)


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
    rep["far_point_fixed"] = int(sigma[geom.far]) == geom.far

    rep.update(sigma_words(geom, m, sigma, *_words(R, samples, random.Random(seed))))

    chains = geom.chains if small else geom.chains_at_infinity
    rep["chains_mapped"] = len(chains)
    rep["chains_ok"] = carries(sigma, chains, chains)

    preserved = preserves_compatibility(m, geom, geom)
    witness = normality_witness(K)
    rep["compatibility_preserved"] = preserved
    rep["units_normal"] = witness is None
    rep["criterion_consistent"] = preserved == rep["units_normal"]
    if witness is not None:
        rep["normality_witness"] = witness

    rep["ok"] = (rep["far_point_fixed"] and rep["word_formula_mismatches"] == 0
                 and rep["chains_ok"] and rep["criterion_consistent"])
    return rep
