"""Verification suites over one (ring, subfield) scenario.

Each suite returns a flat report dict: its verdicts, the checks and
failure counts that cli.TASKS names as deciding its task, exhaustive or
seeded-sample check counts, and any witnesses worth recording.  Rings with
at most 16 elements are always swept exhaustively; on the 81-element
matrix ring the duality and sigma suites take explicit sample counts and
seeds for their words and covariance rows instead, drawn from one
random.Random(seed): the word lengths, then their letters, each in bulk
from rng.randbytes by rejection, and in the duality suite then the
covariance (generator, row) pairs with rng.choices.  Every sweep walks
index ranges, or drawn index arrays, in slabs (projline.index_slabs),
each index's digits its letters or its (generator, row): the words one
length at a time, where one driver, _word_sweep, carries the counts and
the first failing word across the slabs; the covariance pairs, in one
covariance_failures call; and the length-2 words of length2_covers_line.
One helper, projline.carries, decides whether perp or sigma, both index
arrays, carries a chain set onto another; the bidual check runs on every
point in one bidual_keys call."""

from __future__ import annotations

import random

import numpy as np

from chaingeom import duality, isomorph
from chaingeom.rings import Ring, normality_witness, subfield_in_opposite
from chaingeom.projline import (
    OrbitCapExceededError,
    carries,
    flat_at,
    index_of,
    index_slabs,
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
# the bytes a word check holds per word of a slab, at its peak, beyond its letters
WORD_COST = 40


def points_report(geom: Geometry) -> dict:
    pts = geom.points  # raises MethodDisagreementError on mismatch
    return {"points": len(pts), "methods_agree": True}


def graph_report(geom: Geometry) -> dict:
    g = geom.graph
    return {
        "points": len(g.points),
        "edges": g.n_edges,
        "components": g.n_components,
        "diameter": g.diameter,
    }


def chain_report(geom: Geometry, through_infinity: bool = False,
                 cap: int = 10 ** 6) -> dict:
    """The full chain orbit, or with through_infinity the chains through the
    far point; raises OrbitCapExceededError if there are more than cap.
    chains_closed says whether every row lists distinct points in increasing
    order and every orbit generator (each but E(0) with through_infinity)
    carries the chain set onto itself."""
    K = geom.subfield
    chains = geom.chains_at_infinity if through_infinity else geom.chains
    if len(chains) > cap:
        raise OrbitCapExceededError(f"chain orbit on {geom.ring.name} exceeded cap {cap}")
    perms = geom.perms[1:] if through_infinity else geom.perms
    key = "chains_through_infinity" if through_infinity else "chains"
    return {"chains_closed": bool((np.diff(chains, axis=1) > 0).all())
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


def _words(R: Ring, samples: int, rng: random.Random) -> list:
    """Elementary words of length 1 to 3 by length: for k = 1, 2, 3,
    (indices, at), the words of length k as k-digit base-|R| numbers, t1
    most significant, and at(j) the place of word indices[j] in word order.
    Rings with at most EXHAUSTIVE_LIMIT elements give every word, indices =
    range(|R|^k), each (t1,) followed by its extensions (t1, t2), each of
    those by its (t1, t2, t3); larger rings give `samples` words drawn
    from rng in two _uniform draws: every length from (1, 2, 3), then
    three letters per word, of which the word keeps the first k."""
    n = R.size
    if n <= EXHAUSTIVE_LIMIT:
        below = (1 + n + n * n, 1 + n, 1)  # the words from a prefix on: it and its extensions
        return [(range(n ** k), lambda j, k=k: k - 1 + sum(
            j // n ** (k - 1 - i) % n * below[i] for i in range(k))) for k in (1, 2, 3)]
    lengths = _uniform(rng, 3, samples) + 1
    return _word_groups(n, _uniform(rng, n, 3 * samples).reshape(samples, 3), lengths)


def _word_groups(n: int, letters, lengths) -> list:
    """The length groups of _words for words in word order, word i the
    first lengths[i] letters of row i of letters."""
    ats = [np.flatnonzero(lengths == k) for k in (1, 2, 3)]
    return [(np.ravel_multi_index(letters[at, :k].T, (n,) * k), at.__getitem__)
            for k, at in enumerate(ats, 1)]


def _word_sweep(R: Ring, words, check, witness) -> dict:
    """The word_formula_* entries of a suite's report over the words of
    _words, in slabs of one length k: check(letters), on a slab's k x W
    letters, says if each word holds the closed word form, if it then holds
    the length-k formula, and gives the entries (a, b) of the formula's
    point, or None.  A word fails at its first check that does not hold.
    Places increase within a length, so the sweep's first failing word is
    the earliest of the slabs' firsts, and so is the first word whose pair
    is not admissible, for which make_point raises.  A failing sweep names
    that word, the check it failed, and what witness(word) gives for it."""
    checks = mismatches = 0
    failing, inadmissible = [], []  # per slab, (place, what the report needs)
    for k, (indices, at) in enumerate(words, 1):
        for part, letters in index_slabs(indices, (R.size,) * k, WORD_COST, R._neg_f.dtype):
            word_form, closed, rows = check(letters)
            fails = np.flatnonzero(~(word_form & closed)).tolist()
            checks, mismatches = checks + len(closed), mismatches + len(fails)
            failing += [(at(part.start + j), letters[:, j].tolist(), word_form[j])
                        for j in fails[:1]]
            out = [] if rows is None else np.flatnonzero(word_form & ~R._rows_ok[rows]).tolist()
            inadmissible += [(at(part.start + j), int(rows[0][j]), int(rows[1][j]))
                             for j in out[:1]]
    if inadmissible:
        make_point(R, *min(inadmissible)[1:])
    rep = {"word_formula_checks": checks, "word_formula_mismatches": mismatches}
    if failing:
        _, ts, word_form = min(failing)
        rep["word_formula_first_mismatch"] = {
            "word": ts, "check": f"length-{len(ts)} formula" if word_form else "word form",
            **witness(tuple(ts))}
    return rep


def duality_words(geom: Geometry, words) -> dict:
    """The duality suite's word sweep over the length groups words of
    _words: for every word, the closed word form and then the closed
    formula of its length, against the oracle's image of the word point,
    read off the Geometry's perp array.  Each check runs on one slab of
    words of one length."""
    R = geom.ring

    def check(letters):
        pts = word_points(R, letters)
        oracle = geom.dual.keys[geom.perp[index_of(geom.keys, pts)]]
        # the word form read through its module, as its one-word call reads it
        word_form = duality.word_dual_points(R, letters) == oracle
        formula = (length1_perp_formula, length2_perp_formula,
                   length3_perp_formula)[len(letters) - 1]
        # a length-1 word makes no point
        rows, (v, w) = formula(R, *letters) if len(letters) > 1 else (None, formula(R, *letters))
        closed = flat_at(R, R._right_key.ravel(), v, w) == oracle
        if rows is not None:
            closed &= flat_at(R, R._left_key.ravel(), *rows) == pts
        return word_form, closed, rows

    def witness(ts):
        p = word_point(R, ts)
        return {"point": p, "definition": geom.perp_of(p),
                "closed_form": word_dual_point(R, ts)}

    return _word_sweep(R, words, check, witness)


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
    rep.update(duality_words(geom, _words(R, samples, rng)))

    gens = line_generators(R)
    if small:  # every generator x every row, by pair index
        pairs = range(len(gens) * R.size ** 2)
    else:
        count = max(1, samples // 20)
        which = rng.choices(range(len(gens)), k=count)
        pairs = np.multiply(which, R.size ** 2) + rng.choices(range(R.size ** 2), k=count)
    rep["covariance_checks"] = len(pairs)
    rep["covariance_failures"] = covariance_failures(R, gens, pairs)

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
        covered = np.zeros(len(pts), dtype=bool)
        for _, letters in index_slabs(range(R.size ** 2), (R.size, R.size), WORD_COST,
                                      R._neg_f.dtype):
            covered[index_of(geom.keys, word_points(R, letters))] = True
        missed = np.flatnonzero(~covered)
        rep["length2_covers_line"] = not len(missed)
        if len(missed):
            rep["length2_first_uncovered"] = pts[int(missed[0])]
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
    rep["criterion_consistent"] = rep["partitions_equal"] == rep["units_normal"]
    if witness is not None:
        rep["normality_witness"] = witness
        rep["normality_witness_str"] = R.elem_str(witness)
    return rep


def partial_affine_report(geom: Geometry) -> dict:
    """Each class as a partial affine space; two distant points lie on
    exactly one block of every class.  The joins and the coset conditions
    are checked once per class: the joins answer both (iii) and
    exactly_one_block_per_class, the cosets partial_affine and cosets_hold."""
    R, res = geom.ring, geom.residue
    per_class, joined, cosets = [], [], []
    for cls in geom.compat_classes + geom.dual_compat_classes:
        joined.append(joins_unit_pairs_once(R, cls.blocks))
        cosets.append(cosets_hold(res, cls))
        per_class.append({
            "side": cls.side,
            "blocks": len(cls.blocks),
            "witness": list(cls.witness.elements),
            "missing_directions": missing_directions(res, cls),
            "partial_affine": cosets[-1] and joined[-1],
        })
    return {"classes": per_class, "cosets_hold": all(cosets),
            "exactly_one_block_per_class": all(joined)}


def derive_plane_report(geom: Geometry, skip_replacement: bool = False,
                        desargues_cap: int = 10 ** 7) -> dict:
    """The fields of derive_plane's PlaneReport that are not None, among
    them two_point_axiom and playfair, which together say whether the
    derived structure is an affine plane."""
    plane = derive_plane(geom, skip_replacement=skip_replacement,
                         desargues_cap=desargues_cap)
    return {key: value for key, value in plane._asdict().items() if value is not None}


def catalogue_antiiso(R: Ring):
    if R.spec.family == "matrix2":
        return transpose_map(R), "transpose"
    if R.spec.family == "finite-field" and R.ndigits > 1:
        return frobenius_map(R, as_antiiso=True), "frobenius"
    if R.spec.family == "upper-triangular2":
        return triangular_flip_map(R), "diagonal-flip"
    return identity_map(R, as_antiiso=True), "identity"


def sigma_words(geom: Geometry, m, sigma: np.ndarray, words) -> dict:
    """The sigma suite's word sweep over the length groups words of _words,
    for the antiautomorphism m of the Geometry's ring: for every word, the
    closed word form and then the entrywise formula of its length, against
    the composite sigma of the word point, the index permutation of
    antiiso_point_table.  Each check runs on one slab of words of one
    length."""
    R, keys = geom.ring, geom.keys
    phi = np.asarray(m.table, dtype=R._neg_f.dtype)

    def check(letters):
        pts = word_points(R, letters)
        composite = keys[sigma[index_of(keys, pts)]]
        # the word form read through its module, as its one-word call reads it
        word_form = isomorph.antiiso_word_points(m, letters) == composite
        formula = (length1_sigma_formula, length2_sigma_formula,
                   length3_sigma_formula)[len(letters) - 1]
        rows = formula(R, *phi.take(letters))
        return word_form, flat_at(R, R._left_key.ravel(), *rows) == composite, rows

    def witness(ts):
        p = word_point(R, ts)
        return {"point": p, "definition": geom.points[sigma[geom.index(p)]],
                "closed_form": antiiso_word_point(m, ts)}

    return _word_sweep(R, words, check, witness)


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

    rep.update(sigma_words(geom, m, sigma, _words(R, samples, random.Random(seed))))

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
    return rep
