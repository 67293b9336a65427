"""The word sweeps of the duality and sigma suites are array kernels; these
tests hold them to the per-word references of tests/reference.py: the
same words, the same (checks, mismatches), the same first failing word
under corrupted closed forms, and the same NotAdmissibleError."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaingeom import duality, isomorph, projline, suites
from chaingeom.cli import passes
from chaingeom.geometry import Geometry
from chaingeom.isomorph import antiiso_point_table
from chaingeom.projline import NotAdmissibleError, is_admissible, make_point
from chaingeom.rings import FiniteFieldRing, RingSpec, build_subfield, make_ring_map, \
    subfield_in_opposite

import reference

SEED = 1


def _in_word_order(R, words):
    """The words of the length groups of suites._words as tuples, in word
    order: group k's word j, the k base-|R| digits of indices[j], at place
    at(j); the places are 0, 1, ... with none missing."""
    out = {}
    for k, (indices, at) in enumerate(words, 1):
        for j, code in enumerate(indices):
            out[int(at(j))] = tuple(int(code) // R.size ** (k - 1 - i) % R.size
                                    for i in range(k))
    return [out[i] for i in range(len(out))]


def _word_list(R, samples, seed):
    return _in_word_order(R, suites._words(R, samples, random.Random(seed)))


def _with_opposites(geometries):
    """Each Geometry, then the one over its opposite ring."""
    out = []
    for g in geometries:
        out += [g, Geometry(g.ring.opposite, subfield_in_opposite(g.subfield))]
    return out


def _antiautomorphism(geom):
    """The catalogue antiisomorphism of the ring, or on an opposite ring the
    base ring's: it reverses the opposite product too."""
    R = geom.ring
    m, _ = suites.catalogue_antiiso(getattr(R, "base", R))
    return make_ring_map(R, R, m.table.__getitem__, "antiisomorphism")


def _kernel_sweeps(geom, samples, seed):
    words = suites._words(geom.ring, samples, random.Random(seed))
    m = _antiautomorphism(geom)
    return (suites.duality_words(geom, words),
            suites.sigma_words(geom, m, antiiso_point_table(m, geom), words))


def _reference_sweeps(geom, samples, seed):
    R, m = geom.ring, _antiautomorphism(geom)
    sigma = reference.point_map(geom, antiiso_point_table(m, geom))
    return (reference.word_sweep(lambda ts: reference.duality_formulas_hold(geom, ts),
                                 reference.words(R, samples, seed)),
            reference.word_sweep(lambda ts: reference.sigma_formulas_hold(m, sigma, ts),
                                 reference.words(R, samples, seed)))


def _counts(rep):
    return rep["word_formula_checks"], rep["word_formula_mismatches"]


def test_words_match_reference_on_small_rings_and_opposites(small_zoo):
    for R, _ in small_zoo:
        for ring in (R, R.opposite):
            want = list(reference.words(ring, 10 ** 4, SEED))
            assert _word_list(ring, 10 ** 4, SEED) == want
            assert len(want) == R.size + R.size ** 2 + R.size ** 3


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_words_match_reference_sampled_m2f3(m2f3, seed):
    assert _word_list(m2f3, 10 ** 4, seed) == list(reference.words(m2f3, 10 ** 4, seed))


class CyclingBytes:
    """A stand-in rng whose randbytes gives the bytes 0, 1, ..., 255, 0,
    1, ... in turn; given records every byte it gave."""

    def __init__(self):
        self.given = []

    def randbytes(self, k):
        out = bytes((len(self.given) + i) % 256 for i in range(k))
        self.given += out
        return out


def test_sampled_draw_never_uses_bytes_at_or_above_the_bound(m2f3):
    """The lengths come from the bytes below 255 = 3 * 85 and the letters
    from the bytes below 243 = 3 * 81 that follow them; every other byte is
    skipped, and no byte is asked for that the draw does not need."""
    samples = 300
    rng = CyclingBytes()
    got = _in_word_order(m2f3, suites._words(m2f3, samples, rng))
    given = rng.given
    split = [i for i, b in enumerate(given) if b < 255][samples - 1] + 1
    want_lengths = [b % 3 + 1 for b in given[:split] if b < 255]
    want_letters = [b % 81 for b in given[split:] if b < 243]
    assert len(want_letters) == 3 * samples and given[-1] < 243
    assert got == [tuple(want_letters[3 * i:3 * i + n]) for i, n in enumerate(want_lengths)]
    assert 255 in given[:split] and max(given[split:]) >= 243  # some bytes were skipped


def test_sweeps_match_reference_on_small_rings_and_opposites(small_zoo_g):
    for geom in _with_opposites(small_zoo_g):
        kernel = _kernel_sweeps(geom, 10 ** 4, SEED)
        ref = _reference_sweeps(geom, 10 ** 4, SEED)
        assert [_counts(rep) for rep in kernel] == [r[:2] for r in ref], geom.ring.name
        assert [r[1] for r in ref] == [0, 0]
        assert all("word_formula_first_mismatch" not in rep for rep in kernel)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_sweeps_match_reference_sampled_m2f3(m2f3_g, seed):
    kernel = _kernel_sweeps(m2f3_g, 10 ** 4, seed)
    ref = _reference_sweeps(m2f3_g, 10 ** 4, seed)
    assert [_counts(rep) for rep in kernel] == [r[:2] for r in ref] == [(10 ** 4, 0)] * 2


# negative controls ----------------------------------------------------------------
#
# Each control perturbs one closed form by one extra term: a row (a, b)
# becomes (a - b, b) and a column (v, w) becomes (v, w - v).  Both keep an
# admissible pair admissible and commute with the unit multiples, so they
# can act on canonical pairs.  Flipping a sign would be no control on f4,
# dual2 and matrix2(2): in characteristic 2, -x = x.

def _shift_row(R, p):
    return R.canonical_pair_left(R.sub(p[0], p[1]), p[1])


def _shift_col(R, q):
    return R.canonical_pair_right(q[0], R.sub(q[1], q[0]))


def _shift_row_keys(R, keys):
    a, b = np.divmod(keys, R.size)
    return R._left_key[R._add_a[a, R._neg_a[b]], b]


def _shift_col_keys(R, keys):
    v, w = np.divmod(keys, R.size)
    return R._right_key[v, R._add_a[w, R._neg_a[v]]]


def _shifted_perp(formula):
    def shifted(R, *t):
        rows, (v, w) = formula(R, *t)
        return rows, (v, R._add_a[w, R._neg_a[v]])
    return shifted


def _shifted_entries(formula):
    def shifted(R, *p):
        a, b = formula(R, *p)
        return R._add_a[a, R._neg_a[b]], b
    return shifted


def _shifted_scalar_perp(formula):
    def shifted(R, *ts):
        p, q = formula(R, *ts)
        return p, _shift_col(R, q)
    return shifted


def _shifted_scalar_sigma(k):
    formulas = list(reference.SIGMA_FORMULAS)
    formulas[k] = lambda R, *p: _shift_row(R, reference.SIGMA_FORMULAS[k](R, *p))
    return tuple(formulas)


_word_dual_points = duality.word_dual_points
_antiiso_word_points = isomorph.antiiso_word_points

# name: (suite, (module, attribute, kernel copy), keyword arguments of the
# reference check with the scalar copy): one patched name per closed form,
# which the sweep and its one-word witness call both read
CONTROLS = {
    "length-2 perp formula": ("duality", (
        suites, "length2_perp_formula", _shifted_perp(duality.length2_perp_formula),
    ), {"length2": _shifted_scalar_perp(reference.length2_perp_formula)}),
    "length-3 perp formula": ("duality", (
        suites, "length3_perp_formula", _shifted_perp(duality.length3_perp_formula),
    ), {"length3": _shifted_scalar_perp(reference.length3_perp_formula)}),
    "dual word form": ("duality", (
        duality, "word_dual_points", lambda R, t: _shift_col_keys(R, _word_dual_points(R, t)),
    ), {"word_dual": lambda R, ts: _shift_col(R, reference.stepped_word_dual_point(R, ts))}),
    "antiiso word form": ("sigma", (
        isomorph, "antiiso_word_points",
        lambda m, t: _shift_row_keys(m.target, _antiiso_word_points(m, t)),
    ), {"word_form":
        lambda m, ts: _shift_row(m.target, reference.stepped_antiiso_word_point(m, ts))}),
    **{f"length-{k} sigma formula": ("sigma", (
        suites, f"length{k}_sigma_formula",
        _shifted_entries(getattr(isomorph, f"length{k}_sigma_formula")),
    ), {"entrywise": _shifted_scalar_sigma(k - 1)}) for k in (1, 2, 3)},
}


# the controls that also run on sampled matrix2(3), whose words come in
# random order of length
M2F3_CONTROLS = ("length-3 perp formula", "antiiso word form")


@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_corrupted_closed_forms_fail_like_the_reference(control, f4_g, dual2_g, m2f2_g,
                                                        request, monkeypatch):
    suite, (module, name, corrupted), kwargs = CONTROLS[control]
    geometries = [f4_g, dual2_g, m2f2_g]
    if control in M2F3_CONTROLS:
        geometries.append(request.getfixturevalue("m2f3_g"))
    for geom in geometries:
        R = geom.ring
        m, _ = suites.catalogue_antiiso(R)
        sigma = reference.point_map(geom, antiiso_point_table(m, geom))

        def holds(ts):
            if suite == "duality":
                return reference.duality_formulas_hold(geom, ts, **kwargs)
            return reference.sigma_formulas_hold(m, sigma, ts, **kwargs)

        words = reference.words(R, 10 ** 4, SEED)
        checks, mismatches, first = reference.word_sweep(holds, words)
        with monkeypatch.context() as patched:
            patched.setattr(module, name, corrupted)
            run = suites.duality_suite if suite == "duality" else suites.sigma_suite
            rep = run(geom, samples=10 ** 4, seed=SEED)
        assert mismatches > 0, (control, R.name)
        assert _counts(rep) == (checks, mismatches), (control, R.name)
        assert not passes(f"{suite}-suite", rep)
        witness = rep["word_formula_first_mismatch"]
        assert tuple(witness["word"]) == first, (control, R.name)
        assert witness["check"] == ("word form" if "word" in control
                                    else f"length-{len(first)} formula")
        p = reference.stepped_word_point(R, first)
        assert witness["point"] == p
        # the closed form named is the word form's, through its one-word call
        if suite == "duality":
            assert witness["definition"] == geom.perp_of(p)
            word_form = kwargs.get("word_dual", reference.stepped_word_dual_point)(R, first)
        else:
            assert witness["definition"] == sigma[p]
            word_form = kwargs.get("word_form", reference.stepped_antiiso_word_point)(m, first)
        assert witness["closed_form"] == word_form


def test_inadmissible_formula_pair_raises_at_the_reference_word(dual2_g, m2f2_g, monkeypatch):
    """A length-2 formula whose point is R(t1, t2), inadmissible where
    t1 R + t2 R misses 1, raises the NotAdmissibleError of the first word
    that reaches it in the per-word order: (0, 0).  With the dual word form
    also corrupted on the words that start with 0, those words never reach
    the formula, and a later word raises."""
    def rows_swapped(R, t1, t2):
        return (t1, t2), duality.length2_perp_formula(R, t1, t2)[1]

    def scalar_rows_swapped(R, t1, t2):
        return make_point(R, t1, t2), reference.length2_perp_formula(R, t1, t2)[1]

    # (v, w) -> (v - w, w): it moves (0, 1)^T R, the image of the word (0, 0)
    def word_form_off_at_0(R, letters):
        keys = _word_dual_points(R, letters)
        v, w = np.divmod(keys, R.size)
        return np.where(letters[0] == 0, R._right_key[R._add_a[v, R._neg_a[w]], w], keys)

    def scalar_word_form_off_at_0(R, ts):
        v, w = reference.stepped_word_dual_point(R, ts)
        return R.canonical_pair_right(R.sub(v, w), w) if ts[0] == 0 else (v, w)

    for geom in (dual2_g, m2f2_g):
        R = geom.ring
        messages = []
        for off_at_0 in (False, True):
            kwargs = {"length2": scalar_rows_swapped}
            if off_at_0:
                kwargs["word_dual"] = scalar_word_form_off_at_0
            with pytest.raises(NotAdmissibleError) as want:
                reference.word_sweep(
                    lambda ts: reference.duality_formulas_hold(geom, ts, **kwargs),
                    reference.words(R, 10 ** 4, SEED))
            with monkeypatch.context() as patched:
                patched.setattr(suites, "length2_perp_formula", rows_swapped)
                if off_at_0:
                    patched.setattr(duality, "word_dual_points", word_form_off_at_0)
                with pytest.raises(NotAdmissibleError) as got:
                    suites.duality_suite(geom)
            assert str(got.value) == str(want.value)
            messages.append(str(want.value))
        assert messages[0] == f"(0, 0) is not admissible over {R.name}"
        assert messages[1] != messages[0], R.name


def test_inadmissible_pairs_of_two_lengths_raise_at_the_earliest_word(dual2_g, m2f2_g,
                                                                      monkeypatch):
    """With the length-3 formula's point R(t1, t2) and the length-2
    formula's point R(t1 - 1, e), e a nonzero non-unit, words of both
    lengths make pairs that are not admissible, first (1, 0) among the
    length-2 words, whose pair is (0, e), and (0, 0, 0) among the length-3
    words, whose pair is (0, 0).  The sweep meets the length-2 words
    first, yet (0, 0, 0) comes first in word order, and its pair raises."""
    def length3(R, t1, t2, t3):
        return (t1, t2), duality.length3_perp_formula(R, t1, t2, t3)[1]

    for geom in (dual2_g, m2f2_g):
        R = geom.ring
        e = next(x for x in R.elements() if x and not R.is_unit(x))
        assert not is_admissible(R, R.zero, e)

        def length2(R, t1, t2):
            row = (R._add_a[t1, R._neg_a[R.one]], np.full_like(t2, e))
            return row, duality.length2_perp_formula(R, t1, t2)[1]

        with monkeypatch.context() as patched:
            patched.setattr(suites, "length2_perp_formula", length2)
            patched.setattr(suites, "length3_perp_formula", length3)
            with pytest.raises(NotAdmissibleError, match=r"^\(0, 0\) is not admissible over"):
                suites.duality_suite(geom)


# sweeps over any words ---------------------------------------------------------------

def _sweep_words(R, ws):
    """The words ws, in that order, as the length groups of suites._words."""
    letters = np.zeros((len(ws), 3), dtype=R._neg_f.dtype)
    for i, w in enumerate(ws):
        letters[i, :len(w)] = w
    return suites._word_groups(R.size, letters, np.array([len(w) for w in ws]))


def _outcome(rep):
    first = rep.get("word_formula_first_mismatch")
    return (*_counts(rep), tuple(first["word"]) if first else None)


@st.composite
def word_lists(draw):
    """A ring of at most 4 elements or its opposite (by index), and words
    over it: any mix of lengths, or every word of one length."""
    ring = draw(st.integers(0, 5))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        return ring, list(itertools.product(range(4), repeat=k))
    word = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
    return ring, draw(st.lists(word, min_size=1, max_size=30))


@pytest.fixture(scope="module")
def tiny_geometries(f4_g, dual2_g, prod22_g):
    return _with_opposites([f4_g, dual2_g, prod22_g])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(words=word_lists(), control=st.sampled_from([None] + sorted(CONTROLS)))
@example(words=(0, [(1,)]), control=None)
@example(words=(3, [(2, 1, 3)]), control="length-3 perp formula")
@example(words=(1, [(1, 2), (3,), (0, 2)]), control="length-2 sigma formula")
@example(words=(4, [(1, 2, 3), (2,), (3, 3, 1)]), control="dual word form")
def test_sweeps_over_any_mix_of_lengths_match_the_reference(tiny_geometries, words, control):
    """duality_words and sigma_words on any list of words, a length group
    empty, a single word, or every word of one length, clean and with one
    closed form shifted, give the checks, mismatches and first failing word
    of reference.word_sweep on the same words."""
    ring, ws = words
    geom = tiny_geometries[ring]
    R, m = geom.ring, _antiautomorphism(geom)
    sigma = antiiso_point_table(m, geom)
    suite, kwargs, words = "clean", {}, _sweep_words(R, ws)
    with pytest.MonkeyPatch.context() as patched:
        if control is not None:
            suite, (module, name, corrupted), kwargs = CONTROLS[control]
            patched.setattr(module, name, corrupted)
        got = (suites.duality_words(geom, words), suites.sigma_words(geom, m, sigma, words))
    on_points = reference.point_map(geom, sigma)
    want = (reference.word_sweep(lambda ts: reference.duality_formulas_hold(
                geom, ts, **(kwargs if suite == "duality" else {})), ws),
            reference.word_sweep(lambda ts: reference.sigma_formulas_hold(
                m, on_points, ts, **(kwargs if suite == "sigma" else {})), ws))
    assert [_outcome(rep) for rep in got] == list(want)


def test_corruption_after_first_use_reaches_the_flat_tables():
    """Both sweeps run on a freshly built F4, one product is then corrupted
    by reference.corrupt, and both sweep the same Geometry's words again:
    the counts and first failing words are those of reference.word_sweep
    on the corrupted tables, so no flat table kept a clean entry from its
    first use.  Every flat table is read-only, before and after."""
    for at, value in (((2, 1), 0), ((3, 3), 3)):
        R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
        geom = Geometry(R, build_subfield(R, "prime"))
        m, _ = suites.catalogue_antiiso(R)
        sigma = antiiso_point_table(m, geom)
        words = suites._words(R, 10 ** 4, random.Random(SEED))
        clean = (suites.duality_words(geom, words), suites.sigma_words(geom, m, sigma, words))
        assert [_counts(rep) for rep in clean] == [(84, 0)] * 2
        flat = (R._add_f, R._mul_f, R._neg_f)
        reference.corrupt(R, "mul", at, value)
        assert all(not t.flags.writeable for t in flat + (R._add_f, R._mul_f, R._neg_f))
        got = (suites.duality_words(geom, words), suites.sigma_words(geom, m, sigma, words))
        on_points = reference.point_map(geom, sigma)
        ws = list(reference.words(R, 10 ** 4, SEED))
        want = (reference.word_sweep(lambda ts: reference.duality_formulas_hold(geom, ts), ws),
                reference.word_sweep(lambda ts: reference.sigma_formulas_hold(m, on_points, ts),
                                     ws))
        assert [_outcome(rep) for rep in got] == list(want), at
        assert all(w[1] > 0 for w in want), at



# slab edges -----------------------------------------------------------------------

def _swapped_rows(R, t1, t2):
    """A length-2 perp formula whose point is R(t1, t2), inadmissible where
    t1 R + t2 R misses 1."""
    return (t1, t2), duality.length2_perp_formula(R, t1, t2)[1]


# controls patched together: one for each sweep
CONTROL_PAIRS = (("dual word form", "antiiso word form"),
                 ("length-3 perp formula", "length-2 sigma formula"))


@pytest.mark.parametrize("per_slab", [1, 97, None], ids=["one-word", "97-words", "default"])
def test_sweeps_are_exact_at_every_slab_size(per_slab, f4_g, dual2_g, m2f2_g, m2f3_g,
                                             monkeypatch):
    """Slab edges change nothing: with one word per slab (on F4 and
    dual2), 97 words per slab, whose edges fall inside every length group,
    and at the default budget, both sweeps under closed-form controls give
    the reports of a one-slab run, counts and first failing word included,
    and an inadmissible formula pair raises the same NotAdmissibleError.
    (test_duality holds the length-2 cover to the same budgets.)"""
    item = max(cost for _, cost in reference.slab_costs(
        lambda: suites.duality_words(f4_g, suites._words(f4_g.ring, 1, None)), projline))
    budget = projline.SCAN_SLAB if per_slab is None else per_slab * item
    geometries = [f4_g, dual2_g] + ([m2f2_g, m2f3_g] if per_slab != 1 else [])

    def outcomes(geom, patches):
        m = _antiautomorphism(geom)
        sigma = antiiso_point_table(m, geom)
        words = suites._words(geom.ring, 10 ** 4, random.Random(SEED))
        out = []
        for patch in patches:
            with monkeypatch.context() as patched:
                for module, name, value in patch:
                    patched.setattr(module, name, value)
                try:
                    out.append((suites.duality_words(geom, words),
                                suites.sigma_words(geom, m, sigma, words)))
                except NotAdmissibleError as exc:
                    out.append(str(exc))
        return out

    patches = [[CONTROLS[c][1] for c in pair] for pair in CONTROL_PAIRS]
    patches.append([(suites, "length2_perp_formula", _swapped_rows)])
    for geom in geometries:
        monkeypatch.setattr(projline, "SCAN_SLAB", 1 << 40)
        want = outcomes(geom, patches)
        monkeypatch.setattr(projline, "SCAN_SLAB", budget)
        assert outcomes(geom, patches) == want, (geom.ring.name, per_slab)
        assert all(rep["word_formula_mismatches"] > 0 for pair in want[:2] for rep in pair)
        assert want[2].endswith(f"is not admissible over {geom.ring.name}")
