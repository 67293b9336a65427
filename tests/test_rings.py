import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from chaingeom.rings import (
    Matrix2Ring,
    NotAFieldError,
    NotAUnitError,
    NotProperError,
    RingMap,
    RingAxiomError,
    RingMapError,
    RingSpec,
    UnsupportedParameterError,
    build_ring,
    build_subfield,
    conjugate_subfield,
    make_ring_map,
    normality_witness,
    verify_axioms,
    verify_ring_map,
)

from chaingeom.cli import main
from chaingeom.isomorph import identity_map, transpose_map

import reference
from reference import GF, family_tables, ring_map_failure, table_mismatch, unit_closure_failure


def scan_units(ring):
    """Independent oracle: elements with a two-sided inverse, by full scan."""
    out = []
    for a in ring.elements():
        if any(ring.mul(a, b) == ring.one and ring.mul(b, a) == ring.one
               for b in ring.elements()):
            out.append(a)
    return out


def test_gf_tables():
    for q in (2, 3, 4, 5, 7, 8, 9):
        gf = GF(q)
        for a in range(1, q):
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.add(a, gf.neg(a)) == 0


def test_build_ring_examples(f4, dual2, m2f2):
    assert f4.size == 4 and len(f4.units) == 3
    assert dual2.size == 4
    # units of F2[e] are 1 and 1+e (indices 1 and 3), by invertibility scan
    assert set(dual2.units) == {1, 3}
    assert m2f2.size == 16 and len(m2f2.units) == 6  # |GL2(F2)| = 6


SUPPORTED_PRIMES = "only the primes 2, 3, 5 and 7 and their powers are supported"


def test_unsupported_parameters():
    with pytest.raises(UnsupportedParameterError):
        build_ring(RingSpec("finite-field", 6))
    with pytest.raises(UnsupportedParameterError):
        build_ring(RingSpec("matrix2", 4))
    with pytest.raises(UnsupportedParameterError):
        build_ring(RingSpec("nonsense", 2))
    for q in (0, 1, -4, 10):  # 0 used to loop forever
        with pytest.raises(UnsupportedParameterError, match=SUPPORTED_PRIMES):
            build_ring(RingSpec("finite-field", q))


@pytest.mark.parametrize("q", [11, 121])
def test_prime_powers_of_other_primes_are_named_unsupported(q, tmp_path, capsys):
    """11 and 121 are prime powers: a config over one exits 2 with an error
    that names the supported primes, not one that says q is no prime power."""
    with pytest.raises(UnsupportedParameterError, match=SUPPORTED_PRIMES):
        build_ring(RingSpec("dual-numbers", q))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "ring": {"family": "dual-numbers", "q": q},
                                "subfield": "prime", "tasks": [{"name": "enumerate-points"}]}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert SUPPORTED_PRIMES in capsys.readouterr().err


@pytest.mark.parametrize("family,q", [
    ("finite-field", 4), ("finite-field", 8), ("finite-field", 9),
    ("dual-numbers", 2), ("dual-numbers", 3),
    ("matrix2", 2), ("matrix2", 3),
    ("upper-triangular2", 2), ("upper-triangular2", 3),
    ("product", 2), ("product", 3),
])
def test_axioms_and_units_exhaustive(family, q):
    ring = build_ring(RingSpec(family, q))
    verify_axioms(ring)
    assert list(ring.units) == scan_units(ring)


def test_inverse(dual2):
    assert dual2.inv(dual2.one) == dual2.one
    # (1+e)^2 = 1, so 1+e is self-inverse
    assert dual2.inv(3) == 3
    # e is nilpotent, never a unit
    assert dual2.inv(2) is None


def test_subfield_prime(f4):
    K = build_subfield(f4, "prime")
    assert K.elements == (0, 1)


def test_subfield_singer_m2f2(m2f2):
    K = build_subfield(m2f2, "singer")
    # F4 = {0, I, C, I+C} with C the companion of x^2+x+1
    assert len(K) == 4
    assert K.elements == (0, 7, 9, 14)


def test_subfield_not_proper(f4):
    with pytest.raises(NotProperError):
        build_subfield(f4, "scalar")  # the whole of F4
    f2 = build_ring(RingSpec("finite-field", 2))
    with pytest.raises(NotProperError):
        build_subfield(f2, "prime")


def test_subfield_rejects_non_field(dual2):
    from chaingeom.rings import verify_subfield
    with pytest.raises(NotAFieldError):
        verify_subfield(dual2, frozenset({0, 1, 2}))  # contains the nilpotent e


def test_conjugate_subfield(f4, f4_k, m2f2, m2f2_k):
    assert conjugate_subfield(f4_k, 1).elements == f4_k.elements
    for u in f4.units:  # commutative: conjugation trivial
        assert conjugate_subfield(f4_k, u).elements == f4_k.elements
    # transvection [[1,1],[0,1]] has index 11; K* is normal in GL2(F2) = S3
    assert conjugate_subfield(m2f2_k, 11).elements == m2f2_k.elements
    with pytest.raises(NotAUnitError):
        conjugate_subfield(f4_k, 0)


def test_conjugates_all_verify(zoo):
    for ring, K in zoo:
        for u in ring.units:
            conjugate_subfield(K, u)  # raises if any fails field verification


def test_conjugate_table_matches_conjugate_subfield(zoo_and_opposites_g):
    """Row i of K.conjugates is conjugate_subfield(K, units[i]), and the
    normality witness read off the table is the scalar loop's, on every zoo
    ring and its opposite."""
    for R, K in ((g.ring, g.subfield) for g in zoo_and_opposites_g):
        assert K.conjugates.tolist() == [list(conjugate_subfield(K, u).elements)
                                         for u in R.units], R.name
        assert normality_witness(K) == reference.normality_witness(K), R.name


def test_normality(f4, f4_k, m2f2, m2f2_k, m2f3, m2f3_k):
    assert normality_witness(f4_k) is None
    assert normality_witness(m2f2_k) is None      # order-3 subgroup of S3
    assert normality_witness(m2f3_k) is not None  # Singer F9* in GL2(F3)
    u = normality_witness(m2f3_k)
    assert u is not None
    uinv = m2f3.inv(u)
    conj = {m2f3.mul(m2f3.mul(uinv, k), u) for k in m2f3_k.nonzero}
    assert conj != set(m2f3_k.nonzero)


def test_opposite_commutative_identical(f4):
    op = f4.opposite
    for a in f4.elements():
        for b in f4.elements():
            assert op.mul(a, b) == f4.mul(a, b)
            assert op.add(a, b) == f4.add(a, b)


def test_opposite_involution(m2f3):
    op = m2f3.opposite
    back = op.opposite
    assert back is m2f3
    for a in (0, 1, 28, 55):
        for b in (0, 2, 28, 80):
            assert op.mul(a, b) == m2f3.mul(b, a)


def test_opposite_matrix2_transpose_iso(m2f2):
    # transpose read as a map R^op -> R is an isomorphism
    op = m2f2.opposite

    transpose = m2f2.permuted_digits((0, 2, 1, 3))  # (a, b, c, d) -> (a, c, b, d)
    make_ring_map(op, m2f2, transpose.__getitem__, "isomorphism")


def test_upper_triangular_flip_antiiso():
    ring = build_ring(RingSpec("upper-triangular2", 2))

    flip = ring.permuted_digits((2, 1, 0)).__getitem__  # (a, b, d) -> (d, b, a)
    m = make_ring_map(ring, ring, flip, "antiisomorphism")
    # read as a map R^op -> R it verifies as an isomorphism
    make_ring_map(ring.opposite, ring, flip, "isomorphism")
    assert m.table[ring.one] == ring.one


def test_antiiso_reads_as_opposite_iso(m2f2):
    transpose = m2f2.permuted_digits((0, 2, 1, 3))
    m = make_ring_map(m2f2, m2f2, transpose.__getitem__, "antiisomorphism")
    as_iso = RingMap(m2f2.opposite, m2f2, m.table, "isomorphism")
    verify_ring_map(as_iso)


def test_ring_map_rejects_corrupted(f4, dual2):
    # swapping the generators of F4 is the Frobenius, a genuine automorphism
    table = list(range(4))
    table[2], table[3] = table[3], table[2]
    verify_ring_map(RingMap(f4, f4, tuple(table), "isomorphism"))
    # on F2[e] the same swap sends the nilpotent e to the unit 1+e
    bad = RingMap(dual2, dual2, tuple(table), "isomorphism")
    with pytest.raises(RingMapError):
        verify_ring_map(bad)


@pytest.mark.parametrize("family,q", [("finite-field", 8), ("dual-numbers", 3),
                                      ("upper-triangular2", 2), ("matrix2", 2), ("matrix2", 3)])
def test_ring_map_names_the_first_failing_pair(family, q):
    """The table comparison of verify_ring_map raises where the pair loop
    finds a broken law, with the loop's first witness; swaps of two
    entries of a verified map give the failures."""
    R = build_ring(RingSpec(family, q))
    ok = transpose_map(R) if family == "matrix2" else identity_map(R)
    rng = random.Random(q)
    fails = 0
    for _ in range(20):
        table = list(ok.table)
        i, j = rng.sample([x for x in R.elements() if x != R.one], 2)
        table[i], table[j] = table[j], table[i]
        m = RingMap(R, R, tuple(table), ok.kind)
        want = ring_map_failure(m)
        if want is None:
            verify_ring_map(m)
        else:
            fails += 1
            with pytest.raises(RingMapError) as info:
                verify_ring_map(m)
            assert str(info.value) == want
    assert fails > 0


def test_generating_sets(m2f3):
    gens = m2f3.unit_generators
    assert len(gens) <= 4
    span = {m2f3.one}
    frontier = [m2f3.one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = m2f3.mul(x, g)
            if y not in span:
                span.add(y)
                frontier.append(y)
    assert len(span) == len(m2f3.units)
    agens = m2f3.additive_generators
    assert len(agens) <= 4


def test_elem_str(f4, dual2, m2f2, prod22):
    assert f4.elem_str(3) == "1+g"
    assert dual2.elem_str(3) == "1+e"
    assert m2f2.elem_str(9) == "[[1,0],[0,1]]"
    assert prod22.elem_str(3) == "(1,1)"


def test_opposite_table_is_transpose(m2f2, m2f3):
    for R in (m2f2, m2f3):
        op = R.opposite
        for a in R.elements():
            assert list(op.left_products(a)) == R._mul_a[:, a].tolist()
            assert op._mul_a[:, a].tolist() == list(R.left_products(a))
            for b in R.elements():
                assert op.mul(a, b) == R.mul(b, a)
    op = m2f2.opposite
    for a in m2f2.elements():
        for b in m2f2.elements():
            assert op.canonical_pair_left(a, b) == m2f2.canonical_pair_right(a, b)
            assert op.canonical_pair_right(a, b) == m2f2.canonical_pair_left(a, b)


def least_unit_multiples(R, a, b):
    """Reference: the least left and right unit multiples of (a, b), by scan."""
    left = min((R.mul(u, a), R.mul(u, b)) for u in R.units)
    right = min((R.mul(a, u), R.mul(b, u)) for u in R.units)
    return left, right


def test_canonical_pairs_match_brute_force_small(small_rings):
    for R in small_rings:
        for a in R.elements():
            for b in R.elements():
                assert (R.canonical_pair_left(a, b), R.canonical_pair_right(a, b)) \
                    == least_unit_multiples(R, a, b), (R.name, a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 80), st.integers(0, 80), st.booleans())
def test_canonical_pairs_match_brute_force_m2f3(m2f3, a, b, opposite):
    R = m2f3.opposite if opposite else m2f3
    assert (R.canonical_pair_left(a, b), R.canonical_pair_right(a, b)) \
        == least_unit_multiples(R, a, b)


FAMILY_SPECS = ([("finite-field", q) for q in (2, 3, 4, 5, 7, 8, 9)]
                + [("dual-numbers", 2), ("dual-numbers", 3), ("dual-numbers", 4),
                   ("product", 2), ("product", 3), ("matrix2", 2), ("matrix2", 3),
                   ("upper-triangular2", 2), ("upper-triangular2", 3)])


@pytest.mark.parametrize("family,q", FAMILY_SPECS)
def test_digit_tables_match_digitwise_formula(family, q):
    """The vectorized add, mul and neg tables equal the per-element digit
    formulas, and the opposite ring's equal them with mul transposed."""
    R = build_ring(RingSpec(family, q))
    add, mul, neg = family_tables(R.spec)
    assert table_mismatch(R, add, mul, neg) is None
    assert table_mismatch(R.opposite, add, [list(c) for c in zip(*mul)], neg) is None
    verify_axioms(R)


def test_digit_formula_check_catches_a_transposed_mul_table():
    """matrix2(2) given its transposed mul table is a ring (its opposite),
    so verify_axioms passes; only the digit formulas tell it apart."""
    R = Matrix2Ring(RingSpec("matrix2", 2))
    R._mul_a = R._mul_a.T.copy()
    R._fill_arrays()
    verify_axioms(R)
    assert table_mismatch(R, *family_tables(R.spec)) == "mul"


def test_unit_closure_check_names_the_loop_witness():
    """The unit-closure check of verify_axioms is one membership test over
    the products of units.  On unit sets that break it (a unit left out, an
    order-3 unit without its inverse, two involutions without their
    product, a non-unit let in) it names the witness the scalar loop finds
    first, and it passes on the true units."""
    R = Matrix2Ring(RingSpec("matrix2", 2))  # fresh, not the cached instance
    units = R.units
    involutions = [u for u in units if u != R.one and R.mul(u, u) == R.one]
    order3 = [u for u in units if R.mul(u, u) != R.one]
    cases = [units] + [tuple(u for u in units if u != w) for w in units if w != R.one]
    cases += [(R.one, order3[0]), (R.one, *involutions[:2]), tuple(sorted(units + (0,)))]
    kinds = set()
    for case in cases:
        R.units, R.unit_set = case, frozenset(case)
        want = unit_closure_failure(R)
        if want is None:
            verify_axioms(R)
            continue
        kinds.add(want.split()[0])
        with pytest.raises(RingAxiomError, match=re.escape(want)):
            verify_axioms(R)
    assert kinds == {"inverse", "units"}


@pytest.mark.parametrize("family,q", [("finite-field", 4), ("matrix2", 2), ("matrix2", 3)])
def test_shared_tables_are_read_only(family, q):
    R = build_ring(RingSpec(family, q))
    for S in (R, R.opposite):
        for table in (S._add_a, S._mul_a, S._neg_a, S._left_key, S._right_key, S._rows_ok):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
    assert R.mul(0, 0) == 0


CORRUPT_F4 = """
import sys
from chaingeom.rings import FiniteFieldRing, RingAxiomError, RingSpec, verify_axioms
assert not __debug__, "expected to run under python -O"
R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
verify_axioms(R)
mul = R._mul_a.copy(); mul[2, 3] = 0
R._mul_a = mul; R._fill_arrays()
try:
    verify_axioms(R)
except RingAxiomError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.optimized(CORRUPT_F4)
def test_verify_axioms_raises_under_optimize(run_optimized):
    """verify_axioms must not depend on assert, which python -O strips."""
    proc = run_optimized(CORRUPT_F4)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the message names the broken axiom and its first witness (a, b, c)
    assert re.match(r"associativity of multiplication fails at \(\d+, \d+, \d+\)",
                    proc.stdout)
