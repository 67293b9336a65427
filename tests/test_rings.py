import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chaingeom
from chaingeom.rings import (
    GF,
    NotAFieldError,
    NotAUnitError,
    NotProperError,
    RingMap,
    RingAxiomError,
    RingMapError,
    RingSpec,
    UnsupportedParameterError,
    additive_generators,
    build_ring,
    build_subfield,
    conjugate_subfield,
    is_normal_subgroup,
    make_ring_map,
    normality_witness,
    subfield_in_opposite,
    unit_generators,
    verify_axioms,
    verify_ring_map,
)


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


def test_unsupported_parameters():
    with pytest.raises(UnsupportedParameterError):
        build_ring(RingSpec("finite-field", 6))
    with pytest.raises(UnsupportedParameterError):
        build_ring(RingSpec("matrix2", 4))
    with pytest.raises(UnsupportedParameterError):
        build_ring(RingSpec("nonsense", 2))


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


def test_normality(f4, f4_k, m2f2, m2f2_k, m2f3, m2f3_k):
    assert is_normal_subgroup(f4_k, f4)
    assert is_normal_subgroup(m2f2_k, m2f2)      # order-3 subgroup of S3
    assert not is_normal_subgroup(m2f3_k, m2f3)  # Singer F9* in GL2(F3)
    u = normality_witness(m2f3_k)
    assert u is not None
    uinv = m2f3.inv(u)
    conj = {m2f3.mul(m2f3.mul(uinv, k), u) for k in m2f3_k.nonzero}
    assert conj != set(m2f3_k.nonzero)


def test_opposite_commutative_identical(f4):
    op = f4.opposite()
    for a in f4.elements():
        for b in f4.elements():
            assert op.mul(a, b) == f4.mul(a, b)
            assert op.add(a, b) == f4.add(a, b)


def test_opposite_involution(m2f3):
    op = m2f3.opposite()
    back = op.opposite()
    assert back is m2f3
    for a in (0, 1, 28, 55):
        for b in (0, 2, 28, 80):
            assert op.mul(a, b) == m2f3.mul(b, a)


def test_opposite_matrix2_transpose_iso(m2f2):
    # transpose read as a map R^op -> R is an isomorphism
    op = m2f2.opposite()

    def transpose(x):
        a, b, c, d = m2f2._tuples[x]
        return m2f2._encode((a, c, b, d))

    make_ring_map(op, m2f2, transpose, "isomorphism")


def test_upper_triangular_flip_antiiso():
    ring = build_ring(RingSpec("upper-triangular2", 2))

    def flip(x):
        a, b, d = ring._tuples[x]
        return ring._encode((d, b, a))

    m = make_ring_map(ring, ring, flip, "antiisomorphism")
    # read as a map R^op -> R it verifies as an isomorphism
    make_ring_map(ring.opposite(), ring, flip, "isomorphism")
    assert m.table[ring.one] == ring.one


def test_antiiso_reads_as_opposite_iso(m2f2):
    def transpose(x):
        a, b, c, d = m2f2._tuples[x]
        return m2f2._encode((a, c, b, d))

    m = make_ring_map(m2f2, m2f2, transpose, "antiisomorphism")
    as_iso = RingMap(m2f2.opposite(), m2f2, m.table, "isomorphism")
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


def test_generating_sets(m2f3):
    gens = unit_generators(m2f3)
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
    agens = additive_generators(m2f3)
    assert len(agens) <= 4


def test_elem_str(f4, dual2, m2f2, prod22):
    assert f4.elem_str(3) == "1+g"
    assert dual2.elem_str(3) == "1+e"
    assert m2f2.elem_str(9) == "[[1,0],[0,1]]"
    assert prod22.elem_str(3) == "(1,1)"


def test_opposite_table_is_transpose(m2f2, m2f3):
    for R in (m2f2, m2f3):
        op = R.opposite()
        for a in R.elements():
            assert op.left_products(a) == R.right_products(a)
            assert op.right_products(a) == R.left_products(a)
            for b in R.elements():
                assert op.mul(a, b) == R.mul(b, a)
    op = m2f2.opposite()
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
    R = m2f3.opposite() if opposite else m2f3
    assert (R.canonical_pair_left(a, b), R.canonical_pair_right(a, b)) \
        == least_unit_multiples(R, a, b)


DIGIT_SPECS = [("dual-numbers", 2), ("dual-numbers", 3), ("dual-numbers", 4),
               ("product", 2), ("product", 3), ("matrix2", 2), ("matrix2", 3),
               ("upper-triangular2", 2), ("upper-triangular2", 3)]


@pytest.mark.parametrize("family,q", DIGIT_SPECS)
def test_digit_tables_match_digitwise_formula(family, q):
    # the unrolled place-value fill equals encoding the digitwise field sums
    R = build_ring(RingSpec(family, q))
    digits = []
    for i in R.elements():
        ds = []
        for _ in range(R.ndigits):
            i, d = divmod(i, q)
            ds.append(d)
        digits.append(tuple(ds))
    assert R._tuples == digits
    add, neg = R.gf.add_t, R.gf.neg_t
    assert R._add_t == tuple(
        tuple(R._encode([add[x][y] for x, y in zip(digits[a], digits[b])])
              for b in R.elements())
        for a in R.elements())
    assert R._neg_t == tuple(R._encode([neg[x] for x in digits[a]]) for a in R.elements())
    verify_axioms(R)


CORRUPT_F4 = """
import sys
from chaingeom.rings import FiniteFieldRing, RingAxiomError, RingSpec, verify_axioms
assert not __debug__, "expected to run under python -O"
R = FiniteFieldRing(RingSpec("finite-field", 4))  # fresh, not the cached instance
verify_axioms(R)
rows = [list(row) for row in R._mul_t]
rows[2][3] = 0
R._mul_t = tuple(map(tuple, rows))
try:
    verify_axioms(R)
except RingAxiomError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_verify_axioms_raises_under_optimize():
    """verify_axioms must not depend on assert, which python -O strips."""
    src = str(Path(chaingeom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_F4], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the message names the broken axiom and its first witness (a, b, c)
    assert re.match(r"associativity of multiplication fails at \(\d+, \d+, \d+\)",
                    proc.stdout)
