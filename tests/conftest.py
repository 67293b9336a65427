import pytest

from chaingeom.rings import RingSpec, build_ring, build_subfield


@pytest.fixture(scope="session")
def f4():
    return build_ring(RingSpec("finite-field", 4))


@pytest.fixture(scope="session")
def f4_k(f4):
    return build_subfield(f4, "prime")


@pytest.fixture(scope="session")
def dual2():
    return build_ring(RingSpec("dual-numbers", 2))


@pytest.fixture(scope="session")
def dual2_k(dual2):
    return build_subfield(dual2, "scalar")


@pytest.fixture(scope="session")
def prod22():
    return build_ring(RingSpec("product", 2))


@pytest.fixture(scope="session")
def prod22_k(prod22):
    return build_subfield(prod22, "diagonal")


@pytest.fixture(scope="session")
def m2f2():
    return build_ring(RingSpec("matrix2", 2))


@pytest.fixture(scope="session")
def m2f2_k(m2f2):
    return build_subfield(m2f2, "singer")


@pytest.fixture(scope="session")
def m2f3():
    return build_ring(RingSpec("matrix2", 3))


@pytest.fixture(scope="session")
def m2f3_k(m2f3):
    return build_subfield(m2f3, "singer")


@pytest.fixture(scope="session")
def zoo(f4, f4_k, dual2, dual2_k, prod22, prod22_k, m2f2, m2f2_k, m2f3, m2f3_k):
    """The five (ring, subfield) scenarios every acceptance check runs over."""
    return [(f4, f4_k), (dual2, dual2_k), (prod22, prod22_k),
            (m2f2, m2f2_k), (m2f3, m2f3_k)]


@pytest.fixture(scope="session")
def small_zoo(zoo):
    """Zoo rings with |R| <= 16 (everything but matrix2(3))."""
    return [(r, k) for r, k in zoo if r.size <= 16]


SMALL_SPECS = ([("finite-field", q) for q in (2, 3, 4, 5, 7, 8, 9)]
               + [("dual-numbers", 2), ("dual-numbers", 3), ("product", 2),
                  ("product", 3), ("upper-triangular2", 2), ("matrix2", 2)])


@pytest.fixture(scope="session")
def small_rings():
    """Every supported ring with at most 16 elements, plus the opposites of
    the two noncommutative ones."""
    rings = [build_ring(RingSpec(family, q)) for family, q in SMALL_SPECS]
    return rings + [build_ring(RingSpec("upper-triangular2", 2)).opposite(),
                    build_ring(RingSpec("matrix2", 2)).opposite()]
