"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen fixtures: the counts were produced by
the enumeration oracles at first build (point counts also agree with the
line counts of PG(3,q) for the matrix rings).
"""

import time
from contextlib import contextmanager

import numpy as np

from chaingeom.rings import normality_witness
from chaingeom.projline import line_generators
from chaingeom.duality import perp_point
from chaingeom.compat import missing_directions
from chaingeom import suites

from reference import covariance_holds, validate_partial_affine


@contextmanager
def criterion(n, desc):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {n}: FAIL ({desc})")
        raise
    print(f"\n[acceptance] criterion {n}: PASS ({desc}) "
          f"[{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_canonical_isomorphism(small_zoo_g):
    with criterion(1, "canonical isomorphism bijective on points and chains"):
        for g in small_zoo_g:
            R = g.ring
            t0 = time.perf_counter()
            pts = g.points
            duals = g.dual.points
            image = [perp_point(R, p) for p in pts]
            assert len(set(image)) == len(pts)
            assert set(image) == set(duals)
            # a fresh oracle scan per point, as dual-point indices
            perp = np.array([duals.index(q) for q in image])
            chains = g.chains
            dchains = g.dual.chains
            chain_image = {tuple(r) for r in np.sort(perp[chains], axis=1).tolist()}
            assert chain_image == {tuple(r) for r in dchains.tolist()}
            assert len(chain_image) == len(chains)
            assert time.perf_counter() - t0 < 10.0, f"{R.name} exceeded 10 s"


def test_criterion_2_formula_vs_oracle(zoo_g):
    with criterion(2, "image formulas agree with the annihilator oracle"):
        t0 = time.perf_counter()
        expected_checks = {}
        for g in zoo_g:
            R = g.ring
            if R.size <= 16:
                rep = suites.duality_suite(g)
                expected_checks[R.name] = R.size + R.size ** 2 + R.size ** 3
            else:
                rep = suites.duality_suite(g, samples=10 ** 4, seed=1)
                expected_checks[R.name] = 10 ** 4
            assert rep["word_formula_checks"] == expected_checks[R.name]
            assert rep["word_formula_mismatches"] == 0
            assert rep["far_point_image"]
        assert time.perf_counter() - t0 < 120.0, "criterion 2 exceeded 2 min"


def test_criterion_3_covariance(small_zoo):
    with criterion(3, "annihilator covariance over generators x singletons"):
        t0 = time.perf_counter()
        for R, _ in small_zoo:
            for M in line_generators(R):
                for a in R.elements():
                    for b in R.elements():
                        assert covariance_holds(R, [(a, b)], M)
        assert time.perf_counter() - t0 < 30.0, "criterion 3 exceeded 30 s"


def test_criterion_4_residue_comparison(zoo_g):
    with criterion(4, "residue equals its dual; partitions split on normality"):
        for g in zoo_g:
            R = g.ring
            t0 = time.perf_counter()
            rep = suites.vergleich_report(g)
            assert rep["points_fixed"], R.name
            assert rep["blocks_equal"], R.name
            if R.name == "matrix2(3)":
                assert not rep["units_normal"] and not rep["partitions_equal"]
                assert "normality_witness" in rep
                assert time.perf_counter() - t0 < 300.0, "matrix2(3) exceeded 5 min"
            else:
                assert rep["units_normal"] and rep["partitions_equal"]


def test_criterion_5_partial_affine(zoo_g, f4_g, dual2_g):
    with criterion(5, "compatibility classes are partial affine spaces"):
        res = dual2_g.residue
        cls = dual2_g.compat_classes[0]
        assert validate_partial_affine(res, cls)
        assert missing_directions(res, cls) >= 1
        res = f4_g.residue
        cls = f4_g.compat_classes[0]
        assert validate_partial_affine(res, cls)
        assert len(cls.blocks) == 6 and missing_directions(res, cls) == 0
        for g in zoo_g:
            rep = suites.partial_affine_report(g)
            assert rep["exactly_one_block_per_class"], g.ring.name
            assert rep["ok"], g.ring.name


def test_criterion_6_derivation_analogue(m2f2_g, m2f3_g):
    with criterion(6, "regulus replacement yields the expected planes"):
        t0 = time.perf_counter()
        rep3 = suites.derive_plane_report(m2f3_g)
        assert (rep3["points"], rep3["lines"], rep3["line_size"]) == (81, 90, 9)
        assert rep3["two_point_axiom"] and rep3["playfair"]
        assert rep3["desargues"] is False
        assert rep3["desargues_witness"] is not None
        assert time.perf_counter() - t0 < 300.0, "q=3 derivation exceeded 5 min"
        rep2 = suites.derive_plane_report(m2f2_g)
        assert rep2["desargues"] is True
        assert rep2["desargues_method"] == "exhaustive"
        control = suites.derive_plane_report(m2f3_g, skip_replacement=True)
        assert control["desargues"] is True


def test_criterion_7_antiisomorphism_suite(f4, f4_k, f4_g, m2f2_g, m2f3_g):
    with criterion(7, "antiisomorphism-induced isomorphism and its formulas"):
        t0 = time.perf_counter()
        rep = suites.sigma_suite(m2f2_g)
        assert rep["map"] == "transpose"
        assert rep["word_formula_mismatches"] == 0
        assert rep["word_formula_checks"] == 16 + 16 ** 2 + 16 ** 3
        assert rep["chains_ok"] and rep["far_point_fixed"]
        assert rep["compatibility_preserved"] and rep["units_normal"]
        rep3 = suites.sigma_suite(m2f3_g, samples=10 ** 4, seed=2)
        assert rep3["word_formula_checks"] == 10 ** 4
        assert rep3["word_formula_mismatches"] == 0
        assert rep3["chains_ok"]
        assert not rep3["compatibility_preserved"] and not rep3["units_normal"]
        assert rep3["criterion_consistent"]
        repf = suites.sigma_suite(f4_g)
        assert repf["word_formula_mismatches"] == 0
        assert repf["compatibility_preserved"] == (normality_witness(f4_k) is None)
        assert time.perf_counter() - t0 < 300.0, "criterion 7 exceeded 5 min"


def test_criterion_8_graph_fixtures(zoo_g, f4_g, dual2_g, m2f2_g):
    with criterion(8, "frozen enumeration fixtures"):
        assert len(f4_g.points) == 5
        assert len(f4_g.chains) == 10
        g = dual2_g.graph
        assert len(g.points) == 6 and g.diameter == 2 and g.n_components == 1
        assert g.n_edges == 12 and g.adj.sum(axis=1).tolist() == [4] * 6  # octahedron
        g = m2f2_g.graph
        assert len(g.points) == 35 and g.n_components == 1 and g.diameter == 2
        for geom in zoo_g:
            geom.graph  # builder asserts all components share one diameter
