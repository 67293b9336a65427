import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaingeom
from chaingeom import compat
from chaingeom.geometry import Geometry
from chaingeom.rings import RingSpec, build_ring, build_subfield, subfield_in_opposite


def _python_runner(*flags):
    """Runs Python source in a fresh python subprocess with flags, importing
    this checkout's chaingeom; returns the CompletedProcess."""
    src = str(Path(chaingeom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(code: str, stdin: str = "") -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *flags, "-c", code], env=env, input=stdin,
                              capture_output=True, text=True, timeout=120)
    return run


# Runs each script of the JSON list on stdin in a namespace of its own,
# with its own captured output and exit status, and prints the list of
# [status, stdout, stderr] outcomes as JSON.
_SCRIPT_BATCH = r"""
import contextlib, io, json, sys, traceback
def status(code):
    if code is None or isinstance(code, int):
        return code or 0
    print(code, file=sys.stderr)
    return 1
outcomes = []
for script in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            exec(compile(script, "<script>", "exec"), {"__name__": "__main__"})
            code = 0
        except SystemExit as exc:
            code = status(exc.code)
        except Exception:
            traceback.print_exc()
            code = 1
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump(outcomes, sys.stdout)
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "optimized(script): run_optimized runs the script in its one batch")


@pytest.fixture(scope="session")
def run_optimized(request):
    """Runs Python source under python -O (see _python_runner).  The
    scripts of every collected test marked optimized(script) run up front
    in one python -O subprocess, each on its own (see _SCRIPT_BATCH).
    Returns a CompletedProcess per script; a script no collected test
    marks raises KeyError."""
    run = _python_runner("-O")
    scripts = list(dict.fromkeys(mark.args[0] for item in request.session.items
                                 for mark in item.iter_markers("optimized")))
    batch = run(_SCRIPT_BATCH, json.dumps(scripts))
    if batch.returncode != 0:
        raise RuntimeError(f"the python -O script batch failed:\n{batch.stderr}")
    done = {script: subprocess.CompletedProcess(batch.args, *outcome)
            for script, outcome in zip(scripts, json.loads(batch.stdout))}
    return done.__getitem__


@pytest.fixture(scope="session")
def run_fresh():
    """Runs Python source in a fresh interpreter (see _python_runner)."""
    return _python_runner()


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


# One Geometry per zoo scenario, shared by the whole session the way one
# run shares it between its tasks.

@pytest.fixture(scope="session")
def f4_g(f4, f4_k):
    return Geometry(f4, f4_k)


@pytest.fixture(scope="session")
def dual2_g(dual2, dual2_k):
    return Geometry(dual2, dual2_k)


@pytest.fixture(scope="session")
def prod22_g(prod22, prod22_k):
    return Geometry(prod22, prod22_k)


@pytest.fixture(scope="session")
def m2f2_g(m2f2, m2f2_k):
    return Geometry(m2f2, m2f2_k)


@pytest.fixture(scope="session")
def m2f3_g(m2f3, m2f3_k):
    return Geometry(m2f3, m2f3_k)


@pytest.fixture(scope="session")
def zoo_g(f4_g, dual2_g, prod22_g, m2f2_g, m2f3_g):
    """The Geometries of the five zoo scenarios, in zoo order."""
    return [f4_g, dual2_g, prod22_g, m2f2_g, m2f3_g]


@pytest.fixture(scope="session")
def zoo_and_opposites_g(zoo_g):
    """The zoo Geometries, then those over the opposites of the five rings."""
    return zoo_g + [Geometry(g.ring.opposite, subfield_in_opposite(g.subfield))
                    for g in zoo_g]


@pytest.fixture(scope="session")
def small_zoo_g(zoo_g):
    """Zoo Geometries over rings with |R| <= 16."""
    return [g for g in zoo_g if g.ring.size <= 16]


@pytest.fixture(scope="session")
def completed_planes(m2f2_g, m2f3_g):
    """{order: (points, lines)} of the projective completions derive_plane
    scans: AG(2, 4) from matrix2(2) and the Hall plane from matrix2(3)."""
    planes = {}
    real = compat._desargues_scan

    def spy(points, lines, find_failure, cap):
        planes[round((len(points) - 1) ** 0.5)] = (points, lines)
        return real(points, lines, find_failure, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compat, "_desargues_scan", spy)
        compat.derive_plane(m2f2_g)
        compat.derive_plane(m2f3_g)
    return planes


SMALL_SPECS = ([("finite-field", q) for q in (2, 3, 4, 5, 7, 8, 9)]
               + [("dual-numbers", 2), ("dual-numbers", 3), ("product", 2),
                  ("product", 3), ("upper-triangular2", 2), ("matrix2", 2)])


@pytest.fixture(scope="session")
def small_rings():
    """Every supported ring with at most 16 elements, plus the opposites of
    the two noncommutative ones."""
    rings = [build_ring(RingSpec(family, q)) for family, q in SMALL_SPECS]
    return rings + [build_ring(RingSpec("upper-triangular2", 2)).opposite,
                    build_ring(RingSpec("matrix2", 2)).opposite]
