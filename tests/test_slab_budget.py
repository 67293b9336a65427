"""The one slab budget holds: every batch kernel prices an item by the bytes
its slab holds at its peak, numpy's temporaries included, so that raising
SCAN_SLAB from B to 2B raises the traced peak of one call by at most B,
plus one item (an item that alone costs more than B has a slab of its
own)."""

import tracemalloc

import numpy as np
import pytest

from chaingeom import compat, duality, projline
from chaingeom.compat import _desargues_scan
from chaingeom.duality import _kernel_triples, bidual_keys, covariance_failures, perp_keys
from chaingeom.projline import distant_graph, line_generators, solution_slabs

BUDGETS = (1 << 16, 1 << 18)


def every_nth_pair(R, step):
    """(gens, which, keys) of every step-th (generator, row) pair, in the
    order of the exhaustive sweep; a step prime to |R|^2 meets every
    generator and every row."""
    gens = line_generators(R)
    which, keys = np.divmod(np.arange(0, len(gens) * R.size ** 2, step), R.size ** 2)
    return gens, which, keys


def drain(slabs):
    for _ in slabs:
        pass


def kernels(g, plane, order):
    """Each slabbed kernel of the package as one call on the inputs of g:
    the solution-set driver as masks and as keys, both generator scans,
    the distant graph's solve, the kernel classes and the covariance check
    (every 389th pair of matrix2(3), every pair of matrix2(2)), and the
    Desargues scan of the plane derive_plane scans."""
    R = g.ring
    pairs = every_nth_pair(R, 389 if R.size > 16 else 1)
    admissible = np.flatnonzero(R._rows_ok.ravel())
    return {
        "solution_slabs": lambda: drain(solution_slabs(R, np.arange(R.size ** 2))),
        "solution_keys": lambda: drain(solution_slabs(R, admissible, as_keys=True)),
        "perp_keys": lambda: perp_keys(R, g.keys),
        "bidual_keys": lambda: bidual_keys(R, g.dual.keys),
        "mat_inverses": lambda: distant_graph(R, g.points),
        "kernel_triples": lambda: _kernel_triples(R, *pairs),
        "covariance": lambda: covariance_failures(R, *pairs),
        "desargues": lambda: _desargues_scan(*plane, order == 9, 10 ** 7),
    }


def traced_peak(call) -> int:
    """The traced peak of one call over the memory traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["solution_slabs", "solution_keys", "perp_keys",
                                    "bidual_keys", "mat_inverses", "kernel_triples",
                                    "covariance", "desargues"])
@pytest.mark.parametrize("name, order", [("m2f2", 4), ("m2f3", 9)])
def test_slab_budget_holds(request, completed_planes, monkeypatch, name, order, kernel):
    call = kernels(request.getfixturevalue(f"{name}_g"), completed_planes[order],
                   order)[kernel]
    item = []
    real = projline.slabs

    def priced(costs):
        item.append(int(np.max(costs, initial=0)))
        return real(costs)

    for module in (projline, duality, compat):
        monkeypatch.setattr(module, "slabs", priced)
    call()  # first use builds what the Geometry caches
    for budget in BUDGETS:
        monkeypatch.setattr(projline, "SCAN_SLAB", budget)
        low = traced_peak(call)
        monkeypatch.setattr(projline, "SCAN_SLAB", 2 * budget)
        item.clear()
        high = traced_peak(call)
        assert high - low <= budget + max(item), (kernel, budget, high - low)
