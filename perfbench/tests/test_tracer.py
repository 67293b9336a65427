"""The tracer must change no result and must see calls made through
names imported into other modules."""

from chaingeom import duality, projline, suites
from chaingeom.rings import Matrix2Ring, RingSpec, build_ring

from tracer import Tracer


def _ring():
    return build_ring(RingSpec("matrix2", 2))


def test_wrapped_functions_return_the_original_values():
    R = _ring()
    points = projline.enumerate_points(R)
    want_perp = [duality.perp_point(R, p) for p in points]
    want_word = projline.word_point(R, (3, 5, 7))
    want_mul = R.mul(5, 9)
    original = projline.word_point
    tracer = Tracer()
    tracer.install()
    try:
        assert projline.word_point is not original
        assert [duality.perp_point(R, p) for p in points] == want_perp
        assert projline.word_point(R, (3, 5, 7)) == want_word
        assert R.mul(5, 9) == want_mul
    finally:
        tracer.uninstall()
    assert projline.word_point is original
    assert not hasattr(Matrix2Ring.mul, "__wrapped__")
    summary = tracer.summary()
    assert summary["duality.perp_point"]["calls"] == len(points)
    assert summary["duality.perp_point"]["distinct"] == len(points)
    assert summary["projline.word_point"]["calls"] == 1
    assert summary["rings.mul"]["calls"] >= 1


def test_imported_names_and_ring_methods_are_traced():
    R = _ring()
    point = projline.enumerate_points(R)[1]
    tracer = Tracer()
    tracer.install()
    try:
        assert suites.word_point is projline.word_point
        assert hasattr(type(R).left_products, "__wrapped__")
        duality.perp_point(R, point)
    finally:
        tracer.uninstall()
    assert suites.word_point is projline.word_point
    assert not hasattr(type(R).left_products, "__wrapped__")
    names = tracer.names
    spans = list(zip(tracer.span_name, tracer.span_parent))
    perp = names.index("duality.perp_point")
    scan = names.index("duality.annihilator_pairs")
    (perp_idx,) = [i for i, (nid, _) in enumerate(spans) if nid == perp]
    assert spans[perp_idx][1] == -1
    assert any(nid == scan and parent == perp_idx for nid, parent in spans)
    for i in range(len(spans)):
        assert tracer.span_start[i] <= tracer.span_end[i]
    summary = tracer.summary()
    assert summary["rings.products"]["calls"] >= 2
    # self time excludes the children, so it never exceeds the span
    assert 0 <= summary["duality.perp_point"]["self_s"] <= (
        tracer.span_end[perp_idx] - tracer.span_start[perp_idx])
