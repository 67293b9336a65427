"""Chain geometries over small finite rings, verified by exhaustion."""

from chaingeom.rings import (
    RingSpec,
    Ring,
    Subfield,
    RingMap,
    build_ring,
    build_subfield,
    conjugate_subfield,
    is_normal_subgroup,
    make_ring_map,
)
from chaingeom.projline import (
    distant,
    distant_graph,
    enumerate_points,
    infinity,
    make_point,
    point_words,
    word_point,
)
from chaingeom.chains import residue_at, standard_chain
from chaingeom.duality import (
    enumerate_dual_points,
    perp_chain,
    perp_point,
    word_dual_point,
)
from chaingeom.compat import (
    delta_orbits,
    derive_plane,
    dual_compat_classes,
    validate_partial_affine,
)
from chaingeom.geometry import Geometry
from chaingeom.isomorph import (
    antiiso_point_table,
    antiiso_word_point,
    iso_point_map,
    transpose_map,
)
from chaingeom.zoo import ZOO, zoo_scenarios

__all__ = [
    "RingSpec", "Ring", "Subfield", "RingMap",
    "build_ring", "build_subfield", "conjugate_subfield",
    "is_normal_subgroup", "make_ring_map",
    "distant", "distant_graph", "enumerate_points", "infinity",
    "make_point", "point_words", "word_point",
    "Geometry", "residue_at", "standard_chain",
    "enumerate_dual_points", "perp_chain", "perp_point", "word_dual_point",
    "delta_orbits", "derive_plane",
    "dual_compat_classes", "validate_partial_affine",
    "antiiso_point_table", "antiiso_word_point", "iso_point_map", "transpose_map",
    "ZOO", "zoo_scenarios",
]
