"""Chain geometries over small finite rings, verified by exhaustion."""

from chaingeom.rings import (
    RingSpec,
    Ring,
    Subfield,
    RingMap,
    build_ring,
    build_subfield,
    conjugate_subfield,
    normality_witness,
    make_ring_map,
)
from chaingeom.projline import (
    distant_graph,
    enumerate_points,
    infinity,
    make_point,
    word_point,
)
from chaingeom.chains import residue_at, standard_chain
from chaingeom.duality import (
    enumerate_dual_points,
    perp_point,
    word_dual_point,
)
from chaingeom.compat import (
    delta_orbits,
    derive_plane,
    dual_compat_classes,
)
from chaingeom.geometry import Geometry
from chaingeom.isomorph import (
    antiiso_point_table,
    antiiso_word_point,
    transpose_map,
)

__all__ = [
    "RingSpec", "Ring", "Subfield", "RingMap",
    "build_ring", "build_subfield", "conjugate_subfield",
    "make_ring_map", "normality_witness",
    "distant_graph", "enumerate_points", "infinity", "make_point", "word_point",
    "Geometry", "residue_at", "standard_chain",
    "enumerate_dual_points", "perp_point", "word_dual_point",
    "delta_orbits", "derive_plane",
    "dual_compat_classes",
    "antiiso_point_table", "antiiso_word_point", "transpose_map",
]
