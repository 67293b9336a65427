#!/usr/bin/env python3
"""Build the derived plane of order 9 and print its report, including the
failing Desargues configuration that certifies non-desarguesianness.

Usage: python3 scripts/derive_hall_plane.py [--q 2|3] [--skip-replacement]
"""

import argparse
import json

from chaingeom.geometry import Geometry
from chaingeom.rings import RingSpec, build_ring, build_subfield
from chaingeom.suites import derive_plane_report


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--q", type=int, default=3, choices=(2, 3))
    parser.add_argument("--skip-replacement", action="store_true",
                        help="negative control: keep the field plane")
    args = parser.parse_args()
    ring = build_ring(RingSpec("matrix2", args.q))
    geom = Geometry(ring, build_subfield(ring, "singer"))
    rep = derive_plane_report(geom, skip_replacement=args.skip_replacement)
    print(json.dumps(rep, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
