"""One cold scenario run, as `chaingeom run <config>` would do it.

Usage:
    python3 perfbench/child.py --src SRC --config CFG --out DIR --result FILE
                               [--trace FILE] [--setup-only]

Imports chaingeom from SRC, loads the config, builds its ring and subfield
(timed as set-up), then runs the scenario through `chaingeom.cli.run`.
Writes the CLOCK_MONOTONIC stamps of each phase to FILE as JSON; the
parent process spawned this one and holds the spawn stamp.  With --trace
every layer is wrapped by `tracer.Tracer` and the trace is saved to the
given FILE.  With --setup-only it stops after set-up.  Exit codes follow
the CLI: 0 all tasks pass, 1 some task failed, 2 invalid config.
"""

import time

T_START = time.monotonic()  # CLOCK_MONOTONIC: comparable across processes

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    from chaingeom import cli, rings
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"chaingeom imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    stamps = {"start": T_START, "imported": time.monotonic()}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        config = cli.load_config(args.config)
        ring = rings.build_ring(config.ring)
        rings.build_subfield(ring, config.subfield)
    except Exception as exc:  # the CLI reports these as config errors
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    stamps["built"] = time.monotonic()

    status = 0
    if not args.setup_only:
        try:
            _, all_pass = cli.run(config, out_dir=args.out)
        except cli.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        stamps["done"] = time.monotonic()
        status = 0 if all_pass else 1
    if tracer is not None:
        tracer.write(args.trace)
    with open(args.result, "w") as fh:
        json.dump(stamps, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
