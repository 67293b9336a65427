#!/usr/bin/env python3
"""Time the exhaustive matrix2(3) duality and sigma suites, cold.

Usage: python3 scripts/bench_exhaustive.py [OTHER_CHECKOUT ...]

The shipped m2f3 config samples its words and covariance pairs; here each
of REPEATS fresh interpreters imports chaingeom from the `src/` of this
checkout, or of each other checkout root given, runs the m2f3 config's
duality-suite and sigma-suite tasks through `cli.run` as shipped, notes
its max RSS so far, then sets `suites.EXHAUSTIVE_LIMIT = 81` in-process
and runs the two tasks again, so that both suites check every word and
every covariance pair.  The exhaustive run thus follows a sampled one in
the same process: its imports and ring tables are warm.  The child also
wraps the duality suite's `covariance_failures` in-process, to time the
exhaustive covariance check.  No config file is written or changed.  With other checkouts the
runs alternate across the trees, each repeat in the reverse order of the
one before, so that the host's drift falls on every tree alike.

The script prints one JSON line per tree, this checkout first: its root,
the median of each exhaustive task's wall time, of their sum and of the
covariance check's wall time over the runs, in seconds, and the median
of the runs' max RSS in MB, after the exhaustive run and, as
`sampled_max_rss_mb`, after the sampled one.  It exits 1 if a run fails
or a task does not pass.  Standard library only; it takes about 5 s per
tree and holds one child of about 80 MB at a time.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
TASKS = ("duality-suite", "sigma-suite")

CHILD = """
import json, resource, sys, tempfile, time
from chaingeom import cli, suites
with open(sys.argv[1]) as fh:
    data = json.load(fh)
data["tasks"] = [t for t in data["tasks"] if t["name"] in sys.argv[2:]]
def run():
    with tempfile.TemporaryDirectory() as out:
        return cli.run(cli.parse_config(data), out_dir=out)
_, sampled_pass = run()
sampled_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
suites.EXHAUSTIVE_LIMIT = 81
covariance_s = []
check = suites.covariance_failures
def timed(*args):
    start = time.perf_counter()
    try:
        return check(*args)
    finally:
        covariance_s.append(time.perf_counter() - start)
suites.covariance_failures = timed
report, all_pass = run()
print(json.dumps({"all_pass": all_pass and sampled_pass,
                  "modes": [t.get("mode") for t in report["tasks"]],
                  "task_s": report["timing"]["wall_time_s"],
                  "covariance_s": sum(covariance_s),
                  "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "sampled_max_rss_kb": sampled_kb}))
"""


def one_run(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root / "configs" / "m2f3.json"),
                           *TASKS], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not result["all_pass"] or result["modes"] != ["exhaustive"] * len(TASKS):
        raise SystemExit(f"not an exhaustive passing run: {result}")
    return result


def main(argv: list[str]) -> int:
    roots = [ROOT] + [Path(a).resolve() for a in argv]
    runs: dict = {root: [] for root in roots}
    for k in range(REPEATS):
        for root in roots[::-1] if k % 2 else roots:
            runs[root].append(one_run(root))
    for root in roots:
        print(summary(root, runs[root]))
    return 0


def summary(root: Path, runs: list[dict]) -> str:
    median = {name: statistics.median(r["task_s"][name] for r in runs) for name in TASKS}
    median["total"] = statistics.median(sum(r["task_s"].values()) for r in runs)
    covariance = statistics.median(r["covariance_s"] for r in runs)
    return json.dumps({
        "root": str(root),
        "workload": "m2f3 exhaustive",
        "runs": REPEATS,
        "median_task_s": {name: round(s, 4) for name, s in median.items()},
        "median_covariance_s": round(covariance, 4),
        "max_rss_mb": round(statistics.median(r["max_rss_kb"] for r in runs) / 1024, 2),
        "sampled_max_rss_mb": round(
            statistics.median(r["sampled_max_rss_kb"] for r in runs) / 1024, 2),
    })


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
