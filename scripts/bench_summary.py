#!/usr/bin/env python3
"""Summarize paired perfbench runs into BENCH_<n>.json.

Usage:
    python3 scripts/bench_summary.py --number N
        --parent P1 P2 ... --change C1 C2 ... [--out DIR]

Each file is the standard output of one `python3 perfbench/run.py`
invocation without tracing: its last line is the result object (correct,
attempted, failed, metrics), and the line before it names the workload
and seed.  Per workload and seed, the k-th parent file and the k-th
change file, in the order given, form the k-th pair; run them
alternately so that a pair shares the state of the host.

For every workload and seed ("m2f3/seed1") and every end-to-end metric,
BENCH_<N>.json records the median and the quartiles of the parent's and
the change's runs, and, where BENCHMARK.json says which way is better,
the number of pairs the change wins.  It also records the line count of `src/` (every .py file, blank lines included)
and `git describe --always --dirty` of the checkout.  Standard library
only; run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def read_run(path: Path) -> tuple[str, dict]:
    """("<workload>/seed<seed>", result object) of the perfbench output in
    path."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SystemExit(f"{path}: not the output of perfbench/run.py")
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    if meta.get("trace"):
        raise SystemExit(f"{path}: a traced run has no end-to-end metrics")
    return f"{meta['workload']}/seed{meta['seed']}", result


def by_workload(paths: list[str]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for p in paths:
        workload, result = read_run(Path(p))
        runs.setdefault(workload, []).append(result)
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    if len(parent) != len(change):
        raise SystemExit(f"{len(parent)} parent runs but {len(change)} change runs")
    out = {"pairs": len(parent),
           "all_correct": all(r["correct"] for r in parent + change),
           "metrics": {}}
    for name, entry in parent[0]["metrics"].items():
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        row = {"unit": entry["unit"], "parent": spread(old), "change": spread(new)}
        if name in better:
            lower = better[name] == "lower"
            row["better"] = better[name]
            row["change_wins"] = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        out["metrics"][name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = root / "BENCHMARK.json"
    better = ({m["name"]: m["better"] for m in json.loads(bench.read_text())["end_to_end"]}
              if bench.exists() else {})
    parent, change = by_workload(args.parent), by_workload(args.change)
    if parent.keys() != change.keys():
        raise SystemExit(f"workloads differ: {sorted(parent)} vs {sorted(change)}")
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    summary = {
        "number": args.number,
        "commit": commit or None,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
        "workloads": {w: summarize(parent[w], change[w], better) for w in sorted(parent)},
    }
    path = Path(args.out) / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
