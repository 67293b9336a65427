"""Cold-process scenario benchmark for chaingeom.

Usage:
    python3 perfbench/run.py --workload {m2f3,m2f2} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout (it needs `src/` and `configs/`).

One run of a scenario is one fresh child process (`perfbench/child.py`)
that imports chaingeom from `src/`, builds the scenario's ring and
subfield, and runs the scenario through `chaingeom.cli.run`, as
`chaingeom run <config>` does.  There is no warm-up: a CLI user pays the
cold start on every run.  Children run one at a time, with no threads.

Workloads, each a round of scenario runs built from the shipped configs
with the duality seed set to N and the sigma seed to N + 1 (N = 1 gives
the shipped seeds):
  m2f3         matrix2(3): structural 81-element arithmetic, sampled oracle
               sweeps, point enumeration and compatibility classes.
  m2f2         matrix2(2): table arithmetic, exhaustive sweeps, the full
               chain orbit and the exhaustive Desargues scan.
The small rings (f4, dual2, product22) are no workload of their own: a
run of them is import-dominated, and on a shared host their run-to-run
spread was wider than any bound the benchmark may set.  Set-up time is
still measured on every workload, as setup_s.

--trace 0 runs set-up probes, then rounds until S seconds have passed (at
least three), and prints the end-to-end metrics as medians over rounds.
--trace 1 runs one round with every layer wrapped by `tracer.Tracer`, then
untraced rounds until S seconds have passed since it began (at least one),
and prints the per-layer metrics.  Every child must pass `gate.check_report`, and all
reports of one config in one invocation, traced or not, must be identical
once `timing` is dropped.  A child that fails either counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records the seed, the environment and any
problems.  Files of the last run of each workload stay in
`.perfbench_work/<workload>/`.  Exit codes: 0 correct, 1 some run failed,
2 no source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import check_report, oracle_checks  # noqa: E402

WORKLOADS = {
    "m2f3": ("m2f3",),
    "m2f2": ("m2f2",),
}
SEED_OFFSETS = {"duality-suite": 0, "sigma-suite": 1}
TASKS = ("enumerate-points", "distant-graph", "chain-orbit", "duality-suite",
         "vergleich", "partial-affine", "derive-plane", "sigma-suite")
SETUP_PROBES = 5      # extra set-up-only children per untraced run
MIN_ROUNDS = 3        # per untraced run, however long a round takes
DEADLINE_S = 170.0    # a run must end within 180 s, whatever its children do

END_TO_END = {
    "setup_s": "s", "verify_s": "s", "total_s": "s", "peak_rss_mb": "MB",
    "oracle_checks": "count", "checks_per_s": "1/s",
}
ARITH = ("rings.mul", "rings.add", "rings.neg", "rings.sub")  # summed as rings.arith
# (traced name, statistic) pairs reported as "<name>.<statistic>"
TRACED = [
    ("rings.mul", "calls"), ("rings.add", "calls"), ("rings.arith", "self_s"),
    ("rings.products", "calls"), ("rings.products", "self_s"),
    ("rings.canonical_pair", "calls"), ("rings.canonical_pair", "self_s"),
    ("projline.enumerate_points", "self_s"), ("projline.distant_graph", "self_s"),
    ("projline.is_admissible", "calls"), ("projline.is_admissible", "distinct_ratio"),
    ("projline.mat_invert", "calls"), ("projline.mat_invert", "self_s"),
    ("projline.word_point", "calls"), ("projline.word_point", "self_s"),
    ("projline.apply_matrix", "calls"),
    ("chains.chain_orbit", "calls"), ("chains.chain_orbit", "self_s"),
    ("chains.residue_at", "self_s"),
    ("duality.perp_point", "calls"), ("duality.perp_point", "distinct_ratio"),
    ("duality.perp_point", "self_s"),
    ("duality.annihilator_pairs", "calls"), ("duality.annihilator_pairs", "self_s"),
    ("duality.covariance_holds", "calls"), ("duality.covariance_holds", "self_s"),
    ("duality.word_dual_point", "self_s"), ("duality.enumerate_dual_points", "self_s"),
    ("duality.dual_chain_orbit", "self_s"), ("duality.bidual_point", "self_s"),
    ("compat.derive_plane", "self_s"), ("compat.delta_orbits", "self_s"),
    ("compat.dual_compat_classes", "self_s"),
    ("compat.compare_residue_with_dual", "self_s"),
    ("compat.validate_partial_affine", "self_s"),
    ("isomorph.antiiso_point_map", "calls"), ("isomorph.antiiso_point_map", "self_s"),
    ("isomorph.antiiso_word_point", "self_s"),
    ("isomorph.preserves_compatibility", "self_s"),
    ("cli.run", "self_s"),
]
STAT_UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"rings.build.s": "s"}
    units.update({f"{name}.{stat}": STAT_UNITS[stat] for name, stat in TRACED})
    units.update({f"suites.{task}.s": "s" for task in TASKS})
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Child:
    """One finished child process and what it left behind."""
    config: str
    exit_code: int
    spawned: float
    reaped: float
    maxrss_kb: int
    stamps: dict = field(default_factory=dict)
    report: dict | None = None
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.stamps["built"] - self.spawned

    @property
    def build_s(self) -> float:
        return self.stamps["built"] - self.stamps["imported"]

    @property
    def total_s(self) -> float:
        return self.reaped - self.spawned


def _wait4(pid: int, timeout: float):
    """os.wait4 that kills the child when timeout seconds have passed."""
    def expire(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        return os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spawn(root: Path, out: Path, config_name: str, config_path: Path, timeout: float,
          trace: bool = False, setup_only: bool = False) -> Child:
    """Run one child to completion in its own directory `out` and gate it."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"),
           "--config", str(config_path), "--out", str(out),
           "--result", str(out / "result.json")]
    if trace:
        cmd += ["--trace", str(out / "trace.json")]
    if setup_only:
        cmd.append("--setup-only")
    with open(out / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=out, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = _wait4(proc.pid, timeout)
        reaped = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(config_name, proc.returncode, spawned, reaped, usage.ru_maxrss)
    if child.exit_code != 0:
        tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        child.problems.append(f"exit code {child.exit_code}: {' | '.join(tail)}")
        return child
    try:
        child.stamps = json.loads((out / "result.json").read_text())
        if trace:
            child.trace = json.loads((out / "trace.json").read_text())["summary"]
        if not setup_only:
            report_name = json.loads(config_path.read_text()).get("output", {}).get(
                "report", "report.json")
            child.report = json.loads((out / report_name).read_text())
    except (OSError, ValueError, KeyError) as exc:
        child.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        child.report = None
        return child
    if child.report is not None:
        child.problems.extend(check_report(config_name, child.report))
    return child


def make_config(root: Path, name: str, seed: int, path: Path) -> Path:
    """The shipped config `name` with its sampling seeds taken from seed."""
    data = json.loads((root / "configs" / f"{name}.json").read_text())
    for task in data["tasks"]:
        if task["name"] in SEED_OFFSETS:
            task.setdefault("options", {})["seed"] = seed + SEED_OFFSETS[task["name"]]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def without_timing(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      indent=2, sort_keys=True)


def check_determinism(children: list[Child]) -> None:
    """Every report of one config must match the first one, timing dropped."""
    reference: dict[str, str] = {}
    for child in children:
        if child.report is None:
            continue
        text = without_timing(child.report)
        first = reference.setdefault(child.config, text)
        if text != first:
            child.problems.append("report differs from the first run of this "
                                  "config once timing is dropped")


def environment(root: Path) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_lines": src_lines,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.seconds = seconds
        self.start = time.monotonic()
        self.work = root / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        self.configs = {name: make_config(root, name, seed, self.work / "configs" / f"{name}.json")
                        for name in WORKLOADS[workload]}
        self.children: list[Child] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, name: str, **kwargs) -> Child:
        out = self.work / f"run{len(self.children):03d}-{name}"
        child = spawn(self.root, out, name, self.configs[name], self.remaining(), **kwargs)
        self.children.append(child)
        return child

    def round(self, trace: bool = False) -> list[Child]:
        return [self.child(name, trace=trace) for name in self.configs]

    def rounds(self, since: float, minimum: int) -> list[list[Child]]:
        """Untraced rounds until the next would end more than --seconds
        after `since`, but at least `minimum` of them."""
        done: list[list[Child]] = []
        while True:
            r0 = time.monotonic()
            done.append(self.round())
            took = time.monotonic() - r0
            if len(done) >= minimum and time.monotonic() + took - since > self.seconds:
                return done
            if self.remaining() < 2 * took:
                return done

    def setup_probes(self) -> list[Child]:
        names = list(self.configs)
        return [self.child(names[i % len(names)], setup_only=True)
                for i in range(SETUP_PROBES)]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _usable(rounds: list[list[Child]]) -> list[list[Child]]:
    return [r for r in rounds if all(c.report is not None for c in r)]


def _wall(child: Child) -> dict[str, float]:
    return child.report["timing"]["wall_time_s"]


def end_to_end(rounds: list[list[Child]], probes: list[Child]) -> dict[str, float]:
    rounds = _usable(rounds)
    setups = [c.setup_s for c in probes if c.stamps] + [c.setup_s for r in rounds for c in r]
    verify = [sum(sum(_wall(c).values()) for c in r) for r in rounds]
    checks = [sum(oracle_checks(c.report) for c in r) for r in rounds]
    return {
        "setup_s": _median(setups),
        "verify_s": _median(verify),
        "total_s": _median(sum(c.total_s for c in r) for r in rounds),
        "peak_rss_mb": _median(max(c.maxrss_kb for c in r) * 1024 / 1e6 for r in rounds),
        "oracle_checks": _median(checks),
        "checks_per_s": _median(n / v for n, v in zip(checks, verify) if v > 0),
    }


def per_layer(traced: list[Child], rounds: list[list[Child]]) -> dict[str, float]:
    rounds = _usable(rounds)
    summary: dict[str, dict[str, float]] = {}
    for child in traced:
        for name, entry in (child.trace or {}).items():
            acc = summary.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    summary["rings.arith"] = {"self_s": sum(summary.get(m, {}).get("self_s", 0.0)
                                            for m in ARITH)}
    metrics = {"rings.build.s": _median(sum(c.build_s for c in r) for r in rounds)}
    for name, stat in TRACED:
        entry = summary.get(name, {})
        if stat == "distinct_ratio":
            value = entry["distinct"] / entry["calls"] if entry.get("calls") else 0.0
        else:
            value = entry.get(stat, 0)
        metrics[f"{name}.{stat}"] = value
    for task in TASKS:
        metrics[f"suites.{task}.s"] = _median(sum(_wall(c).get(task, 0.0) for c in r)
                                             for r in rounds)
    traced_total = sum(c.total_s for c in traced)
    metrics["trace.overhead_s"] = traced_total - _median(sum(c.total_s for c in r)
                                                         for r in rounds)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/chaingeom/cli.py", "configs") if not (root / p).exists()]
    missing += [f"configs/{n}.json" for n in WORKLOADS[args.workload]
                if not (root / "configs" / f"{n}.json").exists()]
    if missing:
        print(f"not a chaingeom source checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds)
    if args.trace:
        since = time.monotonic()
        traced = bench.round(trace=True)
        rounds = bench.rounds(since, minimum=1)
        metrics = per_layer(traced, rounds)
        units = per_layer_units()
    else:
        probes = bench.setup_probes()
        rounds = bench.rounds(time.monotonic(), minimum=MIN_ROUNDS)
        metrics = end_to_end(rounds, probes)
        units = END_TO_END
    check_determinism(bench.children)

    result = outcome(bench.children)
    problems = [f"{c.config}: {p}" for c in bench.children for p in c.problems]
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "round_total_s": [round(sum(c.total_s for c in r), 4) for r in rounds],
        "env": environment(root), "problems": problems,
    }, sort_keys=True))
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def outcome(children: list[Child]) -> dict:
    """Every child spawned is attempted; one with any problem has failed."""
    failed = sum(1 for c in children if c.problems)
    return {"correct": failed == 0, "attempted": len(children), "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
