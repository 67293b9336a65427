"""Configuration-driven verification runs.

Usage:
    chaingeom run <config.json> [--out DIR] [--dot]

A scenario config is JSON:

    {
      "schema": 1,
      "ring": {"family": "matrix2", "q": 3},
      "subfield": "singer",
      "tasks": [
        {"name": "enumerate-points"},
        {"name": "duality-suite", "options": {"samples": 10000, "seed": 1}}
      ],
      "output": {"report": "report.json", "dot": "distant.dot"}
    }

Task names come from the registry below.  Every sampling option takes an
explicit integer seed; reports are byte-identical for identical configs
once the single volatile "timing" key is dropped.  Exit codes: 0 all tasks
pass, 1 some task failed, 2 invalid config (a key outside this layout
included).
"""

from __future__ import annotations

import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from chaingeom.rings import FAMILIES, RingSpec, build_ring, build_subfield
from chaingeom.geometry import Geometry
from chaingeom import suites

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


class TaskSpec(NamedTuple):
    name: str
    options: dict


class ScenarioConfig(NamedTuple):
    ring: RingSpec
    subfield: str
    tasks: tuple[TaskSpec, ...]
    output: dict

    def echo(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "ring": {"family": self.ring.family, "q": self.ring.q},
            "subfield": self.subfield,
            "tasks": [{"name": t.name, "options": dict(sorted(t.options.items()))}
                      for t in self.tasks],
            "output": dict(sorted(self.output.items())),
        }


# Each task is a suite function, called with the run's Geometry and the
# task's options as keyword arguments.
TASKS = {
    "enumerate-points": suites.points_report,
    "distant-graph": suites.graph_report,
    "chain-orbit": suites.chain_report,
    "duality-suite": suites.duality_suite,
    "vergleich": suites.vergleich_report,
    "partial-affine": suites.partial_affine_report,
    "derive-plane": suites.derive_plane_report,
    "sigma-suite": suites.sigma_suite,
}

# The options each task accepts, with their JSON type; any other key is an
# error.  Counts and caps must be at least 1.
TASK_OPTIONS = {
    "chain-orbit": {"through_infinity": bool, "cap": int},
    "duality-suite": {"samples": int, "seed": int},
    "derive-plane": {"skip_replacement": bool, "desargues_cap": int},
    "sigma-suite": {"samples": int, "seed": int},
}
POSITIVE_OPTIONS = frozenset({"samples", "cap", "desargues_cap"})

# the rings (family, q) whose reguli the derive-plane task can replace
DERIVE_PLANE_RINGS = {("matrix2", 2), ("matrix2", 3)}


def _check_options(task: str, options: dict) -> None:
    allowed = TASK_OPTIONS.get(task, {})
    for key, value in options.items():
        kind = allowed.get(key)
        if kind is None:
            raise ConfigError(f"task {task} takes no option {key!r}")
        # bool is a subclass of int, so an integer option must exclude it
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ConfigError(f"option {key} of {task} must be a JSON "
                              f"{'boolean' if kind is bool else 'integer'}")
        if key in POSITIVE_OPTIONS and value < 1:
            raise ConfigError(f"option {key} of {task} must be at least 1")


def _known_keys(what: str, obj: dict, keys) -> None:
    """Raise ConfigError at the first key of obj outside keys: a misspelled
    key must not run another scenario than the one asked for."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{what} takes no key {key!r}")


def parse_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys("config", data, ("schema", "ring", "subfield", "tasks", "output"))
    # True == 1.0 == 1 in Python, so the schema's type must be int itself
    if type(data.get("schema")) is not int or data["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"schema must be the integer {SCHEMA_VERSION}")
    ring = data.get("ring")
    if not isinstance(ring, dict) or ring.get("family") not in FAMILIES:
        raise ConfigError("ring must be {family, q} with a known family")
    _known_keys("ring", ring, ("family", "q"))
    # bool is a subclass of int: "q": true must not mean q = 1
    if not isinstance(ring.get("q"), int) or isinstance(ring["q"], bool):
        raise ConfigError("q must be an integer")
    subfield = data.get("subfield")
    if subfield not in ("prime", "scalar", "singer", "diagonal"):
        raise ConfigError(f"unknown subfield descriptor {subfield!r}")
    raw_tasks = data.get("tasks")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ConfigError("tasks must be a non-empty list")
    tasks = []
    for t in raw_tasks:
        if isinstance(t, str):
            t = {"name": t}
        if not isinstance(t, dict) or t.get("name") not in TASKS:
            raise ConfigError(f"unknown task {t!r}")
        _known_keys(f"task {t['name']}", t, ("name", "options"))
        options = t.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError("task options must be an object")
        _check_options(t["name"], options)
        if (t["name"] == "derive-plane"
                and (ring["family"], ring["q"]) not in DERIVE_PLANE_RINGS):
            raise ConfigError("task derive-plane needs matrix2(2) or matrix2(3)")
        tasks.append(TaskSpec(t["name"], options))
    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    _known_keys("output", output, ("report", "dot"))
    for key, value in output.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"output {key} must be a non-empty string")
    return ScenarioConfig(RingSpec(ring["family"], ring["q"]), subfield,
                          tuple(tasks), output)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(data)


def export_dot(graph, path: str) -> None:
    """Deterministic DOT export: undirected, vertex ids are canonical pairs,
    a component attribute per vertex, everything sorted by canonical key."""
    if not path:
        raise IOError("empty DOT output path")
    label = [f'"({a},{b})"' for a, b in graph.points]
    lines = ["graph distant {"]
    lines += [f"  {v} [component={c}];" for v, c in zip(label, graph.component.tolist())]
    i, j = np.nonzero(np.triu(graph.adj, 1))  # the edges i < j, row by row
    lines += [f"  {label[a]} -- {label[b]};" for a, b in zip(i.tolist(), j.tolist())]
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def run(config: ScenarioConfig, out_dir: Optional[str] = None,
        want_dot: bool = False) -> tuple[dict, bool]:
    """Execute the scenario on one Geometry, shared by every task; returns
    (report, all_pass).  Task exceptions become failed tasks, the report is
    written regardless."""
    try:
        ring = build_ring(config.ring)
        geom = Geometry(ring, build_subfield(ring, config.subfield))
    except Exception as exc:
        raise ConfigError(f"cannot build scenario: {exc}") from exc
    results = []
    timing = {}
    all_pass = True
    for task in config.tasks:
        t0 = time.perf_counter()
        try:
            body = TASKS[task.name](geom, **task.options)
            status = "pass" if body.pop("ok") else "fail"
            body = _jsonable(body)
        except Exception as exc:  # diagnostics become recorded failures
            body = {"error": f"{type(exc).__name__}: {exc}"}
            status = "fail"
        # a task named twice is timed as the sum of its runs
        timing[task.name] = round(timing.get(task.name, 0) + time.perf_counter() - t0, 6)
        all_pass = all_pass and status == "pass"
        results.append({"name": task.name, "status": status, **body})
    report = {
        "schema": SCHEMA_VERSION,
        "scenario": config.echo(),
        "tasks": results,
        "all_pass": all_pass,
        "timing": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": timing,
        },
    }
    base = Path(out_dir) if out_dir else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    report_name = config.output.get("report", "report.json")
    (base / report_name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    dot_name = config.output.get("dot")
    if want_dot or dot_name:
        export_dot(geom.graph, str(base / (dot_name or "distant.dot")))
    return report, all_pass


def _jsonable(obj):
    """obj with every tuple, list or set a list (a set's numbers by value,
    then the rest by repr), every dict key a string, numpy integers and
    bools as int and bool; raises TypeError on any other type."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items.sort(key=lambda v: (0, v) if isinstance(v, (int, float)) else (1, repr(v)))
        return items
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"a report holds a value of type {type(obj).__name__}: {obj!r}")


def main(argv=None) -> int:
    import argparse  # here, not at the top: run() and its callers never parse a command line

    parser = argparse.ArgumentParser(prog="chaingeom",
                                     description="chain-geometry verification runs")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config", help="path to a scenario JSON file")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--dot", action="store_true",
                      help="export the distant graph as DOT")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        report, all_pass = run(config, out_dir=args.out, want_dot=args.dot)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for task in report["tasks"]:
        print(f"{task['name']}: {task['status']}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
