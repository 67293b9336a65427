"""Correctness gate for one scenario report.

EXPECTED holds, per shipped config, the frozen acceptance values each task
of its report must show.  `PRESENT` marks a key that must exist whatever
its value (a witness).  Beyond these, every task must pass, every
`*_mismatches` / `*_failures` counter must be 0, and the definition-level
check count must not fall below ORACLE_FLOOR: exhausting a sampled sweep
may raise it, cutting coverage may not lower it.
"""

from __future__ import annotations

PRESENT = object()

EXPECTED: dict[str, dict[str, dict]] = {
    "m2f3": {
        "enumerate-points": {"points": 130},
        "distant-graph": {"points": 130, "edges": 5265, "components": 1, "diameter": 2},
        "chain-orbit": {"chains_through_infinity": 162, "chain_size": 10},
        "vergleich": {"classes": 3, "dual_classes": 3, "units_normal": False,
                      "partitions_equal": False, "normality_witness": PRESENT},
        "derive-plane": {"points": 81, "lines": 90, "line_size": 9,
                         "desargues": False, "desargues_witness": PRESENT},
        "sigma-suite": {"compatibility_preserved": False, "units_normal": False,
                        "criterion_consistent": True},
    },
    "m2f2": {
        "enumerate-points": {"points": 35},
        "distant-graph": {"points": 35, "edges": 280, "components": 1, "diameter": 2},
        "chain-orbit": {"chains": 56, "chain_size": 5},
        "vergleich": {"classes": 1, "dual_classes": 1, "units_normal": True,
                      "partitions_equal": True},
        "derive-plane": {"points": 16, "lines": 20, "line_size": 4,
                         "desargues": True, "desargues_method": "exhaustive"},
        "sigma-suite": {"compatibility_preserved": True, "units_normal": True},
    },
    "f4": {
        "enumerate-points": {"points": 5},
        "distant-graph": {"points": 5, "edges": 10, "components": 1, "diameter": 1},
        "chain-orbit": {"chains": 10, "chain_size": 3},
        "vergleich": {"classes": 1, "dual_classes": 1, "units_normal": True},
    },
    "dual2": {
        "enumerate-points": {"points": 6},
        "distant-graph": {"points": 6, "edges": 12, "components": 1, "diameter": 2},
        "chain-orbit": {"chains": 8, "chain_size": 3},
        "vergleich": {"classes": 1, "dual_classes": 1, "units_normal": True},
    },
    "product22": {
        "enumerate-points": {"points": 9},
        "distant-graph": {"points": 9, "edges": 18, "components": 1, "diameter": 2},
        "chain-orbit": {"chains": 6, "chain_size": 3},
        "vergleich": {"classes": 1, "dual_classes": 1, "units_normal": True},
    },
}

# Oracle checks per config at the seed commit (20,680 on m2f3; 936 over the
# three small rings).
ORACLE_FLOOR = {"m2f3": 20680, "m2f2": 16016, "f4": 348, "dual2": 312, "product22": 276}

ORACLE_KEYS = ("word_formula_checks", "covariance_checks", "chains_checked", "chains_mapped")


def oracle_checks(report: dict) -> int:
    """Definition-level checks the run performed, summed over its tasks."""
    return sum(task.get(key, 0) for task in report["tasks"] for key in ORACLE_KEYS)


def _zero_counters(body, path: str):
    """Yield a problem for every nonzero *_mismatches / *_failures counter."""
    if isinstance(body, dict):
        for key, value in body.items():
            if key.endswith(("_mismatches", "_failures")) and value != 0:
                yield f"{path}.{key} = {value!r}, expected 0"
            yield from _zero_counters(value, f"{path}.{key}")
    elif isinstance(body, list):
        for i, value in enumerate(body):
            yield from _zero_counters(value, f"{path}[{i}]")


def check_report(config_name: str, report: dict) -> list[str]:
    """Every way the report breaks the gate; empty when it passes."""
    problems = []
    if report.get("all_pass") is not True:
        problems.append("all_pass is not true")
    tasks = {t["name"]: t for t in report.get("tasks", [])}
    for name, task in tasks.items():
        if task.get("status") != "pass":
            problems.append(f"{name}: status {task.get('status')!r}"
                            f"{': ' + task['error'] if 'error' in task else ''}")
        problems.extend(_zero_counters(task, name))
    for name, want in EXPECTED[config_name].items():
        task = tasks.get(name)
        if task is None:
            problems.append(f"{name}: task missing from report")
            continue
        for key, value in want.items():
            if key not in task:
                problems.append(f"{name}.{key} missing")
            elif value is not PRESENT and task[key] != value:
                problems.append(f"{name}.{key} = {task[key]!r}, expected {value!r}")
    checks = oracle_checks(report)
    if checks < ORACLE_FLOOR[config_name]:
        problems.append(f"oracle checks {checks} < floor {ORACLE_FLOOR[config_name]}")
    return problems
