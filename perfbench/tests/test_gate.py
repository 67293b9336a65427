"""The correctness gate: frozen invariants, failed children, determinism."""

import copy
import json
from pathlib import Path

import pytest

from chaingeom.cli import load_config, run as run_scenario

import run
from gate import check_report, oracle_checks

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def f4_report(tmp_path_factory):
    report, all_pass = run_scenario(load_config(str(ROOT / "configs" / "f4.json")),
                                    out_dir=str(tmp_path_factory.mktemp("f4")))
    assert all_pass
    return report


def test_shipped_report_passes(f4_report):
    assert check_report("f4", f4_report) == []
    assert oracle_checks(f4_report) == 348


@pytest.mark.parametrize("task, key, value", [
    ("duality-suite", "word_formula_mismatches", 1),
    ("duality-suite", "covariance_failures", 2),
    ("chain-orbit", "chains", 9),
    ("enumerate-points", "points", 4),
    ("duality-suite", "word_formula_checks", 83),
    ("sigma-suite", "status", "fail"),
])
def test_gate_catches_a_broken_report(f4_report, task, key, value):
    broken = copy.deepcopy(f4_report)
    (body,) = [t for t in broken["tasks"] if t["name"] == task]
    body[key] = value
    assert check_report("f4", broken)


def test_config_that_exits_2_counts_as_failed(tmp_path):
    config = json.loads((ROOT / "configs" / "f4.json").read_text())
    config["subfield"] = "no-such-subfield"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    child = run.spawn(ROOT, tmp_path / "child", "f4", path, timeout=60)
    assert child.exit_code == 2
    assert child.problems and child.report is None
    assert run.outcome([child]) == {"correct": False, "attempted": 1, "failed": 1}


def test_good_child_passes_and_differing_reports_fail(tmp_path):
    path = run.make_config(ROOT, "f4", 7, tmp_path / "f4.json")
    first = run.spawn(ROOT, tmp_path / "a", "f4", path, timeout=60)
    second = run.spawn(ROOT, tmp_path / "b", "f4", path, timeout=60)
    assert first.exit_code == 0 and first.problems == []
    assert first.setup_s > 0 and first.total_s >= first.setup_s
    assert first.maxrss_kb > 0
    run.check_determinism([first, second])
    assert run.outcome([first, second])["failed"] == 0
    second.report["all_pass"] = "changed"
    run.check_determinism([first, second])
    assert run.outcome([first, second]) == {"correct": False, "attempted": 2, "failed": 1}
