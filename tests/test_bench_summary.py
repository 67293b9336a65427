"""scripts/bench_summary.py pairs perfbench result lines and writes
BENCH_<n>.json with medians, quartiles and pair wins."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_file(path, workload, verify_s, rss):
    meta = {"workload": workload, "seed": 1, "trace": 0}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"verify_s": {"value": verify_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    path.write_text("noise\n" + json.dumps(meta) + "\n" + json.dumps(result) + "\n")
    return str(path)


def test_bench_summary_medians_quartiles_and_wins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "verify_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]}))
    parent = [_run_file(tmp_path / f"p{i}", "m2f3", v, 35.0)
              for i, v in enumerate([0.10, 0.12, 0.14, 0.16, 0.18])]
    change = [_run_file(tmp_path / f"c{i}", "m2f3", v, 35.0)
              for i, v in enumerate([0.09, 0.10, 0.15, 0.12, 0.13])]
    assert _load().main(["--number", "7", "--parent", *parent, "--change", *change]) == 0
    out = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert out["number"] == 7 and out["src_lines"] == 3
    m2f3 = out["workloads"]["m2f3/seed1"]
    assert m2f3["pairs"] == 5 and m2f3["all_correct"]
    verify = m2f3["metrics"]["verify_s"]
    assert verify["parent"] == pytest.approx({"median": 0.14, "q1": 0.12, "q3": 0.16})
    assert verify["change"] == pytest.approx({"median": 0.12, "q1": 0.10, "q3": 0.13})
    assert verify["change_wins"] == 4  # every pair but the third
    assert m2f3["metrics"]["peak_rss_mb"]["change_wins"] == 0  # ties are no win


def test_bench_summary_rejects_unpaired_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parent = [_run_file(tmp_path / "p0", "m2f3", 0.1, 35.0),
              _run_file(tmp_path / "p1", "m2f3", 0.1, 35.0)]
    change = [_run_file(tmp_path / "c0", "m2f3", 0.1, 35.0)]
    with pytest.raises(SystemExit, match="2 parent runs but 1 change runs"):
        _load().main(["--number", "1", "--parent", *parent, "--change", *change])
