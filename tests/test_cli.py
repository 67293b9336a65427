import json
from pathlib import Path

import pytest

from chaingeom.cli import ConfigError, export_dot, load_config, main, parse_config, run
from chaingeom.projline import distant_graph


def small_config(tmp_path, tasks, ring=None, output=None):
    data = {
        "schema": 1,
        "ring": ring or {"family": "finite-field", "q": 4},
        "subfield": "prime" if ring is None else "scalar",
        "tasks": tasks,
        "output": output or {},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_run_f4_counts(tmp_path):
    path = small_config(tmp_path, [{"name": "enumerate-points"}, {"name": "chain-orbit"}])
    config = load_config(str(path))
    report, all_pass = run(config, out_dir=str(tmp_path))
    assert all_pass
    by_name = {t["name"]: t for t in report["tasks"]}
    assert by_name["enumerate-points"]["points"] == 5
    assert by_name["chain-orbit"]["chains"] == 10
    assert (tmp_path / "report.json").exists()


def test_unknown_task_is_config_error(tmp_path):
    path = small_config(tmp_path, [{"name": "no-such-task"}])
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["run", str(path)]) == 2


def test_bad_schema_rejected():
    with pytest.raises(ConfigError):
        parse_config({"schema": 99, "ring": {"family": "finite-field", "q": 4},
                      "subfield": "prime", "tasks": [{"name": "enumerate-points"}]})


def test_exit_codes(tmp_path):
    path = small_config(tmp_path, [{"name": "enumerate-points"}])
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0


def test_vergleich_task_m2f3(tmp_path):
    path = small_config(tmp_path, [{"name": "vergleich"}],
                        ring={"family": "matrix2", "q": 3})
    path.write_text(path.read_text().replace('"scalar"', '"singer"'))
    config = load_config(str(path))
    report, all_pass = run(config, out_dir=str(tmp_path))
    assert all_pass
    task = report["tasks"][0]
    assert task["units_normal"] is False
    assert task["partitions_equal"] is False
    assert "normality_witness" in task


def test_report_deterministic(tmp_path):
    path = small_config(
        tmp_path,
        [{"name": "enumerate-points"},
         {"name": "duality-suite", "options": {"samples": 50, "seed": 7}}])
    config = load_config(str(path))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(config, out_dir=str(out1))
    run(config, out_dir=str(out2))
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    del r1["timing"], r2["timing"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_failed_task_still_writes_report(tmp_path):
    # an orbit cap of 1 trips the cap guard but the report survives
    path = small_config(tmp_path, [{"name": "chain-orbit", "options": {"cap": 1}}])
    config = load_config(str(path))
    report, all_pass = run(config, out_dir=str(tmp_path))
    assert not all_pass
    assert report["tasks"][0]["status"] == "fail"
    assert "error" in report["tasks"][0]
    assert (tmp_path / "report.json").exists()
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1


def test_dot_export(tmp_path, f4, dual2):
    g = distant_graph(f4)
    path = tmp_path / "f4.dot"
    export_dot(g, str(path))
    text = path.read_text()
    nodes = [ln for ln in text.splitlines() if "component=" in ln]
    edges = [ln for ln in text.splitlines() if "--" in ln]
    assert len(nodes) == 5 and len(edges) == 10
    g2 = distant_graph(dual2)
    path2 = tmp_path / "dual2.dot"
    export_dot(g2, str(path2))
    text2 = path2.read_text()
    assert sum("--" in ln for ln in text2.splitlines()) == 12
    with pytest.raises(IOError):
        export_dot(g, "")


def test_dot_byte_stable(tmp_path, f4):
    g = distant_graph(f4)
    p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
    export_dot(g, str(p1))
    export_dot(g, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("task,options", [
    # booleans must be JSON booleans: bool("false") would read as True
    ("chain-orbit", {"through_infinity": "false"}),
    ("derive-plane", {"skip_replacement": 0}),
    # integer options must not be booleans
    ("duality-suite", {"samples": True}),
    # counts and caps must be at least 1
    ("sigma-suite", {"samples": -5}),
    ("chain-orbit", {"cap": 0}),
    ("derive-plane", {"desargues_cap": 0}),
    # a key outside the task's option set
    ("chain-orbit", {"samples": 10}),
    ("enumerate-points", {"seed": 1}),
])
def test_bad_option_is_config_error(tmp_path, task, options):
    path = small_config(tmp_path, [{"name": task, "options": options}])
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2


def test_shipped_configs_parse():
    from pathlib import Path
    for cfg in Path(__file__).resolve().parent.parent.glob("configs/*.json"):
        load_config(str(cfg))


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_report_matches_golden(tmp_path, name):
    """The shipped config reproduces the committed report byte for byte
    once the volatile timing key is dropped."""
    root = Path(__file__).resolve().parent
    report, all_pass = run(load_config(str(root.parent / "configs" / f"{name}.json")),
                           out_dir=str(tmp_path))
    assert all_pass
    report.pop("timing")
    golden = (root / "data" / f"golden_{name}.json").read_text()
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden
