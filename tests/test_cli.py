import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from chaingeom import cli, rings
from chaingeom.cli import (
    TASKS,
    ConfigError,
    _jsonable,
    export_dot,
    load_config,
    main,
    parse_config,
    run,
)
from chaingeom.projline import enumerate_points

from reference import corrupt


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


def test_points_task_records_a_method_disagreement(tmp_path, monkeypatch):
    """The negative control of methods_agree, which is True whenever the
    task returns: on a freshly built F4 with 1*2 corrupted to 0, the orbit
    of R(1, 0) and the admissibility scan disagree on the points (not on
    the dual points), so the points task fails and the report records the
    MethodDisagreementError with both counts."""
    fresh = corrupt(rings.FiniteFieldRing(rings.RingSpec("finite-field", 4)), "mul", (1, 2), 0)
    enumerate_points(fresh, dual=True)  # the dual side still agrees
    monkeypatch.setattr(cli, "build_ring", lambda spec: fresh)
    config = load_config(str(small_config(tmp_path, [{"name": "enumerate-points"}])))
    report, all_pass = run(config, out_dir=str(tmp_path))
    (task,) = report["tasks"]
    assert not all_pass and not report["all_pass"] and task["status"] == "fail"
    assert "methods_agree" not in task
    assert task["error"] == ("MethodDisagreementError: finite-field(4): "
                             "orbit gives 4 points, scan gives 5")


def test_unknown_task_is_config_error(tmp_path):
    path = small_config(tmp_path, [{"name": "no-such-task"}])
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["run", str(path)]) == 2


def test_bad_schema_rejected(tmp_path):
    """Only the integer 1 is schema 1: true and 1.0 equal 1 in Python, and
    must exit 2 all the same."""
    for schema in (99, True, 1.0, "1", None):
        data = {"schema": schema, "ring": {"family": "finite-field", "q": 4},
                "subfield": "prime", "tasks": [{"name": "enumerate-points"}]}
        with pytest.raises(ConfigError, match="schema"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2, schema


def test_jsonable_converts_numpy_scalars_and_refuses_the_rest():
    body = {"n": np.int64(3), "ok": np.bool_(True), "rows": (np.intp(1), [np.int8(2)]),
            "set": {3, 1}}
    got = _jsonable(body)
    assert got == {"n": 3, "ok": True, "rows": [1, [2]], "set": [1, 3]}
    assert [type(v) for v in (got["n"], got["ok"], got["rows"][0])] == [int, bool, int]
    for bad in (np.array([1, 2]), object(), b"bytes"):
        with pytest.raises(TypeError, match="a report holds a value"):
            _jsonable({"value": bad})


def test_jsonable_orders_set_members_numerically():
    """A set's numbers come out by value, not by repr ([10, 2, 3]), and
    mixed members in one order whatever the set's own order."""
    assert _jsonable({2, 10, 3}) == [2, 3, 10]
    assert _jsonable(frozenset({2.5, -1, np.int64(10), False})) == [-1, False, 2.5, 10]
    mixed = [10, "b", 2, None, (1, 2), "a"]
    for members in (mixed, mixed[::-1]):
        assert _jsonable({"m": set(members)}) == {"m": [2, 10, "a", "b", None, [1, 2]]}


def test_unknown_report_value_fails_its_task(tmp_path, monkeypatch):
    """A task whose report holds a value JSON has no type for fails with
    the TypeError recorded; the other tasks and the report are unharmed."""
    monkeypatch.setitem(TASKS, "distant-graph",
                        lambda geom: {"ok": True, "rows": np.array([[0, 1]])})
    path = small_config(tmp_path, [{"name": "distant-graph"}, {"name": "enumerate-points"}])
    report, all_pass = run(load_config(str(path)), out_dir=str(tmp_path))
    assert not all_pass
    bad, good = report["tasks"]
    assert bad["status"] == "fail" and bad["error"].startswith("TypeError: a report holds")
    assert "rows" not in bad
    assert good["status"] == "pass" and good["points"] == 5
    assert json.loads((tmp_path / "report.json").read_text())["tasks"] == report["tasks"]


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


def test_chain_orbit_cap_error_does_not_depend_on_task_order(tmp_path):
    """A capped chain-orbit on matrix2(2) fails with one message whether it
    runs first or after a duality-suite: either way it reads the chain set
    the Geometry builds under ORBIT_CAP, and only then compares its length
    with the task's cap."""
    capped = {"name": "chain-orbit", "options": {"cap": 1}}
    errors = []
    for tasks in ([capped, {"name": "duality-suite"}], [{"name": "duality-suite"}, capped]):
        path = small_config(tmp_path, tasks, ring={"family": "matrix2", "q": 2})
        report, _ = run(load_config(str(path)), out_dir=str(tmp_path))
        errors += [t["error"] for t in report["tasks"] if t["name"] == "chain-orbit"]
    assert errors == ["OrbitCapExceededError: chain orbit on matrix2(2) exceeded cap 1"] * 2


def test_a_task_named_twice_is_timed_as_the_sum_of_its_runs(tmp_path, monkeypatch):
    """wall_time_s keeps one entry per task name, the sum of its runs: with
    a clock that moves one second per reading, two duality-suite runs give
    2 s beside the 1 s of one enumerate-points run."""
    clock = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
    path = small_config(tmp_path, [{"name": "duality-suite"}, {"name": "enumerate-points"},
                                   {"name": "duality-suite"}])
    report, all_pass = run(load_config(str(path)), out_dir=str(tmp_path))
    assert all_pass
    assert report["timing"]["wall_time_s"] == {"duality-suite": 2.0, "enumerate-points": 1.0}


def test_dot_export(tmp_path, f4_g, dual2_g):
    g = f4_g.graph
    path = tmp_path / "f4.dot"
    export_dot(g, str(path))
    text = path.read_text()
    nodes = [ln for ln in text.splitlines() if "component=" in ln]
    edges = [ln for ln in text.splitlines() if "--" in ln]
    assert len(nodes) == 5 and len(edges) == 10
    g2 = dual2_g.graph
    path2 = tmp_path / "dual2.dot"
    export_dot(g2, str(path2))
    text2 = path2.read_text()
    assert sum("--" in ln for ln in text2.splitlines()) == 12
    with pytest.raises(IOError):
        export_dot(g, "")


def test_dot_byte_stable(tmp_path, f4_g):
    g = f4_g.graph
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


@pytest.mark.parametrize("q", [True, "4", None])
def test_ring_q_must_be_an_integer(tmp_path, q):
    path = small_config(tmp_path, [{"name": "enumerate-points"}],
                        ring={"family": "finite-field", "q": q})
    with pytest.raises(ConfigError, match="q must be an integer"):
        load_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("output", [
    {"report": 5}, {"dot": 7}, {"report": ""}, {"dot": ""}, {"report": None},
    {"report": ["r.json"]}, {"graph": "g.dot"},
])
def test_bad_output_is_config_error(tmp_path, output):
    """A non-string or empty output name, or a key other than report and
    dot, fails before any task runs."""
    path = small_config(tmp_path, [{"name": "enumerate-points"}], output=output)
    with pytest.raises(ConfigError, match="output"):
        load_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("q", [2, 3])
def test_upper_triangular_runs_every_task(tmp_path, q):
    """Every task but derive-plane (matrix2 only) passes on upper-triangular2,
    the sigma suite with the diagonal-flip antiautomorphism."""
    tasks = [{"name": name} for name in TASKS if name != "derive-plane"]
    path = small_config(tmp_path, tasks, ring={"family": "upper-triangular2", "q": q})
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sigma = next(t for t in report["tasks"] if t["name"] == "sigma-suite")
    assert sigma["status"] == "pass" and sigma["map"] == "diagonal-flip"


@pytest.mark.parametrize("ring", [{"family": "upper-triangular2", "q": 2},
                                  {"family": "finite-field", "q": 4}])
def test_derive_plane_needs_a_matrix_ring(tmp_path, ring):
    """derive-plane on a ring other than matrix2(2) or matrix2(3) fails with
    exit 2 before any task runs, not as a failed task."""
    path = small_config(tmp_path, [{"name": "enumerate-points"}, {"name": "derive-plane"}],
                        ring=ring)
    with pytest.raises(ConfigError, match="derive-plane needs"):
        load_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()


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


@pytest.mark.parametrize("name,calls", [("m2f2", 4), ("m2f3", 2)])
def test_generating_sets_are_built_once_per_ring(tmp_path, monkeypatch, name, calls):
    """One run builds the unit and the additive generating set of each ring
    it uses once: of R and, where the duality suite checks the opposite
    geometry (every ring but matrix2(3)), of R^op."""
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    greedy, made = rings._greedy_generators, []
    monkeypatch.setattr(rings, "_greedy_generators", lambda *a: made.append(a) or greedy(*a))
    root = Path(__file__).resolve().parent.parent
    run(load_config(str(root / "configs" / f"{name}.json")), out_dir=str(tmp_path))
    assert len(made) == calls


COLD_RUNS = """
import sys, tempfile
from chaingeom.cli import load_config, run
for name in ("m2f3", "m2f2"):
    with tempfile.TemporaryDirectory() as out:
        report, all_pass = run(load_config(CONFIGS + "/" + name + ".json"), out_dir=out)
    if not all_pass:
        raise SystemExit(name + " failed")
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])
             or m in ("dataclasses", "argparse")))
"""


def test_runs_do_not_import_numpy_ma_random_dataclasses_or_argparse(run_fresh):
    """A plain np.unique (also with axis=0) imports numpy.ma, about 16 ms of
    a cold run; the kernels dedupe through return_index, which does not.
    Nor may a run import numpy.random: the samples come from the stdlib
    random module, and numpy.random raised the peak RSS of a cold m2f3 run
    by about 6 MB (18 %).  Nor dataclasses, whose generated methods cost
    about 4 ms of every import (the records are NamedTuples or plain
    classes), nor argparse, which only cli.main reads."""
    configs = str(Path(__file__).resolve().parent.parent / "configs")
    proc = run_fresh(f"CONFIGS = {configs!r}" + COLD_RUNS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"
