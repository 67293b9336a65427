import ast
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
    passes,
    run,
)
from chaingeom.projline import enumerate_points

from reference import corrupt, pairwise_adjacency, reference_levels


def small_config(tmp_path, tasks, ring=None, output=None, **extra):
    data = {
        "schema": 1,
        "ring": ring or {"family": "finite-field", "q": 4},
        "subfield": "prime" if ring is None else "scalar",
        "tasks": tasks,
        "output": output or {},
        **extra,
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


def test_unknown_task_is_config_error(tmp_path, capsys):
    """A task name that is no registered name, a JSON array or a JSON
    object among them, exits 2 with a config error, not a traceback."""
    for name in ("no-such-task", ["enumerate-points"], {"name": "enumerate-points"}):
        path = small_config(tmp_path, [{"name": name}])
        with pytest.raises(ConfigError, match="unknown task"):
            load_config(str(path))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2, name
        assert capsys.readouterr().err.startswith("config error: unknown task"), name
        assert not (tmp_path / "report.json").exists()


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
    body = {"n": np.int64(3), "flag": np.bool_(True), "rows": (np.intp(1), [np.int8(2)]),
            "set": {3, 1}}
    got = _jsonable(body)
    assert got == {"n": 3, "flag": True, "rows": [1, [2]], "set": [1, 3]}
    assert [type(v) for v in (got["n"], got["flag"], got["rows"][0])] == [int, bool, int]
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
    monkeypatch.setitem(TASKS, "distant-graph", TASKS["distant-graph"]._replace(
        suite=lambda geom: {"rows": np.array([[0, 1]])}))
    path = small_config(tmp_path, [{"name": "distant-graph"}, {"name": "enumerate-points"}])
    report, all_pass = run(load_config(str(path)), out_dir=str(tmp_path))
    assert not all_pass
    bad, good = report["tasks"]
    assert bad["status"] == "fail" and bad["error"].startswith("TypeError: a report holds")
    assert "rows" not in bad
    assert good["status"] == "pass" and good["points"] == 5
    assert json.loads((tmp_path / "report.json").read_text())["tasks"] == report["tasks"]


def test_a_task_passes_iff_its_report_holds_every_verdict(tmp_path, monkeypatch):
    """passes() compares every verdict of the task with the value it must
    hold.  A verdict left out of the report fails the task, with an error
    that names it, unless its check may not apply (opposite_equivalent,
    length2_covers_line)."""
    spec = TASKS["duality-suite"]
    clean = {**spec.verdicts, "mode": "stub"}
    assert passes("duality-suite", clean)
    assert not passes("duality-suite", {**clean, "covariance_failures": 2})
    assert not passes("duality-suite", {**clean, "bidual_fixed": False})
    path = small_config(tmp_path, [{"name": "duality-suite"}])
    for left_out, status in (("covariance_failures", "fail"), ("bijection", "fail"),
                             ("opposite_equivalent", "pass"), ("length2_covers_line", "pass")):
        body = {k: v for k, v in clean.items() if k != left_out}
        monkeypatch.setitem(TASKS, "duality-suite",
                            spec._replace(suite=lambda geom, body=body: dict(body)))
        report, all_pass = run(load_config(str(path)), out_dir=str(tmp_path))
        (task,) = report["tasks"]
        assert task["status"] == status and all_pass is (status == "pass"), left_out
        if status == "fail":
            assert task == {"name": "duality-suite", "status": "fail", "error":
                            "VerificationError: the report of duality-suite lacks "
                            f"its verdict {left_out}"}


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


@pytest.mark.parametrize("name", ["f4", "dual2", "m2f2"])
def test_dot_text_matches_the_pairwise_graph(request, tmp_path, name):
    """The whole DOT text, byte for byte, against the scalar mat_invert on
    every pair and one plain BFS per point: a node line per point with its
    component, then an edge line per distant pair i < j, row by row."""
    g = request.getfixturevalue(f"{name}_g")
    pts = g.points
    pairs = pairwise_adjacency(g.ring, pts, itertools.combinations(range(len(pts)), 2))
    adj = np.zeros((len(pts), len(pts)), dtype=bool)
    for (i, j), edge in pairs.items():
        adj[i, j] = adj[j, i] = edge
    component, _ = reference_levels(adj)
    label = [f'"({a},{b})"' for a, b in pts]
    want = (["graph distant {"]
            + [f"  {v} [component={c}];" for v, c in zip(label, component)]
            + [f"  {label[i]} -- {label[j]};" for (i, j), edge in pairs.items() if edge]
            + ["}"])
    path = tmp_path / f"{name}.dot"
    export_dot(g.graph, str(path))
    assert path.read_text() == "\n".join(want) + "\n"


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


@pytest.mark.parametrize("task, ring, extra", [
    # a misspelled options key must not run the task with its defaults
    ({"name": "duality-suite", "option": {"samples": 0, "seed": -5}}, None, {}),
    ({"name": "enumerate-points", "options": {}, "note": "x"}, None, {}),
    ({"name": "enumerate-points"}, {"family": "finite-field", "q": 4, "Q": 4}, {}),
    ({"name": "enumerate-points"}, None, {"outputs": {"report": "x.json"}}),
    ({"name": "enumerate-points"}, None, {"subfields": "prime"}),
], ids=["task-option", "task-note", "ring-Q", "outputs", "subfields"])
def test_unknown_key_is_config_error(tmp_path, task, ring, extra):
    """A key outside the config's layout, in a task object, in ring or at
    the top level, fails before any task runs, as an unknown output key
    does."""
    path = small_config(tmp_path, [task], ring=ring, **extra)
    with pytest.raises(ConfigError, match="takes no key"):
        load_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "x.json").exists()


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


def test_derive_plane_rings_are_one_set():
    """The config check reads the set of rings that derive_plane itself
    tests, not a copy."""
    from chaingeom import compat
    assert cli.DERIVE_PLANE_RINGS is compat.DERIVE_PLANE_RINGS
    assert compat.DERIVE_PLANE_RINGS == {("matrix2", 2), ("matrix2", 3)}


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
    a cold run; the kernels dedupe rows by set lookups of their row_keys,
    and call np.unique only with return_counts or return_inverse, which do
    not import it.
    Nor may a run import numpy.random: the samples come from the stdlib
    random module, and numpy.random raised the peak RSS of a cold m2f3 run
    by about 6 MB (18 %).  Nor dataclasses, whose generated methods cost
    about 4 ms of every import (the records are NamedTuples or plain
    classes), nor argparse, which only cli.main reads."""
    configs = str(Path(__file__).resolve().parent.parent / "configs")
    proc = run_fresh(f"CONFIGS = {configs!r}" + COLD_RUNS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


VOID_UNIQUE_RUNS = """
import glob, tempfile
import numpy as np
unique = np.unique
def refuse_void(ar, *args, **kwargs):
    if np.asarray(ar).dtype.kind == "V":
        raise AssertionError("np.unique over np.void keys")
    return unique(ar, *args, **kwargs)
np.unique = refuse_void
from chaingeom.cli import load_config, run
failed = []
for path in sorted(glob.glob(CONFIGS + "/*.json")):
    with tempfile.TemporaryDirectory() as out:
        report, all_pass = run(load_config(path), out_dir=out)
    failed += [(path, t["name"], t.get("error")) for t in report["tasks"]
               if t["status"] != "pass"]
print(failed)
"""


def test_runs_do_not_sort_void_row_keys_with_np_unique(run_fresh):
    """np.unique over np.void row keys takes numpy's generic compare sort;
    a row set is deduplicated in one pass over row_keys(...).tolist(), or by
    comparing adjacent rows of sorted_rows.  Every shipped config runs
    with np.unique refusing an input of dtype kind V, and every task
    passes."""
    configs = str(Path(__file__).resolve().parent.parent / "configs")
    proc = run_fresh(f"CONFIGS = {configs!r}" + VOID_UNIQUE_RUNS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


# The report-level negative control of every verdict of the registry: the
# test, in its module, that makes the verdict false through the real report
# path and asserts that the task then fails.
VERDICT_CONTROLS = {
    ("chain-orbit", "chains_closed"): "test_chains.py::test_chain_report_row_order_fails_alone",
    ("duality-suite", "bijection"):
        "test_duality.py::test_dual_line_state_fails_bijection_and_far_point_image_alone",
    ("duality-suite", "far_point_image"):
        "test_duality.py::test_dual_line_state_fails_bijection_and_far_point_image_alone",
    ("duality-suite", "chain_bijection"):
        "test_duality.py::test_chains_not_carried_fail_chain_bijection_alone",
    ("duality-suite", "word_formula_mismatches"):
        "test_word_sweeps.py::test_corrupted_closed_forms_fail_like_the_reference",
    ("duality-suite", "covariance_failures"):
        "test_duality.py::test_covariance_failures_fail_the_suite_alone",
    ("duality-suite", "bidual_fixed"): "test_duality.py::test_moved_bidual_fails_bidual_fixed_alone",
    ("duality-suite", "opposite_equivalent"): "test_duality.py::test_own_geometry_is_no_opposite",
    ("duality-suite", "length2_covers_line"):
        "test_duality.py::test_uncovered_point_fails_length2_covers_line",
    ("vergleich", "points_fixed"):
        "test_compat.py::test_vergleich_with_a_shifted_perp_fails_points_fixed",
    ("vergleich", "blocks_equal"):
        "test_compat.py::test_vergleich_without_a_dual_chain_fails_blocks_equal",
    ("vergleich", "criterion_consistent"):
        "test_compat.py::test_vergleich_with_a_flipped_partition_check_fails_criterion_consistent",
    ("partial-affine", "cosets_hold"):
        "test_compat.py::test_partial_affine_with_a_coset_failure_fails_cosets_hold",
    ("partial-affine", "exactly_one_block_per_class"):
        "test_compat.py::test_partial_affine_with_a_pair_joined_twice_fails_exactly_one_block",
    ("derive-plane", "two_point_axiom"):
        "test_compat.py::test_derive_plane_with_a_flipped_affine_verdict_fails_that_key",
    ("derive-plane", "playfair"):
        "test_compat.py::test_derive_plane_with_a_flipped_affine_verdict_fails_that_key",
    ("sigma-suite", "far_point_fixed"):
        "test_isomorph.py::test_sigma_with_the_far_index_moved_fails_far_point_fixed_alone",
    ("sigma-suite", "word_formula_mismatches"):
        "test_word_sweeps.py::test_corrupted_closed_forms_fail_like_the_reference",
    ("sigma-suite", "chains_ok"): "test_isomorph.py::test_chains_not_carried_fail_chains_ok_alone",
    ("sigma-suite", "criterion_consistent"):
        "test_isomorph.py::test_sigma_with_the_compatibility_verdict_flipped_fails_criterion_consistent",
}

# The verdicts that no corruption makes false alone, with the reason.
NO_CONTROL_ALONE = {
    ("enumerate-points", "methods_agree"):
        "True whenever the task returns: a disagreement raises, and the task fails "
        "with the error (test_points_task_records_a_method_disagreement)",
}


def test_every_verdict_has_a_control_or_a_reason():
    """Each verdict of the registry has a report-level control test, which
    exists, or a recorded reason why no corruption flips it alone; a
    verdict added without either fails here."""
    verdicts = {(task, key) for task, spec in TASKS.items() for key in spec.verdicts}
    assert not VERDICT_CONTROLS.keys() & NO_CONTROL_ALONE.keys()
    assert VERDICT_CONTROLS.keys() | NO_CONTROL_ALONE.keys() == verdicts
    here = Path(__file__).resolve().parent
    for control in set(VERDICT_CONTROLS.values()):
        module, name = control.split("::")
        tree = ast.parse((here / module).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, control


# The top-level booleans a report states as facts of the scenario, which
# decide no task.
FACTS = {"units_normal", "partitions_equal", "compatibility_preserved", "desargues",
         "degenerate_replacement"}


def test_every_reported_check_is_a_registered_verdict(tmp_path):
    """Over the reports of the shipped configs, every top-level boolean of a
    task is one of its verdicts or a fact, and every *_mismatches or
    *_failures count one of its verdicts; and every count verdict is named
    so, as the benchmark gate's rule for nonzero counters reads them."""
    for cfg in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
        report, all_pass = run(load_config(str(cfg)), out_dir=str(tmp_path))
        assert all_pass, cfg.name
        for task in report["tasks"]:
            verdicts = TASKS[task["name"]].verdicts
            checks = {key for key, value in task.items() if isinstance(value, bool)
                      or key.endswith(("_mismatches", "_failures"))}
            assert checks - FACTS <= verdicts.keys(), (cfg.name, task["name"])
    for spec in TASKS.values():
        for key, value in spec.verdicts.items():
            assert value is True or (value == 0 and key.endswith(("_mismatches", "_failures")))
