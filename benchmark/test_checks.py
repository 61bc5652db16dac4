"""The benchmark's own tests: each check rejects a deliberately wrong output.

    python3 -m pytest benchmark -q
"""

import copy
import json
import os
import random
import subprocess

import pytest

import run  # sets up the import paths of the program and the oracles
import reference as ref
from inputs import ModelSpec, RepoSpec, build_repo, make_model, write_model

SMALL = ModelSpec(entities=12, functionalities=8, trace_len=6, authors=4, commits=30, max_commit_files=4)
STEP = 50


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A real sweep, analysis and decomposition of a small seeded model."""
    directory = str(tmp_path_factory.mktemp("sweep"))
    model = make_model(random.Random("test/1"), SMALL)
    accesses, history = write_model(model, directory)
    csv_path = os.path.join(directory, "results.csv")
    report_path = os.path.join(directory, "report.json")
    run.cli(["sweep", "--history", history, "--accesses", accesses, "--codebase", "small",
             "--step", str(STEP), "--out", csv_path])
    run.cli(["analyze", csv_path, "--groups", "--best", "combined", "--welch", *run.WELCH,
             "--out", report_path])
    weights, k = (0, 0, 0, 100, 0, 0), 4
    out = os.path.join(directory, "d.json")
    matrix = os.path.join(directory, "d.csv")
    run.cli(["decompose", "--history", history, "--accesses", accesses, "--weights",
             ",".join(map(str, weights)), "--clusters", str(k), "--codebase", "small",
             "--matrix-out", matrix, "--out", out])
    return {
        "model": model,
        "csv": run.read(csv_path),
        "report": json.loads(run.read(report_path)),
        "decomposition": run.read(out),
        "matrix": run.read(matrix),
        "pair": (weights, k),
    }


def _rows(swept):
    return ref.check_results_csv(swept["csv"], "small", SMALL.entities, STEP)


def _edit_csv_cell(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_results_csv_accepts_the_program_output(swept):
    rows = _rows(swept)
    assert len(rows) == ref.expected_row_count(SMALL.entities, STEP) == 21 * 3


@pytest.mark.parametrize("column, value", [(8, "HISTORY"), (13, "0.999999"), (9, "1.5"), (1, "6")])
def test_results_csv_rejects_a_wrong_cell(swept, column, value):
    wrong = _edit_csv_cell(swept["csv"], 1, column, value)
    with pytest.raises(ref.CheckError):
        ref.check_results_csv(wrong, "small", SMALL.entities, STEP)


def test_results_csv_rejects_a_duplicate_row(swept):
    lines = swept["csv"].splitlines()
    with pytest.raises(ref.CheckError):
        ref.check_results_csv("\n".join(lines + [lines[1]]) + "\n", "small", SMALL.entities, STEP)


def test_report_accepts_the_program_output(swept):
    winners = ref.check_report(swept["report"], _rows(swept), "small", "combined", run.WELCH)
    assert [k for _, k in winners] == [3, 4, 5]


def test_report_rejects_a_quartile_off_by_one_row(swept):
    rows = _rows(swept)
    values = sorted(v[4] for (w, _), v in rows.items() if ref.group_of(w) == "COMBINED")
    report = copy.deepcopy(swept["report"])
    entry = report["summaries"]["combined"]["COMBINED"]
    assert values[1:] != values[:-1]
    entry["q1"] = round(ref.oracles.quantile_measure(values[1:], 0.25), 6)
    assert entry["q1"] != swept["report"]["summaries"]["combined"]["COMBINED"]["q1"]
    with pytest.raises(ref.CheckError):
        ref.check_report(report, rows, "small", "combined", run.WELCH)


def test_report_rejects_a_wrong_best_row(swept):
    report = copy.deepcopy(swept["report"])
    report["best"]["rows"][0]["wAccess"], report["best"]["rows"][0]["wRead"] = (
        report["best"]["rows"][0]["wRead"], report["best"]["rows"][0]["wAccess"] + 1)
    with pytest.raises(ref.CheckError):
        ref.check_report(report, _rows(swept), "small", "combined", run.WELCH)


def test_report_rejects_a_wrong_welch_p(swept):
    report = copy.deepcopy(swept["report"])
    report["welch"]["p"] = round(report["welch"]["p"] + 0.001, 6)
    with pytest.raises(ref.CheckError):
        ref.check_report(report, _rows(swept), "small", "combined", run.WELCH)


def test_decomposition_matches_its_sweep_row(swept):
    weights, k = swept["pair"]
    entities, stack = ref.measure_stack(swept["model"])
    clusters = ref.check_decomposition(swept["decomposition"], "small", weights, k, entities)
    ref.check_matrix_csv(swept["matrix"], entities, stack, weights)
    metrics = ref.MetricOracle(swept["model"]).metrics(clusters)
    ref.check_metrics(metrics, _rows(swept)[(weights, k)], "decompose")


def test_decomposition_with_one_entity_moved_disagrees_with_its_row(swept):
    weights, k = swept["pair"]
    entities, _ = ref.measure_stack(swept["model"])
    clusters = ref.check_decomposition(swept["decomposition"], "small", weights, k, entities)
    source = max(clusters, key=len)
    target = next(c for c in clusters if c is not source)
    target.append(source.pop())
    metrics = ref.MetricOracle(swept["model"]).metrics(clusters)
    with pytest.raises(ref.CheckError):
        ref.check_metrics(metrics, _rows(swept)[(weights, k)], "decompose")


def test_decomposition_shape_is_checked(swept):
    weights, k = swept["pair"]
    entities, _ = ref.measure_stack(swept["model"])
    raw = json.loads(swept["decomposition"])
    raw["clusters"][0] = raw["clusters"][0][1:]
    with pytest.raises(ref.CheckError):
        ref.check_decomposition(json.dumps(raw), "small", weights, k, entities)


def test_matrix_csv_rejects_one_wrong_cell(swept):
    weights, _ = swept["pair"]
    entities, stack = ref.measure_stack(swept["model"])
    cells = swept["matrix"].splitlines()[2].split(",")
    wrong = swept["matrix"].replace(",".join(cells), ",".join(cells[:2] + ["0.123456"] + cells[3:]), 1)
    assert wrong != swept["matrix"]
    with pytest.raises(ref.CheckError):
        ref.check_matrix_csv(wrong, entities, stack, weights)


def test_single_measure_vectors_are_order_free_and_probe_pairs_are_not():
    _, stack = ref.measure_stack(make_model(random.Random(run.PROBE_SEED), run.PROBE_SPEC))
    assert ref.decompose_is_order_free(stack, (0, 0, 0, 100, 0, 0), 3)
    for weights, k in run.PROBE_PAIRS:
        assert not ref.decompose_is_order_free(stack, weights, k)


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("mine"))
    spec = RepoSpec(commits=300, authors=4, stable_files=120, bulk_every=60)
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.path.join(directory, "none"))
    record = build_repo(random.Random("test/repo"), spec, os.path.join(directory, "r.git"), env)
    out = os.path.join(directory, "h.json")
    run.cli(["mine", os.path.join(directory, "r.git"), "--out", out])
    return spec, record, run.read(out)


def test_history_check_accepts_the_mined_history(mined):
    spec, record, text = mined
    assert any(s == "R" for _, _, ops in record.commits for s, _ in ops)
    assert any(len(ops) > spec.max_files for _, _, ops in record.commits)
    ref.check_history(text, ref.expected_history(record, spec))


def test_history_check_rejects_a_history_missing_a_renamed_file(mined):
    spec, record, text = mined
    renamed = next(record.files[f].path for _, _, ops in record.commits for s, f in ops
                   if s == "R" and record.files[f].alive)
    raw = json.loads(text)
    del raw["fileChanges"][renamed], raw["authorship"][renamed]
    with pytest.raises(ref.CheckError):
        ref.check_history(json.dumps(raw), ref.expected_history(record, spec))


def test_history_check_rejects_a_wrong_bundle_count(mined):
    spec, record, text = mined
    raw = json.loads(text)
    name = sorted(raw["fileChanges"])[0]
    raw["fileChanges"][name]["count"] += 1
    with pytest.raises(ref.CheckError):
        ref.check_history(json.dumps(raw), ref.expected_history(record, spec))


def test_known_mining_faults_are_told_apart(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")  # a user's core.quotePath must not hide the fault
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(tmp_path / "none"))
    env = dict(os.environ)
    workload = run.MineWorkload()
    workload.dir = str(tmp_path)
    workload.verified = {}
    causes = {}
    for label, spec in run.FAULT_REPOS.items():
        path = str(tmp_path / f"{label}.git")
        record = build_repo(random.Random(f"fault/{label}"), spec, path, env)
        with pytest.raises(run.Failure) as failure:
            workload._mine(label, path, spec, record)
        causes[label] = failure.value.cause
    assert causes == {"type_change": "type_change_abort", "quoted_path": "quoted_path_dropped"}


def test_same_seed_gives_identical_inputs(tmp_path):
    spec = RepoSpec(commits=80, authors=3, stable_files=20, bulk_every=0)
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=str(tmp_path / "none"))
    heads = []
    for attempt, seed in enumerate(("a", "a", "b")):
        path = str(tmp_path / f"r{attempt}.git")
        build_repo(random.Random(seed), spec, path, env)
        heads.append(subprocess.run(["git", "-C", path, "rev-parse", "HEAD"], env=env,
                                    capture_output=True, text=True, check=True).stdout)
    assert heads[0] == heads[1] != heads[2]
    first, second = (make_model(random.Random("m/1"), SMALL) for _ in range(2))
    assert first.accesses_json() == second.accesses_json()
    assert first.history_json() == second.history_json()
    assert make_model(random.Random("m/2"), SMALL).accesses_json() != first.accesses_json()


def test_a_name_that_is_gone_is_reported_as_not_measured(monkeypatch):
    import tracing

    gone = [("monosplit.history", "gone_function", "history.gone_function", None),
            ("monosplit.gone_module", "function", "gone.function", None)]
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + gone)
    tracer = tracing.Tracer()
    assert tracer.not_measured == ["monosplit.history.gone_function", "monosplit.gone_module.function"]
    tracer.install()
    tracer.uninstall()
    assert tracer.metrics(1)["history.prune_deleted_s"] == (0.0, "s")
