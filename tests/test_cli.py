"""End-to-end command line tests over the fixture repository and crafted inputs."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from monosplit import (
    MetricsRecord,
    ResultRow,
    Weights,
    classify_group,
    cluster_counts,
    load_access_model,
    read_git_log,
    write_results_csv,
)
from conftest import DATA
from monosplit.cli import build_parser, main
from monosplit.sweep import CSV_COLUMNS


def _mine(fixture_repo, tmp_path, name="history.json"):
    out = tmp_path / name
    assert main(["mine", str(fixture_repo), "--out", str(out)]) == 0
    return out


# ------------------------------------------------------------------ plumbing

README = Path(__file__).resolve().parents[1] / "README.md"


def _option_strings(parser):
    """A parser's option strings, without -h/--help."""
    return {
        option
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


def _readme_usage_blocks():
    """Each untagged fenced README block that starts `monosplit <command>`: its command and flags."""
    blocks = {}
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line.startswith("```"):
            # takewhile also consumes the closing fence
            body = " ".join(itertools.takewhile(lambda text: not text.startswith("```"), lines))
            words = body.split()
            if line == "```" and words[:1] == ["monosplit"]:
                assert words[1] not in blocks, f"two usage blocks for {words[1]}"
                blocks[words[1]] = set(re.findall(r"--[a-z][a-z-]*", body))
    return blocks


def test_readme_usage_blocks_list_the_parser_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _readme_usage_blocks() == {
        command: _option_strings(sub) for command, sub in commands.choices.items()
    }
    (global_flags,) = re.findall(r"^Global flags.*?\n\n", README.read_text(), re.M | re.S)
    assert set(re.findall(r"--[a-z][a-z-]*", global_flags)) == _option_strings(parser)


_COLD_START = """
import json, sys
import monosplit.cli
loaded = [m for m in ("scipy", "concurrent.futures.process") if m in sys.modules]
from monosplit.analysis import welch_test
p_value = welch_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]).p_value
print(json.dumps({"loaded": loaded, "p_value": p_value, "special": "scipy.special" in sys.modules}))
"""


def test_cli_import_leaves_scipy_and_the_process_pool_unloaded():
    # a fresh interpreter: this one has scipy loaded already, by test_clustering.py
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, check=True
    )
    facts = json.loads(child.stdout)
    assert facts["loaded"] == []
    assert facts["p_value"] == pytest.approx(0.8267, abs=5e-4)  # test_welch_reference_case
    assert facts["special"]


_TWO_CALLS = """
import contextlib, io, json, sys
from monosplit.cli import main
history, accesses, out, quiet_first = sys.argv[1:]
buffers = []
for quiet in ([True, False] if quiet_first == "1" else [False, True]):
    buffers.append(io.StringIO())
    with contextlib.redirect_stderr(buffers[-1]):
        flags = ["--quiet"] if quiet else []
        main(flags + ["sweep", "--history", history, "--accesses", accesses,
                      "--codebase", "shop", "--step", "50", "--out", out])
print(json.dumps([buffer.getvalue() for buffer in buffers]))
"""


@pytest.mark.parametrize("quiet_first", [True, False])
def test_each_call_applies_its_own_quiet_on_its_own_stderr(tmp_path, accesses_path, quiet_first):
    """Two calls in one process: each one's stderr holds its own warnings and no other's.

    A fresh interpreter, since pytest's handlers on the root logger hide a handler
    that the first call leaves behind.
    """
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"fileChanges": {}, "authorship": {}}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    args = [str(history), str(accesses_path), str(tmp_path / "results.csv"), str(int(quiet_first))]
    child = subprocess.run(
        [sys.executable, "-c", _TWO_CALLS, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    assert child.stderr == ""
    quiet, loud = json.loads(child.stdout)[:: 1 if quiet_first else -1]
    dropped = 21 * len(cluster_counts(3))  # 21 vectors on the step-50 grid, 3 entities
    assert quiet == ""
    assert loud.splitlines() == [
        *(
            f"WARNING monosplit.similarity: entity {entity}: no history file named {entity}.java"
            for entity in ("Order", "Product", "User")
        ),
        f"WARNING monosplit.sweep: dropped all {dropped} rows of shop: history has no authors",
        f"{dropped} rows failed and were dropped",
    ]


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "monosplit" in capsys.readouterr().out


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "mine" in capsys.readouterr().out


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["mine", "somewhere", "--frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_names_it(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--history", "h.json", "--codebase", "demo", "--out", "r.csv"])
    assert info.value.code == 2
    assert "--accesses" in capsys.readouterr().err


# ---------------------------------------------------------------------- mine


def test_mine_repository_and_saved_log_agree(fixture_repo, tmp_path):
    from_repo = _mine(fixture_repo, tmp_path, "from_repo.json")
    log_path = tmp_path / "saved.log"
    log_path.write_text(read_git_log(str(fixture_repo)), encoding="utf-8")
    from_log = tmp_path / "from_log.json"
    assert main(["mine", str(log_path), "--out", str(from_log)]) == 0
    assert from_repo.read_text() == from_log.read_text()


def test_mine_is_deterministic(fixture_repo, tmp_path):
    first = _mine(fixture_repo, tmp_path, "one.json")
    second = _mine(fixture_repo, tmp_path, "two.json")
    assert first.read_text() == second.read_text()


def test_mine_tracks_renames_and_authors(fixture_repo, tmp_path):
    history = json.loads(_mine(fixture_repo, tmp_path).read_text())
    changes = history["fileChanges"]
    assert set(changes) == {"src/Order.java", "src/User.java", "src/catalog/Product.java"}
    # rename kept one identity for Product across the move
    assert changes["src/catalog/Product.java"]["count"] >= 2
    assert history["authorship"]["src/Order.java"] == [
        "alice@example.com",
        "bob@example.com",
    ]


def test_mine_missing_source_is_usage_error(tmp_path, capsys):
    code = main(["mine", str(tmp_path / "nowhere"), "--out", str(tmp_path / "h.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--window-secs", "-10", "argument --window-secs: expected a non-negative integer"),
        ("--max-files", "0", "argument --max-files: expected a positive integer"),
    ],
    ids=["window-secs", "max-files"],
)
def test_bad_mine_flag_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "history.json"
    with pytest.raises(SystemExit) as info:
        main(["mine", str(DATA / "bundling.log"), flag, value, "--out", str(out)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mine_takes_a_zero_bundling_window(tmp_path):
    out = tmp_path / "history.json"
    assert main(["mine", str(DATA / "bundling.log"), "--window-secs", "0", "--out", str(out)]) == 0
    assert out.exists()


def test_mine_garbage_log_is_pipeline_error(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("this is not a git log\n", encoding="utf-8")
    code = main(["mine", str(bad), "--out", str(tmp_path / "h.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------- decompose


def test_decompose_writes_partition_and_matrix(fixture_repo, tmp_path, accesses_path):
    history = _mine(fixture_repo, tmp_path)
    out = tmp_path / "decomposition.json"
    matrix_out = tmp_path / "matrix.csv"
    code = main(
        [
            "decompose",
            "--history", str(history),
            "--accesses", str(accesses_path),
            "--weights", "0,0,0,100,0,0",
            "--clusters", "2",
            "--codebase", "shop",
            "--matrix-out", str(matrix_out),
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["codebase"] == "shop"
    assert data["nClusters"] == 2
    assert data["weights"] == [0, 0, 0, 100, 0, 0]
    members = sorted(e for cluster in data["clusters"] for e in cluster)
    assert members == ["Order", "Product", "User"]
    assert matrix_out.read_text().splitlines()[0] == "entity,Order,Product,User"


@pytest.mark.parametrize("weights", ["1,2", "10,10,10,10,10,10", "a,b,c,d,e,f", "110,-10,0,0,0,0"])
def test_decompose_rejects_bad_weights(fixture_repo, tmp_path, accesses_path, weights, capsys):
    history = _mine(fixture_repo, tmp_path)
    code = main(
        [
            "decompose",
            "--history", str(history),
            "--accesses", str(accesses_path),
            "--weights", weights,
            "--clusters", "2",
            "--out", str(tmp_path / "d.json"),
        ]
    )
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_decompose_impossible_cut_is_pipeline_error(fixture_repo, tmp_path, accesses_path, capsys):
    history = _mine(fixture_repo, tmp_path)
    code = main(
        [
            "decompose",
            "--history", str(history),
            "--accesses", str(accesses_path),
            "--weights", "100,0,0,0,0,0",
            "--clusters", "99",
            "--out", str(tmp_path / "d.json"),
        ]
    )
    assert code == 1
    assert "cannot cut" in capsys.readouterr().err


@pytest.mark.parametrize("clusters", ["0", "-2"])
def test_decompose_bad_cluster_count_is_usage_error(tmp_path, accesses_path, capsys, clusters):
    out = tmp_path / "d.json"
    with pytest.raises(SystemExit) as info:
        main(
            [
                "decompose",
                "--history", str(tmp_path / "never-read.json"),
                "--accesses", str(accesses_path),
                "--weights", "100,0,0,0,0,0",
                "--clusters", clusters,
                "--out", str(out),
            ]
        )
    assert info.value.code == 2
    assert "argument --clusters: expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_missing_history_file_is_usage_error(tmp_path, accesses_path):
    code = main(
        [
            "decompose",
            "--history", str(tmp_path / "missing.json"),
            "--accesses", str(accesses_path),
            "--weights", "100,0,0,0,0,0",
            "--clusters", "2",
            "--out", str(tmp_path / "d.json"),
        ]
    )
    assert code == 2


# --------------------------------------------------------------------- sweep


def test_sweep_full_grid(fixture_repo, tmp_path, accesses_path):
    history = _mine(fixture_repo, tmp_path)
    results = tmp_path / "results.csv"
    code = main(
        [
            "sweep",
            "--history", str(history),
            "--accesses", str(accesses_path),
            "--codebase", "shop",
            "--out", str(results),
        ]
    )
    assert code == 0
    lines = results.read_text().splitlines()
    assert len(lines) == 3004
    assert lines[0].startswith("codebase,nClusters,")
    assert all(line.split(",")[1] == "3" for line in lines[1:])


def test_sweep_parallelism_flag_matches_serial(fixture_repo, tmp_path, accesses_path):
    history = _mine(fixture_repo, tmp_path)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = [
        "sweep",
        "--history", str(history),
        "--accesses", str(accesses_path),
        "--codebase", "shop",
    ]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(["--parallelism", "2"] + base + ["--out", str(parallel)]) == 0
    assert serial.read_text() == parallel.read_text()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["sweep", "--step", "7"], "argument --step: invalid choice: 7"),
        (["--parallelism", "0", "sweep"], "argument --parallelism: expected a positive integer"),
    ],
    ids=["step", "parallelism"],
)
def test_bad_step_or_parallelism_is_usage_error(
    fixture_repo, tmp_path, accesses_path, capsys, flags, message
):
    history = _mine(fixture_repo, tmp_path)
    results = tmp_path / "results.csv"
    args = ["--history", str(history), "--accesses", str(accesses_path), "--codebase", "shop"]
    with pytest.raises(SystemExit) as info:
        main(flags + args + ["--out", str(results)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not results.exists()


def test_sweep_is_deterministic(fixture_repo, tmp_path, accesses_path):
    history = _mine(fixture_repo, tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(
            [
                "sweep",
                "--history", str(history),
                "--accesses", str(accesses_path),
                "--codebase", "shop",
                "--out", str(out),
            ]
        ) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_sweep_over_a_history_without_authors_drops_every_row(
    tmp_path, accesses_path, capsys, parallelism
):
    """No author leaves the team size ratio undefined: a domain error, so each row is dropped."""
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"fileChanges": {}, "authorship": {}}))
    results = tmp_path / "results.csv"
    code = main(
        [
            "--parallelism", parallelism,
            "sweep",
            "--history", str(history),
            "--accesses", str(accesses_path),
            "--codebase", "shop",
            "--step", "50",
            "--out", str(results),
        ]
    )
    assert code == 0
    assert results.read_text() == ",".join(CSV_COLUMNS) + "\n"
    entities = load_access_model(accesses_path.read_text()).entities
    dropped = 21 * len(cluster_counts(len(entities)))  # 21 vectors on the step-50 grid
    assert f"{dropped} rows failed and were dropped" in capsys.readouterr().err


# ------------------------------------------------------------------- analyze


def _crafted_results(tmp_path):
    def row(vector, combined):
        weights = Weights(*vector)
        record = MetricsRecord(0.25, 0.5, 0.125, 0.25, combined)
        return ResultRow("shop", 3, weights, classify_group(weights), record)

    rows = [
        row((100, 0, 0, 0, 0, 0), 0.20),
        row((90, 10, 0, 0, 0, 0), 0.30),
        row((80, 20, 0, 0, 0, 0), 0.40),
        row((10, 0, 0, 0, 90, 0), 0.10),
        row((20, 0, 0, 0, 80, 0), 0.15),
        row((30, 0, 0, 0, 70, 0), 0.50),
    ]
    path = tmp_path / "results.csv"
    path.write_text(write_results_csv(rows), encoding="utf-8")
    return path


def test_analyze_defaults_to_summaries(tmp_path):
    results = _crafted_results(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(results), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"summaries"}
    combined = report["summaries"]["combined"]
    assert combined["SEQUENCES_ONLY"]["count"] == 3
    assert combined["SEQUENCES_ONLY"]["median"] == pytest.approx(0.3)
    assert combined["COMBINED"]["count"] == 3
    assert combined["FILES_ONLY"] == {"count": 0}


def test_analyze_best_section(tmp_path):
    results = _crafted_results(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(results), "--best", "combined", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    best = report["best"]
    assert best["metric"] == "combined"
    assert len(best["rows"]) == 1
    assert best["rows"][0]["combined"] == pytest.approx(0.10)
    assert best["rows"][0]["group"] == "COMBINED"
    assert best["shareByGroup"] == {"COMBINED": 100.0}


def test_analyze_welch_section(tmp_path):
    results = _crafted_results(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "analyze", str(results),
            "--welch", "SEQUENCES_ONLY", "COMBINED", "combined",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    welch = json.loads(report_path.read_text())["welch"]
    assert set(welch) == {"t", "df", "p"}
    assert welch["t"] > 0  # sequences-only sample mean is higher
    assert 0.0 <= welch["p"] <= 1.0


def test_analyze_size_split_section(tmp_path):
    results = _crafted_results(tmp_path)
    stats = tmp_path / "stats.csv"
    stats.write_text(
        "codebase,commits,authors\nshop,10,2\nblog,12,2\nwiki,11,2\nbank,500,40\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    code = main(
        ["analyze", str(results), "--size-split", str(stats), "--out", str(report_path)]
    )
    assert code == 0
    section = json.loads(report_path.read_text())["sizeLabels"]
    assert section["labels"]["bank"] == {"commits": "LARGE", "authors": "LARGE"}
    assert section["labels"]["shop"] == {"commits": "SMALL", "authors": "SMALL"}
    assert section["commitThreshold"] > 0


def test_analyze_is_deterministic(tmp_path):
    results = _crafted_results(tmp_path)
    texts = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(
            ["analyze", str(results), "--groups", "--best", "cohesion", "--out", str(out)]
        ) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_analyze_rejects_unknown_group(tmp_path, capsys):
    results = _crafted_results(tmp_path)
    code = main(
        [
            "analyze", str(results),
            "--welch", "NO_SUCH_GROUP", "COMBINED", "combined",
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2
    assert "unknown group" in capsys.readouterr().err


def test_analyze_rejects_unknown_welch_metric(tmp_path, capsys):
    results = _crafted_results(tmp_path)
    code = main(
        [
            "analyze", str(results),
            "--welch", "SEQUENCES_ONLY", "COMBINED", "speed",
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2
    assert "unknown metric" in capsys.readouterr().err


def test_analyze_garbage_results_is_pipeline_error(tmp_path, capsys):
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("just,some,noise\n1,2,3\n", encoding="utf-8")
    code = main(["analyze", str(garbage), "--out", str(tmp_path / "report.json")])
    assert code == 1
    assert "results CSV" in capsys.readouterr().err


def test_analyze_has_no_sample_std_flag(tmp_path):
    """The size split always takes the population deviation: the former flag is unknown."""
    stats = tmp_path / "stats.csv"
    stats.write_text("codebase,commits,authors\na,1,2\nb,3,4\n", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(
            [
                "analyze", str(_crafted_results(tmp_path)),
                "--size-split", str(stats), "--sample-std",
                "--out", str(tmp_path / "report.json"),
            ]
        )
    assert info.value.code == 2


def test_analyze_bad_stats_file_is_usage_error(tmp_path, capsys):
    results = _crafted_results(tmp_path)
    stats = tmp_path / "stats.csv"
    header = "codebase,commits,authors\n"
    bad_count = "counts must be finite and not negative"
    cases = [
        ("wrong,header\n1,2\n", "codebase,commits,authors"),
        (header + "a,nan,3\nb,5,6\n", bad_count),
        (header + "a,1,inf\nb,5,6\n", bad_count),
        (header + "a,1,-inf\nb,5,6\n", bad_count),
        (header + "a,-1,3\nb,5,6\n", bad_count),
        (header + "a,1,3\nb,5,-0.5\n", bad_count),
        (header + "a,1,3\nb,5,6\na,7,8\n", "codebase listed twice: 'a'"),
        (header + ",5,6\nb,5,6\n", "codebase name empty or padded with spaces"),
        (header + " a,7,8\nb,5,6\n", "codebase name empty or padded with spaces"),
        (header + "a ,7,8\nb,5,6\n", "codebase name empty or padded with spaces"),
        (header + "b,5,6\n a ,7,8\n", "codebase name empty or padded with spaces"),
    ]
    for text, message in cases:
        stats.write_text(text, encoding="utf-8")
        report = tmp_path / "r.json"
        code = main(["analyze", str(results), "--size-split", str(stats), "--out", str(report)])
        assert code == 2, text
        assert message in capsys.readouterr().err, text
        assert not report.exists()
