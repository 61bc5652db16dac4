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
    DevelopmentHistory,
    MetricsRecord,
    ResultRow,
    Weights,
    classify_group,
    cluster_counts,
    load_access_model,
    read_git_log,
    write_results_csv,
)
from conftest import DATA, EPOCH
from monosplit.cli import build_parser, main
from monosplit.history import GIT_LOG_ARGS
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
def loaded():
    return [m for m in sys.modules
            if m.split(".")[0] == "scipy" or m == "concurrent.futures.process"]
after_import = loaded()
from monosplit.analysis import welch_test
p_value = welch_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]).p_value
print(json.dumps({"after_import": after_import, "after_welch": loaded(), "p_value": p_value}))
"""


def test_cli_import_leaves_scipy_and_the_process_pool_unloaded():
    # a fresh interpreter: this one has scipy loaded already, by test_clustering.py
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, check=True
    )
    facts = json.loads(child.stdout)
    assert facts["after_import"] == []
    # the t tail is computed with math alone
    assert facts["after_welch"] == []
    assert facts["p_value"] == pytest.approx(0.8267, abs=5e-4)  # test_welch_reference_case


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
            f"WARNING monosplit.similarity: entity {entity}: no history file named {entity}"
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


@pytest.fixture(scope="module")
def long_repo(tmp_path_factory):
    """400 commits written by `git fast-import`: a log of about 40 KB, many of git's blocks."""
    repo = tmp_path_factory.mktemp("long_repo")
    stream = []
    for i in range(400):
        body = f"class Module{i % 50} {{}} // {i}\n"
        stream += [
            "commit refs/heads/main",
            f"author Dev <dev{i % 3}@example.com> {EPOCH + 60 * i} +0000",
            f"committer Dev <dev{i % 3}@example.com> {EPOCH + 60 * i} +0000",
            "data 0",
            f"M 644 inline src/pkg{i % 7}/Module{i % 50}.java",
            f"data {len(body)}",
            body,
        ]
    subprocess.run(
        ["git", "-C", str(repo), "-c", "init.defaultBranch=main", "init", "-q"], check=True
    )
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet"],
        input="\n".join(stream).encode(),
        check=True,
        capture_output=True,
    )
    return repo


@pytest.mark.parametrize("repo_fixture", ["fixture_repo", "long_repo"])
def test_buffered_git_output_keeps_every_byte(repo_fixture, request):
    """git run with GIT_FLUSH=0 prints what it prints when it flushes after every commit."""
    repo = str(request.getfixturevalue(repo_fixture))
    flushed = subprocess.run(
        ["git", "-C", repo, *GIT_LOG_ARGS],
        capture_output=True,
        check=True,
        env={**os.environ, "GIT_FLUSH": "1"},
    )
    assert read_git_log(repo) == flushed.stdout.decode(errors="surrogateescape")


def _git_config(monkeypatch, **settings):
    """git reads only these settings, given through the environment, and no config file."""
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_COUNT", str(len(settings)))
    for index, (key, value) in enumerate(settings.items()):
        monkeypatch.setenv(f"GIT_CONFIG_KEY_{index}", key)
        monkeypatch.setenv(f"GIT_CONFIG_VALUE_{index}", value)


def _commit_files(repo, commits):
    """A repository at `repo` with one commit per (message, file names) entry, in order.

    A name is added if new, and else modified.
    """
    repo.mkdir()
    identity = ["-c", "user.name=Dev", "-c", "user.email=dev@example.com"]
    subprocess.run(["git", "-C", str(repo), "init", "-q"], check=True, capture_output=True)
    for message, names in commits:
        for name in names:
            path = repo / name
            text = path.read_text(encoding="utf-8") + "//\n" if path.exists() else "class X {}\n"
            path.write_text(text, encoding="utf-8")
        for args in (["add", "."], [*identity, "commit", "-qm", message]):
            subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


def test_git_sees_the_callers_environment(tmp_path, monkeypatch):
    """Only GIT_FLUSH is set for git: a configuration the caller puts in the environment applies."""
    _git_config(monkeypatch)
    repo = tmp_path / "repo"
    _commit_files(repo, [("cafe", ["Café.java"])])
    assert 'A\t"Caf\\303\\251.java"' in read_git_log(str(repo))
    _git_config(monkeypatch, **{"core.quotePath": "false"})
    assert "A\tCafé.java" in read_git_log(str(repo))


def test_mine_keeps_the_root_commits_files_under_log_show_root_false(tmp_path, monkeypatch):
    """`log.showRoot=false` would drop the root commit's file list; `--root` keeps it."""
    _git_config(monkeypatch)
    repo = tmp_path / "repo"
    _commit_files(repo, [("root", ["Root.java", "A.java"]), ("second", ["A.java", "B.java"])])
    default = _mine(repo, tmp_path, "default.json").read_text()
    _git_config(monkeypatch, **{"log.showRoot": "false"})
    assert _mine(repo, tmp_path, "no_root.json").read_text() == default
    assert DevelopmentHistory.parse(default).files() == ["A.java", "B.java", "Root.java"]


# settings that change nothing in the log `read_git_log` asks git for: each is set
# alone, and the log must be the one under no config at all
NEUTRAL_GIT_CONFIG = [
    ("color.ui", "always"),
    ("color.diff", "always"),
    ("diff.renames", "copies"),
    ("diff.renames", "false"),
    ("diff.renameLimit", "1"),
    ("log.showSignature", "true"),
    ("diff.relative", "true"),
    ("log.follow", "true"),
    ("core.quotePath", "false"),
    ("log.mailmap", "false"),
    ("diff.noprefix", "true"),
    ("diff.mnemonicPrefix", "true"),
    ("log.decorate", "full"),
    ("diff.suppressBlankEmpty", "true"),
    ("status.renames", "false"),
    ("diff.ignoreSubmodules", "all"),
    ("diff.orderFile", "ORDER"),  # a path under the test's directory, made absolute below
    ("log.excludeDecoration", "refs/heads/*"),
]


@pytest.fixture(scope="module")
def renaming_repo(tmp_path_factory):
    """Adds in two directories, renames within and across them, a modify and a delete."""
    repo = tmp_path_factory.mktemp("renaming")
    identity = ["-c", "user.name=Dev", "-c", "user.email=dev@example.com"]

    def commit(message, *changes):
        for args in (*changes, ["add", "-A"], [*identity, "commit", "-qm", message]):
            subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    for directory in ("a", "b"):
        (repo / directory).mkdir()
    for name in ("a/A.java", "a/B.java", "b/C.java", "README.md"):
        (repo / name).write_text(f"class {name} {{}}\n" * 20, encoding="utf-8")
    subprocess.run(["git", "-C", str(repo), "init", "-q"], check=True, capture_output=True)
    commit("one")
    (repo / "a" / "B.java").write_text("class B {}\n", encoding="utf-8")
    commit("two", ["mv", "a/A.java", "b/A.java"], ["mv", "b/C.java", "b/D.java"])
    commit("three", ["rm", "-q", "b/D.java"])
    return repo


@pytest.mark.parametrize(
    ("key", "value"), NEUTRAL_GIT_CONFIG, ids=map("=".join, NEUTRAL_GIT_CONFIG)
)
def test_user_git_config_leaves_the_log_as_it_is(renaming_repo, tmp_path, monkeypatch, key, value):
    _git_config(monkeypatch)
    default = read_git_log(str(renaming_repo))
    assert "R100\ta/A.java\tb/A.java" in default and "D\tb/D.java" in default
    if key == "diff.orderFile":
        order = tmp_path / value
        order.write_text("b/*\nREADME.md\n", encoding="utf-8")
        value = str(order)
    _git_config(monkeypatch, **{key: value})
    assert read_git_log(str(renaming_repo)) == default


def test_mine_counts_one_developer_under_two_emails_once_through_mailmap(tmp_path, monkeypatch):
    """`%aE` maps the author's email through the repository's `.mailmap`."""
    _git_config(monkeypatch)
    repo = tmp_path / "repo"
    _commit_files(repo, [("one", ["A.java"])])
    (repo / ".mailmap").write_text("Dev <new@x.org> <Old@x.org>\n", encoding="utf-8")
    (repo / "A.java").write_text("class A {}\n", encoding="utf-8")
    (repo / "B.java").write_text("class B {}\n", encoding="utf-8")
    identity = ["-c", "user.name=Dev", "-c", "user.email=Old@x.org"]
    for args in (["add", "."], [*identity, "commit", "-qm", "two"]):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)
    history = json.loads(_mine(repo, tmp_path).read_text())
    assert history["authorship"] == {
        "A.java": ["dev@example.com", "new@x.org"],
        "B.java": ["new@x.org"],
    }
    (repo / ".mailmap").write_text("Dev <dev@example.com> <Old@x.org>\n", encoding="utf-8")
    history = json.loads(_mine(repo, tmp_path, "one_author.json").read_text())
    assert history["authorship"] == {"A.java": ["dev@example.com"], "B.java": ["dev@example.com"]}


def test_mine_repository_with_a_line_separator_in_a_name(tmp_path, monkeypatch):
    """Under core.quotePath = false git prints U+2028 as it is; the name stays one file."""
    _git_config(monkeypatch, **{"core.quotePath": "false"})
    repo = tmp_path / "repo"
    _commit_files(repo, [("one", ["a\u2028b.java", "C.java"])])
    assert "A\ta\u2028b.java\n" in read_git_log(str(repo))
    history = DevelopmentHistory.parse(_mine(repo, tmp_path).read_text(encoding="ascii"))
    assert history.files() == ["C.java", "a\u2028b.java"]


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
        # int() reads these as 3600 and 100
        (
            "--window-secs",
            "\u0663\u0666\u0660\u0660",
            "argument --window-secs: expected a non-negative integer",
        ),
        ("--max-files", "\u0661\u0660\u0660", "argument --max-files: expected a positive integer"),
    ],
    ids=["window-secs", "max-files", "window-secs-non-ascii", "max-files-non-ascii"],
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


def test_mine_repository_with_a_name_that_is_not_utf8(tmp_path, monkeypatch):
    """Under core.quotePath = false git prints a Latin-1 name's raw byte; it stays its own file."""
    config = tmp_path / "gitconfig"
    config.write_text(
        "[core]\n\tquotePath = false\n[user]\n\tname = Dev\n\temail = dev@example.com\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    repo = tmp_path / "repo"
    repo.mkdir()
    for name in (b"Caf\xe9.java", "Café.java".encode()):
        with open(os.path.join(os.fsencode(repo), name), "w", encoding="ascii") as handle:
            handle.write("class Cafe {}\n")
    for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "cafes"]):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)
    out = tmp_path / "history.json"
    assert main(["mine", str(repo), "--out", str(out)]) == 0
    # history.json is ASCII: the byte is written as the escape of its surrogate
    assert "\\udce9" in out.read_text(encoding="ascii")
    history = DevelopmentHistory.parse(out.read_text(encoding="ascii"))
    assert history.files() == ["Café.java", "Caf\udce9.java"]


def test_mine_saved_log_with_an_author_byte_that_is_not_utf8(tmp_path):
    log = tmp_path / "saved.log"
    log.write_bytes(b"commit\th1\t1000\tCaf\xe9@Example.com\nA\tA.java\n")
    out = tmp_path / "history.json"
    assert main(["mine", str(log), "--out", str(out)]) == 0
    history = DevelopmentHistory.parse(out.read_text(encoding="ascii"))
    assert history.authors == ("caf\udce9@example.com",)


def test_decompose_and_sweep_read_the_extension_off_the_history(
    fixture_repo, tmp_path, accesses_path, capsys
):
    """A history mined with --ext .kt gives the same measures as its .java twin, with no warning."""
    java_log = read_git_log(str(fixture_repo))
    outputs = []
    for ext in (".java", ".kt"):
        log = tmp_path / f"saved{ext}.log"
        log.write_text(java_log.replace(".java", ext), encoding="utf-8")
        history = tmp_path / f"history{ext}.json"
        assert main(["mine", str(log), "--ext", ext, "--out", str(history)]) == 0
        inputs = ["--history", str(history), "--accesses", str(accesses_path)]
        matrix, decomposition, results = (tmp_path / f"{name}{ext}" for name in "mdr")
        assert main(
            ["decompose", *inputs, "--weights", "0,0,0,0,50,50", "--clusters", "2",
             "--matrix-out", str(matrix), "--out", str(decomposition)]
        ) == 0
        assert main(
            ["sweep", *inputs, "--codebase", "shop", "--step", "50", "--out", str(results)]
        ) == 0
        outputs.append([path.read_text() for path in (matrix, decomposition, results)])
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1]
    # the history measures are not all zero: some cell off the diagonal is positive
    cells = [row.split(",")[1:] for row in outputs[1][0].splitlines()[1:]]
    assert any(float(cell) > 0 for i, row in enumerate(cells) for j, cell in enumerate(row) if i != j)


@pytest.mark.parametrize("command", ["decompose", "sweep"])
def test_decompose_and_sweep_have_no_ext_flag(tmp_path, accesses_path, command):
    """The history settles the entity files' extension: the former flag is unknown."""
    args = {
        "decompose": ["--weights", "100,0,0,0,0,0", "--clusters", "2"],
        "sweep": ["--codebase", "shop"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(
            [
                command,
                "--history", str(tmp_path / "never-read.json"),
                "--accesses", str(accesses_path),
                *args, "--ext", ".java",
                "--out", str(tmp_path / "out"),
            ]
        )
    assert info.value.code == 2


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


@pytest.mark.parametrize(
    "weights", ["1,2", "10,10,10,10,10,10", "a,b,c,d,e,f", "110,-10,0,0,0,0", "1_0,90,0,0,0,0"]
)
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


@pytest.mark.parametrize("clusters", ["0", "-2", "\u0661\u0660"])  # int() reads the last as 10
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
        # int() reads each of these as 10 or 2
        *(
            (["sweep", "--step", step], "argument --step: expected a non-negative integer")
            for step in ("1_0", " 10 ", "\u0661\u0660")
        ),
        (
            ["--parallelism", "\u0662", "sweep"],
            "argument --parallelism: expected a positive integer",
        ),
    ],
    ids=[
        "step",
        "parallelism",
        "step-underscore",
        "step-padded",
        "step-non-ascii",
        "parallelism-non-ascii",
    ],
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
        # quoted as the results CSV is, with a blank and a whitespace-only line
        "codebase,commits,authors\nshop,10,2\n\nblog,12,2\n  \nwiki,11,2\n"
        'bank,500,40\n"shop,eu",9,2\n',
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
    assert section["labels"]["shop,eu"] == {"commits": "SMALL", "authors": "SMALL"}
    assert len(section["labels"]) == 5
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
        (header + 'b,5,6\n"shop,eu,7,8\n', "bad stats row"),  # the quote is never closed
        # counts float() reads as 412, 30 and 412, in forms the results CSV rejects
        (header + "a,4_12,2\nb,5,6\n", "bad stats row"),
        (header + "a,1,3\nb, 30 ,4\n", "bad stats row"),
        (header + "c,\u0664\u0661\u0662,1\nb,5,6\n", "bad stats row"),
    ]
    for text, message in cases:
        stats.write_text(text, encoding="utf-8")
        report = tmp_path / "r.json"
        code = main(["analyze", str(results), "--size-split", str(stats), "--out", str(report)])
        assert code == 2, text
        assert message in capsys.readouterr().err, text
        assert not report.exists()
