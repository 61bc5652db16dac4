"""Shared fixtures: data paths and a deterministic throwaway git repository."""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

ALICE = ("Alice Dev", "alice@example.com")
BOB = ("Bob Dev", "bob@example.com")
EPOCH = 1614592800  # 2021-03-01T10:00:00Z


def _commit_env(author, when):
    name, email = author
    stamp = f"{when} +0000"
    env = os.environ.copy()
    env.update(
        GIT_AUTHOR_NAME=name,
        GIT_AUTHOR_EMAIL=email,
        GIT_COMMITTER_NAME=name,
        GIT_COMMITTER_EMAIL=email,
        GIT_AUTHOR_DATE=stamp,
        GIT_COMMITTER_DATE=stamp,
    )
    return env


def _git(repo, args, env=None):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        env=env,
    )


def _write(repo, relpath, text):
    path = repo / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory):
    """Small deterministic repository: three entities, two authors, one rename."""
    repo = tmp_path_factory.mktemp("fixture_repo") / "shop"
    repo.mkdir()
    _git(repo, ["-c", "init.defaultBranch=main", "init", "-q"])

    _write(repo, "src/Order.java", "class Order { int id; }\n")
    _write(repo, "src/User.java", "class User { String name; }\n")
    _write(repo, "README.md", "demo shop\n")
    _git(repo, ["add", "."])
    _git(repo, ["commit", "-qm", "initial entities"], env=_commit_env(ALICE, EPOCH))

    _write(repo, "src/Product.java", "class Product { String sku; }\n")
    _write(repo, "src/Order.java", "class Order { int id; Product item; }\n")
    _git(repo, ["add", "."])
    _git(repo, ["commit", "-qm", "product support"], env=_commit_env(ALICE, EPOCH + 1800))

    _write(repo, "src/User.java", "class User { String name; int orders; }\n")
    _write(repo, "src/Order.java", "class Order { int id; Product item; User buyer; }\n")
    _git(repo, ["add", "."])
    _git(repo, ["commit", "-qm", "link users to orders"], env=_commit_env(BOB, EPOCH + 90000))

    (repo / "src/catalog").mkdir(parents=True)
    _git(repo, ["mv", "src/Product.java", "src/catalog/Product.java"])
    _git(repo, ["commit", "-qm", "move product to catalog"], env=_commit_env(ALICE, EPOCH + 180000))

    for relpath in ("src/Order.java", "src/User.java", "src/catalog/Product.java"):
        _write(repo, relpath, (repo / relpath).read_text() + "// audited\n")
    _git(repo, ["add", "."])
    _git(repo, ["commit", "-qm", "audit pass"], env=_commit_env(BOB, EPOCH + 270000))
    return repo


@pytest.fixture()
def accesses_path():
    return DATA / "accesses.json"


def log_fixture(name):
    return (DATA / name).read_text()


def load_tracing():
    """benchmark/tracing.py, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
