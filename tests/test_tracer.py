"""The benchmark's tracer finds every name it wraps; its history counters match a real `mine`."""

import importlib.util
import json
from pathlib import Path

import pytest

import monosplit.cli as cli
from conftest import DATA, log_fixture
from monosplit import bundle_commits, parse_git_log, prune_deleted, resolve_renames
from monosplit.history import drop_oversized_commits

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    """benchmark/tracing.py, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_wraps():
    assert _tracing().Tracer().not_measured == []


@pytest.mark.parametrize(
    "name", ["rename_chain.log", "resurrection.log", "bulk_commit.log", "bundling.log"]
)
def test_traced_mine_counts_what_was_mined(tmp_path, name):
    out = tmp_path / "history.json"
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["mine", str(DATA / name), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    counts = {key: value for key, (value, _) in tracer.metrics(1).items()}
    events = parse_git_log(log_fixture(name))
    kept = drop_oversized_commits(prune_deleted(resolve_renames(events)))
    assert counts["history.events"] == len(events)
    assert counts["history.events_kept"] == len(kept)
    assert counts["history.raw_commits"] == len({e.commit_hash for e in kept})
    assert counts["history.logical_commits"] == len(bundle_commits(kept))
    assert counts["history.files"] == len(json.loads(out.read_text())["fileChanges"])
    assert counts["cli.mine_s"] > 0
