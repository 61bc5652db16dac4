"""Metamorphic tests: rewrites of the inputs that carry no information change no output byte.

The paper gives functionalities no order, and nothing it measures depends
on an author's name, a file's directory, the order of a JSON object's keys
or a commit's hash.  So the results CSV, the decompose JSON and matrix CSV
and the analyze report of a random model must stay byte for byte the same
under each rewrite, and a saved log must mine to the same `history.json`.
"""

import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from monosplit import Scorer, enumerate_weights
from monosplit.cli import main

from synth import (
    commits_to_history,
    partition_masks,
    random_commits,
    random_partition,
    random_traces,
    to_model,
    traces_json,
)


def _shuffled(rng, mapping):
    """The dict with its keys in a random order."""
    keys = list(mapping)
    rng.shuffle(keys)
    return {key: mapping[key] for key in keys}


def _reordered(rng, value):
    """The JSON value with the keys of every object in it in a random order."""
    if isinstance(value, dict):
        return _shuffled(rng, {key: _reordered(rng, item) for key, item in value.items()})
    return value


def _outputs(directory, accesses, history, weights, clusters):
    """The bytes of every output file of `sweep`, `decompose` and `analyze` on these inputs."""
    directory = Path(directory)
    (directory / "accesses.json").write_text(accesses, encoding="utf-8")
    (directory / "history.json").write_text(history, encoding="utf-8")
    inputs = ["--history", str(directory / "history.json")]
    inputs += ["--accesses", str(directory / "accesses.json")]
    names = ("results.csv", "decomposition.json", "matrix.csv", "report.json")
    results, decomposition, matrix, report = (str(directory / name) for name in names)
    sweep = ["sweep", *inputs, "--codebase", "c", "--step", "25", "--out", results]
    decompose = ["decompose", *inputs, "--weights", ",".join(map(str, weights))]
    decompose += ["--clusters", str(clusters), "--matrix-out", matrix, "--out", decomposition]
    assert main(["--quiet", *sweep]) == 0
    assert main(["--quiet", *decompose]) == 0
    assert main(["analyze", results, "--groups", "--best", "combined", "--out", report]) == 0
    return {name: (directory / name).read_bytes() for name in names}


@st.composite
def models(draw):
    """A random model's traces and (author, files) commits, and a decompose request on it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(3, 14))
    traces = random_traces(rng, n, rng.randint(2, 6), max_extra=rng.randint(0, 8))
    entities = sorted({entity for steps in traces.values() for entity, _ in steps})
    commits, _ = random_commits(rng, entities, n_authors=rng.randint(1, 5))
    weights = draw(st.sampled_from(enumerate_weights(25))).as_tuple()
    return rng, traces, commits, weights, draw(st.integers(1, n))


@settings(max_examples=25, deadline=None)
@given(models())
def test_rewrites_that_carry_no_information_change_no_output_byte(case):
    rng, traces, commits, weights, clusters = case
    accesses = json.loads(traces_json(traces))
    history = commits_to_history(commits).serialize()
    authors = sorted({author for author, _ in commits})
    renamed = [f"{i:02d}-{rng.getrandbits(32):08x}@example.org" for i in range(len(authors))]
    rng.shuffle(renamed)
    alias = dict(zip(authors, renamed))
    files = sorted({name for _, names in commits for name in names})
    directories = ["", "a/", "z/y/", "m/n/o/", "src/main/java/"]
    moved = {name: rng.choice(directories) + name.rpartition("/")[2] for name in files}
    renamed_authors = [(alias[author], names) for author, names in commits]
    moved_files = [(author, {moved[name] for name in names}) for author, names in commits]
    rewrites = {
        "shuffled functionalities": (_shuffled(rng, accesses), history),
        "authors renamed": (accesses, commits_to_history(renamed_authors).serialize()),
        "files moved": (accesses, commits_to_history(moved_files).serialize()),
        "keys reordered": (
            _reordered(rng, accesses),
            json.dumps(_reordered(rng, json.loads(history))),
        ),
    }
    with tempfile.TemporaryDirectory() as directory:
        want = _outputs(directory, json.dumps(accesses), history, weights, clusters)
        for label, (rewritten, rewritten_history) in rewrites.items():
            got = _outputs(directory, json.dumps(rewritten), rewritten_history, weights, clusters)
            assert got == want, label


@settings(max_examples=60, deadline=None)
@given(models(), st.randoms())
def test_scores_have_the_same_bits_whatever_the_order_of_the_functionalities(case, order):
    """Finer than the six decimals of the results CSV: every bit of every record."""
    rng, traces, commits, _, _ = case
    shuffled = _shuffled(order, traces)
    history = commits_to_history(commits)
    entities = sorted({entity for steps in traces.values() for entity, _ in steps})
    files = {entity: f"src/{entity}.java" for entity in entities}
    partitions = [
        partition_masks(entities, random_partition(rng, entities, rng.randint(1, len(entities))))
        for _ in range(20)
    ]
    records = []
    for model in (to_model(traces), to_model(shuffled)):
        scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
        scorer.memoize(partitions)
        records.append([scorer.records[partition] for partition in partitions])
    assert records[0] == records[1]


@st.composite
def saved_logs(draw):
    """A saved log of random commits: adds, modifies, deletes and renames, times out of order."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    names = [f"d{i % 3}/F{i}.java" for i in range(8)] + ["README.md"]
    lines = []
    for index in range(rng.randint(1, 20)):
        time = 1000 + rng.randint(-3, 40) * 600
        lines.append(f"commit\tc{index}\t{time}\tdev{rng.randrange(3)}@x.org")
        chosen = rng.sample(names, rng.randint(1, 5))
        for name in chosen:
            status = rng.choice("AMMD")
            if status == "M" and rng.random() < 0.2:
                target = rng.choice(names)
                if target not in chosen:
                    lines.append(f"R{rng.randint(50, 100)}\t{name}\t{target}")
                    continue
            lines.append(f"{status}\t{name}")
        lines.append("")
    return rng, "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(saved_logs())
def test_commit_hashes_rewritten_by_a_bijection_leave_the_history_as_it_is(case):
    rng, log = case
    hashes = {line.split("\t")[1] for line in log.splitlines() if line.startswith("commit\t")}
    fresh = [f"{rng.getrandbits(152):038x}{i:02x}" for i in range(len(hashes))]  # distinct
    rng.shuffle(fresh)
    alias = dict(zip(sorted(hashes), fresh))
    rewritten = "\n".join(
        "\t".join([parts[0], alias[parts[1]], *parts[2:]]) if parts[0] == "commit" else line
        for line in log.splitlines()
        for parts in [line.split("\t")]
    )
    with tempfile.TemporaryDirectory() as directory:
        texts = []
        for name, text in (("log", log), ("rewritten", rewritten)):
            path = Path(directory) / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            out = Path(directory) / f"{name}.json"
            code = main(["--quiet", "mine", str(path), "--max-files", "3", "--out", str(out)])
            # a log whose files all end deleted or oversized is no usable history (exit 1)
            texts.append((code, out.read_bytes() if code == 0 else None))
    assert texts[0] == texts[1]
