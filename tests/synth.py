"""Seeded random models and histories shared by tests."""

import json
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from monosplit import (
    DevelopmentHistory,
    LogicalCommit,
    build_history_representation,
    load_access_model,
)

MODES = ("R", "W")


def random_traces(rng, n_entities, n_functionalities=None, max_extra=6):
    """Random trace dict where every one of the n entities appears at least once."""
    entities = [f"E{i:02d}" for i in range(n_entities)]
    if n_functionalities is None:
        n_functionalities = rng.randint(2, 6)
    names = [f"f{k:02d}" for k in range(n_functionalities)]
    traces = {name: [] for name in names}
    placed = entities[:]
    rng.shuffle(placed)
    for i, entity in enumerate(placed):
        traces[names[i % len(names)]].append((entity, rng.choice(MODES)))
    for name in names:
        for _ in range(rng.randint(0, max_extra)):
            traces[name].append((rng.choice(entities), rng.choice(MODES)))
        rng.shuffle(traces[name])
    return traces


def traces_json(traces):
    """The access-trace document of a trace dict."""
    return json.dumps({name: [[e, m] for e, m in steps] for name, steps in traces.items()})


def to_model(traces):
    return load_access_model(traces_json(traces))


def random_commits(rng, entities, n_authors=4, extra_commits=8):
    """Random (author, files) commits covering every entity's file at least once."""
    files = {e: f"src/{e}.java" for e in entities}
    authors = [f"dev{i}@example.com" for i in range(n_authors)]
    commits = []
    for entity in entities:
        group = {files[entity]}
        for other in rng.sample(list(entities), min(len(entities), rng.randint(0, 2))):
            group.add(files[other])
        commits.append((rng.choice(authors), group))
    for _ in range(extra_commits):
        k = rng.randint(1, min(5, len(entities)))
        commits.append((rng.choice(authors), {files[e] for e in rng.sample(list(entities), k)}))
    return commits, files


def commits_to_history(commits):
    logical = [LogicalCommit(author, set(files)) for author, files in commits]
    return build_history_representation(logical)


def empty_history():
    """The history with no files and no authors, which the loader accepts."""
    return DevelopmentHistory.parse(json.dumps({"fileChanges": {}, "authorship": {}}))


def history_maps(history):
    """A history's commit counts, co-change counts and author sets as dicts, read off its arrays.

    As the former counting loop kept them: a file without partners has no
    co-change entry.
    """
    files = history.files()
    counts = dict(zip(files, history.commit_counts.tolist()))
    co_changes: dict[str, dict[str, int]] = {}
    cells = zip(history.pair_from.tolist(), history.pair_to.tolist(), history.pair_count.tolist())
    for a, b, k in cells:
        co_changes.setdefault(files[a], {})[files[b]] = k
    authors = {
        f: frozenset(history.authors[j] for j in np.flatnonzero(row))
        for f, row in zip(files, history.authorship)
    }
    return counts, co_changes, authors


def random_partition(rng, entities, n_clusters):
    """Random partition of the entities into exactly n_clusters non-empty clusters."""
    entities = list(entities)
    rng.shuffle(entities)
    clusters = [[entities[i]] for i in range(n_clusters)]
    for entity in entities[n_clusters:]:
        clusters[rng.randrange(n_clusters)].append(entity)
    return [sorted(c) for c in clusters]


def partition_masks(entities, clusters):
    """Clusters of entity names as member masks, bit i standing for entities[i], in cluster order."""
    bits = {entity: i for i, entity in enumerate(entities)}
    return tuple(sum(1 << bits[entity] for entity in cluster) for cluster in clusters)


# names that json.dumps escapes: quote, backslash, control characters, non-ASCII and astral
NAME = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\té€\U0001f600'), st.characters()),
    min_size=1,
    max_size=8,
)


@st.composite
def history_parts(draw):
    """Counts, symmetric co-changes and author sets; some files have no partners at all."""
    files = draw(st.lists(NAME, unique=True, max_size=8))
    counts = {f: draw(st.integers(1, 50)) for f in files}
    co: dict[str, dict[str, int]] = {f: {} for f in files if draw(st.booleans())}
    for a, b in combinations(files, 2):
        if draw(st.booleans()):
            k = draw(st.integers(1, min(counts[a], counts[b])))
            co.setdefault(a, {})[b] = k
            co.setdefault(b, {})[a] = k
    authors = {f: frozenset(draw(st.lists(NAME, min_size=1, max_size=4))) for f in files}
    return counts, co, authors
