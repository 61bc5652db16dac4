"""Seeded random models and histories shared by tests."""

import json

from monosplit import LogicalCommit, build_history_representation, load_access_model

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


def to_model(traces):
    payload = {name: [[e, m] for e, m in steps] for name, steps in traces.items()}
    return load_access_model(json.dumps(payload))


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
    logical = [
        LogicalCommit(1000 + 10_000 * i, author, frozenset(files), 1)
        for i, (author, files) in enumerate(commits)
    ]
    return build_history_representation(logical)


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
