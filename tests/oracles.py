"""Independent brute-force reference implementations for cross-checking the package.

Everything here shares no code with the package internals, and most of it
works on plain dicts/lists with naive loops.  The exceptions are the package's
former code, kept to referee its replacement bit for bit: `scan_upgma`, the
former numpy clustering kernel, the former counting loop of the history
(`history_counts`), and the former dict-walking history loader and history
measures (`history_from_json_dict`, `entity_authors`, `commit_matrix`,
`author_matrix`).  Traces are dicts name -> [(entity, mode), ...]; commits are
lists of (author, set_of_files).
"""

import json
import math
from collections import Counter, defaultdict
from itertools import combinations

import mpmath
import numpy as np


def funct_set(traces, entity, mode):
    out = set()
    for name, steps in traces.items():
        for e, m in steps:
            if e == entity and (mode == "ANY" or m == mode):
                out.add(name)
    return out


def access_measure(traces, entity_a, entity_b, mode="ANY"):
    own = funct_set(traces, entity_a, mode)
    if not own:
        return 0.0
    return len(own & funct_set(traces, entity_b, mode)) / len(own)


def pair_count(traces, entity_a, entity_b):
    count = 0
    for steps in traces.values():
        for (e1, _), (e2, _) in zip(steps, steps[1:]):
            if {e1, e2} == {entity_a, entity_b}:
                count += 1
    return count


def step_count(traces, first, second):
    """Directed: how often a trace accesses `second` straight after `first` (they may be equal)."""
    count = 0
    for steps in traces.values():
        for (e1, _), (e2, _) in zip(steps, steps[1:]):
            if (e1, e2) == (first, second):
                count += 1
    return count


def sequence_measure(traces, entity_a, entity_b):
    if entity_a == entity_b:
        return 0.0
    entities = sorted({e for steps in traces.values() for e, _ in steps})
    best = 0
    for i, first in enumerate(entities):
        for second in entities[i + 1 :]:
            best = max(best, pair_count(traces, first, second))
    if best == 0:
        return 0.0
    return pair_count(traces, entity_a, entity_b) / best


def commit_measure(commits, file_a, file_b):
    count_a = sum(1 for _, files in commits if file_a in files)
    if file_a == file_b:
        both = count_a
    else:
        both = sum(1 for _, files in commits if file_a in files and file_b in files)
    return both / count_a


def author_measure(commits, file_a, file_b):
    authors_a = {author for author, files in commits if file_a in files}
    authors_b = {author for author, files in commits if file_b in files}
    if not authors_a:
        return 0.0
    return len(authors_a & authors_b) / len(authors_a)


def _cluster_of(clusters):
    return {e: i for i, members in enumerate(clusters) for e in members}


def complexity_measure(clusters, traces):
    where = _cluster_of(clusters)
    names = list(traces)

    def is_distributed(name):
        return len({where[e] for e, _ in traces[name]}) >= 2

    total = 0
    for name in names:
        if not is_distributed(name):
            continue
        for entity, mode in set(traces[name]):
            opposite = "W" if mode == "R" else "R"
            for other in names:
                if other == name or not is_distributed(other):
                    continue
                if (entity, opposite) in set(traces[other]):
                    total += 1
    return total / len(names) if names else 0.0


def max_complexity_measure(traces):
    names = list(traces)

    def is_distributed(name):
        return len({e for e, _ in traces[name]}) >= 2

    total = 0
    for name in names:
        if not is_distributed(name):
            continue
        for entity, _mode in set(traces[name]):
            for other in names:
                if other == name or not is_distributed(other):
                    continue
                if entity in {e for e, _ in traces[other]}:
                    total += 1
    return total / len(names) if names else 0.0


def uniform_complexity_measure(clusters, traces):
    ceiling = max_complexity_measure(traces)
    if ceiling == 0:
        return 0.0
    return complexity_measure(clusters, traces) / ceiling


def cohesion_measure(clusters, traces):
    total = 0.0
    for members in clusters:
        shares = []
        for steps in traces.values():
            touched = {e for e, _ in steps} & set(members)
            if touched:
                shares.append(len(touched) / len(members))
        total += sum(shares) / len(shares) if shares else 1.0
    return total / len(clusters)


def coupling_measure(clusters, traces):
    if len(clusters) < 2:
        return 0.0
    where = _cluster_of(clusters)
    total = 0.0
    for i, _ in enumerate(clusters):
        for j, members in enumerate(clusters):
            if i == j:
                continue
            exposed = set()
            for steps in traces.values():
                for (e1, _), (e2, _) in zip(steps, steps[1:]):
                    if where[e1] == i and where[e2] == j and i != j:
                        exposed.add(e2)
            total += len(exposed) / len(members)
    return total / (len(clusters) * (len(clusters) - 1))


def tsr_measure(clusters, entity_files, file_authors):
    everyone = set()
    for authors in file_authors.values():
        everyone |= set(authors)
    count_sum = 0
    for members in clusters:
        authors = set()
        for entity in members:
            filename = entity_files.get(entity)
            if filename is not None and filename in file_authors:
                authors |= set(file_authors[filename])
        count_sum += len(authors)
    return (count_sum / len(clusters)) / len(everyone)


def combined_measure(uniform, cohesion, coupling, tsr):
    return (uniform + coupling + tsr - cohesion + 1.0) / 4.0


def quantile_measure(values, fraction):
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def student_upper_tail(t, df):
    """P(T_df > t) through the regularized incomplete beta at high precision."""
    mpmath.mp.dps = 50
    t = mpmath.mpf(t)
    df = mpmath.mpf(df)
    x = df / (df + t * t)
    half_tail = mpmath.betainc(df / 2, mpmath.mpf("0.5"), 0, x, regularized=True) / 2
    if t >= 0:
        return float(half_tail)
    return float(1 - half_tail)


def welch_measure(sample_a, sample_b):
    n_a, n_b = len(sample_a), len(sample_b)
    mean_a = sum(sample_a) / n_a
    mean_b = sum(sample_b) / n_b
    var_a = sum((x - mean_a) ** 2 for x in sample_a) / (n_a - 1)
    var_b = sum((x - mean_b) ** 2 for x in sample_b) / (n_b - 1)
    t = (mean_a - mean_b) / math.sqrt(var_a / n_a + var_b / n_b)
    df = (var_a / n_a + var_b / n_b) ** 2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    return t, df, student_upper_tail(t, df)


def dead_files(events):
    """Files a history drops: deleted, and never changed later than their last delete.

    Events are (filename, status, timestamp) triples, status "D" for a delete.
    """
    dead = set()
    for name in {f for f, _, _ in events}:
        deletes = [t for f, s, t in events if f == name and s == "D"]
        if deletes and not any(f == name and s != "D" and t > max(deletes) for f, s, t in events):
            dead.add(name)
    return dead


def history_json(file_commit_count, co_changes, file_authors):
    """A history file as `json.dumps` writes the dict of the documented shape."""
    raw = {
        "fileChanges": {
            f: {"count": n, "with": dict(co_changes.get(f, {}))} for f, n in file_commit_count.items()
        },
        "authorship": {f: sorted(file_authors[f]) for f in file_commit_count},
    }
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def upgma_merges(matrix):
    """Naive average linkage straight from the original matrix, no distance updates.

    Returns [(left_id, right_id, height)] with the same id convention as the
    package: leaves first, merged clusters numbered upward from n.
    """
    n = len(matrix)
    members = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if a >= b:
                    continue
                pairs = [matrix[i][j] for i in members[a] for j in members[b]]
                distance = sum(pairs) / len(pairs)
                if best is None or distance < best[0]:
                    best = (distance, a, b)
        distance, a, b = best
        members[next_id] = members.pop(a) + members.pop(b)
        merges.append((a, b, distance))
        next_id += 1
    return merges


def scan_upgma(matrix):
    """The full-scan UPGMA kernel the package used before its slot kernel, kept as a referee.

    It scans a (2n-1) x (2n-1) matrix indexed by cluster id for its first
    minimum in row-major order, which is the pair with the smallest
    (min id, max id), and updates distances by (sL*dL + sR*dR)/(sL + sR).
    Returns [(left_id, right_id, height)] like `upgma_merges`.
    """
    n = matrix.shape[0]
    total = 2 * n - 1
    work = np.full((total, total), np.inf)
    work[:n, :n] = matrix
    np.fill_diagonal(work, np.inf)
    sizes = np.zeros(total, dtype=int)
    sizes[:n] = 1
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    lefts, rights, heights = [], [], []
    for step in range(n - 1):
        new_id = n + step
        view = work[:new_id, :new_id]
        flat = int(np.argmin(view))  # first minimum in row-major order = smallest id pair
        left, right = divmod(flat, new_id)
        if left > right:
            left, right = right, left
        height = float(work[left, right])
        active[left] = active[right] = False
        others = np.nonzero(active[:new_id])[0]
        if others.size:
            merged = (
                sizes[left] * work[others, left] + sizes[right] * work[others, right]
            ) / (sizes[left] + sizes[right])
            work[others, new_id] = merged
            work[new_id, others] = merged
        sizes[new_id] = sizes[left] + sizes[right]
        active[new_id] = True
        work[left, :] = work[:, left] = np.inf
        work[right, :] = work[:, right] = np.inf
        lefts.append(left)
        rights.append(right)
        heights.append(height)
    return list(zip(lefts, rights, heights))


def history_counts(commits, max_files=100):
    """The package's former counting loop over logical commits.

    Verbatim but for two edits: it raises ValueError where the package raises
    HistoryError, and it returns the three maps (commit counts, co-changes,
    author sets) where the package built the history.
    """
    counted = [c for c in commits if len(c.files) <= max_files]
    if not counted:
        raise ValueError("no usable history")
    file_count: Counter = Counter()
    co: dict[str, Counter] = defaultdict(Counter)
    authors: dict[str, set[str]] = defaultdict(set)
    for commit in counted:
        files = sorted(commit.files)
        for filename in files:
            file_count[filename] += 1
            authors[filename].add(commit.author)
        for file_a, file_b in combinations(files, 2):
            co[file_a][file_b] += 1
            co[file_b][file_a] += 1
    return (
        dict(file_count),
        {f: dict(partners) for f, partners in co.items()},
        {f: frozenset(a) for f, a in authors.items()},
    )


def history_from_json_dict(raw):
    """The package's former history.json validator, which walked the dicts pair by pair.

    Verbatim but for two edits: it raises ValueError where the package raises
    HistoryError, and it returns the three maps (commit counts, co-changes,
    author sets) where the package built the history.
    """
    if not isinstance(raw, dict) or set(raw) != {"fileChanges", "authorship"}:
        raise ValueError("history JSON must have fileChanges and authorship")
    changes = raw["fileChanges"]
    authorship = raw["authorship"]
    if not isinstance(changes, dict) or not isinstance(authorship, dict):
        raise ValueError("fileChanges and authorship must be objects")
    if set(changes) != set(authorship):
        raise ValueError("fileChanges and authorship must cover the same files")
    counts: dict[str, int] = {}
    co: dict[str, dict[str, int]] = {}
    for filename, entry in changes.items():
        if not isinstance(entry, dict) or set(entry) != {"count", "with"}:
            raise ValueError(f"bad fileChanges entry for {filename!r}")
        count = entry["count"]
        if type(count) is not int or count < 1:  # not bool: JSON true is no count
            raise ValueError(f"bad commit count for {filename!r}: {count!r}")
        counts[filename] = count
        partners = entry["with"]
        if not isinstance(partners, dict):
            raise ValueError(f"bad co-change map for {filename!r}")
        for other, k in partners.items():
            if type(k) is not int or k < 1:
                raise ValueError(f"bad co-change count {filename!r}/{other!r}: {k!r}")
        co[filename] = dict(partners)
    for filename, partners in co.items():
        for other, k in partners.items():
            if other not in counts:
                raise ValueError(f"co-change partner not counted: {other!r}")
            if co.get(other, {}).get(filename) != k:
                raise ValueError(f"asymmetric co-change counts: {filename!r}/{other!r}")
            if k > min(counts[filename], counts[other]):
                raise ValueError(f"co-change exceeds commit count: {filename!r}/{other!r}")
    authors: dict[str, frozenset[str]] = {}
    for filename, names in authorship.items():
        if (
            not isinstance(names, list)
            or not names
            or not all(isinstance(a, str) and a for a in names)
        ):
            raise ValueError(f"bad author list for {filename!r}")
        authors[filename] = frozenset(names)
    return counts, co, authors


def row_shares(shared, totals):
    """Each row of shared counts over that row's total; rows with a zero total stay zero."""
    out = np.zeros(shared.shape)
    nonzero = totals > 0
    out[nonzero] = shared[nonzero] / totals[nonzero, None]
    return out


def entity_authors(file_authors, entity_files):
    """The package's former entity x author incidence loop: (rows, incidence, masks)."""
    authors = sorted(set().union(*file_authors.values()))
    columns = {a: i for i, a in enumerate(authors)}
    rows: dict[str, int] = {}
    masks: dict[str, int] = {}
    cells: list[int] = []
    for row, (entity, filename) in enumerate(entity_files.items()):
        rows[entity] = row
        masks[entity] = 0
        for author in file_authors.get(filename, ()):
            masks[entity] |= 1 << columns[author]
            cells.append(row * len(columns) + columns[author])
    incidence = np.zeros((len(rows), len(columns)), dtype=np.int64)
    incidence.flat[cells] = 1
    return rows, incidence, masks


def commit_matrix(entities, file_commit_count, co_changes, entity_files):
    """The package's former commit measure loop, over the history's commit counts and co-changes.

    An entity mapped to a file the history lacks raises KeyError.
    """
    n = len(entities)
    files = [entity_files[e] for e in entities]
    slots: dict[str, list[int]] = {}
    for j, filename in enumerate(files):
        if filename is not None:
            slots.setdefault(filename, []).append(j)
    cells: list[int] = []
    counts: list[int] = []
    totals = [0] * n
    for i, filename in enumerate(files):
        if filename is None:
            continue
        totals[i] = file_commit_count[filename]
        for j in slots[filename]:
            cells.append(i * n + j)
            counts.append(totals[i])
        for other, together in co_changes.get(filename, {}).items():
            if other != filename:
                for j in slots.get(other, ()):
                    cells.append(i * n + j)
                    counts.append(together)
    shared = np.zeros((n, n), dtype=np.int64)
    shared.flat[cells] = counts
    return row_shares(shared, np.array(totals, dtype=np.int64))


def author_matrix(entities, file_authors, entity_files):
    """The package's former author measure: EA EA' over row sizes, EA from `entity_authors`."""
    rows, incidence, _ = entity_authors(file_authors, entity_files)
    incidence = incidence[[rows[e] for e in entities]]
    shared = incidence @ incidence.T
    return row_shares(shared, np.diag(shared))
