"""Independent brute-force reference implementations for cross-checking the package.

Everything here shares no code with the package internals, and most of it
works on plain dicts/lists with naive loops.  The exceptions are the package's
former code, kept to referee its replacement bit for bit: `git_log_events`,
the former regex-per-line log parser, `scan_upgma`, the former numpy
clustering kernel, the former per-cluster and per-partition
scoring (`cluster_terms`, `evaluate`), the former counting loop of the history
(`history_counts`), and the former dict-walking history loader and history
measures (`history_from_json_dict`, `entity_authors`, `commit_matrix`,
`author_matrix`).  Traces are dicts name -> [(entity, mode), ...]; commits are
lists of (author, set_of_files).

The metric referees compute each term of a partition exactly, as a
`Fraction`, and round it once to a float: a cluster's cohesion, the exposure
of one target cluster to all the others, tsr and uniform complexity.  Only
the k cluster terms of cohesion and coupling are float sums, taken in
cluster order, and then divided by their count.
"""

import json
import math
import re
from collections import Counter, defaultdict
from fractions import Fraction
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
    names = list(traces)
    return _complexity_total(clusters, traces) / len(names) if names else 0.0


def _complexity_total(clusters, traces):
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
    return total


def max_complexity_measure(traces):
    names = list(traces)
    return max_complexity_total(traces) / len(names) if names else 0.0


def max_complexity_total(traces):
    """C: the splitting cost of the all-singletons decomposition, ignoring access modes."""
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
    return total


def uniform_complexity_measure(clusters, traces):
    ceiling = max_complexity_total(traces)
    if ceiling == 0:
        return 0.0
    return float(Fraction(_complexity_total(clusters, traces), ceiling))


def cohesion_measure(clusters, traces):
    total = 0.0
    for members in clusters:
        shares = []
        for steps in traces.values():
            touched = {e for e, _ in steps} & set(members)
            if touched:
                shares.append(Fraction(len(touched), len(members)))
        total += float(sum(shares) / len(shares)) if shares else 1.0
    return total / len(clusters)


def coupling_measure(clusters, traces):
    if len(clusters) < 2:
        return 0.0
    where = _cluster_of(clusters)
    total = 0.0
    for j, members in enumerate(clusters):
        shares = Fraction(0)
        for i, _ in enumerate(clusters):
            if i == j:
                continue
            exposed = set()
            for steps in traces.values():
                for (e1, _), (e2, _) in zip(steps, steps[1:]):
                    if where[e1] == i and where[e2] == j and i != j:
                        exposed.add(e2)
            shares += Fraction(len(exposed), len(members))
        total += float(shares)
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
    return float(Fraction(count_sum, len(clusters) * len(everyone)))


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


_STATUS = re.compile(r"^([A-Z])(\d*)$", re.ASCII)


def git_log_events(text, extension=".java"):
    """The package's former log parser, which ran a regex on every change line.

    Verbatim but for these edits: it raises ValueError where the package raises
    GitLogError, it returns each event as the tuple (commit hash, timestamp,
    author, status, filename, previous filename), and it follows the package's
    later rules: a rename whose new path lacks the extension deletes the old
    path when that one has it, a score of more digits than `int` reads from a
    string is a similarity out of range, lines end at `\\n` or `\\r\\n` only,
    and a commit time is ASCII digits.
    """
    events = []
    current = None
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("commit\t"):
            parts = line.split("\t")
            if len(parts) != 4 or not all(parts[1:]):
                raise ValueError(f"line {lineno}: malformed commit header: {line!r}")
            if not re.fullmatch("[0-9]+", parts[2]):
                raise ValueError(f"line {lineno}: bad timestamp: {parts[2]!r}")
            try:
                timestamp = int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: bad timestamp: {parts[2]!r}") from None
            current = (parts[1], timestamp, parts[3].lower())
            continue
        if current is None:
            raise ValueError(f"line {lineno}: file change before any commit header")
        parts = line.split("\t")
        match = _STATUS.match(parts[0])
        if not match:
            raise ValueError(f"line {lineno}: malformed status token: {parts[0]!r}")
        letter, digits = match.groups()
        if letter == "R":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: rename needs old and new path")
            if not digits:
                raise ValueError(f"line {lineno}: rename without similarity score")
            try:
                similarity = int(digits)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: rename similarity out of range: {len(digits)} digits"
                ) from None
            if not 50 <= similarity <= 100:
                raise ValueError(f"line {lineno}: rename similarity out of range: {similarity}")
            if parts[2].endswith(extension):
                events.append((*current, "R", parts[2], parts[1]))
            elif parts[1].endswith(extension):
                events.append((*current, "D", parts[1], None))
        elif letter in ("A", "D", "M"):
            if digits:
                raise ValueError(f"line {lineno}: unexpected score on {letter} status")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected exactly one path")
            if not parts[1].endswith(extension):
                continue
            events.append((*current, letter, parts[1], None))
        else:
            raise ValueError(f"line {lineno}: unknown status letter: {letter!r}")
    return events


def dead_files(events):
    """Files a history drops: deleted, and never changed after their last delete in log order.

    Events are (filename, status) pairs in log order, status "D" for a delete.
    """
    dead = set()
    for name in {f for f, _ in events}:
        positions = [i for i, (f, _) in enumerate(events) if f == name]
        deletes = [i for i in positions if events[i][1] == "D"]
        if deletes and not any(i > max(deletes) and events[i][1] != "D" for i in positions):
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


def cluster_terms(model, authors, mask):
    """The package's former per-member scoring of one cluster, kept as a referee.

    Verbatim but for four edits: the bit tables `Scorer.__init__` built once
    per model are built here on each call, the step pairs are read off
    `model.steps`, a local `_members` stands in for `clustering.members`, and
    the cohesion term is the exact mean share rounded once.
    Returns the scorer's terms of the cluster: (member mask, size, cohesion
    term, author count, mask of the functionalities touching it, mask of the
    entities its traces step to straight from it).
    """
    touching = [_mask(np.flatnonzero(row)) for row in model.touch]
    touched_by = [_mask(np.flatnonzero(column)) for column in model.touch.T]
    targets_of = [0] * len(model.entities)
    step_from, step_to = np.nonzero(model.steps)
    for a, b in zip(step_from.tolist(), step_to.tolist()):  # Python ints: 1 << b for b >= 64
        targets_of[a] |= 1 << b
    authors_of = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(authors, axis=1, bitorder="little")
    ]
    functionalities = targets = author_bits = 0
    for i in _members(mask):
        functionalities |= touched_by[i]
        targets |= targets_of[i]
        author_bits |= authors_of[i]
    size = mask.bit_count()
    # the members of the cluster each touching functionality touches
    touched = [(touching[f] & mask).bit_count() for f in _members(functionalities)]
    cohesion = float(Fraction(sum(touched), size * len(touched)))
    return (mask, size, cohesion, author_bits.bit_count(), functionalities, targets)


def evaluate(model, authors, partition):
    """The package's former per-partition scoring of member masks, kept as a referee.

    The former `evaluate` with the metric functions it called inlined, in
    their order, but for five edits: the scorer's tables and the ceiling
    are computed here on each call, each cluster's terms come from
    `cluster_terms`, the splitting cost is not memoized, a metric domain
    error is returned as its message instead of raised, and uniform
    complexity, each target cluster's coupling term and tsr are exact
    fractions rounded once.
    Returns the five numbers (uniform complexity, cohesion, coupling, tsr,
    combined), or that message.
    """
    clusters = [cluster_terms(model, authors, mask) for mask in partition]
    n_functionalities = len(model.functionalities)
    ceiling = 0
    if n_functionalities:
        distributed = model.touch.sum(axis=1) >= 2
        touchers = model.touch[distributed].sum(axis=0)
        accesses = (model.read + model.write)[distributed].sum(axis=0)
        ceiling = int(accesses @ (touchers - 1))
    if ceiling == 0:
        uniform = 0.0
    else:
        seen = distributed = 0
        for terms in clusters:
            functionalities = terms[4]
            distributed |= seen & functionalities
            seen |= functionalities
        rows = np.array(_members(distributed), dtype=np.intp)
        products = model.read @ model.write.T
        both = (model.read & model.write).sum(axis=1)
        cost = 2 * int(products[rows[:, None], rows].sum() - both[rows].sum())
        uniform = float(Fraction(cost, ceiling))
    total = 0.0
    for terms in clusters:
        total += terms[2]
    cohesion = total / len(clusters)
    n = len(clusters)
    if n == 1:
        coupling = 0.0
    else:
        total = 0.0
        for j, (mask, size, *_) in enumerate(clusters):
            exposed = sum(
                (source[5] & mask).bit_count() for i, source in enumerate(clusters) if i != j
            )
            total += float(Fraction(exposed, size))
        coupling = total / (n * (n - 1))
    n_authors = authors.shape[1]
    if not n_authors:
        return "history has no authors"
    author_count_sum = 0
    for terms in clusters:
        author_count_sum += terms[3]
    tsr = float(Fraction(author_count_sum, len(clusters) * n_authors))
    for name, value in (
        ("uniform complexity", uniform),
        ("cohesion", cohesion),
        ("coupling", coupling),
        ("tsr", tsr),
    ):
        if not 0.0 <= value <= 1.0:
            return f"{name} out of range: {value!r}"
    return (uniform, cohesion, coupling, tsr, (uniform + coupling + tsr - cohesion + 1.0) / 4.0)


def _mask(indices):
    out = 0
    for i in indices.tolist():
        out |= 1 << i
    return out


def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
