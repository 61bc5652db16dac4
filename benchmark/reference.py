"""Computations made apart from the program, and the checks that compare its outputs with them.

Metric values, quartiles and the Welch test come from the test suite's
brute-force oracles (`tests/oracles.py`).  Everything else here is derived from
the generators' own records: the weight grid and cluster-count rule of the
paper, the six measure matrices, and the mined history a repository must yield.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import combinations

import numpy as np

import oracles

METRICS = ("uniformComplexity", "cohesion", "coupling", "tsr", "combined")
CSV_HEADER = ["codebase", "nClusters", "wAccess", "wRead", "wWrite", "wSequence", "wCommit",
              "wAuthor", "group", *METRICS]
GROUPS = ("AUTHORSHIP_ONLY", "COMBINED", "FILES_ONLY", "HISTORY", "SEQUENCES_ONLY")
HALF_ULP6 = 5e-7 + 1e-9  # a value printed with 6 decimals is this close to the exact one
TIE_TOLERANCE = 1e-9  # far above float64 blend error, far below the gap between distinct values


class CheckError(Exception):
    """An output of the program disagrees with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- the paper's rules ------------------------------------------------------------------

def cluster_counts(n_entities: int) -> list[int]:
    if n_entities <= 9:
        return [3]
    if n_entities <= 19:
        return [3, 4, 5]
    return list(range(3, 11))


def group_of(weights) -> str:
    access, read, write, sequence, commit, author = weights
    if access + read + write + sequence == 0:
        if author == 0:
            return "FILES_ONLY"
        if commit == 0:
            return "AUTHORSHIP_ONLY"
        return "HISTORY"
    return "SEQUENCES_ONLY" if commit + author == 0 else "COMBINED"


# --- sweep results and analysis ---------------------------------------------------------

def check_results_csv(text: str, codebase: str, n_entities: int, step: int) -> dict:
    """Validate a results CSV; return {(weights, k): (uc, cohesion, coupling, tsr, combined)}.

    Every row must be a distinct (weights, k) pair of the grid and the cluster-count
    rule; rows the sweep dropped are the caller's to count against expected_row_count.
    """
    records = list(csv.reader(io.StringIO(text)))
    require(bool(records) and records[0] == CSV_HEADER, "results CSV header differs")
    counts = cluster_counts(n_entities)
    rows: dict = {}
    for record in records[1:]:
        require(len(record) == len(CSV_HEADER), f"short results row {record}")
        require(record[0] == codebase, f"wrong codebase in {record}")
        k = int(record[1])
        weights = tuple(int(v) for v in record[2:8])
        require(k in counts, f"cluster count {k} outside the rule for {n_entities} entities")
        require(sum(weights) == 100 and all(w % step == 0 for w in weights), f"off-grid weights {weights}")
        require(record[8] == group_of(weights), f"group {record[8]} wrong for {weights}")
        values = tuple(float(v) for v in record[9:14])
        require(all(0.0 <= v <= 1.0 for v in values), f"metric outside [0, 1] in {record}")
        uc, cohesion, coupling, tsr, combined = values
        require(abs(combined - (uc + coupling + tsr - cohesion + 1.0) / 4.0) <= 2 * HALF_ULP6,
                f"combined inconsistent in {record}")
        require((weights, k) not in rows, f"duplicate row {weights} k={k}")
        rows[(weights, k)] = values
    ordered = list(rows)
    require(ordered == sorted(ordered), "results rows not sorted by (weights, k)")
    return rows


def expected_row_count(n_entities: int, step: int) -> int:
    """Weight vectors on the grid times the cluster counts of the rule."""
    return math.comb(100 // step + 5, 5) * len(cluster_counts(n_entities))


def _close(reported, expected, what: str) -> None:
    require(abs(reported - expected) <= HALF_ULP6, f"{what}: reported {reported}, expected {expected}")


def check_report(report: dict, rows: dict, codebase: str, best_metric: str, welch: tuple) -> list:
    """Validate an analyze report against rows; return the best (weights, k) pairs."""
    for index, metric in enumerate(METRICS):
        summary = report["summaries"][metric]
        require(sorted(summary) == sorted(GROUPS), f"summary groups for {metric}")
        for group in GROUPS:
            values = [v[index] for (w, _), v in rows.items() if group_of(w) == group]
            entry = summary[group]
            require(entry["count"] == len(values), f"{metric}/{group} count")
            if values:
                for key, fraction in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
                    _close(entry[key], oracles.quantile_measure(values, fraction),
                           f"{metric}/{group} {key}")
    column = METRICS.index(best_metric)
    sign = -1.0 if best_metric == "cohesion" else 1.0
    winners = []
    for k in sorted({k for _, k in rows}):
        candidates = sorted((sign * v[column], w) for (w, kk), v in rows.items() if kk == k)
        winners.append((candidates[0][1], k))
    best = report["best"]
    require(best["metric"] == best_metric and len(best["rows"]) == len(winners), "best row count")
    for row, (weights, k) in zip(best["rows"], winners):
        got = (row["wAccess"], row["wRead"], row["wWrite"], row["wSequence"], row["wCommit"], row["wAuthor"])
        require(row["codebase"] == codebase and row["nClusters"] == k and got == weights,
                f"best row for k={k} is {got}, expected {weights}")
        for metric, value in zip(METRICS, rows[(weights, k)]):
            _close(row[metric], value, f"best k={k} {metric}")
    shares: dict = {}
    for weights, _ in winners:
        shares[group_of(weights)] = shares.get(group_of(weights), 0) + 1
    require(sorted(best["shareByGroup"]) == sorted(shares), "best share groups")
    for group, count in shares.items():
        _close(best["shareByGroup"][group], 100.0 * count / len(winners), f"share {group}")
    group_a, group_b, metric = welch
    index = METRICS.index(metric)
    sample_a = [v[index] for (w, _), v in rows.items() if group_of(w) == group_a]
    sample_b = [v[index] for (w, _), v in rows.items() if group_of(w) == group_b]
    t, df, p = oracles.welch_measure(sample_a, sample_b)
    for key, value in (("t", t), ("df", df), ("p", p)):
        _close(report["welch"][key], value, f"welch {key}")
    return winners


# --- measures, blend and tie scan -------------------------------------------------------

def measure_stack(model) -> tuple[list[str], np.ndarray]:
    """The six measure matrices over sorted entities, from the generator's record."""
    entities = sorted(model.entity_files)
    index = {e: i for i, e in enumerate(entities)}
    n = len(entities)
    stack = np.zeros((6, n, n))
    for slot, mode in enumerate(("ANY", "R", "W")):
        touch = np.zeros((len(model.traces), n))
        for row, steps in enumerate(model.traces.values()):
            for entity, m in steps:
                if mode == "ANY" or m == mode:
                    touch[row, index[entity]] = 1.0
        shared = touch.T @ touch
        own = np.diag(shared).copy()
        stack[slot][own > 0] = shared[own > 0] / own[own > 0, None]
    pairs = np.zeros((n, n))
    for steps in model.traces.values():
        for (a, _), (b, _) in zip(steps, steps[1:]):
            if a != b:
                pairs[index[a], index[b]] += 1
                pairs[index[b], index[a]] += 1
    if pairs.max() > 0:
        stack[3] = pairs / pairs.max()
    files = [model.entity_files[e] for e in entities]
    count = {f: 0 for f in files}
    together = np.zeros((n, n))
    authors: dict = {f: set() for f in files}
    position = {f: i for i, f in enumerate(files)}
    for author, touched in model.commits:
        mine = sorted(position[f] for f in touched if f in position)
        for i in mine:
            count[files[i]] += 1
            authors[files[i]].add(author)
        for i in mine:
            for j in mine:
                together[i, j] += 1
    for i, fi in enumerate(files):
        for j, fj in enumerate(files):
            stack[4, i, j] = together[i, j] / count[fi]
            stack[5, i, j] = len(authors[fi] & authors[fj]) / len(authors[fi])
    return entities, stack


def blended(stack: np.ndarray, weights) -> np.ndarray:
    values = sum(w * stack[m] for m, w in enumerate(weights) if w) / 100.0
    np.fill_diagonal(values, 1.0)
    return values


def tie_free_merges(stack: np.ndarray, weights) -> int:
    """How many leading UPGMA merges have a unique closest pair by a clear margin.

    A cut into k clusters is settled by the first n-k merges.  When all of them
    are tie-free, every summation order of the blend yields the same cut.
    """
    values = blended(stack, weights)
    work = 1.0 - (values + values.T) / 2.0
    n = work.shape[0]
    np.fill_diagonal(work, np.inf)
    rows, cols = np.triu_indices(n, 1)
    sizes = np.ones(n)
    for step in range(n - 1):
        upper = work[rows, cols]
        best = int(np.argmin(upper))
        if np.count_nonzero(upper <= upper[best] + TIE_TOLERANCE) > 1:
            return step
        a, b = int(rows[best]), int(cols[best])
        merged = (sizes[a] * work[a] + sizes[b] * work[b]) / (sizes[a] + sizes[b])
        work[a, :] = work[:, a] = merged
        work[b, :] = work[:, b] = np.inf
        work[a, a] = np.inf
        sizes[a] += sizes[b]
    return n - 1


def decompose_is_order_free(stack: np.ndarray, weights, k: int) -> bool:
    """Whether any two correct blends must give one partition at k clusters.

    A single nonzero weight leaves nothing to reorder; otherwise the merges that
    settle the cut must be tie-free.
    """
    if sum(1 for w in weights if w) == 1:
        return True
    return tie_free_merges(stack, weights) >= stack.shape[1] - k


# --- decompositions ---------------------------------------------------------------------

class MetricOracle:
    """Five metrics of a partition by the brute-force oracles, for one model."""

    def __init__(self, model):
        self.traces = model.traces
        self.entity_files = model.entity_files
        authors: dict = {}
        for author, files in model.commits:
            for name in files:
                authors.setdefault(name, set()).add(author)
        self.file_authors = authors
        self.ceiling = oracles.max_complexity_measure(self.traces)

    def metrics(self, clusters) -> tuple:
        uniform = oracles.complexity_measure(clusters, self.traces) / self.ceiling if self.ceiling else 0.0
        cohesion = oracles.cohesion_measure(clusters, self.traces)
        coupling = oracles.coupling_measure(clusters, self.traces)
        tsr = oracles.tsr_measure(clusters, self.entity_files, self.file_authors)
        return uniform, cohesion, coupling, tsr, oracles.combined_measure(uniform, cohesion, coupling, tsr)


def check_decomposition(text: str, codebase: str, weights, k: int, entities) -> list:
    """Validate a decomposition JSON's shape; return its clusters."""
    raw = json.loads(text)
    require(raw["codebase"] == codebase, "decomposition codebase")
    require(tuple(raw["weights"]) == tuple(weights), "decomposition weights")
    clusters = raw["clusters"]
    require(raw["nClusters"] == k == len(clusters), f"decomposition has {len(clusters)} clusters, asked {k}")
    members = [e for cluster in clusters for e in cluster]
    require(all(clusters) and sorted(members) == sorted(entities) and len(set(members)) == len(members),
            "decomposition is not a partition of the entities")
    return clusters


def check_matrix_csv(text: str, entities, stack: np.ndarray, weights) -> None:
    lines = text.splitlines()
    require(lines[0].split(",") == ["entity", *entities], "matrix CSV header")
    expected = blended(stack, weights)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        require(cells[0] == entities[i], "matrix CSV row order")
        row = np.array([float(c) for c in cells[1:]])
        worst = float(np.max(np.abs(row - expected[i])))
        require(worst <= HALF_ULP6, f"matrix row {entities[i]} off by {worst}")
    require(len(lines) == len(entities) + 1, "matrix CSV row count")


def check_metrics(oracle_values, row_values, where: str) -> None:
    for name, got, want in zip(METRICS, row_values, oracle_values):
        _close(got, want, f"{where} {name}")


# --- mined history ----------------------------------------------------------------------

def expected_history(record, spec, keep_path=lambda path: True) -> dict:
    """The history JSON a correct `mine` yields, from the generator's record.

    Files take their final names; deletions drop out, and so do files deleted for
    good; commits over max_files files are discarded; the remaining commits are
    bundled by author while adjacent gaps stay within the window.
    """
    files = record.files
    kept_commits = []
    for time, author, ops in record.commits:
        java = {file_id for _, file_id in ops if files[file_id].java}
        if len(java) > spec.max_files:
            continue
        kept = {
            files[file_id].path
            for status, file_id in ops
            if status != "D" and files[file_id].java and files[file_id].alive
            and keep_path(files[file_id].path)
        }
        if kept:
            kept_commits.append((time, author.lower(), kept))
    bundles: list = []
    last = None
    for time, author, kept in kept_commits:
        if bundles and bundles[-1][0] == author and time - last <= spec.window:
            bundles[-1][1].update(kept)
        else:
            bundles.append((author, set(kept)))
        last = time
    count: dict = {}
    co: dict = {}
    authors: dict = {}
    for author, names in bundles:
        if len(names) > spec.max_files:
            continue
        for name in names:
            count[name] = count.get(name, 0) + 1
            authors.setdefault(name, set()).add(author)
        for a, b in combinations(sorted(names), 2):
            co.setdefault(a, {})[b] = co.get(a, {}).get(b, 0) + 1
            co.setdefault(b, {})[a] = co.get(b, {}).get(a, 0) + 1
    return {
        "fileChanges": {f: {"count": count[f], "with": dict(sorted(co.get(f, {}).items()))} for f in sorted(count)},
        "authorship": {f: sorted(authors[f]) for f in sorted(count)},
    }


def check_history(text: str, expected: dict) -> None:
    got = json.loads(text)
    require(set(got) == {"fileChanges", "authorship"}, "history keys")
    missing = sorted(set(expected["fileChanges"]) - set(got["fileChanges"]))
    extra = sorted(set(got["fileChanges"]) - set(expected["fileChanges"]))
    require(not missing and not extra, f"history files differ: missing {missing[:3]}, extra {extra[:3]}")
    for name, entry in expected["fileChanges"].items():
        require(got["fileChanges"][name] == entry, f"history entry differs for {name}")
    require(got["authorship"] == expected["authorship"], "history authorship differs")
