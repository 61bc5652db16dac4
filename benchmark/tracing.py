"""Per-layer spans around the program's public functions, installed from outside the program.

Each function is wrapped at the name its caller looks up (for example
`monosplit.sweep.evaluate`, which `run_sweep` calls, or `monosplit.cli.agglomerate`,
which `decompose` calls).  A span records its wall time; its self time is that
minus the time covered by the spans it encloses.  A name that no longer exists
is listed as not measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


# (module, attribute, span name, work counts taken from (result, args))
TARGETS = [
    ("monosplit.cli", "load_access_model", "accesses.load_access_model", None),
    ("monosplit.history", "DevelopmentHistory.parse", "history.parse_json", None),
    ("monosplit.cli", "map_entities_to_files", "similarity.map_entities_to_files", None),
    ("monosplit.cli", "build_similarity_matrix", "similarity.build_similarity_matrix", None),
    ("monosplit.similarity", "measure_matrices", "similarity.measure_matrices", None),
    ("monosplit.sweep", "measure_matrices", "similarity.measure_matrices", None),
    ("monosplit.cli", "agglomerate", "clustering.agglomerate", None),
    ("monosplit.sweep", "agglomerate", "clustering.agglomerate", None),
    ("monosplit.cli", "cut", "clustering.cut", None),
    ("monosplit.sweep", "cut", "clustering.cut", None),
    ("monosplit.sweep", "evaluate", "metrics.evaluate", None),
    ("monosplit.metrics", "uniform_complexity", "metrics.uniform_complexity", None),
    ("monosplit.metrics", "cohesion", "metrics.cohesion", None),
    ("monosplit.metrics", "coupling", "metrics.coupling", None),
    ("monosplit.metrics", "tsr", "metrics.tsr", None),
    ("monosplit.cli", "run_sweep", "sweep.run_sweep", lambda r, a: {"sweep.rows": len(r[0])}),
    ("monosplit.cli", "write_results_csv", "sweep.write_results_csv",
     lambda r, a: {"sweep.csv_bytes": len(r.encode())}),
    ("monosplit.cli", "read_results_csv", "sweep.read_results_csv", None),
    ("monosplit.cli", "group_summary", "analysis.group_summary", None),
    ("monosplit.cli", "best_decompositions", "analysis.best_decompositions", None),
    ("monosplit.cli", "welch_test", "analysis.welch_test", None),
    ("monosplit.cli", "read_git_log", "history.read_git_log", None),
    ("monosplit.cli", "mine_history", "history.mine_history", None),
    ("monosplit.history", "parse_git_log", "history.parse_git_log",
     lambda r, a: {"history.events": len(r)}),
    ("monosplit.history", "resolve_renames", "history.resolve_renames", None),
    ("monosplit.history", "prune_deleted", "history.prune_deleted", None),
    ("monosplit.history", "drop_oversized_commits", "history.drop_oversized_commits",
     lambda r, a: {"history.events_kept": len(r)}),
    ("monosplit.history", "bundle_commits", "history.bundle_commits",
     lambda r, a: {"history.raw_commits": len({e.commit_hash for e in a[0]}),
                   "history.logical_commits": len(r)}),
    ("monosplit.history", "build_history_representation", "history.build_history_representation",
     lambda r, a: {"history.files": len(r.file_commit_count)}),
    ("monosplit.history", "DevelopmentHistory.serialize", "history.serialize", None),
]
COUNTERS = ("history.events", "history.events_kept", "history.raw_commits", "history.logical_commits",
            "history.files", "sweep.rows", "sweep.csv_bytes")

COMMANDS = ("decompose", "sweep", "analyze", "mine")
SPANS = sorted({t[2] for t in TARGETS} | {f"cli.{command}" for command in COMMANDS})
CALL_COUNTS = ("metrics.evaluate", "clustering.agglomerate", "clustering.cut")
LAYERS = ("accesses", "history", "similarity", "clustering", "metrics", "sweep", "analysis", "cli")


class Tracer:
    """Spans and counts, kept in memory and summed per name over the traced rounds."""

    def __init__(self):
        self.busy: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._open: list[float] = []  # time covered by children of each open span
        self._patches: list = []
        self.not_measured: list[str] = []
        self._prepare()

    def _span(self, name, fn, *args, **kwargs):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - start
            children = self._open.pop()
            self.busy[name] += span
            self.self_time[name] += span - children
            self.calls[name] += 1
            if self._open:
                self._open[-1] += span

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(name, fn, *args, **kwargs)
            if count:
                for key, value in count(result, args).items():
                    self.counts[key] += value
            return result

        return wrapper

    def _wrap_cli(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            command = next(a for a in argv if a in COMMANDS)
            return self._span(f"cli.{command}", fn, argv)

        return wrapper

    def _prepare(self) -> None:
        """Resolve every target once; patches are applied and removed per round."""
        for module_name, attribute, name, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.not_measured.append(f"{module_name}.{attribute}")
                continue
            owner_name, _, attr = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.not_measured.append(f"{module_name}.{attribute}")
                continue
            if isinstance(original, classmethod):
                patched = staticmethod(self._wrap(original.__get__(None, owner), name, count))
            else:
                patched = self._wrap(original, name, count)
            self._patches.append((owner, attr, original, patched))
        cli = importlib.import_module("monosplit.cli")
        if hasattr(cli, "main"):
            self._patches.append((cli, "main", cli.main, self._wrap_cli(cli.main)))
        else:
            self.not_measured.append("monosplit.cli.main")

    def install(self) -> None:
        for owner, attr, _, patched in self._patches:
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict:
        """Per-round busy and self seconds, call counts and work counts."""
        out: dict = {}
        for name in SPANS:
            out[f"{name}_s"] = (self.busy[name] / rounds, "s")
            out[f"{name}_self_s"] = (self.self_time[name] / rounds, "s")
        for name in CALL_COUNTS:
            out[f"{name}_calls"] = (self.calls[name] / rounds, "count")
        for name in COUNTERS:
            out[name] = (self.counts[name] / rounds, "bytes" if name.endswith("_bytes") else "count")
        rows = self.counts["sweep.rows"]
        out["sweep.distinct_ratio"] = (self.calls["metrics.evaluate"] / rows if rows else 0.0, "ratio")
        for layer in LAYERS:
            total = sum(self.self_time[n] for n in SPANS if n.startswith(layer + "."))
            out[f"layer.{layer}_self_s"] = (total / rounds, "s")
        return out
