"""Candidate microservice decompositions of a monolith from development history and access traces."""

from .accesses import READ, WRITE, AccessModel, AccessModelError, load_access_model
from .analysis import (
    CodebaseStats,
    SizeSplit,
    StatsError,
    WelchResult,
    best_decompositions,
    best_share_by_group,
    group_summary,
    size_split,
    welch_test,
)
from .clustering import ClusteringError, Decomposition, Dendrogram, agglomerate, cut, to_dissimilarity
from .history import (
    DevelopmentHistory,
    GitLogError,
    HistoryError,
    LogicalCommit,
    bundle_commits,
    build_history_representation,
    mine_history,
    parse_git_log,
    prune_deleted,
    read_git_log,
    resolve_renames,
)
from .metrics import (
    MetricsError,
    MetricsRecord,
    Scorer,
    cohesion,
    combined_score,
    coupling,
    evaluate,
    max_complexity,
    tsr,
    uniform_complexity,
)
from .similarity import (
    SimilarityError,
    SimilarityMatrix,
    Weights,
    build_similarity_matrix,
    map_entities_to_files,
)
from .sweep import (
    GROUPS,
    ResultRow,
    SweepError,
    SweepFailure,
    classify_group,
    cluster_counts,
    enumerate_weights,
    read_results_csv,
    run_sweep,
    write_results_csv,
)

__version__ = "0.1.0"
