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
from .clustering import (
    ClusteringError,
    Dendrogram,
    agglomerate,
    cut,
    decomposition_json,
    to_dissimilarity,
)
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
    tsr,
    uniform_complexity,
)
from .similarity import (
    SimilarityError,
    Weights,
    build_similarity_matrix,
    map_entities_to_files,
    matrix_csv,
)
from .sweep import (
    GROUPS,
    ResultRow,
    SweepError,
    classify_group,
    cluster_counts,
    enumerate_weights,
    read_results_csv,
    run_sweep,
    write_results_csv,
)

__version__ = "0.1.0"
