"""Institution-level citation networks, PageRank reputation scores, and
ranking-comparison statistics."""

__version__ = "0.1.0"

from .network import CitationNetwork, DegreeReport, degree_report, in_degree
from .pagerank import (
    DanglingPolicy,
    PageRankConfig,
    PageRankResult,
    normalize_weights,
    pagerank,
)
from .ingest import (
    PublicationRecord,
    SubjectProfile,
    apply_threshold,
    build_network,
    default_profiles,
    filter_records,
    load_profiles,
    parse_records,
)
from .scoring import ScoreTable, composite_score, compress, normalize_pagerank
from .rankstats import (
    ComparisonReport,
    average_rank,
    DisplacementSummary,
    PcaResult,
    compare_columns,
    correlation_matrix,
    kendall_w,
    partial_correlation,
    pca,
    pearson,
    rank_displacement,
    spearman,
    varimax,
)
from .synthnet import CartelSpec, SynthConfig, SynthResult, generate_traced

__all__ = [
    "__version__",
    "CitationNetwork",
    "DegreeReport",
    "degree_report",
    "in_degree",
    "DanglingPolicy",
    "PageRankConfig",
    "PageRankResult",
    "normalize_weights",
    "pagerank",
    "PublicationRecord",
    "SubjectProfile",
    "apply_threshold",
    "build_network",
    "default_profiles",
    "filter_records",
    "load_profiles",
    "parse_records",
    "ScoreTable",
    "composite_score",
    "compress",
    "normalize_pagerank",
    "ComparisonReport",
    "average_rank",
    "DisplacementSummary",
    "PcaResult",
    "compare_columns",
    "correlation_matrix",
    "kendall_w",
    "partial_correlation",
    "pca",
    "pearson",
    "rank_displacement",
    "spearman",
    "varimax",
    "CartelSpec",
    "SynthConfig",
    "SynthResult",
    "generate_traced",
]
