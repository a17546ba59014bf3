"""Institution-level citation networks, PageRank reputation scores, and
ranking-comparison statistics."""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# The CLI loads numpy with one OpenBLAS thread, so its output does not depend on the core count.
if _os.path.basename("".join(_sys.argv[:1])) in ("-m", "citerank") and "numpy" not in _sys.modules \
        and _os.environ.keys().isdisjoint(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
