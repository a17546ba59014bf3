"""Institution-level citation networks, PageRank reputation scores, and
ranking-comparison statistics.

`network` and `pagerank` load with the package, and `citerank.pagerank` is the
function, not its module. Every other public name, and the submodules `ingest`,
`scoring`, `rankstats` and `synthnet`, load on first use, so each CLI command
compiles only the modules it runs.
"""

__version__ = "0.1.0"

import importlib as _importlib
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

# public name -> the submodule that defines it, imported on first use (PEP 562)
_LAZY = {
    **dict.fromkeys((
        "ingest", "PublicationRecord", "SubjectProfile", "apply_threshold", "build_network",
        "default_profiles", "filter_records", "load_profiles", "parse_records",
    ), "ingest"),
    **dict.fromkeys(
        ("scoring", "ScoreTable", "composite_score", "compress", "normalize_pagerank"), "scoring"
    ),
    **dict.fromkeys((
        "rankstats", "ComparisonReport", "average_rank", "DisplacementSummary", "PcaResult",
        "compare_columns", "correlation_matrix", "kendall_w", "partial_correlation", "pca",
        "pearson", "rank_displacement", "spearman", "varimax",
    ), "rankstats"),
    **dict.fromkeys(
        ("synthnet", "CartelSpec", "SynthConfig", "SynthResult", "generate_traced"), "synthnet"
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


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
