"""Ranking-score construction.

Two score transforms are used throughout: the indicator compression that
maps raw indicator values onto a 0-100 scale via scale-to-10000 followed by
a square root, and the analogous square-root normalization of PageRank
scores over their maximum. Both are scale-invariant and strictly order
preserving, so every rank statistic downstream is unaffected by the units
of the raw inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InputError, MissingColumnError, ScoringError
from .ingest import SubjectProfile

__all__ = ["ScoreTable", "compress", "composite_score", "normalize_pagerank"]


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Named per-institution score columns.

    Columns may hold raw indicators (PUB, CNCI, IC, TOP, AWD, CIT, hindex),
    compressed indicator scores, or computed composites; all columns share
    the institutions' length and are non-negative. The table is immutable:
    `columns` is a read-only mapping of read-only float64 copies.
    """

    institutions: tuple[str, ...]
    columns: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        institutions = tuple(self.institutions)
        if len(set(institutions)) != len(institutions):
            raise InputError("institution ids must be unique")
        columns = {}
        for name, col in self.columns.items():
            arr = np.array(col, dtype=np.float64)
            if arr.shape != (len(institutions),):
                raise InputError(
                    f"column {name!r} has length {arr.shape}, expected {len(institutions)}"
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise InputError(f"column {name!r} must be finite and non-negative")
            arr.setflags(write=False)
            columns[name] = arr
        object.__setattr__(self, "institutions", institutions)
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return (
            self.institutions == other.institutions
            and self.column_names == other.column_names
            and all(np.array_equal(self.columns[n], other.columns[n]) for n in self.columns)
        )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)


def compress(raw) -> np.ndarray:
    """Compress a raw indicator vector onto the 0-100 score scale.

    The largest raw value is scaled to 10000, then every scaled value is
    replaced by its square root, so the maximum maps to exactly 100.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.size == 0:
        raise ScoringError("cannot compress an empty vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ScoringError("raw indicator values must be finite and non-negative")
    top = arr.max()
    if top == 0:
        raise ScoringError("cannot compress an all-zero vector")
    return np.sqrt(arr * (10000.0 / top))


def composite_score(table: ScoreTable, profile: SubjectProfile) -> np.ndarray:
    """Weighted mean of compressed indicator scores under a subject's weights.

    Expects table columns named after the indicators, already compressed.
    The weighted sum is divided by the total weight, so an institution
    scoring 100 on every positively weighted indicator scores exactly 100.
    Indicators with weight 0 are ignored and may be absent.
    """
    total = 0.0
    acc = np.zeros(len(table.institutions))
    for indicator, weight in profile.indicator_weights.items():
        if weight <= 0:
            continue
        if indicator not in table.columns:
            raise MissingColumnError(
                f"profile {profile.name!r} weights indicator {indicator!r} "
                f"but the score table has no such column"
            )
        acc += weight * table.columns[indicator]
        total += weight
    return acc / total


def normalize_pagerank(scores) -> np.ndarray:
    """Place PageRank scores on the 0-100 indicator scale.

    Applies the same square-root compression used for indicators: scores are
    normalized over the maximum and square-rooted, so the top institution
    scores exactly 100. Takes a score vector, such as PageRankResult.scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ScoringError("cannot normalize an empty score vector")
    if not np.all(np.isfinite(scores)) or np.any(scores <= 0):
        raise ScoringError("PageRank scores must be finite and strictly positive")
    return np.sqrt(scores / scores.max()) * 100.0
