"""Statistics for comparing two institution scoring systems.

Covers the full comparison battery: Pearson and Spearman correlations with
two-sided p-values from the t-transform, Kendall's coefficient of
concordance W with tie correction, first-order partial correlations,
descriptive statistics of absolute rank displacement, and PCA of a
correlation matrix with varimax rotation of the retained loadings.

Every statistic checks its vectors once, in _vectors: 1-D, of one length
and finite. Pearson correlations first scale each vector by a power of two,
which is exact and keeps the squares of extreme magnitudes in range. All
functions are pure and operate on immutable inputs, so they are safe to
call concurrently.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateControlError,
    InputError,
    InvalidCorrelationMatrixError,
    UndefinedStatisticError,
    require_integer,
)

__all__ = [
    "ComparisonReport",
    "DisplacementSummary",
    "PcaResult",
    "average_rank",
    "pearson",
    "spearman",
    "kendall_w",
    "partial_correlation",
    "partial_from_pairwise",
    "rank_displacement",
    "compare_columns",
    "correlation_matrix",
    "pca",
    "varimax",
]


# ---------------------------------------------------------------------------
# Ranking helpers
# ---------------------------------------------------------------------------


def average_rank(values, descending: bool = False) -> np.ndarray:
    """Ranks 1..n with tied values receiving the average of their positions.

    descending=True ranks the largest value first (competition order with
    ties averaged), which is the convention for turning scores into ranks.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise InputError("average_rank expects a 1-D vector")
    key = -v if descending else v
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    starts = np.ones(v.size, dtype=bool)  # each NaN starts its own run: NaN != NaN
    starts[1:] = ordered[1:] != ordered[:-1]
    first = np.flatnonzero(starts)
    last = np.append(first[1:], v.size) - 1
    # positions first..last (0-based) of a run of ties share the average rank
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = ((first + last) / 2.0 + 1.0)[np.cumsum(starts) - 1]
    return ranks


def _vectors(*arrays) -> list[np.ndarray]:
    """The arrays as float64 vectors; InputError unless they are 1-D, of one length and finite."""
    vectors = [np.asarray(a, dtype=np.float64) for a in arrays]
    if any(v.ndim != 1 or v.size != vectors[0].size for v in vectors):
        raise InputError("inputs must be 1-D vectors of equal length")
    if not all(np.isfinite(v).all() for v in vectors):
        raise InputError("inputs must be finite (no NaN or infinity)")
    return vectors


def _unit_scale(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its largest magnitude into [0.5, 1), exactly."""
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    x, y = _unit_scale(x), _unit_scale(y)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedStatisticError("correlation undefined for a zero-variance input")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _series_terms(log_c2: float, odd: int):
    """Positive terms coef_k cos^2k(theta), k = 0, 1, ..., of the A&S 26.7.3-4 series.

    coef_k is the product over j <= k of (2j - 1)/(2j) for even dof, (2j)/(2j + 1) for odd.
    """
    coef, k = 1.0, 0
    while True:
        yield coef * math.exp(k * log_c2)
        k += 1
        coef *= (2 * k - 1 + odd) / (2 * k + odd)


def _t_two_sided_p(r: float, dof: int) -> float:
    """Two-sided p-value for a correlation via t = r * sqrt(dof / (1 - r^2)).

    P(|T| >= t) for Student's t with integer dof, from the finite series of
    Abramowitz & Stegun 26.7.3-4 in theta = atan(t / sqrt(dof)). There
    sin(theta) = |r| and cos^2(theta) = 1 - r^2, so t is never formed:
      even dof: P(|T| < t) = sin * sum_{k < dof/2} coef_k cos^2k
      odd dof:  P(|T| < t) = (2/pi) (theta + sin cos sum_{k < (dof-1)/2} coef_k cos^2k)
    The infinite series makes that probability exactly 1, so the p-value is
    also the prefactor times the series' tail from k = dof // 2. Below 1e-3
    the tail is summed instead of 1 - sum, which keeps the digits of tiny p.
    """
    if dof < 1:
        raise UndefinedStatisticError(f"too few observations ({dof} degrees of freedom)")
    if 1.0 - r * r <= 0.0:
        return 0.0
    s = abs(r)
    log_c2 = math.log1p(-r * r)  # log cos^2(theta); exact where 1 - r*r would round
    odd = dof % 2
    if odd:
        prefactor = 2.0 / math.pi * s * math.exp(0.5 * log_c2)
        head = 2.0 / math.pi * math.asin(s)
    else:
        prefactor, head = s, 0.0
    terms = _series_terms(log_c2, odd)
    p = 1.0 - head - prefactor * math.fsum(itertools.islice(terms, dof // 2))
    if p >= 1e-3:
        return p
    # terms fall by more than cos^2 each, so what follows a term t is below
    # t * cos^2 / (1 - cos^2); stop once that is beneath double precision
    tail, running = [], 0.0
    stop = -math.expm1(log_c2) * 2.0**-60
    for term in terms:
        tail.append(term)
        running += term
        if term <= stop * running:
            break
    return prefactor * math.fsum(tail)


# ---------------------------------------------------------------------------
# Correlation and concordance
# ---------------------------------------------------------------------------


def pearson(x, y) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided t-transform p-value."""
    xv, yv = _vectors(x, y)
    if xv.size < 3:
        raise InputError(f"pearson needs at least 3 points, got {xv.size}")
    r = _pearson_r(xv, yv)
    return r, _t_two_sided_p(r, xv.size - 2)


def spearman(x, y) -> tuple[float, float]:
    """Spearman rank correlation: Pearson on average-ranked data."""
    xv, yv = _vectors(x, y)
    if xv.size < 3:
        raise InputError(f"spearman needs at least 3 points, got {xv.size}")
    rho = _pearson_r(average_rank(xv), average_rank(yv))
    return rho, _t_two_sided_p(rho, xv.size - 2)


def kendall_w(rows) -> float:
    """Kendall's coefficient of concordance among m rankings of n items.

    Each row is one judge's scores or ranks over the same n items; rows are
    converted to average ranks internally (a no-op for valid rank vectors),
    so ties are handled with the standard correction. W is 1 for perfect
    agreement and 0 for none.
    """
    rows = _vectors(*rows)
    if len(rows) < 2:
        raise InputError("kendall_w needs at least 2 rankings")
    n = rows[0].size
    if n < 2:
        raise InputError("kendall_w needs at least 2 items")
    m = len(rows)
    ranked = np.vstack([average_rank(row) for row in rows])
    rank_sums = ranked.sum(axis=0)
    deviations = rank_sums - rank_sums.mean()
    s = float(deviations @ deviations)
    tie_term = 0.0
    for row in ranked:
        _, counts = np.unique(row, return_counts=True)
        tie_term += float(np.sum(counts.astype(np.float64) ** 3 - counts))
    denom = m * m * (n**3 - n) - m * tie_term
    if denom <= 0.0:
        raise UndefinedStatisticError("concordance undefined: every ranking is fully tied")
    w = 12.0 * s / denom
    return min(1.0, max(0.0, w))


def partial_from_pairwise(r_xy: float, r_xz: float, r_yz: float) -> float:
    """First-order partial correlation from the three pairwise correlations."""
    if 1.0 - r_xz * r_xz <= 0.0 or 1.0 - r_yz * r_yz <= 0.0:
        raise DegenerateControlError("control variable is perfectly correlated with an input")
    r = (r_xy - r_xz * r_yz) / math.sqrt((1.0 - r_xz * r_xz) * (1.0 - r_yz * r_yz))
    return min(1.0, max(-1.0, r))


def partial_correlation(x, y, z) -> tuple[float, float]:
    """Correlation of x and y with z's linear influence removed.

    Uses the first-order formula on the pairwise Pearson correlations; the
    p-value comes from the t-transform with n - 3 degrees of freedom.
    """
    xv, yv, zv = _vectors(x, y, z)
    if xv.size < 4:
        raise InputError(f"partial correlation needs at least 4 points, got {xv.size}")
    r = partial_from_pairwise(_pearson_r(xv, yv), _pearson_r(xv, zv), _pearson_r(yv, zv))
    return r, _t_two_sided_p(r, xv.size - 3)


# ---------------------------------------------------------------------------
# Rank displacement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisplacementSummary:
    """Descriptive statistics of absolute rank differences between two scores."""

    n: int
    mean: float
    std: float
    p50: float
    p75: float
    p90: float


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    idx = max(1, math.ceil(q * sorted_values.size))
    return float(sorted_values[idx - 1])


def rank_displacement(score_a, score_b) -> DisplacementSummary:
    """Summary of |rank under A - rank under B| per institution.

    Both score vectors are ranked descending with ties averaged. Percentiles
    use the nearest-rank method, so p50/p75/p90 are actual observed values.
    """
    a, b = _vectors(score_a, score_b)
    if a.size == 0:
        raise InputError("rank displacement needs at least one institution")
    diffs = np.abs(average_rank(a, descending=True) - average_rank(b, descending=True))
    ordered = np.sort(diffs)
    std = float(diffs.std(ddof=1)) if diffs.size > 1 else 0.0
    return DisplacementSummary(
        n=int(diffs.size),
        mean=float(diffs.mean()),
        std=std,
        p50=_nearest_rank(ordered, 0.50),
        p75=_nearest_rank(ordered, 0.75),
        p90=_nearest_rank(ordered, 0.90),
    )


# ---------------------------------------------------------------------------
# Full comparison report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    pearson_r: float
    pearson_p: float
    spearman_rho: float
    spearman_p: float
    kendall_w: float
    displacement: DisplacementSummary
    partial: dict[str, tuple[float, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = self.displacement
        return {
            "pearson": {"r": self.pearson_r, "p": self.pearson_p},
            "spearman": {"rho": self.spearman_rho, "p": self.spearman_p},
            "kendall_w": self.kendall_w,
            "partial": {
                name: {"r": r, "p": p} for name, (r, p) in sorted(self.partial.items())
            },
            "displacement": {
                "n": d.n, "mean": d.mean, "std": d.std,
                "p50": d.p50, "p75": d.p75, "p90": d.p90,
            },
        }


def compare_columns(a, b, controls: Mapping[str, Sequence[float]] | None = None) -> ComparisonReport:
    """Run the whole battery on two score vectors over the same institutions."""
    r, rp = pearson(a, b)
    rho, rhop = spearman(a, b)
    w = kendall_w([a, b])
    partial = {name: partial_correlation(a, b, z) for name, z in (controls or {}).items()}
    return ComparisonReport(
        pearson_r=r,
        pearson_p=rp,
        spearman_rho=rho,
        spearman_p=rhop,
        kendall_w=w,
        partial=partial,
        displacement=rank_displacement(a, b),
    )


# ---------------------------------------------------------------------------
# Principal component analysis with varimax rotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaResult:
    """Eigenstructure of a correlation matrix plus rotated loadings.

    eigenvalues and explained_share cover all p components (shares are
    eigenvalue / p); loadings and rotated_loadings are p x retain matrices;
    rotated_variance_share holds each rotated component's share of total
    variance, sorted descending.
    """

    variables: tuple[str, ...]
    eigenvalues: np.ndarray
    explained_share: np.ndarray
    loadings: np.ndarray
    rotated_loadings: np.ndarray
    rotated_variance_share: np.ndarray

    @property
    def retained(self) -> int:
        return self.loadings.shape[1]


def correlation_matrix(columns: Mapping[str, Sequence[float]]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Pearson correlation matrix of named columns (observations standardized)."""
    names = tuple(columns)
    if len(names) < 2:
        raise InputError("need at least two columns to correlate")
    vectors = _vectors(*(columns[name] for name in names))
    if vectors[0].size < 3:
        raise InputError("need at least 3 observations to correlate")
    data = np.column_stack([_unit_scale(v) for v in vectors])
    if np.any(data.std(axis=0) == 0.0):
        raise UndefinedStatisticError("correlation undefined for a zero-variance column")
    return np.corrcoef(data, rowvar=False), names


def _fix_column_signs(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            out[:, k] = -col
    return out


_VARIMAX_TOL = 1e-10
_VARIMAX_MAX_SWEEPS = 1000


def varimax(loadings: np.ndarray) -> np.ndarray:
    """Varimax rotation by iterative pairwise planar rotations.

    Rows are Kaiser-normalized (divided by their communality) before
    rotating and restored afterwards; sweeps over all column pairs repeat
    until one raises the varimax criterion by at most _VARIMAX_TOL of its
    magnitude (at least 1), or for at most _VARIMAX_MAX_SWEEPS sweeps.
    """
    l_mat = np.asarray(loadings, dtype=np.float64)
    p, k = l_mat.shape
    if k < 2:
        return l_mat.copy()
    h = np.sqrt((l_mat**2).sum(axis=1))
    scale = np.where(h > 0, h, 1.0)
    a = l_mat / scale[:, None]

    def criterion(m: np.ndarray) -> float:
        sq = m**2
        return float(np.sum(sq**2) - np.sum(sq.sum(axis=0) ** 2) / p)

    value = criterion(a)
    for _ in range(_VARIMAX_MAX_SWEEPS):
        for j in range(k - 1):
            for l in range(j + 1, k):
                x = a[:, j].copy()
                y = a[:, l].copy()
                u = x * x - y * y
                v = 2.0 * x * y
                su = u.sum()
                sv = v.sum()
                num = 2.0 * float(u @ v) - 2.0 * su * sv / p
                den = float(u @ u - v @ v) - (su * su - sv * sv) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) > 1e-15:
                    c, s = math.cos(phi), math.sin(phi)
                    a[:, j] = c * x + s * y
                    a[:, l] = -s * x + c * y
        new_value = criterion(a)
        if new_value - value <= _VARIMAX_TOL * max(1.0, abs(value)):
            break
        value = new_value
    rotated = a * scale[:, None]
    # deterministic presentation: components ordered by variance, sign-fixed
    order = np.argsort(-(rotated**2).sum(axis=0), kind="stable")
    return _fix_column_signs(rotated[:, order])


def pca(corr, retain: int, variables: Sequence[str] | None = None) -> PcaResult:
    """Eigendecomposition of a correlation matrix with varimax'd loadings.

    Retained loadings are eigenvector * sqrt(eigenvalue). explained_share is
    eigenvalue / p. Tiny negative eigenvalues (>= -1e-10) are clamped to 0;
    anything more negative means the input was not a correlation matrix.
    """
    c = np.asarray(corr, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCorrelationMatrixError("correlation matrix must be square")
    p = c.shape[0]
    if not np.all(np.isfinite(c)):
        raise InvalidCorrelationMatrixError("correlation matrix has non-finite entries")
    if np.max(np.abs(c - c.T)) > 1e-8:
        raise InvalidCorrelationMatrixError("correlation matrix is not symmetric")
    if np.max(np.abs(np.diag(c) - 1.0)) > 1e-8:
        raise InvalidCorrelationMatrixError("correlation matrix diagonal must be 1")
    if np.max(np.abs(c)) > 1.0 + 1e-8:
        raise InvalidCorrelationMatrixError("correlation entries must lie in [-1, 1]")
    if not 1 <= require_integer(retain, "retain") <= p:
        raise InputError(f"retain must be between 1 and {p}, got {retain}")
    if variables is None:
        variables = tuple(f"var{i + 1}" for i in range(p))
    if isinstance(variables, Iterable) and not isinstance(variables, str):
        variables = tuple(variables)
    if not (isinstance(variables, tuple) and all(isinstance(name, str) for name in variables)):
        raise InputError(f"variables must be an iterable of names, got {variables!r}")
    if len(variables) != p:
        raise InputError("variable names must match the matrix size")

    eigenvalues, eigenvectors = np.linalg.eigh((c + c.T) / 2.0)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    if eigenvalues[-1] < -1e-10:
        raise InvalidCorrelationMatrixError(
            f"matrix has a negative eigenvalue ({eigenvalues[-1]:.3e}); not a correlation matrix"
        )
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    loadings = _fix_column_signs(eigenvectors[:, :retain] * np.sqrt(eigenvalues[:retain]))
    rotated = varimax(loadings)
    return PcaResult(
        variables=variables,
        eigenvalues=eigenvalues,
        explained_share=eigenvalues / p,
        loadings=loadings,
        rotated_loadings=rotated,
        rotated_variance_share=(rotated**2).sum(axis=0) / p,
    )
