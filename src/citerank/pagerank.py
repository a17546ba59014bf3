"""PageRank over citation networks.

The score vector pi solves

    pi = (1 - d) / N + d * T pi

where T is the transition matrix obtained by normalizing each citing
institution's outgoing citation weights to sum to 1 (score flows from the
citing institution to the cited one). Institutions with no outgoing
citations are dangling; how their probability mass is handled is a policy
choice (see DanglingPolicy).

Each iteration is one weighted np.bincount over the network's own edge
arrays. np.bincount adds each bin's terms in input order, and a
CitationNetwork's edges are sorted by (source, target), so every target's
terms are summed in ascending source order: the order of a row of the CSR
matrix T, which keeps the scores bit-identical to a CSR power iteration.
np.bincount copies an index array it may not write, and a network's arrays
are read-only, so the solve makes one writable copy of the target column
for its loop rather than one per iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNetworkError, InputError, NumericError, require_integer, require_real
from .network import CitationNetwork

__all__ = [
    "DanglingPolicy",
    "PageRankConfig",
    "PageRankResult",
    "normalize_weights",
    "pagerank",
]


class DanglingPolicy(str, enum.Enum):
    """How the out-flow of nodes without outgoing citations is assigned.

    UNIFORM spreads each dangling node's mass evenly over all nodes before
    damping, which keeps the score vector a true probability distribution.
    TELEPORT leaves dangling mass to the teleportation term alone; the
    resulting scores then sum to less than 1 whenever dangling nodes exist.
    """

    UNIFORM = "uniform_redistribution"
    TELEPORT = "teleport_only"


@dataclass(frozen=True)
class PageRankConfig:
    damping: float = 0.85
    tolerance: float = 1e-12
    max_iterations: int = 1000
    dangling_policy: DanglingPolicy = DanglingPolicy.UNIFORM

    def __post_init__(self) -> None:
        object.__setattr__(self, "dangling_policy", DanglingPolicy(self.dangling_policy))
        for name in ("damping", "tolerance"):  # as floats, so no Fraction reaches numpy; checked as stored
            object.__setattr__(self, name, require_real(getattr(self, name), name))
        if not 0.0 <= self.damping < 1.0:
            raise InputError(f"damping must be in [0, 1), got {self.damping}")
        if not self.tolerance > 0.0:
            raise InputError(f"tolerance must be positive, got {self.tolerance}")
        if require_integer(self.max_iterations, "max_iterations") < 1:
            raise InputError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class PageRankResult:
    """Solver output: scores plus convergence metadata.

    Under the uniform redistribution policy the scores sum to 1 and every
    entry is at least (1 - d) / N.
    """

    scores: np.ndarray
    iterations_used: int
    converged: bool
    final_delta: float


def normalize_weights(net: CitationNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's share of its source's out-weight, and the dangling-node mask.

    Edge k moves the fraction share[k] of net.source[k]'s score to
    net.target[k]; the shares of each non-dangling source sum to 1.
    """
    share = net.weight.astype(np.float64)
    out_sum = np.bincount(net.source, weights=share, minlength=net.n_nodes)
    share /= out_sum[net.source]
    return share, out_sum == 0.0


def pagerank(net: CitationNetwork, cfg: PageRankConfig | None = None) -> PageRankResult:
    """Solve for the PageRank scores by fixed-point iteration.

    Starts from the uniform vector and iterates until the L1 change between
    successive iterates drops below cfg.tolerance. If max_iterations is
    exhausted first, the best iterate is returned with converged=False.
    The iteration order is deterministic, so results are bit-reproducible
    for a fixed network and configuration.
    """
    if cfg is None:
        cfg = PageRankConfig()
    n = net.n_nodes
    if n == 0:
        raise EmptyNetworkError("cannot compute PageRank of an empty network")
    share, dangling = normalize_weights(net)
    d = cfg.damping
    teleport = (1.0 - d) / n
    uniform_policy = cfg.dangling_policy is DanglingPolicy.UNIFORM

    target = net.target.astype(np.intp)  # writable, so np.bincount reads it in place
    pi = np.full(n, 1.0 / n)
    delta = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        flow = np.bincount(target, weights=share * pi[net.source], minlength=n)
        flow = flow.astype(np.float64, copy=False)  # int64 when there are no edges
        if uniform_policy:
            flow += pi[dangling].sum() / n
        new_pi = teleport + d * flow
        if not np.all(np.isfinite(new_pi)):
            raise NumericError("PageRank iteration produced a non-finite value")
        delta = float(np.abs(new_pi - pi).sum())
        pi = new_pi
        if delta < cfg.tolerance:
            return PageRankResult(pi, iterations, True, delta)
    return PageRankResult(pi, iterations, False, delta)

