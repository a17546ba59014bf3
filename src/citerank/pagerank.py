"""PageRank over citation networks.

The score vector pi solves

    pi = (1 - d) / N + d * T pi

where T is the transition matrix obtained by normalizing each citing
institution's outgoing citation weights to sum to 1 (score flows from the
citing institution to the cited one). Institutions with no outgoing
citations are dangling; how their probability mass is handled is a policy
choice (see DanglingPolicy).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNetworkError, InputError, NumericError
from .network import CitationNetwork

__all__ = [
    "DanglingPolicy",
    "PageRankConfig",
    "PageRankResult",
    "TransitionMatrix",
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
        if not 0.0 <= self.damping < 1.0:
            raise InputError(f"damping must be in [0, 1), got {self.damping}")
        if not self.tolerance > 0.0:
            raise InputError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
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


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic transition structure of a network, as edge arrays.

    Edge k moves the fraction share[k] of source[k]'s score to target[k];
    the shares of each non-dangling source sum to 1. Edges are sorted by
    (target, source), so summing them in order per target adds the terms of
    each row of the matrix in ascending column order.
    """

    target: np.ndarray
    source: np.ndarray
    share: np.ndarray
    dangling: np.ndarray


def normalize_weights(net: CitationNetwork) -> TransitionMatrix:
    """Normalize each node's outgoing weights to sum to 1, flag dangling nodes."""
    w = net.weight.astype(np.float64)
    out_sum = np.bincount(net.source, weights=w, minlength=net.n_nodes)
    order = np.argsort(net.target * net.n_nodes + net.source)  # by (target, source); keys are distinct
    src = net.source[order]
    return TransitionMatrix(
        target=net.target[order], source=src, share=w[order] / out_sum[src], dangling=out_sum == 0.0
    )


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
    trans = normalize_weights(net)
    d = cfg.damping
    teleport = (1.0 - d) / n
    uniform_policy = cfg.dangling_policy is DanglingPolicy.UNIFORM

    pi = np.full(n, 1.0 / n)
    delta = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        flow = np.bincount(trans.target, weights=trans.share * pi[trans.source], minlength=n)
        flow = flow.astype(np.float64, copy=False)  # int64 when there are no edges
        if uniform_policy:
            flow += pi[trans.dangling].sum() / n
        new_pi = teleport + d * flow
        if not np.all(np.isfinite(new_pi)):
            raise NumericError("PageRank iteration produced a non-finite value")
        delta = float(np.abs(new_pi - pi).sum())
        pi = new_pi
        if delta < cfg.tolerance:
            return PageRankResult(pi, iterations, True, delta)
    return PageRankResult(pi, iterations, False, delta)

