import numpy as np
import pytest

from citerank import CitationNetwork, DanglingPolicy, PageRankConfig
from citerank.errors import CiteRankError, EmptyNetworkError

ORACLE_MAX_NODES = 200


class OracleSizeError(CiteRankError):
    """The dense reference solver refuses networks above its size cap."""


def build_from_dict(node_ids, weights, subject: str = "", keep_self_loops: bool = False) -> CitationNetwork:
    """CitationNetwork.build from a {(source index, target index): weight} dict."""
    pairs = list(weights.items())
    return CitationNetwork.build(
        node_ids,
        [i for (i, _j), _w in pairs],
        [j for (_i, j), _w in pairs],
        [w for _pair, w in pairs],
        subject=subject,
        keep_self_loops=keep_self_loops,
    )


def pagerank_oracle(net: CitationNetwork, cfg: PageRankConfig | None = None) -> np.ndarray:
    """Dense direct solve of the PageRank fixed point; test reference only.

    Builds the full N x N transition matrix under the same dangling policy
    and solves the linear system exactly. Refuses networks with more than
    ORACLE_MAX_NODES nodes.
    """
    if cfg is None:
        cfg = PageRankConfig()
    n = net.n_nodes
    if n == 0:
        raise EmptyNetworkError("cannot compute PageRank of an empty network")
    if n > ORACLE_MAX_NODES:
        raise OracleSizeError(f"dense oracle capped at {ORACLE_MAX_NODES} nodes, got {n}")
    weights = net.to_dense().astype(np.float64)
    out_sum = weights.sum(axis=1)
    trans = np.zeros((n, n))
    for i in range(n):
        if out_sum[i] > 0:
            trans[:, i] = weights[i, :] / out_sum[i]
        elif cfg.dangling_policy is DanglingPolicy.UNIFORM:
            trans[:, i] = 1.0 / n
    d = cfg.damping
    rhs = np.full(n, (1.0 - d) / n)
    return np.linalg.solve(np.eye(n) - d * trans, rhs)


@pytest.fixture
def three_node_net() -> CitationNetwork:
    """A -> B, C -> B, B -> C with unit weights."""
    return CitationNetwork.from_edges([("a", "b", 1), ("c", "b", 1), ("b", "c", 1)])


@pytest.fixture
def cycle3() -> CitationNetwork:
    return CitationNetwork.from_edges([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])


def make_random_network(rng: np.random.Generator, n: int, edge_prob: float = 0.2,
                        max_weight: int = 9) -> CitationNetwork:
    """Random directed network; leaves some nodes dangling by construction."""
    weights = {}
    for i in range(n):
        if rng.random() < 0.25:
            continue  # dangling node: no out-edges
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                weights[(i, j)] = int(rng.integers(1, max_weight + 1))
    ids = [f"n{i:03d}" for i in range(n)]
    return build_from_dict(ids, weights)
