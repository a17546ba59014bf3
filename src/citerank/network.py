"""Weighted directed citation network between institutions.

Nodes are institutions; an edge (i, j) with weight w means institution i's
publications cite institution j's publications w times in total. The degree
statistics here treat the network as unweighted: in-degree counts distinct
citing institutions, not citation volume.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DegenerateNetworkError

__all__ = [
    "CitationNetwork",
    "NetworkSummary",
    "DegreeReport",
    "in_degree",
    "degree_centrality",
    "degree_distribution",
    "centrality_distribution",
    "degree_report",
    "network_summary",
]


@dataclass(frozen=True)
class CitationNetwork:
    """Immutable weighted directed graph over an ordered set of institutions.

    weights maps (source index, target index) -> positive integer citation
    count; zero-weight pairs are simply absent. Instances are safe to share
    between threads; every operation in this module is a pure function.
    """

    node_ids: tuple[str, ...]
    weights: Mapping[tuple[int, int], int]
    subject: str = ""
    self_loops_included: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        object.__setattr__(self, "weights", dict(self.weights))
        n = len(self.node_ids)
        if len(set(self.node_ids)) != n:
            raise ValueError("node identifiers must be unique")
        for (i, j), w in self.weights.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
            if not isinstance(w, (int, np.integer)) or isinstance(w, bool) or w <= 0:
                raise ValueError(f"edge ({i}, {j}) has non-positive or non-integer weight {w!r}")
            if i == j and not self.self_loops_included:
                raise ValueError(f"self-loop at node {i} but self_loops_included is False")

    @classmethod
    def build(
        cls,
        node_ids: Iterable[str],
        weights: Mapping[tuple[int, int], int],
        subject: str = "",
        keep_self_loops: bool = False,
    ) -> "CitationNetwork":
        """Construct a network, dropping self-loops unless explicitly kept."""
        if not keep_self_loops:
            weights = {(i, j): w for (i, j), w in weights.items() if i != j}
        return cls(tuple(node_ids), weights, subject, keep_self_loops)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, int]],
        subject: str = "",
        keep_self_loops: bool = False,
        extra_nodes: Iterable[str] = (),
    ) -> "CitationNetwork":
        """Build from (source id, target id, weight) triples.

        Repeated (source, target) pairs accumulate. Node order is the sorted
        union of all endpoint ids and extra_nodes, so the result does not
        depend on edge order.
        """
        totals: Counter[tuple[str, str]] = Counter()
        nodes = set(extra_nodes)
        for src, dst, w in edges:
            nodes.add(src)
            nodes.add(dst)
            totals[(src, dst)] += int(w)
        ordered = tuple(sorted(nodes))
        index = {node: k for k, node in enumerate(ordered)}
        weights = {(index[s], index[t]): w for (s, t), w in totals.items()}
        return cls.build(ordered, weights, subject, keep_self_loops)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())

    def index_of(self, node_id: str) -> int:
        return self.node_ids.index(node_id)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.weights

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (source, target, weight), sorted by node id for determinism."""
        order = sorted(self.weights, key=lambda e: (self.node_ids[e[0]], self.node_ids[e[1]]))
        for i, j in order:
            yield i, j, self.weights[(i, j)]

    def to_dense(self) -> np.ndarray:
        """Dense weight matrix; intended for small networks and test oracles."""
        mat = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        for (i, j), w in self.weights.items():
            mat[i, j] = w
        return mat


@dataclass(frozen=True)
class NetworkSummary:
    nodes: int
    citations: int
    edges: int
    self_loops_included: bool = False


@dataclass(frozen=True)
class DegreeReport:
    """Per-node in-degree and centrality plus the centrality distribution."""

    in_degree: np.ndarray
    degree_centrality: np.ndarray
    centrality_distribution: list[tuple[float, float]] = field(default_factory=list)


def in_degree(net: CitationNetwork) -> np.ndarray:
    """Number of distinct institutions citing each node.

    Counts adjacency, not weight: an institution citing a node 50 times
    contributes 1. Self-loops never count, even when stored.
    """
    m = net.n_edges
    src = np.fromiter((i for i, _j in net.weights), dtype=np.int64, count=m)
    dst = np.fromiter((j for _i, j in net.weights), dtype=np.int64, count=m)
    return np.bincount(dst[src != dst], minlength=net.n_nodes)


def degree_centrality(net: CitationNetwork) -> np.ndarray:
    """In-degree divided by N - 1: the fraction of peers citing each node."""
    return _degree_centrality(in_degree(net))


def _degree_centrality(k: np.ndarray) -> np.ndarray:
    n = k.size
    if n < 2:
        raise DegenerateNetworkError(f"degree centrality needs at least 2 nodes, got {n}")
    return k / (n - 1)


def degree_distribution(net: CitationNetwork) -> list[tuple[int, float]]:
    """Empirical distribution of in-degree values, sorted ascending."""
    n = net.n_nodes
    counts = Counter(in_degree(net).tolist())
    return [(k, counts[k] / n) for k in sorted(counts)]


def centrality_distribution(net: CitationNetwork) -> list[tuple[float, float]]:
    """Empirical distribution of degree-centrality values, sorted ascending.

    No binning is applied: each distinct centrality value appears once with
    its multiplicity divided by N. Consumers that want histograms can bin
    the emitted (value, probability) pairs themselves.
    """
    return _centrality_distribution(in_degree(net))


def _centrality_distribution(k: np.ndarray) -> list[tuple[float, float]]:
    n = k.size
    if n < 2:
        raise DegenerateNetworkError(f"centrality distribution needs at least 2 nodes, got {n}")
    values, counts = np.unique(k, return_counts=True)
    return [(v / (n - 1), c / n) for v, c in zip(values.tolist(), counts.tolist())]


def degree_report(net: CitationNetwork) -> DegreeReport:
    k = in_degree(net)
    return DegreeReport(
        in_degree=k,
        degree_centrality=_degree_centrality(k),
        centrality_distribution=_centrality_distribution(k),
    )


def network_summary(net: CitationNetwork) -> NetworkSummary:
    """Counts for reporting: unique institutions, total citations, edges."""
    return NetworkSummary(
        nodes=net.n_nodes,
        citations=net.total_weight,
        edges=net.n_edges,
        self_loops_included=net.self_loops_included,
    )
