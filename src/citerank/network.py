"""Weighted directed citation network between institutions.

Nodes are institutions; an edge (i, j) with weight w means institution i's
publications cite institution j's publications w times in total. The degree
statistics here treat the network as unweighted: in-degree counts distinct
citing institutions, not citation volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateNetworkError, InputError

__all__ = ["CitationNetwork", "DegreeReport", "in_degree", "degree_report"]

INT64_MAX = 2**63 - 1


def _int64(values, what: str) -> np.ndarray:
    """A new int64 array of values; InputError unless each is an int64 integer."""
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional")
    integral = arr.dtype.kind in "iu" or (  # Python ints beyond uint64 make an object array
        arr.dtype.kind == "O"
        and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in arr.tolist())
    )
    if not integral:
        raise InputError(f"{what} must be integers, got {arr.dtype}")
    if arr.dtype.kind != "i" and (arr.min() < -INT64_MAX - 1 or arr.max() > INT64_MAX):
        raise InputError(f"{what} beyond the int64 range")
    return arr.astype(np.int64)


def _edge_columns(source, target, weight) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    columns = (
        _int64(source, "source indices"),
        _int64(target, "target indices"),
        _int64(weight, "edge weights"),
    )
    if len({c.size for c in columns}) > 1:
        raise InputError("source, target and weight must have one length")
    return columns


def _first(mask: np.ndarray, *arrays: np.ndarray) -> list[int]:
    k = int(np.argmax(mask))
    return [int(a[k]) for a in arrays]


def _check_edges(n: int, source, target, weight, self_loops: bool) -> None:
    """Raise InputError for the first edge out of range, non-positive, or a stray self-loop."""
    bad = (source < 0) | (source >= n) | (target < 0) | (target >= n)
    if bad.any():
        i, j = _first(bad, source, target)
        raise InputError(f"edge ({i}, {j}) out of range for {n} nodes")
    bad = weight <= 0
    if bad.any():
        i, j, w = _first(bad, source, target, weight)
        raise InputError(f"edge ({i}, {j}) has non-positive or non-integer weight {w!r}")
    if not self_loops:
        bad = source == target
        if bad.any():
            (i,) = _first(bad, source)
            raise InputError(f"self-loop at node {i} but self_loops_included is False")


def _check_total(weight: np.ndarray) -> None:
    """Raise InputError when the positive weights sum past the int64 range."""
    if weight.size and int(weight.max()) > INT64_MAX // weight.size:
        total = sum(weight.tolist())
        if total > INT64_MAX:
            raise InputError(f"total weight {total} is beyond the int64 range")


@dataclass(frozen=True, eq=False)
class CitationNetwork:
    """Immutable weighted directed graph over an ordered set of institutions.

    Edge k runs from node source[k] to node target[k] with positive integer
    citation count weight[k]; zero-weight pairs are simply absent. The three
    int64 arrays are read-only and sorted by (source, target) index, each
    pair at most once. Instances are safe to share between threads; every
    operation in this module is a pure function. Use build() to assemble a
    network from unsorted, repeated pairs.
    """

    node_ids: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray
    subject: str = ""
    self_loops_included: bool = False

    def __post_init__(self) -> None:
        ids = tuple(self.node_ids)
        n = len(ids)
        if len(set(ids)) != n:
            raise InputError("node identifiers must be unique")
        source, target, weight = _edge_columns(self.source, self.target, self.weight)
        _check_edges(n, source, target, weight, self.self_loops_included)
        keys = source * n + target
        if np.any(keys[1:] <= keys[:-1]):
            raise InputError("edges must be distinct and sorted by (source, target)")
        _check_total(weight)
        for name, arr in (("source", source), ("target", target), ("weight", weight)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "node_ids", ids)

    @classmethod
    def build(
        cls,
        node_ids: Iterable[str],
        source,
        target,
        weight,
        subject: str = "",
        keep_self_loops: bool = False,
    ) -> "CitationNetwork":
        """Assemble a network from (source[k], target[k], weight[k]) index triples.

        Pairs may come in any order and repeat; repeats add up. Self-loops
        are dropped unless explicitly kept.
        """
        ids = tuple(node_ids)
        n = len(ids)
        source, target, weight = _edge_columns(source, target, weight)
        _check_edges(n, source, target, weight, self_loops=True)
        if not keep_self_loops:
            kept = source != target
            source, target, weight = source[kept], target[kept], weight[kept]
        keys = source * n + target
        order = np.argsort(keys)  # integer sums do not depend on the order of repeats
        keys, weight = keys[order], weight[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # first of each run of equal keys
        if weight.size and int(weight.max()) > INT64_MAX // weight.size:
            # a sum may pass int64: add in Python ints first
            exact = np.add.reduceat(weight.astype(object), starts)
            over = np.flatnonzero(exact > INT64_MAX)
            if over.size:
                i, j = divmod(int(keys[starts[over[0]]]), n)
                raise InputError(
                    f"edge ({i}, {j}) from {ids[i]!r} to {ids[j]!r} has total weight "
                    f"{exact[over[0]]}, beyond the int64 range"
                )
        keys, weight = keys[starts], np.add.reduceat(weight, starts)
        return cls(ids, keys // n, keys % n, weight, subject, keep_self_loops)

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
        edges = list(edges)
        sources = [e[0] for e in edges]
        targets = [e[1] for e in edges]
        ordered = tuple(sorted(set(sources).union(targets, extra_nodes)))
        index = dict(zip(ordered, range(len(ordered))))
        m = len(sources)
        return cls.build(
            ordered,
            np.fromiter(map(index.__getitem__, sources), dtype=np.int64, count=m),
            np.fromiter(map(index.__getitem__, targets), dtype=np.int64, count=m),
            [e[2] for e in edges],
            subject,
            keep_self_loops,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CitationNetwork):
            return NotImplemented
        labels = (self.node_ids, self.subject, self.self_loops_included)
        arrays = ("source", "target", "weight")
        return labels == (other.node_ids, other.subject, other.self_loops_included) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return self.source.size

    @property
    def total_weight(self) -> int:
        return int(self.weight.sum())


@dataclass(frozen=True)
class DegreeReport:
    """Per-node in-degree and centrality plus the centrality distribution."""

    in_degree: np.ndarray
    degree_centrality: np.ndarray
    centrality_distribution: list[tuple[float, float]]


def in_degree(net: CitationNetwork) -> np.ndarray:
    """Number of distinct institutions citing each node.

    Counts adjacency, not weight: an institution citing a node 50 times
    contributes 1. Self-loops never count, even when stored.
    """
    return np.bincount(net.target[net.source != net.target], minlength=net.n_nodes)


def degree_report(net: CitationNetwork) -> DegreeReport:
    """In-degree, degree centrality and the centrality distribution of a network.

    Degree centrality is in-degree divided by N - 1: the fraction of peers
    citing each node. The distribution lists each distinct centrality value
    once, ascending, with its multiplicity divided by N; no binning is
    applied, so consumers that want histograms can bin the pairs themselves.
    """
    k = in_degree(net)
    n = k.size
    if n < 2:
        raise DegenerateNetworkError(f"degree centrality needs at least 2 nodes, got {n}")
    values, counts = np.unique(k, return_counts=True)
    distribution = [(v / (n - 1), c / n) for v, c in zip(values.tolist(), counts.tolist())]
    return DegreeReport(k, k / (n - 1), distribution)
