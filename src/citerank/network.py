"""Weighted directed citation network between institutions.

Nodes are institutions; an edge (i, j) with weight w means institution i's
publications cite institution j's publications w times in total. A network
is only its nodes and edges: a self-loop (i, i) is stored like any other
edge, and whether same-institution citations count is decided where records
become a network, in ingest.build_network. There is one way to make a
network: the constructor takes index triples in any order, 32-bit ones
without an int64 copy, sums repeated pairs and sorts them, and build() and
from_edges(), on ids or on codes into a list of ids, go through it. Degree
statistics treat the network as unweighted: in-degree counts distinct citers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateNetworkError, InputError

__all__ = ["CitationNetwork", "DegreeReport", "in_degree", "degree_report"]

INT64_MAX = 2**63 - 1
INDEX_LIMIT = 2**31 - 1  # the most nodes, institutions or records: each position fits 32 bits


def index_position(k: int, what: str) -> int:
    """k, the position of a new node, institution or record; InputError once it reaches INDEX_LIMIT."""
    if k >= INDEX_LIMIT:
        raise InputError(f"more than {INDEX_LIMIT} {what}: positions are 32-bit")
    return k


def numbering(what: str) -> defaultdict:
    """A dict whose d[key] is key's code: its position among the keys, a new key taking the next one."""
    codes: defaultdict = defaultdict()
    codes.default_factory = lambda: index_position(len(codes), what)
    return codes


def _integers(values, what: str) -> np.ndarray:
    """values as given if signed integers, else as new int64; InputError unless each is an int64 integer."""
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
    return arr if arr.dtype.kind == "i" else arr.astype(np.int64)


def _first(mask: np.ndarray, *arrays: np.ndarray) -> list[int]:
    k = int(np.argmax(mask))
    return [int(a[k]) for a in arrays]


def _check_edges(n: int, source, target, weight) -> None:
    """Raise InputError for the first edge out of range or of non-positive weight."""
    bad = (source < 0) | (source >= n) | (target < 0) | (target >= n)
    if bad.any():
        i, j = _first(bad, source, target)
        raise InputError(f"edge ({i}, {j}) out of range for {n} nodes")
    bad = weight <= 0
    if bad.any():
        i, j, w = _first(bad, source, target, weight)
        raise InputError(f"edge ({i}, {j}) has non-positive or non-integer weight {w!r}")


@dataclass(frozen=True, eq=False)
class CitationNetwork:
    """Immutable weighted directed graph over an ordered set of institutions.

    Built from (source[k], target[k], weight[k]) index triples in any order:
    repeated pairs add up, and the network keeps each pair once, sorted by
    (source, target) index, with its positive integer citation count;
    zero-weight pairs are simply absent. Triples that already ascend by
    (source, target), as those read from a list write_edge_list wrote, are
    not sorted again. Signed index arrays are read as given, the rest as
    int64. The three int64 arrays stored are new and read-only: the inputs
    are read, never kept or written. Instances are safe to share between
    threads; every operation in this module is a pure function.
    """

    node_ids: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.node_ids)
        n = len(ids)
        if len(set(ids)) != n:
            raise InputError("node identifiers must be unique")
        index_position(n - 1, "nodes")  # the keys below stay far inside int64
        source = _integers(self.source, "source indices")
        target = _integers(self.target, "target indices")
        weight = _integers(self.weight, "edge weights").astype(np.int64, copy=False)
        if not source.size == target.size == weight.size:
            raise InputError("source, target and weight must have one length")
        _check_edges(n, source, target, weight)
        top = int(weight.max()) if weight.size else 0
        if top > INT64_MAX // max(weight.size, 1):  # positive weights: no pair sums past the total
            total = sum(weight.tolist())
            if total > INT64_MAX:
                raise InputError(f"total weight {total} is beyond the int64 range")
        keys = source.astype(np.int64)
        keys *= n
        keys += target
        del source, target
        if top == 1:  # weights are positive: all are 1
            keys.sort()  # in place, where np.unique would sort a copy
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])  # first of each run of a key
            size, keys = keys.size, keys[starts]  # the sorted keys go before the counts are made
            weight = np.diff(np.append(starts, size))
            del starts
        elif weight.size:
            if (keys[1:] < keys[:-1]).any():
                order = np.argsort(keys)  # integer sums do not depend on the order of repeats
                keys = keys[order]  # gather one at a time, so the unsorted keys go first
                weight = weight[order]
                del order
            else:  # ascending, as from write_edge_list: no sort, but the input is not kept
                weight = weight.copy()
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])  # first of each run of a key
            if starts.size < keys.size:  # some pairs repeat; when none do, two gathers are saved
                keys, weight = keys[starts], np.add.reduceat(weight, starts)
            del starts
        target = keys % n
        keys //= n  # keys is a new array: it becomes the source column
        weight = weight.astype(np.int64, copy=False)
        for name, arr in (("source", keys), ("target", target), ("weight", weight)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "node_ids", ids)

    @classmethod
    def build(cls, node_ids: Iterable[str], source, target, weight) -> "CitationNetwork":
        """The constructor under the name its callers use: CitationNetwork(node_ids, ...)."""
        return cls(node_ids, source, target, weight)

    @classmethod
    def from_edges(
        cls, sources, targets, weights, extra_nodes: Iterable[str] = (), ids: Sequence[str] | None = None
    ) -> "CitationNetwork":
        """Build from edge columns: sources[k] cites targets[k] weights[k] times.

        The columns hold ids or, given `ids`, codes into it. Repeated pairs
        add up, and self-loops stay as written. Nodes are the sorted union of
        the endpoint ids, `ids` and extra_nodes, whatever the edge order.
        """
        if ids is None:
            code = numbering("nodes")
            sources, targets = (np.fromiter(map(code.__getitem__, c), np.int64, len(c)) for c in (sources, targets))
            ids = list(code)
        sources, targets = _integers(sources, "source codes"), _integers(targets, "target codes")
        if any(c.size and not 0 <= c.min() <= c.max() < len(ids) for c in (sources, targets)):
            raise InputError(f"edge codes must be in range({len(ids)})")
        ordered = sorted(set(ids).union(extra_nodes))
        index = dict(zip(ordered, range(len(ordered))))
        rank = np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
        return cls.build(ordered, rank[sources], rank[targets], weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CitationNetwork):
            return NotImplemented
        arrays = ("source", "target", "weight")
        return self.node_ids == other.node_ids and all(
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
