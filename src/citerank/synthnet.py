"""Seeded synthetic citation networks for experiments and property tests.

Networks grow by preferential attachment on received citations: each node
emits a Poisson number of citations whose targets are drawn with
probability proportional to (citations received so far + 1) ** exponent.
An optional cartel then makes a group of weakly cited institutions cite
each other heavily, which is the scenario where raw citation counts and
PageRank are expected to disagree.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, require_integer, require_real
from .network import CitationNetwork

__all__ = ["CartelSpec", "SynthConfig", "SynthResult", "generate_traced"]

# the largest mean numpy's Poisson draw accepts (POISSON_LAM_MAX in numpy.random)
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class CartelSpec:
    member_count: int
    internal_weight_boost: int

    def __post_init__(self) -> None:
        if require_integer(self.member_count, "member_count") < 2:
            raise InputError("a cartel needs at least 2 members")
        if require_integer(self.internal_weight_boost, "internal_weight_boost") < 1:
            raise InputError("internal_weight_boost must be >= 1")


@dataclass(frozen=True)
class SynthConfig:
    n_nodes: int
    mean_out_citations: float = 5.0
    attachment_exponent: float = 1.0
    cartel: CartelSpec | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if require_integer(self.n_nodes, "n_nodes") < 1:
            raise InputError("n_nodes must be positive")
        if not math.isfinite(require_real(self.mean_out_citations, "mean_out_citations")):
            raise InputError("mean_out_citations must be finite")
        if not self.mean_out_citations > 0:
            raise InputError("mean_out_citations must be positive")
        if self.mean_out_citations > _POISSON_LAM_MAX:
            raise InputError(f"mean_out_citations must be at most {_POISSON_LAM_MAX:.6g}")
        if not math.isfinite(require_real(self.attachment_exponent, "attachment_exponent")):
            raise InputError("attachment_exponent must be finite")
        if self.attachment_exponent < 0:
            raise InputError("attachment_exponent must be non-negative")
        if not isinstance(self.cartel, CartelSpec | None):
            raise InputError(f"cartel must be a CartelSpec or None, got {self.cartel!r}")
        if self.cartel is not None and self.cartel.member_count >= self.n_nodes:
            raise InputError("cartel must be smaller than the network")
        if require_integer(self.seed, "seed") < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SynthResult:
    network: CitationNetwork
    cartel_members: tuple[str, ...]


def _node_ids(n: int) -> tuple[str, ...]:
    width = len(str(n - 1))
    return tuple(f"inst-{i:0{width}d}" for i in range(n))


def _sum_tree(weights: list[float]) -> list[float]:
    """Binary tree of partial sums over non-negative weights, one leaf each.

    Node 1 is the root, node j has children 2j and 2j + 1, and the leaves
    start at the returned list's midpoint, padded with zeros to a power of
    two. Each internal node is recomputed as the sum of its two children, so
    its rounding depends only on the tree's depth, not on how many updates
    came before, and putting a weight back restores every node exactly.
    """
    size = 1
    while size < len(weights):
        size *= 2
    tree = [0.0] * (2 * size)
    tree[size : size + len(weights)] = weights
    for j in range(size - 1, 0, -1):
        tree[j] = tree[2 * j] + tree[2 * j + 1]
    return tree


# Rounding allowed, per weight summed and relative to the total weight,
# between the tree's slots and the cumulative distribution that
# Generator.choice(a, p=p) builds from the same weights (p = w / w.sum(),
# cdf = p.cumsum(), cdf /= cdf[-1]). numpy's sequential cumsum of n shares
# is off by at most n unit roundoffs of the total, and its divisions add
# two more; a tree node carries at most `depth` roundings, the descent adds
# `depth` more, and scaling the uniform draw by the total one. That sum is
# under (n + 1.5 * depth + 1.5) * eps (eps = 2 unit roundoffs) of the
# total, and the margin, _ROUNDING_PER_WEIGHT * (n + 2 * depth) * total, is
# more than three times it, so a draw farther than the margin from both
# edges of its slot lands in the same slot in both computations. The
# weights themselves are numpy's own values (see _attachment_weights).
_ROUNDING_PER_WEIGHT = 4 * sys.float_info.epsilon
# Above this total, numpy's own sum of the weights may overflow and make
# choice fail, so the draw is left to numpy's arithmetic.
_LARGEST_TREE_TOTAL = sys.float_info.max / 2
# Uniform draws taken per generator call: k at once are the same numbers
# as k single draws, and the cap bounds the array for a large out-degree.
_UNIFORMS_PER_CALL = 1024


def _attachment_weights(count: int, exponent: float) -> list[float]:
    """(r + 1) ** exponent for r < count, as numpy computes it for choice.

    Python's float power differs from numpy's in the last bit for some
    bases and exponents, so the table comes from numpy.
    """
    with np.errstate(over="ignore"):
        return ((np.arange(count, dtype=np.int64) + 1.0) ** exponent).tolist()


def _exact_draw(received: list[int], source: int, exponent: float, u: float) -> int:
    """The index Generator.choice picks for the uniform draw u, in its own arithmetic."""
    with np.errstate(over="ignore"):
        attractiveness = (np.array(received, dtype=np.int64) + 1.0) ** exponent
    attractiveness[source] = 0.0
    total = attractiveness.sum()
    if not np.isfinite(total):
        raise NumericError(
            f"attachment weights (received + 1) ** {exponent} overflow at "
            f"{len(received)} nodes; use a smaller attachment_exponent"
        )
    cdf = (attractiveness / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def generate_traced(cfg: SynthConfig) -> SynthResult:
    """Generate a network and report which nodes got the cartel treatment.

    Deterministic for a fixed config: the base network depends only on
    n_nodes, mean_out_citations, attachment_exponent and seed; the cartel
    step adds `internal_weight_boost` citations per ordered member pair on
    top of the base network, choosing the least-cited nodes as members, so
    runs with and without a cartel share the same base for the same seed.

    Each target is drawn as `rng.choice(nodes, p=...)` would draw it from
    the same generator, so the output is the same as that of the O(n)-per-
    citation loop, at O(log n) per citation.

    Raises NumericError when the attachment weights overflow.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    exponent = cfg.attachment_exponent
    ids = _node_ids(n)
    received = [0] * n
    weight_of = _attachment_weights(64, exponent)  # indexed by citations received
    tree = _sum_tree([weight_of[0]] * n)
    size = len(tree) // 2
    rounding = _ROUNDING_PER_WEIGHT * (n + 2 * (size.bit_length() - 1))
    held = size  # the leaf whose weight is out of the tree; at first node 0's, unchanged
    sources: list[int] = []
    targets: list[int] = []
    for source in range(n):
        n_out = int(rng.poisson(cfg.mean_out_citations))
        if n == 1 or n_out == 0:
            continue
        # put the last citing source's weight back and take this source's out,
        # then recompute each of their ancestors once, after its children
        a, b = held, size + source
        tree[a] = weight_of[received[a - size]]
        tree[b] = 0.0
        held = b
        while b > 1:
            a >>= 1
            b >>= 1
            if a != b:
                tree[a] = tree[2 * a] + tree[2 * a + 1]
            tree[b] = tree[2 * b] + tree[2 * b + 1]
        sources += [source] * n_out
        for start in range(0, n_out, _UNIFORMS_PER_CALL):
            for u in rng.random(min(n_out - start, _UNIFORMS_PER_CALL)).tolist():
                # descend to the leaf j whose slot [lo, lo + tree[j]) of the running sum holds x
                total = tree[1]
                x = u * total
                j, lo = 1, 0.0
                while j < size:
                    j *= 2
                    left = tree[j]
                    if x >= lo + left:
                        lo += left
                        j += 1
                margin = rounding * total
                # an empty slot (the source, or padding past the last node) never passes
                if total < _LARGEST_TREE_TOTAL and x - lo > margin and lo + tree[j] - x > margin:
                    target = j - size
                else:
                    target = _exact_draw(received, source, exponent, u)
                    j = size + target
                targets.append(target)
                count = received[target] + 1
                received[target] = count
                if count == len(weight_of):
                    weight_of = _attachment_weights(2 * count, exponent)
                tree[j] = weight_of[count]
                j >>= 1
                while j:
                    tree[j] = tree[2 * j] + tree[2 * j + 1]
                    j >>= 1

    weights = [1] * len(sources)
    members: tuple[str, ...] = ()
    if cfg.cartel is not None:
        # least-cited nodes form the cartel; ties broken by node index
        order = np.lexsort((np.arange(n), received))
        member_idx = sorted(int(i) for i in order[: cfg.cartel.member_count])
        members = tuple(ids[i] for i in member_idx)
        boost = cfg.cartel.internal_weight_boost
        for a in member_idx:
            for b in member_idx:
                if a != b:
                    sources.append(a)
                    targets.append(b)
                    weights.append(boost)

    net = CitationNetwork.build(ids, sources, targets, weights)
    return SynthResult(network=net, cartel_members=members)
