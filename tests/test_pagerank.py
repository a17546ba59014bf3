import importlib
from fractions import Fraction

import numpy as np
import pytest

from citerank import (
    CartelSpec,
    CitationNetwork,
    DanglingPolicy,
    PageRankConfig,
    SynthConfig,
    generate_traced,
    normalize_weights,
    pagerank,
)
from citerank.errors import EmptyNetworkError

from conftest import (
    OracleSizeError,
    build_from_dict,
    make_random_network,
    pagerank_oracle,
    weight_dict,
)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [{"damping": 1.0}, {"damping": -0.1}, {"tolerance": 0.0}, {"max_iterations": 0},
                                 {"tolerance": Fraction(1, 10**400)}])  # positive, but 0.0 as a float
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        PageRankConfig(**bad)


def test_config_accepts_policy_string():
    cfg = PageRankConfig(dangling_policy="teleport_only")
    assert cfg.dangling_policy is DanglingPolicy.TELEPORT


def test_fraction_config_solves_like_its_floats():
    # damping and tolerance are stored as floats, so no Fraction reaches the numpy solver
    net = make_random_network(np.random.default_rng(7), 12)
    cfg = PageRankConfig(damping=Fraction(1, 2), tolerance=Fraction(1, 10**9))
    assert (type(cfg.damping), type(cfg.tolerance)) == (float, float)
    got, want = pagerank(net, cfg), pagerank(net, PageRankConfig(damping=0.5, tolerance=1e-9))
    assert np.array_equal(got.scores, want.scores)
    assert (got.iterations_used, got.final_delta) == (want.iterations_used, want.final_delta)


# ---------------------------------------------------------------------------
# Weight normalization
# ---------------------------------------------------------------------------


def share_of(net: CitationNetwork, share, source: int, target: int) -> float:
    """Fraction of source's out-flow sent to target (0 without an edge)."""
    hit = (net.source == source) & (net.target == target)
    return float(share[hit].sum())


def test_normalize_single_edge_flags_target_dangling():
    net = CitationNetwork.from_edges(["a"], ["b"], [7])
    share, dangling = normalize_weights(net)
    a, b = net.node_ids.index("a"), net.node_ids.index("b")
    assert share_of(net, share, a, b) == 1.0
    assert not dangling[a]
    assert dangling[b]


def test_normalize_proportional_split():
    net = CitationNetwork.from_edges(["a", "a"], ["b", "c"], [3, 1])
    share, _dangling = normalize_weights(net)
    a = net.node_ids.index("a")
    assert share_of(net, share, a, net.node_ids.index("b")) == 0.75
    assert share_of(net, share, a, net.node_ids.index("c")) == 0.25


def test_normalize_all_dangling_without_edges():
    net = build_from_dict(("a", "b", "c"), {})
    _share, dangling = normalize_weights(net)
    assert dangling.all()


def test_normalized_columns_sum_to_one():
    rng = np.random.default_rng(5)
    net = make_random_network(rng, 30)
    share, dangling = normalize_weights(net)
    sums = np.bincount(net.source, weights=share, minlength=net.n_nodes)
    for i in range(net.n_nodes):
        if dangling[i]:
            assert sums[i] == 0.0
        else:
            assert sums[i] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Solver basics
# ---------------------------------------------------------------------------


def test_cycle_is_uniform_for_any_damping(cycle3):
    for d in (0.0, 0.3, 0.85, 0.99):
        res = pagerank(cycle3, PageRankConfig(damping=d))
        assert res.converged
        assert np.allclose(res.scores, 1 / 3, rtol=0, atol=1e-14)


def test_zero_damping_gives_uniform():
    rng = np.random.default_rng(42)
    net = make_random_network(rng, 25)
    res = pagerank(net, PageRankConfig(damping=0.0))
    assert np.allclose(res.scores, 1 / 25, rtol=0, atol=1e-15)


def test_two_node_chain_matches_dense_solution():
    net = CitationNetwork.from_edges(["a"], ["b"], [1])
    cfg = PageRankConfig(damping=0.85)
    res = pagerank(net, cfg)
    oracle = pagerank_oracle(net, cfg)
    assert np.abs(res.scores - oracle).sum() < 1e-10
    # dangling mass of b is spread uniformly, so b still ends ahead of a
    assert res.scores[net.node_ids.index("b")] > res.scores[net.node_ids.index("a")]


def test_empty_network_is_an_error():
    net = build_from_dict((), {})
    with pytest.raises(EmptyNetworkError):
        pagerank(net)
    with pytest.raises(EmptyNetworkError):
        pagerank_oracle(net)


def test_non_convergence_returns_best_iterate():
    rng = np.random.default_rng(3)
    net = make_random_network(rng, 30)
    res = pagerank(net, PageRankConfig(max_iterations=2, tolerance=1e-15))
    assert not res.converged
    assert res.iterations_used == 2
    assert res.final_delta > 0


def test_single_node_network():
    net = build_from_dict(("only",), {})
    res = pagerank(net)
    assert res.converged
    assert res.scores[0] == pytest.approx(1.0, abs=1e-12)


def test_oracle_refuses_oversized_networks():
    net = build_from_dict(tuple(f"n{i}" for i in range(201)), {})
    with pytest.raises(OracleSizeError):
        pagerank_oracle(net)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_scores_sum_to_one_and_respect_floor():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        net = make_random_network(rng, int(rng.integers(2, 60)))
        d = float(rng.uniform(0.05, 0.95))
        res = pagerank(net, PageRankConfig(damping=d))
        assert res.converged
        assert abs(res.scores.sum() - 1.0) < 1e-12
        assert np.all(res.scores >= (1.0 - d) / net.n_nodes)
        assert np.all(res.scores > 0)


def test_teleport_only_policy_leaks_dangling_mass():
    net = CitationNetwork.from_edges(["a"], ["b"], [1])  # b is dangling
    cfg = PageRankConfig(dangling_policy=DanglingPolicy.TELEPORT)
    res = pagerank(net, cfg)
    assert res.converged
    assert res.scores.sum() < 1.0
    oracle = pagerank_oracle(net, cfg)
    assert np.abs(res.scores - oracle).sum() < 1e-10


def test_damping_to_zero_limit():
    rng = np.random.default_rng(8)
    net = make_random_network(rng, 40)
    res = pagerank(net, PageRankConfig(damping=1e-6))
    assert np.max(np.abs(res.scores - 1 / 40)) < 1e-5


def test_iterative_matches_oracle_on_random_networks():
    rng = np.random.default_rng(77)
    for _ in range(25):
        net = make_random_network(rng, int(rng.integers(2, 51)))
        for policy in DanglingPolicy:
            cfg = PageRankConfig(dangling_policy=policy)
            res = pagerank(net, cfg)
            assert res.converged
            assert np.abs(res.scores - pagerank_oracle(net, cfg)).sum() < 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    net = make_random_network(rng, 24)
    base = pagerank(net).scores
    for _ in range(5):
        perm = rng.permutation(net.n_nodes)
        ids = tuple(net.node_ids[k] for k in perm)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(net.n_nodes)
        weights = {(int(inverse[i]), int(inverse[j])): w for (i, j), w in weight_dict(net).items()}
        permuted = build_from_dict(ids, weights)
        scores = pagerank(permuted).scores
        assert np.max(np.abs(scores[inverse] - base)) < 1e-12


def test_self_loops_participate_when_kept():
    net = build_from_dict(("a", "b"), {(0, 0): 3, (0, 1): 1, (1, 0): 1})
    cfg = PageRankConfig()
    res = pagerank(net, cfg)
    assert res.converged
    # a keeps 3/4 of its outgoing mass, so it ends up ahead of b
    assert res.scores[0] > res.scores[1]
    assert np.abs(res.scores - pagerank_oracle(net, cfg)).sum() < 1e-10


def test_deterministic_across_repeated_solves():
    rng = np.random.default_rng(31)
    net = make_random_network(rng, 35)
    first = pagerank(net).scores
    second = pagerank(net).scores
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Reference: the sparse-matrix power iteration
# ---------------------------------------------------------------------------


def csr_power_iteration(net: CitationNetwork, cfg: PageRankConfig) -> tuple[np.ndarray, int]:
    """The solver as a scipy CSR matvec, kept as the bit-for-bit reference."""
    sp = pytest.importorskip("scipy.sparse")
    n = net.n_nodes
    out_sum = np.zeros(n)
    for (i, _j), w in weight_dict(net).items():
        out_sum[i] += w
    rows, cols, data = [], [], []
    for (i, j), w in weight_dict(net).items():
        rows.append(j)
        cols.append(i)
        data.append(w / out_sum[i])
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    dangling = out_sum == 0.0
    d = cfg.damping
    pi = np.full(n, 1.0 / n)
    for iterations in range(1, cfg.max_iterations + 1):
        flow = matrix @ pi
        if cfg.dangling_policy is DanglingPolicy.UNIFORM:
            flow += pi[dangling].sum() / n
        new_pi = (1.0 - d) / n + d * flow
        delta = float(np.abs(new_pi - pi).sum())
        pi = new_pi
        if delta < cfg.tolerance:
            break
    return pi, iterations


def quarter_dangling_network() -> CitationNetwork:
    """2,000 nodes, 16,000 drawn citations, a quarter of the nodes dangling."""
    rng = np.random.default_rng(2041)
    n = 2000
    citing = rng.permutation(n)[: n * 3 // 4]  # the other quarter is dangling
    src = rng.choice(citing, size=16_000)
    dst = rng.integers(0, n, size=src.size)
    keep = src != dst
    counts = rng.integers(1, 10, size=keep.sum())
    weights = {}
    for i, j, w in zip(src[keep].tolist(), dst[keep].tolist(), counts.tolist()):
        weights[(i, j)] = weights.get((i, j), 0) + w
    net = build_from_dict([f"inst{k:04d}" for k in rng.permutation(n)], weights)
    _share, dangling = normalize_weights(net)
    assert dangling.sum() >= n // 4
    return net


def synth_cartel_network() -> CitationNetwork:
    """A network of the synth-cartel benchmark workload: 4,000 nodes, a 10-node cartel."""
    return generate_traced(SynthConfig(4000, cartel=CartelSpec(10, 20))).network


@pytest.mark.parametrize("make_net", [quarter_dangling_network, synth_cartel_network])
@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_matches_csr_power_iteration_bit_for_bit(policy, make_net):
    net = make_net()
    cfg = PageRankConfig(dangling_policy=policy)
    res = pagerank(net, cfg)
    expected, iterations = csr_power_iteration(net, cfg)
    assert res.iterations_used == iterations
    assert np.array_equal(res.scores, expected)


def test_solver_loop_gives_bincount_a_writable_index(monkeypatch):
    # np.bincount copies an index array it may not write, and a network's arrays are read-only;
    # normalize_weights, called once, is left out of the count
    net = synth_cartel_network()
    solver = importlib.import_module("citerank.pagerank")
    normalized = normalize_weights(net)
    monkeypatch.setattr(solver, "normalize_weights", lambda _net: normalized)
    writable = []
    bincount = np.bincount

    def recording_bincount(x, *args, **kwargs):
        writable.append(x.flags.writeable)
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", recording_bincount)
    res = pagerank(net)
    monkeypatch.undo()
    assert len(writable) == res.iterations_used and all(writable)
    assert np.array_equal(res.scores, pagerank(net).scores)


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_matches_networkx_at_benchmark_scale(n):
    # an oracle outside citerank at the sizes the benchmark runs, cartel included
    nx = pytest.importorskip("networkx")
    cfg = SynthConfig(n_nodes=n, cartel=CartelSpec(10, 20), seed=3)
    net = generate_traced(cfg).network
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from(zip(*(a.tolist() for a in (net.source, net.target, net.weight))))
    expected = nx.pagerank(graph, alpha=0.85, tol=1e-15, max_iter=1000, weight="weight")
    res = pagerank(net, PageRankConfig(damping=0.85, tolerance=1e-14))
    assert res.converged
    assert np.abs(res.scores - np.array([expected[k] for k in range(n)])).sum() < 1e-10
