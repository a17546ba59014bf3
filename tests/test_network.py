import numpy as np
import pytest

from citerank import CitationNetwork, degree_report, in_degree
from citerank.errors import DegenerateNetworkError

from conftest import build_from_dict, dense, make_random_network, weight_dict


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_rejects_duplicate_node_ids():
    with pytest.raises(ValueError, match="unique"):
        build_from_dict(("a", "a"), {})


def test_rejects_zero_and_negative_weights():
    with pytest.raises(ValueError):
        build_from_dict(("a", "b"), {(0, 1): 0})
    with pytest.raises(ValueError):
        build_from_dict(("a", "b"), {(0, 1): -3})


def test_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="out of range"):
        build_from_dict(("a", "b"), {(0, 2): 1})


def test_self_loops_dropped_by_default_and_kept_on_request():
    weights = {(0, 0): 5, (0, 1): 2}
    net = build_from_dict(("a", "b"), weights)
    assert (0, 0) not in weight_dict(net)
    assert net.self_loops_included is False

    kept = build_from_dict(("a", "b"), weights, keep_self_loops=True)
    assert weight_dict(kept)[(0, 0)] == 5
    assert kept.self_loops_included is True


def test_from_edges_accumulates_and_sorts_nodes():
    net = CitationNetwork.from_edges(
        [("z", "m", 2), ("z", "m", 3), ("a", "z", 1)], extra_nodes=["q"]
    )
    assert net.node_ids == ("a", "m", "q", "z")
    z, m = net.node_ids.index("z"), net.node_ids.index("m")
    assert weight_dict(net)[(z, m)] == 5


def test_build_matches_dict_accumulation():
    rng = np.random.default_rng(404)
    for keep in (False, True):
        n = 40
        src = rng.integers(0, n, size=3000)
        dst = rng.integers(0, n, size=3000)
        w = rng.integers(1, 6, size=3000)
        expected = {}
        for i, j, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            if i != j or keep:
                expected[(i, j)] = expected.get((i, j), 0) + x
        ids = [f"n{k}" for k in rng.permutation(n)]
        net = CitationNetwork.build(ids, src, dst, w, keep_self_loops=keep)
        assert weight_dict(net) == expected
        assert list(zip(net.source.tolist(), net.target.tolist())) == sorted(expected)
        assert net.total_weight == sum(expected.values())


def test_edge_arrays_are_read_only():
    net = CitationNetwork.from_edges([("a", "b", 2), ("b", "c", 1)])
    for arr in (net.source, net.target, net.weight):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 3
    assert weight_dict(net) == {(0, 1): 2, (1, 2): 1}


def test_build_does_not_alias_caller_arrays():
    source, target, weight = np.array([0]), np.array([1]), np.array([4])
    net = CitationNetwork.build(("a", "b"), source, target, weight)
    weight[0] = 9
    assert net.weight.tolist() == [4]
    assert weight.flags.writeable


def test_constructor_rejects_unsorted_or_repeated_pairs():
    with pytest.raises(ValueError, match="sorted"):
        CitationNetwork(("a", "b"), [1, 0], [0, 1], [1, 1])
    with pytest.raises(ValueError, match="sorted"):
        CitationNetwork(("a", "b"), [0, 0], [1, 1], [1, 1])


def test_rejects_non_integer_weights():
    with pytest.raises(ValueError, match="integers"):
        CitationNetwork.build(("a", "b"), [0], [1], [1.5])


def test_weights_beyond_int64_are_rejected():
    half = 2**62
    with pytest.raises(ValueError, match="int64"):
        CitationNetwork.build(("a", "b"), [0], [1], [2**63])
    # one pair summing past int64 names the pair instead of wrapping negative
    with pytest.raises(ValueError, match=r"edge \(0, 1\) from 'a' to 'b' has total weight 9223372036854775808"):
        CitationNetwork.build(("a", "b"), [0, 0], [1, 1], [half, half])
    with pytest.raises(ValueError, match="total weight 9223372036854775808"):
        CitationNetwork.build(("a", "b", "c"), [0, 1], [1, 2], [half, half])
    net = CitationNetwork.build(("a", "b", "c"), [0, 1], [1, 2], [half, half - 1])
    assert net.total_weight == 2**63 - 1
    assert type(net.total_weight) is int


# ---------------------------------------------------------------------------
# In-degree
# ---------------------------------------------------------------------------


def test_in_degree_star():
    edges = [(f"s{i}", "hub", 1) for i in range(4)]
    net = CitationNetwork.from_edges(edges)
    assert in_degree(net)[net.node_ids.index("hub")] == 4


def test_in_degree_isolated_node():
    net = build_from_dict(("a", "b", "c"), {(0, 1): 1})
    assert in_degree(net)[2] == 0


def test_in_degree_three_node_fixture(three_node_net):
    # hand enumeration: a cited by nobody, b by a and c, c by b
    assert in_degree(three_node_net).tolist() == [0, 2, 1]


def test_in_degree_counts_citers_not_weight():
    net = CitationNetwork.from_edges([("a", "b", 50)])
    assert in_degree(net)[net.node_ids.index("b")] == 1


def test_in_degree_ignores_self_loops_even_when_stored():
    net = build_from_dict(("a", "b"), {(0, 0): 4, (1, 0): 1}, keep_self_loops=True)
    assert in_degree(net).tolist() == [1, 0]


def test_in_degree_empty_network():
    net = build_from_dict((), {})
    assert in_degree(net).size == 0


def test_in_degree_matches_brute_force_double_loop():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        net = make_random_network(rng, n)
        mat = dense(net)
        expected = [sum(1 for j in range(n) if j != i and mat[j, i] > 0) for i in range(n)]
        assert in_degree(net).tolist() == expected


# ---------------------------------------------------------------------------
# Degree centrality
# ---------------------------------------------------------------------------


def test_centrality_bound_attained_iff_cited_by_all():
    edges = [(f"s{i}", "hub", 1) for i in range(5)]
    net = CitationNetwork.from_edges(edges)
    c = degree_report(net).degree_centrality
    hub = net.node_ids.index("hub")
    assert c[hub] == 1.0
    assert all(x < 1.0 for k, x in enumerate(c) if k != hub)


def test_centrality_three_node_fixture(three_node_net):
    assert degree_report(three_node_net).degree_centrality.tolist() == [0.0, 1.0, 0.5]


def test_centrality_in_unit_interval_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = make_random_network(rng, int(rng.integers(2, 40)))
        c = degree_report(net).degree_centrality
        assert np.all((0.0 <= c) & (c <= 1.0))


def test_centrality_rejects_degenerate_network():
    with pytest.raises(DegenerateNetworkError):
        degree_report(build_from_dict(("only",), {}))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def test_centrality_distribution_of_cycle(cycle3):
    assert degree_report(cycle3).centrality_distribution == [(0.5, 1.0)]


def test_centrality_distribution_three_node_fixture(three_node_net):
    dist = degree_report(three_node_net).centrality_distribution
    assert dist == [(0.0, pytest.approx(1 / 3)), (0.5, pytest.approx(1 / 3)), (1.0, pytest.approx(1 / 3))]


def test_centrality_distribution_empty_edge_set():
    net = build_from_dict(("a", "b", "c", "d"), {})
    assert degree_report(net).centrality_distribution == [(0.0, 1.0)]


def test_distributions_count_every_node_once():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(2, 45))
        net = make_random_network(rng, n)
        dist = degree_report(net).centrality_distribution
        assert sum(p for _, p in dist) * n == pytest.approx(n, abs=1e-12)
        values = [v for v, _ in dist]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


def test_summary_three_node_fixture(three_node_net):
    net = three_node_net
    assert (net.n_nodes, net.total_weight, net.n_edges) == (3, 3, 3)


def test_summary_empty_network():
    net = build_from_dict((), {})
    assert (net.n_nodes, net.total_weight, net.n_edges) == (0, 0, 0)


def test_summary_sums_weights():
    assert CitationNetwork.from_edges([("a", "b", 7)]).total_weight == 7


def test_degree_report_bundles_consistent_views(three_node_net):
    report = degree_report(three_node_net)
    assert report.in_degree.tolist() == [0, 2, 1]
    assert report.degree_centrality.tolist() == [0.0, 1.0, 0.5]
    assert len(report.centrality_distribution) == 3
