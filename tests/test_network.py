import re
import tracemalloc

import numpy as np
import pytest

from citerank import CitationNetwork, degree_report, in_degree
from citerank.errors import DegenerateNetworkError, InputError

from conftest import (
    build_from_dict,
    columns,
    dense,
    make_random_network,
    reference_from_edges,
    weight_dict,
)


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


def test_self_loops_stored_as_given():
    net = build_from_dict(("a", "b"), {(0, 0): 5, (0, 1): 2, (1, 1): 1})
    assert weight_dict(net) == {(0, 0): 5, (0, 1): 2, (1, 1): 1}
    assert net == CitationNetwork.from_edges(["a", "a", "b"], ["a", "b", "b"], [5, 2, 1])


def test_from_edges_accumulates_and_sorts_nodes():
    net = CitationNetwork.from_edges(["z", "z", "a"], ["m", "m", "z"], [2, 3, 1], extra_nodes=["q"])
    assert net.node_ids == ("a", "m", "q", "z")
    z, m = net.node_ids.index("z"), net.node_ids.index("m")
    assert weight_dict(net)[(z, m)] == 5


def test_from_edges_ignores_edge_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    triple = st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"), st.integers(1, 9))
    # five ids make repeated pairs common, and edges[::2] repeats whole triples
    edge_lists = st.lists(triple, max_size=30).map(lambda edges: edges + edges[::2])

    @hypothesis.settings(derandomize=True, database=None)
    @hypothesis.given(edge_lists, st.data())
    def check(edges, data):
        shuffled = data.draw(st.permutations(edges))
        net = CitationNetwork.from_edges(*columns(shuffled))
        assert net == CitationNetwork.from_edges(*columns(edges))
        assert net == reference_from_edges(edges)

    check()


def test_build_matches_dict_accumulation():
    rng = np.random.default_rng(404)
    for _ in range(2):
        n = 40
        src = rng.integers(0, n, size=3000)
        dst = rng.integers(0, n, size=3000)
        w = rng.integers(1, 6, size=3000)
        expected = {}
        for i, j, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            expected[(i, j)] = expected.get((i, j), 0) + x
        ids = [f"n{k}" for k in rng.permutation(n)]
        net = CitationNetwork.build(ids, src, dst, w)
        assert weight_dict(net) == expected
        assert list(zip(net.source.tolist(), net.target.tolist())) == sorted(expected)
        assert net.total_weight == sum(expected.values())


def test_edge_arrays_are_read_only():
    net = CitationNetwork.from_edges(["a", "b"], ["b", "c"], [2, 1])
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


@pytest.mark.parametrize(
    "weights",  # the unit-weight path, the general one, and build_network's read-only broadcast unit column
    [[1, 1, 1, 1], [1, 2, 1, 3], np.broadcast_to(np.int64(1), 4)],
)
@pytest.mark.parametrize("make", ["build", "constructor"])
def test_network_shares_no_buffer_with_its_caller(make, weights):
    source = np.array([0, 0, 1, 2], dtype=np.int64)
    target = np.array([1, 2, 2, 0], dtype=np.int64)
    weight = np.asarray(weights, dtype=np.int64)  # the broadcast column as given, a list as a new array
    inputs = [source, target, weight]
    copies = [a.copy() for a in inputs]
    writeable = [a.flags.writeable for a in inputs]
    if make == "build":
        net = CitationNetwork.build(("a", "b", "c"), source[::-1], target[::-1], weight[::-1])
    else:  # ascending and repeat-free, as read from a list write_edge_list wrote: not sorted again, yet not kept
        net = CitationNetwork(("a", "b", "c"), source, target, weight)
    for arr in (net.source, net.target, net.weight):
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, given) for given in inputs)
    assert all(a.flags.writeable == w and np.array_equal(a, c) for a, c, w in zip(inputs, copies, writeable))
    pairs = [(0, 1), (0, 2), (1, 2), (2, 0)]
    assert weight_dict(net) == dict(zip(pairs, weights))


def test_sorted_and_shuffled_triples_build_equal_networks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    triple = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3))
    # five nodes make repeated pairs common, and t[::3] repeats whole triples; all-1 weights take the unit-weight path
    triple_lists = st.lists(triple, max_size=30).map(lambda t: t + t[::3])

    @hypothesis.settings(derandomize=True, database=None, max_examples=200)
    @hypothesis.given(triple_lists, st.data())
    def check(triples, data):
        ids = ("a", "b", "c", "d", "e")
        shuffled = data.draw(st.permutations(triples))
        net = CitationNetwork(ids, *(np.array(c, dtype=np.int64) for c in columns(shuffled)))
        assert net == CitationNetwork(ids, *(np.array(c, dtype=np.int64) for c in columns(sorted(triples))))
        expected: dict = {}
        for i, j, w in triples:
            expected[(i, j)] = expected.get((i, j), 0) + w
        assert list(weight_dict(net).items()) == sorted(expected.items())

    check()


# the unit-weight path, and the general one, where pair (2, 0) sums 100 + 100
# past int8: weights become int64 before they are summed
@pytest.mark.parametrize("weights", [[1, 1, 1, 1, 1], [100, 2, 1, 100, 3]])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint32, np.int64, list, object])
def test_integer_inputs_of_any_dtype_give_one_network(dtype, weights):
    given = [[2, 0, 1, 2, 0], [0, 1, 2, 0, 2], weights]
    inputs = [list(c) if dtype is list else np.array(c, dtype=dtype) for c in given]
    copies = [np.array(c) for c in inputs]
    net = CitationNetwork(("a", "b", "c"), *inputs)
    assert net == CitationNetwork(("a", "b", "c"), *(np.array(c, dtype=np.int64) for c in given))
    w = weights
    assert weight_dict(net) == {(0, 1): w[1], (0, 2): w[4], (1, 2): w[2], (2, 0): w[0] + w[3]}
    for arr in (net.source, net.target, net.weight):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert not any(np.shares_memory(arr, a) for a in inputs if isinstance(a, np.ndarray))
    assert all(np.array_equal(a, c) for a, c in zip(inputs, copies))


def test_32_bit_indices_are_read_without_an_int64_copy():
    # made and read under one trace, int32 index arrays save their 8 bytes a
    # pair over int64 ones; an int64 copy of either column would cost them
    # back. 40 nodes make at most 1,600 distinct pairs, so the peak is where
    # the indices are read, not where the repeats are counted
    m = 200_000
    ids = tuple(f"n{k}" for k in range(40))
    pairs = np.random.default_rng(5).integers(0, len(ids), size=(2, m))
    ones = np.broadcast_to(np.int64(1), m)

    def peak(dtype):
        tracemalloc.start()
        try:
            source, target = pairs.astype(dtype)
            net = CitationNetwork(ids, source, target, ones)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.total_weight == m
        return peak

    peak(np.int32)  # first calls may cache what later ones reuse
    assert peak(np.int32) <= peak(np.int64) - 2 * m


def test_build_counts_repeated_unit_pairs():
    # unit weights are counted per pair; a read-only, broadcast weight column is read as given
    source, target = np.array([2, 0, 2, 0, 2]), np.array([1, 1, 1, 1, 1])
    net = CitationNetwork.build(("a", "b", "c"), source, target, np.broadcast_to(np.int64(1), 5))
    assert weight_dict(net) == {(0, 1): 2, (2, 1): 3}
    assert net.weight.dtype == np.int64


@pytest.mark.parametrize("max_weight", [1, 6])  # the unit-weight path and the general one
def test_constructor_and_build_sum_and_sort_like_a_dict(max_weight):
    rng = np.random.default_rng(1414)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 40))  # few nodes, many triples: pairs repeat and come unsorted
        src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        w = rng.integers(1, max_weight + 1, size=m)
        expected = {}
        for i, j, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            expected[(i, j)] = expected.get((i, j), 0) + x
        ids = tuple(f"n{k}" for k in rng.permutation(n))
        net = CitationNetwork(ids, src, dst, w)
        assert list(weight_dict(net).items()) == sorted(expected.items())
        assert net == CitationNetwork.build(ids, src.tolist(), dst.tolist(), w.tolist())


HALF = 2**62
def test_from_edges_coded_form_matches_id_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    id_lists = st.lists(st.text(st.sampled_from("ab c"), max_size=3), min_size=1, max_size=6, unique=True)
    dtypes = st.sampled_from([np.int32, np.int64, np.uint32, np.int8, None])  # None: Python lists

    @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @hypothesis.given(id_lists, st.data(), dtypes)
    @hypothesis.example(["b", "a", "c"], None, np.int32)  # codes drawn below in this order
    def check(ids, data, dtype):
        code = st.integers(0, len(ids) - 1)
        if data is None:  # codes 2, 0, 1 first seen: not the order of ids, with a repeat and a self-loop
            pairs, extra = [(2, 0), (1, 2), (2, 0), (1, 1)], ["c", "zz", "zz"]
        else:
            pairs = data.draw(st.lists(st.tuples(code, code), max_size=20).map(lambda p: p + p[::3]))
            extra = data.draw(st.lists(st.one_of(st.sampled_from(ids), st.text("abz", max_size=2)), max_size=4))
        weights = [k % 4 + 1 for k in range(len(pairs))]
        sources, targets = [i for i, _ in pairs], [j for _, j in pairs]
        if dtype is not None:
            sources, targets = np.array(sources, dtype), np.array(targets, dtype)
        coded = CitationNetwork.from_edges(sources, targets, weights, extra, ids=ids)
        named = CitationNetwork.from_edges([ids[i] for i, _ in pairs], [ids[j] for _, j in pairs], weights, extra)
        edges = [(ids[i], ids[j], w) for (i, j), w in zip(pairs, weights)]
        assert named == reference_from_edges(edges, extra)
        assert coded == reference_from_edges(edges, [*extra, *ids])  # every id is a node, used or not
        assert coded == CitationNetwork.from_edges(*columns(edges), [*extra, *ids])

    check()


@pytest.mark.parametrize(
    "codes, message",
    [
        ([0, 3], "edge codes must be in range(3)"),
        ([-1, 0], "edge codes must be in range(3)"),
        ([0.0, 1.0], "codes must be integers, got float64"),
    ],
)
def test_from_edges_rejects_codes_outside_the_ids(codes, message):
    for sources, targets in ((codes, [1, 1]), ([1, 1], codes)):
        with pytest.raises(InputError, match=re.escape(message)):
            CitationNetwork.from_edges(sources, targets, [1, 1], ids=["a", "b", "c"])


BAD_INPUTS = [
    (("a", "a"), [], [], [], "node identifiers must be unique"),
    (("a", "b"), [0], [1], [0], "edge (0, 1) has non-positive or non-integer weight 0"),
    (("a", "b"), [0], [1], [-3], "edge (0, 1) has non-positive or non-integer weight -3"),
    (("a", "b"), [0], [2], [1], "edge (0, 2) out of range for 2 nodes"),
    (("a", "b"), [0], [1], [1.5], "edge weights must be integers, got float64"),
    (("a", "b"), [0], [1], [2**63], "edge weights beyond the int64 range"),
    (
        ("a", "b"),
        [0, 0],
        [1, 1],
        [HALF, HALF],
        "total weight 9223372036854775808 is beyond the int64 range",
    ),
    (("a", "b", "c"), [0, 1], [1, 2], [HALF, HALF], "total weight 9223372036854775808 is beyond the int64 range"),
    (("a", "b"), [0], [1], [2**64], "edge weights beyond the int64 range"),  # an object array past uint64
    (("a", "b"), [[0], [1]], [1, 0], [1, 1], "source indices must be one-dimensional"),
    (("a", "b"), [0, 1], [1], [1, 1], "source, target and weight must have one length"),
]


@pytest.mark.parametrize("ids, source, target, weight, message", BAD_INPUTS)
def test_constructor_and_build_reject_bad_input_alike(ids, source, target, weight, message):
    for make in (CitationNetwork, CitationNetwork.build):
        with pytest.raises(InputError) as info:
            make(ids, source, target, weight)
        assert str(info.value) == message


def test_rejects_non_integer_weights():
    with pytest.raises(ValueError, match="integers"):
        CitationNetwork.build(("a", "b"), [0], [1], [1.5])


def test_weights_beyond_int64_are_rejected():
    half = 2**62
    with pytest.raises(ValueError, match="int64"):
        CitationNetwork.build(("a", "b"), [0], [1], [2**63])
    # one pair summing past int64 is rejected instead of wrapping negative
    with pytest.raises(ValueError, match="total weight 9223372036854775808 is beyond the int64 range"):
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
    net = CitationNetwork.from_edges([f"s{i}" for i in range(4)], ["hub"] * 4, [1] * 4)
    assert in_degree(net)[net.node_ids.index("hub")] == 4


def test_in_degree_isolated_node():
    net = build_from_dict(("a", "b", "c"), {(0, 1): 1})
    assert in_degree(net)[2] == 0


def test_in_degree_three_node_fixture(three_node_net):
    # hand enumeration: a cited by nobody, b by a and c, c by b
    assert in_degree(three_node_net).tolist() == [0, 2, 1]


def test_in_degree_counts_citers_not_weight():
    net = CitationNetwork.from_edges(["a"], ["b"], [50])
    assert in_degree(net)[net.node_ids.index("b")] == 1


def test_in_degree_ignores_self_loops_even_when_stored():
    net = build_from_dict(("a", "b"), {(0, 0): 4, (1, 0): 1})
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
    net = CitationNetwork.from_edges([f"s{i}" for i in range(5)], ["hub"] * 5, [1] * 5)
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
    assert CitationNetwork.from_edges(["a"], ["b"], [7]).total_weight == 7


def test_degree_report_bundles_consistent_views(three_node_net):
    report = degree_report(three_node_net)
    assert report.in_degree.tolist() == [0, 2, 1]
    assert report.degree_centrality.tolist() == [0.0, 1.0, 0.5]
    assert len(report.centrality_distribution) == 3
