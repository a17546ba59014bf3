import math

import numpy as np
import pytest

from citerank import CartelSpec, SynthConfig, generate_traced, in_degree
from citerank import synthnet
from citerank.errors import InputError, NumericError

from conftest import build_from_dict, weight_dict


def _reference_generate(cfg):
    """The O(n)-per-citation generator: rng.choice over the full attractiveness vector."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    ids = synthnet._node_ids(n)
    received = np.zeros(n, dtype=np.int64)
    weights = {}
    nodes = np.arange(n)
    for source in range(n):
        n_out = int(rng.poisson(cfg.mean_out_citations))
        for _ in range(n_out):
            if n == 1:
                break
            attractiveness = (received + 1.0) ** cfg.attachment_exponent
            attractiveness[source] = 0.0
            target = int(rng.choice(nodes, p=attractiveness / attractiveness.sum()))
            weights[(source, target)] = weights.get((source, target), 0) + 1
            received[target] += 1

    members = ()
    if cfg.cartel is not None:
        order = np.lexsort((np.arange(n), received))
        member_idx = sorted(int(i) for i in order[: cfg.cartel.member_count])
        members = tuple(ids[i] for i in member_idx)
        boost = cfg.cartel.internal_weight_boost
        for a in member_idx:
            for b in member_idx:
                if a != b:
                    weights[(a, b)] = weights.get((a, b), 0) + boost

    net = build_from_dict(ids, weights)
    return synthnet.SynthResult(network=net, cartel_members=members)


def _assert_matches_reference(cfg):
    got = generate_traced(cfg)
    want = _reference_generate(cfg)
    assert got.network.node_ids == want.network.node_ids
    assert weight_dict(got.network) == weight_dict(want.network)
    assert got.cartel_members == want.cartel_members
    return got


def _matrix_configs(n, exponent):
    for seed in range(6):
        cartel = None
        if seed % 2 and n >= 3:
            cartel = CartelSpec(member_count=min(5, n - 1), internal_weight_boost=3)
        yield SynthConfig(n, mean_out_citations=4.0, attachment_exponent=exponent,
                          cartel=cartel, seed=seed)


@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 300])
def test_matches_rng_choice_reference_bit_for_bit(n, exponent):
    for cfg in _matrix_configs(n, exponent):
        _assert_matches_reference(cfg)


def test_matches_rng_choice_reference_at_2000_nodes_with_cartel():
    _assert_matches_reference(
        SynthConfig(2000, mean_out_citations=5.0, attachment_exponent=1.0, seed=23,
                    cartel=CartelSpec(member_count=10, internal_weight_boost=20))
    )


def test_out_degree_past_one_uniform_batch_matches_reference():
    # about 1,500 citations per source: each source takes its uniform draws in
    # more than one rng.random call, which must leave the stream unchanged
    cfg = SynthConfig(20, mean_out_citations=1500.0, seed=11,
                      cartel=CartelSpec(member_count=3, internal_weight_boost=2))
    assert cfg.mean_out_citations > synthnet._UNIFORMS_PER_CALL
    _assert_matches_reference(cfg)


@pytest.mark.parametrize("rounding", [2e-6, 0.5])
def test_exact_path_matches_reference(monkeypatch, rounding):
    # a wider margin sends a share of the draws (at 0.5: every draw) down
    # numpy's exact path, interleaved with tree draws that must see the same
    # tree updates
    exact_draws = 0
    exact = synthnet._exact_draw

    def counting(*args):
        nonlocal exact_draws
        exact_draws += 1
        return exact(*args)

    monkeypatch.setattr(synthnet, "_ROUNDING_PER_WEIGHT", rounding)
    monkeypatch.setattr(synthnet, "_exact_draw", counting)
    for exponent in (0.0, 1.0, 2.0):
        exact_draws = 0
        cfg = SynthConfig(300, mean_out_citations=5.0, attachment_exponent=exponent, seed=5)
        draws = _assert_matches_reference(cfg).network.total_weight
        if rounding < 0.5:
            assert 0 < exact_draws < draws
        else:
            assert exact_draws == draws


@pytest.mark.parametrize("exponent", [100.0, 128.0, 130.0, 400.0])
def test_overflow_fails_where_reference_fails(exponent):
    # at 50 nodes the weights overflow for some seeds from about 128 upwards
    for seed in range(4):
        cfg = SynthConfig(50, mean_out_citations=5.0, attachment_exponent=exponent, seed=seed)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                want = _reference_generate(cfg)
        except ValueError:
            with pytest.raises(NumericError, match="overflow"):
                generate_traced(cfg)
        else:
            assert weight_dict(generate_traced(cfg).network) == weight_dict(want.network)


def _in_strength(net):
    received = np.zeros(net.n_nodes)
    for (_i, j), w in weight_dict(net).items():
        received[j] += w
    return received


def test_same_seed_reproduces_identical_network():
    cfg = SynthConfig(n_nodes=60, mean_out_citations=4.0, seed=123)
    a = generate_traced(cfg).network
    b = generate_traced(cfg).network
    assert a.node_ids == b.node_ids
    assert weight_dict(a) == weight_dict(b)


def test_different_seeds_differ():
    a = generate_traced(SynthConfig(n_nodes=60, seed=1)).network
    b = generate_traced(SynthConfig(n_nodes=60, seed=2)).network
    assert weight_dict(a) != weight_dict(b)


def test_generated_network_is_valid():
    net = generate_traced(SynthConfig(n_nodes=80, mean_out_citations=6.0, seed=9)).network
    assert net.n_nodes == 80
    assert all(w >= 1 for w in weight_dict(net).values())
    assert all(i != j for (i, j) in weight_dict(net))  # no self-citations


def test_uniform_attachment_mean_in_strength_tracks_mean_out():
    received = []
    for seed in range(10):
        cfg = SynthConfig(n_nodes=100, mean_out_citations=6.0, attachment_exponent=0.0, seed=seed)
        received.append(_in_strength(generate_traced(cfg).network).mean())
    assert abs(np.mean(received) - 6.0) < 0.5


def test_preferential_attachment_concentrates_citations():
    # stronger attachment -> heavier maximum in-degree, on average
    flat, strong = [], []
    for seed in range(8):
        flat.append(
            in_degree(
                generate_traced(SynthConfig(100, 5.0, attachment_exponent=0.0, seed=seed)).network
            ).max()
        )
        strong.append(
            in_degree(
                generate_traced(SynthConfig(100, 5.0, attachment_exponent=2.0, seed=seed)).network
            ).max()
        )
    assert np.mean(strong) > np.mean(flat)


def test_cartel_members_are_least_cited_and_reported():
    cfg = SynthConfig(n_nodes=50, mean_out_citations=5.0, seed=4,
                      cartel=CartelSpec(member_count=5, internal_weight_boost=10))
    base = generate_traced(SynthConfig(n_nodes=50, mean_out_citations=5.0, seed=4)).network
    traced = generate_traced(cfg)
    assert len(traced.cartel_members) == 5
    received = _in_strength(base)
    cutoff = np.sort(received)[4]
    member_idx = [base.node_ids.index(m) for m in traced.cartel_members]
    assert all(received[i] <= cutoff for i in member_idx)


def test_cartel_raises_internal_weight_share():
    plain_cfg = SynthConfig(n_nodes=100, mean_out_citations=5.0, seed=11)
    cartel_cfg = SynthConfig(n_nodes=100, mean_out_citations=5.0, seed=11,
                             cartel=CartelSpec(member_count=5, internal_weight_boost=20))
    plain = generate_traced(plain_cfg).network
    traced = generate_traced(cartel_cfg)
    members = {traced.network.node_ids.index(m) for m in traced.cartel_members}

    def internal_share(net):
        internal = sum(w for (i, j), w in weight_dict(net).items() if i in members and j in members)
        return internal / net.total_weight

    assert internal_share(traced.network) > internal_share(plain)


def test_cartel_leaves_base_network_untouched():
    plain = generate_traced(SynthConfig(n_nodes=40, mean_out_citations=4.0, seed=21)).network
    traced = generate_traced(
        SynthConfig(n_nodes=40, mean_out_citations=4.0, seed=21,
                    cartel=CartelSpec(member_count=4, internal_weight_boost=7))
    )
    members = {traced.network.node_ids.index(m) for m in traced.cartel_members}
    for (i, j), w in weight_dict(plain).items():
        expected = w + (7 if i in members and j in members else 0)
        assert weight_dict(traced.network)[(i, j)] == expected


def test_config_rejects_more_nodes_than_32_bit_positions_hold():
    # only the config is made: the generator would size its arrays by n_nodes
    with pytest.raises(InputError, match="more than 2147483647 nodes"):
        SynthConfig(2**31)
    assert SynthConfig(2**31 - 1).n_nodes == 2**31 - 1


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_nodes=0)
    with pytest.raises(ValueError):
        SynthConfig(n_nodes=10, mean_out_citations=0.0)
    with pytest.raises(ValueError):
        SynthConfig(n_nodes=10, attachment_exponent=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SynthConfig(n_nodes=10, attachment_exponent=bad)
        with pytest.raises(ValueError, match="finite"):
            SynthConfig(n_nodes=10, mean_out_citations=bad)
    with pytest.raises(ValueError):
        SynthConfig(n_nodes=5, cartel=CartelSpec(5, 2))
    with pytest.raises(ValueError):
        CartelSpec(1, 2)
    with pytest.raises(ValueError):
        CartelSpec(3, 0)
