import numpy as np
import pytest

from citerank import (
    PageRankConfig,
    ScoreTable,
    composite_score,
    compress,
    default_profiles,
    normalize_pagerank,
    pagerank,
)
from citerank import CitationNetwork
from citerank.errors import MissingColumnError, ScoringError


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


def test_compress_scales_then_takes_square_root():
    assert compress([400.0, 100.0]).tolist() == [100.0, 50.0]


def test_compress_singleton_maps_to_100():
    assert compress([7.0]).tolist() == [100.0]


def test_compress_already_scaled():
    assert compress([10000.0, 1.0]).tolist() == [100.0, 1.0]


def test_compress_rejects_all_zero_and_negative():
    with pytest.raises(ScoringError):
        compress([0.0, 0.0])
    with pytest.raises(ScoringError):
        compress([-1.0, 5.0])
    with pytest.raises(ScoringError):
        compress([])


def test_compress_scale_invariant_and_order_preserving():
    rng = np.random.default_rng(10)
    for _ in range(100):
        raw = rng.uniform(0.0, 500.0, size=int(rng.integers(2, 30)))
        raw[int(rng.integers(raw.size))] = rng.uniform(1.0, 500.0)  # ensure max > 0
        out = compress(raw)
        scaled = compress(raw * float(rng.uniform(0.01, 100.0)))
        assert np.allclose(out, scaled, rtol=1e-12, atol=0)
        assert np.all((0.0 <= out) & (out <= 100.0))
        order = np.argsort(raw)
        diffs = np.diff(out[order])
        gaps = np.diff(raw[order])
        assert np.all(diffs[gaps > 0] > 0)


# ---------------------------------------------------------------------------
# composite_score
# ---------------------------------------------------------------------------


def _table(columns):
    n = len(next(iter(columns.values())))
    return ScoreTable(tuple(f"i{k}" for k in range(n)), columns)


def test_composite_identity_at_100_for_every_default_profile():
    for profile in default_profiles().values():
        cols = {
            ind: np.full(3, 100.0)
            for ind, w in profile.indicator_weights.items()
            if w > 0
        }
        out = composite_score(_table(cols), profile)
        assert np.allclose(out, 100.0, atol=1e-12)


def test_composite_single_indicator_passthrough():
    profile = default_profiles()["FIN"]
    from citerank import SubjectProfile

    only_pub = SubjectProfile("X", profile.category, indicator_weights={"PUB": 100})
    out = composite_score(_table({"PUB": np.array([100.0, 50.0])}), only_pub)
    assert out.tolist() == [100.0, 50.0]


def test_composite_weighted_mean_hand_case():
    # FIN weights 150/50/10/100 on scores 100/50/0/80 -> 25500/310
    profile = default_profiles()["FIN"]
    table = _table(
        {
            "PUB": np.array([100.0]),
            "CNCI": np.array([50.0]),
            "IC": np.array([0.0]),
            "TOP": np.array([80.0]),
        }
    )
    out = composite_score(table, profile)
    assert out[0] == pytest.approx(25500 / 310, rel=1e-12)
    assert round(out[0], 2) == 82.26


def test_composite_missing_weighted_column_raises_with_name():
    profile = default_profiles()["FIN"]
    table = _table({"PUB": np.array([1.0]), "CNCI": np.array([1.0]), "IC": np.array([1.0])})
    with pytest.raises(MissingColumnError, match="TOP"):
        composite_score(table, profile)


def test_composite_zero_weight_column_may_be_absent():
    # AWD has weight 0 in FIN; omitting it is fine
    profile = default_profiles()["FIN"]
    cols = {k: np.array([60.0, 40.0]) for k in ("PUB", "CNCI", "IC", "TOP")}
    out = composite_score(_table(cols), profile)
    assert np.allclose(out, [60.0, 40.0], atol=1e-12)


def test_composite_monotone_in_each_indicator():
    profile = default_profiles()["DEN"]
    rng = np.random.default_rng(3)
    base_cols = {k: rng.uniform(0, 100, 4) for k in ("PUB", "CNCI", "IC", "TOP", "AWD")}
    base = composite_score(_table(base_cols), profile)
    for name in ("PUB", "CNCI", "IC", "TOP", "AWD"):
        bumped = {k: v.copy() for k, v in base_cols.items()}
        bumped[name][2] += 5.0
        out = composite_score(_table(bumped), profile)
        assert out[2] > base[2]
        mask = np.ones(4, bool)
        mask[2] = False
        assert np.allclose(out[mask], base[mask], atol=1e-12)


# ---------------------------------------------------------------------------
# normalize_pagerank
# ---------------------------------------------------------------------------


def test_normalize_equal_scores_all_100():
    assert normalize_pagerank(np.array([0.5, 0.5])).tolist() == [100.0, 100.0]


def test_normalize_quarter_of_max_is_50():
    out = normalize_pagerank(np.array([0.2, 0.8]))
    assert out.tolist() == [50.0, 100.0]


def test_normalize_uniform_cycle_scores():
    net = CitationNetwork.from_edges(["a", "b", "c"], ["b", "c", "a"], [1, 1, 1])
    result = pagerank(net, PageRankConfig())
    out = normalize_pagerank(result.scores)
    assert np.allclose(out, 100.0, atol=1e-12)


def test_normalize_rejects_non_positive():
    with pytest.raises(ScoringError):
        normalize_pagerank(np.array([0.0, 1.0]))


def test_normalize_rejects_an_empty_vector():
    with pytest.raises(ScoringError) as info:
        normalize_pagerank([])
    assert str(info.value) == "cannot normalize an empty score vector"


def test_normalize_scale_invariant_and_order_preserving():
    rng = np.random.default_rng(21)
    for _ in range(100):
        pi = rng.uniform(1e-6, 1.0, size=int(rng.integers(2, 25)))
        out = normalize_pagerank(pi)
        rescaled = normalize_pagerank(pi * float(rng.uniform(0.1, 10.0)))
        assert np.allclose(out, rescaled, rtol=1e-12, atol=0)
        assert np.all((0.0 < out) & (out <= 100.0))
        order = np.argsort(pi)
        diffs = np.diff(out[order])
        gaps = np.diff(pi[order])
        assert np.all(diffs[gaps > 0] > 0)


# ---------------------------------------------------------------------------
# ScoreTable
# ---------------------------------------------------------------------------


def test_score_table_rejects_ragged_and_negative_columns():
    with pytest.raises(ValueError):
        ScoreTable(("a", "b"), {"x": np.array([1.0])})
    with pytest.raises(ValueError):
        ScoreTable(("a", "b"), {"x": np.array([1.0, -2.0])})


def test_score_table_is_immutable_and_copies_its_columns():
    x = np.array([1.0, 2.0])
    table = ScoreTable(("a", "b"), {"x": x})
    with pytest.raises(TypeError):
        table.columns["y"] = np.array([3.0, 4.0])
    with pytest.raises(ValueError):
        table.columns["x"][0] = 5.0
    with pytest.raises(AttributeError):
        table.institutions = ("c", "d")
    x[0] = 9.0
    assert x.flags.writeable
    assert table.columns["x"].tolist() == [1.0, 2.0]


def test_score_table_equality_compares_values():
    table = ScoreTable(("a", "b"), {"x": [1.0, 2.0], "y": [0.0, 3.0]})
    assert table == ScoreTable(("a", "b"), {"x": np.array([1.0, 2.0]), "y": [0, 3]})
    assert table != ScoreTable(("a", "b"), {"x": [1.0, 2.5], "y": [0.0, 3.0]})
    assert table != ScoreTable(("a", "c"), {"x": [1.0, 2.0], "y": [0.0, 3.0]})
    assert table != ScoreTable(("a", "b"), {"x": [1.0, 2.0], "z": [0.0, 3.0]})
    assert table != ScoreTable(("a", "b"), {"y": [0.0, 3.0], "x": [1.0, 2.0]})
    assert table != ScoreTable(("a", "b"), {"x": [1.0, 2.0]})
    assert table != "not a table"
