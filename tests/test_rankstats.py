import math

import numpy as np
import pytest

from citerank import (
    average_rank,
    compare_columns,
    correlation_matrix,
    kendall_w,
    partial_correlation,
    pca,
    pearson,
    rank_displacement,
    spearman,
    varimax,
)
from citerank.errors import (
    DegenerateControlError,
    InputError,
    InvalidCorrelationMatrixError,
    UndefinedStatisticError,
)
from citerank.rankstats import _t_two_sided_p, partial_from_pairwise


# ---------------------------------------------------------------------------
# Independent brute-force oracles (pure Python, no shared code paths)
# ---------------------------------------------------------------------------


def rank_oracle(values, descending=False):
    """O(n^2) average ranks: 1 + ahead-count + half the tie count."""
    ranks = []
    for v in values:
        ahead = sum(1 for o in values if (o < v if not descending else o > v))
        ties = sum(1 for o in values if o == v)
        ranks.append(ahead + (ties + 1) / 2.0)
    return ranks


def pearson_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_oracle(x, y):
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


def kendall_w_oracle(rows):
    m = len(rows)
    n = len(rows[0])
    ranked = [rank_oracle(row) for row in rows]
    sums = [math.fsum(r[i] for r in ranked) for i in range(n)]
    mean = math.fsum(sums) / n
    s = math.fsum((t - mean) ** 2 for t in sums)
    tie = 0.0
    for r in ranked:
        for v in set(r):
            t = r.count(v)
            tie += t**3 - t
    return 12.0 * s / (m * m * (n**3 - n) - m * tie)


def partial_oracle(x, y, z):
    """Regress x and y on z, correlate the residuals."""

    def residuals(target, control):
        n = len(target)
        mc = math.fsum(control) / n
        mt = math.fsum(target) / n
        beta = math.fsum((c - mc) * (t - mt) for c, t in zip(control, target)) / math.fsum(
            (c - mc) ** 2 for c in control
        )
        return [t - (mt + beta * (c - mc)) for t, c in zip(target, control)]

    return pearson_oracle(residuals(x, z), residuals(y, z))


def displacement_oracle(a, b):
    ra = rank_oracle(a, descending=True)
    rb = rank_oracle(b, descending=True)
    d = sorted(abs(p - q) for p, q in zip(ra, rb))
    n = len(d)
    mean = math.fsum(d) / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in d) / (n - 1)) if n > 1 else 0.0

    def pct(q):
        return d[max(1, math.ceil(q * n)) - 1]

    return n, mean, std, pct(0.50), pct(0.75), pct(0.90)


def _random_vectors(rng, n=None, count=2):
    n = n or int(rng.integers(3, 13))
    out = []
    for _ in range(count):
        v = rng.uniform(-10, 10, n)
        if rng.random() < 0.3:  # inject ties
            v = np.round(v)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# average_rank
# ---------------------------------------------------------------------------


def test_average_rank_simple_and_descending():
    assert average_rank([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]
    assert average_rank([10.0, 30.0, 20.0], descending=True).tolist() == [3.0, 1.0, 2.0]


def test_average_rank_ties_get_average():
    assert average_rank([5.0, 5.0, 1.0]).tolist() == [2.5, 2.5, 1.0]


def test_average_rank_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        (v,) = _random_vectors(rng, count=1)
        assert average_rank(v).tolist() == pytest.approx(rank_oracle(v), abs=0)
        assert average_rank(v, descending=True).tolist() == pytest.approx(
            rank_oracle(v, descending=True), abs=0
        )


def average_rank_loop(values, descending=False):
    """The earlier loop over tie runs, kept as the bit-for-bit reference."""
    v = np.asarray(values, dtype=np.float64)
    key = -v if descending else v
    order = np.argsort(key, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and key[order[j + 1]] == key[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_rank_matches_tie_run_loop_bit_for_bit():
    rng = np.random.default_rng(560)
    for k in range(280):
        n = int(rng.integers(0, 4001)) if k % 7 == 0 else int(rng.integers(0, 60))
        kind = k % 4
        if kind == 0:
            v = rng.normal(size=n)
        elif kind == 1:  # heavy ties
            v = rng.integers(0, max(1, n // 20), size=n).astype(np.float64)
        elif kind == 2:  # NaN, infinities and both zeros among ties
            v = rng.choice([np.nan, -0.0, 0.0, 1.5, np.inf, -np.inf], size=n)
        else:
            v = np.round(rng.normal(scale=3.0, size=n))
            v[rng.random(n) < 0.1] = np.nan
        for descending in (False, True):
            assert np.array_equal(
                average_rank(v, descending), average_rank_loop(v, descending), equal_nan=True
            ), (k, descending)


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------


def test_pearson_perfect_linear():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2 * x + 1)[0] == pytest.approx(1.0, abs=1e-15)
    assert pearson(x, -x)[0] == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_case():
    r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert r == pytest.approx(0.8, abs=1e-15)
    assert 0.0 < p < 1.0


def test_pearson_rejects_zero_variance_and_short_input():
    with pytest.raises(UndefinedStatisticError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    # the rounded mean of three 0.7s is not 0.7, so a zero sum of squares would miss it
    with pytest.raises(UndefinedStatisticError, match="zero-variance input"):
        pearson([1.0, 2.0, 3.0], [0.7, 0.7, 0.7])
    with pytest.raises(InputError):
        pearson([1.0, 2.0], [1.0, 2.0])


def test_pearson_p_value_against_scipy():
    from scipy import stats

    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y = _random_vectors(rng, n=int(rng.integers(4, 13)))
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        r, p = pearson(x, y)
        ref = stats.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


P_VALUE_DOFS = [*range(2, 80), 100, 101, 999, 1000, 1998, 3993, 3994, 4997, 20000, 99999]


@pytest.mark.parametrize("dof", P_VALUE_DOFS)
def test_p_value_closed_form_against_scipy_stdtr(dof):
    stdtr = pytest.importorskip("scipy.special").stdtr
    # |r| from 1e-8 to 1 - 1e-6, denser around |r| = 3 / sqrt(dof), where t is about 3
    grid = np.concatenate([
        np.geomspace(1e-8, 0.5, 12),
        1.0 - np.geomspace(1e-6, 0.5, 8),
        3.0 / math.sqrt(dof) * np.array([0.8, 1.0, 1.1, 1.25]),
    ])
    for k, r in enumerate(grid[grid < 1.0].tolist()):
        r = -r if k % 2 else r
        t = abs(r) * math.sqrt(dof / (1.0 - r * r))
        want = 2.0 * float(stdtr(dof, -t))
        got = _t_two_sided_p(r, dof)
        assert abs(got - want) <= 1e-12, (r, got, want)
        if want >= 1e-300:
            assert abs(got - want) <= 1e-10 * want, (r, got, want)


@pytest.mark.parametrize("r", [1e-8, 1e-4, 0.1, 0.5, 0.9, 0.999, 0.9995, 0.9999])
def test_p_value_exact_at_one_and_two_dof(r):
    # the Cauchy and the 2-dof t tails are 1 - 2 asin|r| / pi and 1 - |r|
    assert abs(_t_two_sided_p(r, 1) - (1.0 - 2.0 * math.asin(r) / math.pi)) <= 1e-15
    assert abs(_t_two_sided_p(-r, 2) - (1.0 - r)) <= 1e-15


def test_p_value_tail_at_one_dof():
    # p < 1e-3 at 1 dof sums the series from its first term; r * r rounds by
    # up to 1e-16, about 5e-11 of 1 - r^2, so only a relative bound holds here
    r = 1.0 - 1e-6
    assert _t_two_sided_p(r, 1) == pytest.approx(1.0 - 2.0 * math.asin(r) / math.pi, rel=1e-10)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x, y = _random_vectors(rng)
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        r0 = pearson(x, y)[0]
        r1 = pearson(3.5 * x + 2.0, 0.25 * y - 7.0)[0]
        assert r1 == pytest.approx(r0, abs=1e-12)


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------


def test_spearman_identical_and_reversed_orderings():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    assert spearman(x, x * 2)[0] == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, -x)[0] == pytest.approx(-1.0, abs=1e-15)


def test_spearman_hand_case():
    rho, _ = spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert rho == pytest.approx(0.5, abs=1e-15)


def test_spearman_tie_free_formula():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 13))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        rho, _ = spearman(x, y)
        d2 = np.sum((average_rank(x) - average_rank(y)) ** 2)
        assert rho == pytest.approx(1 - 6 * d2 / (n * (n**2 - 1)), abs=1e-12)


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x, y = _random_vectors(rng)
        try:
            rho0 = spearman(x, y)[0]
        except UndefinedStatisticError:
            continue
        rho1 = spearman(np.exp(x / 10.0), y**3)[0]
        assert rho1 == pytest.approx(rho0, abs=1e-12)


def test_spearman_all_tied_is_undefined():
    with pytest.raises(UndefinedStatisticError):
        spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# kendall_w
# ---------------------------------------------------------------------------


def test_kendall_w_perfect_agreement():
    for n in (2, 5, 9):
        ranking = np.arange(1.0, n + 1)
        assert kendall_w([ranking, ranking]) == pytest.approx(1.0, abs=1e-15)


def test_kendall_w_perfect_disagreement_two_judges():
    assert kendall_w([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]) == 0.0


def test_kendall_w_hand_case():
    w = kendall_w([[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 4.0]])
    assert w == 0.9  # S = 18, denominator 4 * 60


def test_kendall_w_accepts_scores():
    # scores rank to (1,2,3,4) and (2,1,3,4) up to direction, same W
    w = kendall_w([[40.0, 30.0, 20.0, 10.0], [30.0, 40.0, 20.0, 10.0]])
    assert w == 0.9


def test_kendall_w_two_judges_matches_spearman_identity():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        w = kendall_w([x, y])
        if n >= 3:
            rho = spearman(x, y)[0]
            assert w == pytest.approx((rho + 1) / 2, abs=1e-12)


def test_kendall_w_rejects_bad_shapes_and_all_ties():
    with pytest.raises(InputError):
        kendall_w([[1.0, 2.0]])
    with pytest.raises(InputError):
        kendall_w([[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(UndefinedStatisticError):
        kendall_w([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])


# ---------------------------------------------------------------------------
# partial correlation
# ---------------------------------------------------------------------------


def test_partial_formula_hand_case():
    assert partial_from_pairwise(0.9, 0.8, 0.8) == pytest.approx(0.26 / 0.36, rel=1e-12)


def test_partial_uncorrelated_control_collapses_to_pearson():
    # orthogonal control: r_xz = r_yz = 0 exactly by construction
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 3.0, 2.0, 4.0])
    z = np.array([1.0, -1.0, -1.0, 1.0])  # orthogonal to both after centering
    r_xy = pearson(x, y)[0]
    r, _ = partial_correlation(x, y, z)
    assert r == pytest.approx(r_xy, abs=1e-12)


def test_partial_identical_inputs_give_one():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    z = np.array([0.0, 2.0, 1.0, 4.0, 3.0, 5.0])
    r, p = partial_correlation(x, x, z)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert p == 0.0


def test_partial_degenerate_control_raises():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([4.0, 2.0, 1.0, 3.0])
    with pytest.raises(DegenerateControlError):
        partial_correlation(x, y, 2 * x)


def test_partial_requires_four_points():
    with pytest.raises(InputError):
        partial_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0])


def test_partial_invariant_under_positive_affine_transforms():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(4, 13))
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-5, 5, n)
        z = rng.uniform(-5, 5, n)
        try:
            r0, _ = partial_correlation(x, y, z)
        except UndefinedStatisticError:
            continue
        r1, _ = partial_correlation(2.0 * x + 3.0, 0.5 * y - 1.0, 10.0 * z + 4.0)
        assert r1 == pytest.approx(r0, abs=1e-12)


def test_partial_matches_residual_regression_oracle():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(4, 13))
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-5, 5, n)
        z = rng.uniform(-5, 5, n)
        try:
            r, _ = partial_correlation(x, y, z)
        except UndefinedStatisticError:
            continue
        assert r == pytest.approx(partial_oracle(list(x), list(y), list(z)), abs=1e-12)


# ---------------------------------------------------------------------------
# rank displacement
# ---------------------------------------------------------------------------


def test_displacement_identical_scores_is_zero():
    v = np.array([5.0, 3.0, 8.0, 1.0])
    d = rank_displacement(v, v.copy())
    assert (d.mean, d.std, d.p50, d.p75, d.p90) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_displacement_reversed_ranking_hand_case():
    a = np.array([4.0, 3.0, 2.0, 1.0])
    d = rank_displacement(a, -a)
    assert d.n == 4
    assert d.mean == pytest.approx(2.0, abs=0)
    # |rank differences| are (3, 1, 1, 3)
    assert d.p50 == 1.0 and d.p75 == 3.0 and d.p90 == 3.0


def test_displacement_symmetry_and_zero_iff_identical_ranking():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a, b = _random_vectors(rng, n=int(rng.integers(2, 12)))
        ab = rank_displacement(a, b)
        ba = rank_displacement(b, a)
        assert ab == ba
        identical = np.array_equal(
            average_rank(a, descending=True), average_rank(b, descending=True)
        )
        assert (ab.mean == 0.0) == identical


def test_displacement_percentiles_are_monotone_and_match_oracle():
    rng = np.random.default_rng(47)
    for _ in range(50):
        a, b = _random_vectors(rng, n=int(rng.integers(1, 13)))
        d = rank_displacement(a, b)
        n, mean, std, p50, p75, p90 = displacement_oracle(list(a), list(b))
        assert d.n == n
        assert d.mean == pytest.approx(mean, abs=1e-12)
        assert d.std == pytest.approx(std, abs=1e-12)
        assert (d.p50, d.p75, d.p90) == (p50, p75, p90)
        assert d.p50 <= d.p75 <= d.p90


def test_displacement_published_ratio_observation():
    # reported dentistry row: n=324 institutions with p90=108 -> 10% of the
    # institutions move by about a third of the list
    assert 108 / 324 == pytest.approx(1 / 3, abs=5e-3)


def test_displacement_rejects_length_mismatch():
    with pytest.raises(InputError):
        rank_displacement([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# batched oracle sweep (the acceptance-style cross-check, smaller here)
# ---------------------------------------------------------------------------


def test_statistics_match_oracles_on_random_inputs():
    rng = np.random.default_rng(53)
    for _ in range(60):
        x, y, z = _random_vectors(rng, n=int(rng.integers(4, 13)), count=3)
        try:
            r, _ = pearson(x, y)
            rho, _ = spearman(x, y)
            w = kendall_w([x, y])
            pr, _ = partial_correlation(x, y, z)
        except UndefinedStatisticError:
            continue
        assert r == pytest.approx(pearson_oracle(list(x), list(y)), abs=1e-12)
        assert rho == pytest.approx(spearman_oracle(list(x), list(y)), abs=1e-12)
        assert w == pytest.approx(kendall_w_oracle([list(x), list(y)]), abs=1e-12)
        assert pr == pytest.approx(partial_oracle(list(x), list(y), list(z)), abs=1e-12)


def test_compare_columns_bundles_everything():
    rng = np.random.default_rng(59)
    a = rng.uniform(0, 100, 10)
    b = rng.uniform(0, 100, 10)
    z = rng.uniform(0, 100, 10)
    report = compare_columns(a, b, {"size": z})
    assert report.pearson_r == pytest.approx(pearson(a, b)[0], abs=0)
    assert report.spearman_rho == pytest.approx(spearman(a, b)[0], abs=0)
    assert report.kendall_w == pytest.approx(kendall_w([a, b]), abs=0)
    assert report.partial["size"][0] == pytest.approx(partial_correlation(a, b, z)[0], abs=0)
    assert report.displacement == rank_displacement(a, b)
    payload = report.to_dict()
    assert set(payload) == {"pearson", "spearman", "kendall_w", "partial", "displacement"}


# ---------------------------------------------------------------------------
# PCA and varimax
# ---------------------------------------------------------------------------


def test_pca_identity_matrix():
    result = pca(np.eye(6), retain=2)
    assert np.allclose(result.eigenvalues, 1.0, atol=1e-12)
    assert np.allclose(result.explained_share, 1 / 6, atol=1e-12)


def test_pca_perfectly_correlated_pair():
    result = pca(np.array([[1.0, 1.0], [1.0, 1.0]]), retain=1)
    assert result.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)
    assert result.explained_share[0] == pytest.approx(1.0, abs=1e-12)


def test_pca_validates_input():
    with pytest.raises(InvalidCorrelationMatrixError):
        pca(np.array([[1.0, 0.5], [0.2, 1.0]]), retain=1)  # asymmetric
    with pytest.raises(InvalidCorrelationMatrixError):
        pca(np.array([[2.0, 0.0], [0.0, 1.0]]), retain=1)  # diagonal != 1
    with pytest.raises(InvalidCorrelationMatrixError):
        pca(np.array([[1.0, 1.5], [1.5, 1.0]]), retain=1)  # |entry| > 1
    with pytest.raises(InputError):
        pca(np.eye(3), retain=4)
    with pytest.raises(InputError):
        pca(np.eye(3), retain=0)


def test_pca_rejects_truly_indefinite_matrix():
    # valid-looking entries but eigenvalues include a clearly negative one
    c = np.array(
        [
            [1.0, 0.9, -0.9],
            [0.9, 1.0, 0.9],
            [-0.9, 0.9, 1.0],
        ]
    )
    with pytest.raises(InvalidCorrelationMatrixError, match="negative eigenvalue"):
        pca(c, retain=2)


def test_pca_eigenvalues_sum_to_dimension():
    rng = np.random.default_rng(61)
    for _ in range(10):
        data = rng.normal(size=(40, 5))
        corr = np.corrcoef(data, rowvar=False)
        result = pca(corr, retain=3)
        assert result.eigenvalues.sum() == pytest.approx(5.0, abs=1e-10)
        assert np.all(np.diff(result.eigenvalues) <= 1e-12)
        # unrotated loading columns are orthogonal
        gram = result.loadings.T @ result.loadings
        assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-10)


def test_pca_loadings_reproduce_correlations():
    # with all components retained, L L^T recovers the matrix exactly
    rng = np.random.default_rng(67)
    data = rng.normal(size=(60, 4))
    corr = np.corrcoef(data, rowvar=False)
    result = pca(corr, retain=4)
    assert np.allclose(result.loadings @ result.loadings.T, corr, atol=1e-10)


def test_varimax_preserves_communalities_and_total_variance():
    rng = np.random.default_rng(71)
    for _ in range(10):
        data = rng.normal(size=(50, 6))
        corr = np.corrcoef(data, rowvar=False)
        result = pca(corr, retain=2)
        pre = (result.loadings**2).sum(axis=1)
        post = (result.rotated_loadings**2).sum(axis=1)
        assert np.allclose(pre, post, atol=1e-8)
        assert (result.loadings**2).sum() == pytest.approx(
            (result.rotated_loadings**2).sum(), abs=1e-8
        )
        assert np.all(np.diff(result.rotated_variance_share) <= 1e-12)


def test_varimax_increases_loading_variance_criterion():
    def criterion(m):
        sq = m**2
        return float(np.sum(sq**2) - np.sum(sq.sum(axis=0) ** 2) / m.shape[0])

    rng = np.random.default_rng(73)
    data = rng.normal(size=(80, 6))
    corr = np.corrcoef(data, rowvar=False)
    result = pca(corr, retain=3)
    assert criterion(result.rotated_loadings) >= criterion(result.loadings) - 1e-12


def test_varimax_single_column_is_identity():
    col = np.array([[0.6], [0.8], [0.3]])
    assert np.array_equal(varimax(col), col)


def test_correlation_matrix_from_columns():
    rng = np.random.default_rng(79)
    cols = {"a": rng.normal(size=30), "b": rng.normal(size=30), "c": rng.normal(size=30)}
    corr, names = correlation_matrix(cols)
    assert names == ("a", "b", "c")
    assert np.allclose(np.diag(corr), 1.0, atol=1e-12)
    for i, j in ((0, 1), (0, 2), (1, 2)):  # one kernel: each entry is pearson()'s r, bit for bit
        assert corr[i, j] == corr[j, i] == pearson(cols[names[i]], cols[names[j]])[0]
    result = pca(corr, retain=2)
    assert result.eigenvalues.sum() == pytest.approx(3.0, abs=1e-10)


def test_correlation_matrix_rejects_constant_column():
    with pytest.raises(UndefinedStatisticError, match="zero-variance column 'a'"):
        correlation_matrix({"a": [1.0, 1.0, 1.0], "b": [1.0, 2.0, 3.0]})
    with pytest.raises(UndefinedStatisticError, match="zero-variance column 'c'"):
        correlation_matrix({"a": [1.0, 2.0, 4.0], "b": [1.0, 3.0, 2.0], "c": [0.7, 0.7, 0.7]})


# ---------------------------------------------------------------------------
# input checks shared by every statistic
# ---------------------------------------------------------------------------


_STATISTICS = {
    "pearson": lambda x, y, z: pearson(x, y),
    "spearman": lambda x, y, z: spearman(x, y),
    "partial_correlation": partial_correlation,
    "kendall_w": lambda x, y, z: kendall_w([x, y, z]),
    "rank_displacement": lambda x, y, z: rank_displacement(x, y),
    "correlation_matrix": lambda x, y, z: correlation_matrix({"x": x, "y": y, "z": z}),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(_STATISTICS))
def test_non_finite_input_is_rejected(name, position, bad):
    vectors = [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 6.0], [5.0, 3.0, 4.0, 1.0, 2.0]]
    vectors[position][2] = bad
    with pytest.raises(InputError, match="finite"):
        _STATISTICS[name](*vectors)


def test_partial_correlation_rejects_a_non_finite_control():
    with pytest.raises(InputError, match="finite"):
        partial_correlation([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0], [1.0, math.nan, 2.0, 3.0])


def test_correlation_matrix_rejects_columns_of_different_lengths():
    with pytest.raises(InputError, match="equal length"):
        correlation_matrix({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 4.0, 3.0]})


@pytest.mark.parametrize("exponent", [600, -600])
def test_results_are_bit_identical_under_power_of_two_rescaling(exponent):
    rng = np.random.default_rng(83)
    for _ in range(40):
        a, b, z = _random_vectors(rng, n=int(rng.integers(4, 13)), count=3)
        try:
            report = compare_columns(a, b, {"z": z})
            matrix, _ = correlation_matrix({"a": a, "b": b, "z": z})
        except UndefinedStatisticError:
            continue
        a, b, z = (np.ldexp(v, exponent) for v in (a, b, z))
        assert compare_columns(a, b, {"z": z}) == report
        assert np.array_equal(correlation_matrix({"a": a, "b": b, "z": z})[0], matrix)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_pearson_of_a_vector_with_itself_is_one_at_extreme_magnitudes(scale):
    x = np.array([1.0, 2.0, 3.0, 4.0]) * scale
    assert pearson(x, x) == (1.0, 0.0)
