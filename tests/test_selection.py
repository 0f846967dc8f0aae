import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from eegsweep.features import FeatureMatrix, build_feature_matrix
from eegsweep.selection import (bartlett, dagostino_pearson, levene,
                                select_features, t_test)


def matrix_from_values(values, labels):
    values = np.asarray(values, float)
    return FeatureMatrix(
        column_names=["c%d" % i for i in range(values.shape[1])],
        values=values, labels=np.asarray(labels, int),
        subject_ids=["s%d" % i for i in range(values.shape[0])])


# ---------------------------------------------------------------------------
# individual tests against the scipy reference

def test_dagostino_matches_scipy():
    rng = np.random.default_rng(0)
    for draw in (rng.standard_normal(61), rng.exponential(1.0, 61),
                 rng.uniform(0, 1, 45), rng.standard_t(3, 100)):
        k2, p, _ = dagostino_pearson(draw)
        k2_ref, p_ref = scipy_stats.normaltest(draw)
        assert k2 == pytest.approx(k2_ref, rel=1e-10)
        assert p == pytest.approx(p_ref, rel=1e-10)


def test_dagostino_monte_carlo_calibration():
    normal_hits = 0
    expo_rejects = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        _, _, is_norm = dagostino_pearson(rng.standard_normal(61))
        normal_hits += is_norm
        _, _, is_norm2 = dagostino_pearson(rng.exponential(1.0, 61))
        expo_rejects += not is_norm2
    assert normal_hits >= 90
    assert expo_rejects >= 95


def test_dagostino_small_sample_errors():
    with pytest.raises(ValueError, match="too small"):
        dagostino_pearson(np.arange(19.0))


def test_dagostino_constant_sample():
    _, p, normal = dagostino_pearson(np.full(30, 2.0))
    assert p == 0.0 and not normal


def test_bartlett_levene_match_scipy():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(61)
    b = rng.standard_normal(60) * 3.0
    stat, p = bartlett(a, b)
    stat_ref, p_ref = scipy_stats.bartlett(a, b)
    assert stat == pytest.approx(stat_ref, rel=1e-10)
    assert p == pytest.approx(p_ref, rel=1e-10)
    stat, p = levene(a, b)
    stat_ref, p_ref = scipy_stats.levene(a, b, center="mean")
    assert stat == pytest.approx(stat_ref, rel=1e-10)
    assert p == pytest.approx(p_ref, rel=1e-10)


def test_bartlett_identical_samples():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    stat, p = bartlett(a, a.copy())
    assert stat == 0.0 and p == 1.0


def test_variance_tests_reject_unequal_variance():
    rejects_b = rejects_l = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        a = rng.standard_normal(61)
        b = rng.standard_normal(60) * 3.0
        rejects_b += bartlett(a, b)[1] < 0.05
        rejects_l += levene(a, b)[1] < 0.05
    assert rejects_b >= 95
    assert rejects_l >= 95


def test_levene_shift_invariance():
    stat, p = levene([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert stat == 0.0 and p == 1.0


def test_t_test_identical():
    a = np.arange(10.0)
    t, df, p = t_test(a, a.copy())
    assert t == 0.0 and p == 1.0


def test_t_test_frozen_hand_value():
    # pooled sd = sqrt(2.5), se = sqrt(2.5 * (1/5 + 1/5)) = 1.0
    t, df, p = t_test([1, 2, 3, 4, 5], [3, 4, 5, 6, 7], variant="Student")
    assert t == pytest.approx(-2.0, abs=1e-12)
    assert df == 8
    assert p == pytest.approx(0.0805, abs=0.0005)
    t_ref, p_ref = scipy_stats.ttest_ind([1, 2, 3, 4, 5], [3, 4, 5, 6, 7])
    assert t == pytest.approx(t_ref) and p == pytest.approx(p_ref)


def test_t_test_swap_negates():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30)
    b = rng.standard_normal(25) + 0.5
    t1, _, p1 = t_test(a, b, "Welch")
    t2, _, p2 = t_test(b, a, "Welch")
    assert t1 == pytest.approx(-t2)
    assert p1 == pytest.approx(p2)


def test_welch_matches_scipy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(61)
    b = rng.standard_normal(60) * 2 + 0.3
    t, df, p = t_test(a, b, "Welch")
    t_ref, p_ref = scipy_stats.ttest_ind(a, b, equal_var=False)
    assert t == pytest.approx(t_ref, rel=1e-10)
    assert p == pytest.approx(p_ref, rel=1e-10)


# ---------------------------------------------------------------------------
# cascade

def test_null_calibration_kept_fraction():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((121, 1000))
    labels = np.array([1] * 61 + [0] * 60)
    kept, report = select_features(matrix_from_values(values, labels))
    frac = kept.n_columns / 1000.0
    assert 0.02 <= frac <= 0.09
    assert [r.column for r in report.rows if r.selected] \
        == kept.column_names


def test_report_route_consistency():
    rng = np.random.default_rng(5)
    values = np.column_stack([
        rng.standard_normal(121),                      # both normal
        rng.exponential(1.0, 121),                     # non-normal
        np.r_[rng.standard_normal(61) * 3,
              rng.standard_normal(60) * 0.5],          # heteroscedastic
        np.r_[rng.exponential(1.0, 61) * 5,
              rng.standard_normal(60) * 0.1],          # non-normal + hetero
    ])
    labels = np.array([1] * 61 + [0] * 60)
    _, report = select_features(matrix_from_values(values, labels))
    alpha = report.alpha
    for row in report.rows:
        if row.mean_test == "Indeterminate":
            assert not row.selected
            assert math.isnan(row.p_value) or row.p_value >= 0.0
        else:
            assert row.selected == (row.p_value < alpha)
        if row.variance_test == "Bartlett":
            assert row.normal_adhd and row.normal_td
        if row.variance_test == "Levene":
            assert not (row.normal_adhd and row.normal_td)
        if row.mean_test == "Welch":
            assert row.normal_adhd and row.normal_td
            assert not row.homoscedastic
        if row.mean_test == "Student":
            assert row.homoscedastic
        if row.mean_test == "Indeterminate" and row.variance_test == "Levene":
            assert not row.homoscedastic


def test_indeterminate_route_dropped():
    rng = np.random.default_rng(7)
    # grossly non-normal and grossly heteroscedastic, different means
    col = np.r_[rng.exponential(1.0, 61) * 10, rng.uniform(0, 0.1, 60)]
    kept, report = select_features(
        matrix_from_values(col[:, None], np.array([1] * 61 + [0] * 60)))
    assert report.rows[0].mean_test == "Indeterminate"
    assert kept.n_columns == 0


def test_constant_columns_all_indeterminate():
    values = np.ones((121, 5))
    labels = np.array([1] * 61 + [0] * 60)
    kept, report = select_features(matrix_from_values(values, labels))
    assert kept.n_columns == 0
    assert all(r.mean_test == "Indeterminate" for r in report.rows)


def test_column_order_preserved():
    rng = np.random.default_rng(9)
    labels = np.array([1] * 61 + [0] * 60)
    effect = np.r_[rng.standard_normal(61) + 2.0, rng.standard_normal(60)]
    values = np.column_stack([
        effect + rng.standard_normal(121) * 0.1,
        rng.standard_normal(121),
        effect * 2,
        rng.standard_normal(121),
        effect * -1,
    ])
    kept, _ = select_features(matrix_from_values(values, labels))
    assert kept.column_names == ["c0", "c2", "c4"]


def test_small_groups_error():
    values = np.random.default_rng(0).standard_normal((30, 3))
    labels = np.array([1] * 15 + [0] * 15)
    with pytest.raises(ValueError, match="validity floor"):
        select_features(matrix_from_values(values, labels))


def test_theta_effect_selects_p3_pow_theta(theta_cohort):
    cohort, _ = theta_cohort
    matrix = build_feature_matrix(cohort, ["P3"])
    kept, report = select_features(matrix)
    assert "P3:pow_theta" in kept.column_names


def test_report_csv(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((121, 4))
    labels = np.array([1] * 61 + [0] * 60)
    _, report = select_features(matrix_from_values(values, labels))
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("column,normal_adhd")
