import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from conftest import raw_feature_matrix
from eegsweep import selection
from eegsweep.features import FeatureMatrix
from eegsweep.selection import (bartlett, dagostino_pearson, levene,
                                select_features, select_indices, t_test)


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
# p-values from scipy.special, byte for byte the scipy.stats forms

def same_bytes(x, y):
    """Equal as float64 bytes; any two NaNs count as equal."""
    if math.isnan(x) and math.isnan(y):
        return True
    return struct.pack("<d", x) == struct.pack("<d", y)


def oracle_p(test, result, n=None):
    """The p-value scipy.stats gives for the statistic a test returned."""
    if test == "dagostino":
        return float(scipy_stats.chi2.sf(result[0], 2))
    if test == "bartlett":
        return float(scipy_stats.chi2.sf(result[0], 1))
    if test == "levene":
        return float(scipy_stats.f.sf(result[0], 1, n - 2))
    t, df, _ = result
    return min(2.0 * float(scipy_stats.t.sf(abs(t), df)), 1.0)


def variance_matched(a, rng):
    """A group of another size whose variance equals a's up to rounding,
    so that Bartlett's statistic lands on either side of 0."""
    z = rng.standard_normal(int(rng.integers(20, 81)))
    return (z - z.mean()) / z.std(ddof=1) * a.std(ddof=1) + a.mean()


GROUP_KINDS = ("normal", "rounded", "runs", "heavy", "constant")


def group(kind, n, scale, rng):
    if kind == "normal":
        x = rng.standard_normal(n)
    elif kind == "rounded":                       # many ties
        x = np.round(rng.standard_normal(n) * 2.0)
    elif kind == "runs":                          # constant runs
        x = np.repeat(rng.standard_normal(n // 5 + 1), 5)[:n]
    elif kind == "heavy":
        x = rng.standard_t(3, n)
    else:
        x = np.full(n, 0.7)
    return x * scale + rng.standard_normal() * scale


@st.composite
def group_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    a = group(draw(st.sampled_from(GROUP_KINDS)), draw(st.integers(20, 80)),
              scale, rng)
    b = group(draw(st.sampled_from(GROUP_KINDS)), draw(st.integers(20, 80)),
              scale * draw(st.sampled_from([1.0, 1.5, 0.25])), rng)
    return a, b, variance_matched(a, rng)


@settings(max_examples=60, deadline=None)
@given(group_pairs())
def test_p_values_match_scipy_stats(groups):
    a, b, matched = groups
    with np.errstate(all="ignore"):
        for x in (a, b):
            result = dagostino_pearson(x)
            assert same_bytes(result[1], oracle_p("dagostino", result))
        for other in (b, matched):
            result = bartlett(a, other)
            assert same_bytes(result[1], oracle_p("bartlett", result))
            result = levene(a, other)
            assert same_bytes(result[1], oracle_p("levene", result,
                                                  a.size + other.size))
            for variant in ("Student", "Welch"):
                result = t_test(a, other, variant)
                assert same_bytes(result[2], oracle_p("t", result))


@pytest.mark.parametrize("stat", [-1e-17, -0.0, 0.0, 3.7, math.inf, math.nan])
def test_p_value_edges_match_scipy_stats(stat):
    # below the support (x <= 0) scipy.stats answers 1.0, where chdtrc
    # and fdtrc alone give NaN for x < 0
    for df in (1, 2):
        assert same_bytes(selection._chi2_sf(stat, df),
                          float(scipy_stats.chi2.sf(stat, df)))
    for dfd in (38, 119):
        assert same_bytes(selection._f_sf(stat, 1, dfd),
                          float(scipy_stats.f.sf(stat, 1, dfd)))
    for df in (38, 47.318, math.inf):
        assert same_bytes(selection._t_sf(stat, df),
                          float(scipy_stats.t.sf(stat, df)))


def test_negative_bartlett_statistic_gives_p_one():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(21)
    for _ in range(200):
        stat, p = bartlett(a, variance_matched(a, rng))
        if stat < 0.0:
            break
    assert stat < 0.0
    assert p == 1.0 == float(scipy_stats.chi2.sf(stat, 1))


def test_welch_p_value_at_a_fractional_df():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(41)
    b = rng.standard_normal(23) * 2.5 + 0.4
    result = t_test(a, b, "Welch")
    assert result[1] != round(result[1])
    assert same_bytes(result[2], oracle_p("t", result))


# ---------------------------------------------------------------------------
# columns far from unit scale

@pytest.mark.parametrize("shift", [-500, -300, -270, 260, 300, 480])
def test_normality_and_welch_are_exact_at_any_power_of_two(shift):
    # the direct form squares m2 or a variance of the mean out of the float
    # range from about 1e-77 and 1e77; power-of-two scaling is exact
    rng = np.random.default_rng(shift & 0xFFFF)
    a = rng.standard_normal(21)
    b = rng.standard_normal(30) * 1.7 + 0.3
    a2, b2 = np.ldexp(a, shift), np.ldexp(b, shift)
    assert dagostino_pearson(a2) == dagostino_pearson(a)
    assert t_test(a2, b2, "Welch")[1:] == t_test(a, b, "Welch")[1:]
    assert t_test(a2, b2, "Student")[1:] == t_test(a, b, "Student")[1:]


def test_column_of_tiny_values_runs_the_cascade():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(21) * 1e-90
    b = rng.standard_normal(21) * 1e-90
    k2, p, _ = dagostino_pearson(a)
    ref_k2, ref_p, _ = dagostino_pearson(a * 1e90)
    assert k2 == pytest.approx(ref_k2, rel=1e-9)
    assert p == pytest.approx(ref_p, rel=1e-9)
    _, df, p = t_test(a, b, "Welch")
    _, ref_df, ref_p = t_test(a * 1e90, b * 1e90, "Welch")
    assert df == pytest.approx(ref_df, rel=1e-9)
    assert p == pytest.approx(ref_p, rel=1e-9)
    _, report = select_features(matrix_from_values(
        np.column_stack([np.r_[a, b], np.r_[a, b] * 1e90]),
        [1] * 21 + [0] * 21))
    tiny, unit = report.rows
    assert (tiny.normal_adhd, tiny.normal_td, tiny.variance_test,
            tiny.mean_test, tiny.selected) == (
        unit.normal_adhd, unit.normal_td, unit.variance_test,
        unit.mean_test, unit.selected)
    assert tiny.p_value == pytest.approx(unit.p_value, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-77, 1e-78, 1e-79, 1e-80, 1e-81, 1e80])
def test_normality_and_welch_keep_their_precision_near_the_subnormals(scale):
    # around 1e-79 the squared second moments are subnormal, not 0: the
    # direct form raises no error there but loses bits
    rng = np.random.default_rng(0)
    a = rng.standard_normal(30)
    b = rng.standard_normal(25) + 0.3
    close = dict(rel=1e-12, abs=0.0)
    assert dagostino_pearson(a * scale)[0] == pytest.approx(
        dagostino_pearson(a)[0], **close)
    _, df, p = t_test(a * scale, b * scale, "Welch")
    _, ref_df, ref_p = t_test(a, b, "Welch")
    assert df == pytest.approx(ref_df, **close)
    assert p == pytest.approx(ref_p, **close)


@pytest.mark.parametrize("scale", [1e-160, 1e77, 1e154, 1e300])
def test_every_test_keeps_its_precision_at_extreme_scales(scale):
    # each squares a moment out of the normal floats here: subnormal
    # variances at 1e-160, an overflowing fourth moment at 1e77, and
    # overflowing variances from about 1e154
    rng = np.random.default_rng(0)
    a = rng.standard_normal(30)
    b = rng.standard_normal(25) * 1.6 + 0.3
    close = dict(rel=1e-12, abs=0.0)
    for test, groups in ((dagostino_pearson, (a,)), (dagostino_pearson, (b,)),
                         (bartlett, (a, b)), (levene, (a, b)),
                         (lambda a, b: t_test(a, b, "Student"), (a, b)),
                         (lambda a, b: t_test(a, b, "Welch"), (a, b))):
        got = test(*(g * scale for g in groups))
        want = test(*groups)
        assert list(got[:3]) == pytest.approx(list(want[:3]), **close)


def test_a_sample_whose_sum_overflows_is_taken_once():
    # no scaling mends moments about an infinite mean: the direct form
    # answers, where rescaling until the moments fit would never end
    rng = np.random.default_rng(0)
    rng.standard_normal(30)
    b = rng.standard_normal(25) * 1.6 + 0.3
    assert np.sum(b * 1e307) == math.inf
    k2, p, normal = dagostino_pearson(b * 1e307)
    assert math.isnan(k2) and math.isnan(p) and not normal


def test_every_test_answers_nan_where_both_sums_overflow():
    # both variances are infinite there, so no test can compare them;
    # two equal infinities must not read as equal variances
    rng = np.random.default_rng(0)
    a = (rng.standard_normal(30) + 5.0) * 1e307
    b = (rng.standard_normal(25) + 5.3) * 1e307
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.sum(a) == np.sum(b) == math.inf
        for got in (bartlett(a, b), levene(a, b), t_test(a, b, "Student"),
                    t_test(a, b, "Welch")):
            assert math.isnan(got[0]) and math.isnan(got[-1])


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
    """Whole-cohort and in-fold selection refuse small groups alike; the
    in-fold one failed in D'Agostino's own n < 20 check instead."""
    values = np.random.default_rng(0).standard_normal((30, 3))
    labels = np.array([1] * 15 + [0] * 15)
    floor = "^groups of 15/15 are below the n=20 validity floor"
    with pytest.raises(ValueError, match=floor):
        select_features(matrix_from_values(values, labels))
    with pytest.raises(ValueError, match=floor):
        select_indices(values, labels)


def test_theta_effect_selects_p3_pow_theta(theta_cohort):
    cohort, _ = theta_cohort
    matrix = raw_feature_matrix(cohort, ["P3"])
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
