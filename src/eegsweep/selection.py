"""Inference-based feature selection.

For every feature column the two diagnosis groups are compared with the
cascade: D'Agostino-Pearson normality on both groups, then Bartlett
(both normal) or Levene (otherwise) for homoscedasticity, then Student's
t (homoscedastic) or Welch's t (heteroscedastic + both normal). The
non-normal + heteroscedastic combination is indeterminate and the column
is dropped. A column is kept iff its mean-test p-value is below alpha.

The p-values come from scipy.special, which is what scipy.stats' chi2, f
and t survival functions call; importing scipy.stats itself would cost
every command about 34 MB and half a second.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
# At module level on purpose: a lazy import on the first p-value was
# measured to move about 0.3 s of import into paper-mix's first timed
# round (specs_per_s 4% lower in the median, 3 of 10 pairs won).
from scipy import special as _special


@dataclass(frozen=True)
class SelectionConfig:
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass
class SelectionRow:
    """Route taken and outcome for one column; defaults: not tested."""

    column: str
    normal_adhd: bool = False
    normal_td: bool = False
    variance_test: str = "none"       # or "Bartlett" | "Levene"
    variance_p: float = math.nan
    homoscedastic: bool = False
    mean_test: str = "Indeterminate"  # or "Student" | "Welch"
    p_value: float = math.nan         # NaN when indeterminate
    selected: bool = False


@dataclass
class SelectionReport:
    rows: list
    alpha: float

    @property
    def kept(self):
        """Indices of the selected columns, in column order."""
        return [j for j, row in enumerate(self.rows) if row.selected]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("column,normal_adhd,normal_td,variance_test,"
                     "variance_p,homoscedastic,mean_test,p_value,selected\n")
            for r in self.rows:
                fh.write("%s,%d,%d,%s,%.10g,%d,%s,%.10g,%d\n" % (
                    r.column, r.normal_adhd, r.normal_td, r.variance_test,
                    r.variance_p, r.homoscedastic, r.mean_test,
                    r.p_value, r.selected))


# ---------------------------------------------------------------------------
# p-values, as scipy.stats' rv_continuous.sf gives them: 1.0 at or below
# the support's lower end (where chdtrc and fdtrc return NaN for x < 0, and
# a Bartlett statistic can round to -1e-17), NaN for NaN

def _chi2_sf(x, df):
    return 1.0 if x <= 0.0 else float(_special.chdtrc(df, x))


def _f_sf(x, dfn, dfd):
    return 1.0 if x <= 0.0 else float(_special.fdtrc(dfn, dfd, x))


def _t_sf(x, df):
    return float(_special.stdtr(df, -x))


# Each test is scale-invariant, but its direct form squares moments of
# the samples. Where a nonzero one squares below the normal floats or
# overflows (a spread below about 1e-77 or above 1e77), the test takes its
# moments once more, and only once, on the `_unit_scaled` samples; a
# sample whose mean overflows (about 1e307) keeps the direct form. Below
# about 1e-162 a variance underflows to 0: the cascade reads a constant.

def _unit_scaled(*samples):
    """The samples times the one power of two (exact) that brings their
    largest deviation from its own mean into [0.5, 1)."""
    top = max(float(np.max(np.abs(s - s.mean()))) for s in samples)
    shift = -math.frexp(top)[1]
    return [np.ldexp(s, shift) for s in samples]


def _squares_out_of_range(*values):
    """Whether the square of a nonzero value falls below the normal floats
    or overflows. A zero or a NaN is in range: no scaling mends it."""
    for v in values:
        square = v * v
        if v != 0.0 and (square < sys.float_info.min or square == math.inf):
            return True
    return False


def _variances(a, b):
    """a, b and their variances (ddof=1), taken once more on the
    `_unit_scaled` samples where va, vb or va/na + vb/nb squares out of
    range."""
    va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    if _squares_out_of_range(va, vb, va / a.size + vb / b.size):
        a, b = _unit_scaled(a, b)
        va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    return a, b, va, vb


# ---------------------------------------------------------------------------
# the individual tests

def _skew_kurtosis(x):
    """Sample skewness g1 and excess kurtosis g2; None for a constant
    sample. Its moments are taken once more on the `_unit_scaled` sample
    where m2 or the root of m4 squares out of range."""
    xm = x - x.mean()
    m2 = float(np.mean(xm ** 2))
    if m2 == 0.0:
        return None
    m4 = float(np.mean(xm ** 4))
    if _squares_out_of_range(m2, math.sqrt(m4)):
        [x] = _unit_scaled(x)
        xm = x - x.mean()
        m2, m4 = float(np.mean(xm ** 2)), float(np.mean(xm ** 4))
    return float(np.mean(xm ** 3)) / m2 ** 1.5, m4 / m2 ** 2 - 3.0


def dagostino_pearson(sample, alpha=0.05):
    """Omnibus normality test combining skew and kurtosis.

    K^2 = Z(g1)^2 + Z(g2)^2 with the standard normalizing transforms;
    the p-value comes from chi-square with 2 degrees of freedom. Requires
    n >= 20. A zero-variance sample reports non-normal with p = 0.
    """
    x = np.asarray(sample, dtype=np.float64)
    n = x.size
    if n < 20:
        raise ValueError(
            "sample too small for omnibus normality test (n=%d < 20)" % n)
    moments = _skew_kurtosis(x)
    if moments is None:
        return math.inf, 0.0, False
    g1, g2 = moments

    # D'Agostino (1970) skewness transform
    y = g1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n ** 2 + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2) * (n + 5) * (n + 7) * (n + 9)))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha_s = math.sqrt(2.0 / (w2 - 1.0))
    y = y / alpha_s
    z1 = delta * math.log(y + math.sqrt(y * y + 1.0))

    # Anscombe & Glynn (1983) kurtosis transform
    e = 3.0 * (n - 1) / (n + 1)
    var = (24.0 * n * (n - 2) * (n - 3)) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    xk = (g2 + 3.0 - e) / math.sqrt(var)
    sqrt_b1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
               * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6.0 + 8.0 / sqrt_b1 * (2.0 / sqrt_b1
                               + math.sqrt(1.0 + 4.0 / sqrt_b1 ** 2))
    term = (1.0 - 2.0 / a) / (1.0 + xk * math.sqrt(2.0 / (a - 4.0)))
    z2 = ((1.0 - 2.0 / (9.0 * a)) - np.sign(term) * abs(term) ** (1.0 / 3.0)) \
        / math.sqrt(2.0 / (9.0 * a))

    k2 = z1 * z1 + z2 * z2
    p = _chi2_sf(k2, 2)
    return k2, p, p >= alpha


def bartlett(a, b):
    """Bartlett's homoscedasticity test for two groups (chi-square, df=1);
    NaN, NaN where a variance is not finite, as levene and t_test give."""
    a, b, va, vb = _variances(np.asarray(a, dtype=np.float64),
                              np.asarray(b, dtype=np.float64))
    na, nb = a.size, b.size
    if not (math.isfinite(va) and math.isfinite(vb)):
        return math.nan, math.nan
    if va == vb:
        return 0.0, 1.0
    if va == 0.0 or vb == 0.0:
        return math.inf, 0.0
    n = na + nb
    sp2 = ((na - 1) * va + (nb - 1) * vb) / (n - 2)
    stat = ((n - 2) * math.log(sp2)
            - (na - 1) * math.log(va) - (nb - 1) * math.log(vb))
    corr = 1.0 + (1.0 / (na - 1) + 1.0 / (nb - 1) - 1.0 / (n - 2)) / 3.0
    stat /= corr
    return stat, _chi2_sf(stat, 1)


def levene(a, b):
    """Levene's homoscedasticity test (one-way ANOVA on |deviations| from
    the group means)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.size, b.size
    n = na + nb
    za, zb, zbar, den = _abs_deviations(a, b)
    if _squares_out_of_range(zbar, den):
        za, zb, zbar, den = _abs_deviations(*_unit_scaled(a, b))
    num = na * (za.mean() - zbar) ** 2 + nb * (zb.mean() - zbar) ** 2
    if den == 0.0:
        if num == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    stat = (n - 2) * num / den
    return float(stat), _f_sf(stat, 1, n - 2)


def _abs_deviations(a, b):
    """Levene's |deviations| from each group's mean, their grand mean zbar,
    and den, the sum of their squared deviations from their group means."""
    za = np.abs(a - np.mean(a))
    zb = np.abs(b - np.mean(b))
    zbar = (za.sum() + zb.sum()) / (a.size + b.size)
    den = float(np.sum((za - za.mean()) ** 2) + np.sum((zb - zb.mean()) ** 2))
    return za, zb, zbar, den


def t_test(a, b, variant="Student"):
    """Two-sided two-sample t-test; variant is "Student" or "Welch".

    Identical groups give t = 0, p = 1. When the standard error is zero
    and the means differ the test reports p = 0.
    """
    if variant not in ("Student", "Welch"):
        raise ValueError("variant must be 'Student' or 'Welch'")
    a, b, va, vb = _variances(np.asarray(a, dtype=np.float64),
                              np.asarray(b, dtype=np.float64))
    na, nb = a.size, b.size
    diff = float(a.mean() - b.mean())
    df = na + nb - 2
    if variant == "Student":
        sp2 = ((na - 1) * va + (nb - 1) * vb) / df
        se = math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    else:
        va_n = va / na
        vb_n = vb / nb
        se = math.sqrt(va_n + vb_n)
        if se > 0.0:  # Welch-Satterthwaite
            df = (va_n + vb_n) ** 2 / (va_n ** 2 / (na - 1)
                                       + vb_n ** 2 / (nb - 1))
    if se == 0.0:
        if diff == 0.0:
            return 0.0, float(df), 1.0
        return math.copysign(math.inf, diff), float(df), 0.0
    t = diff / se
    p = 2.0 * _t_sf(abs(t), df)
    return t, float(df), min(p, 1.0)


# ---------------------------------------------------------------------------
# the cascade

def _route_column(column, a, b, cfg):
    """Run the test cascade for one column; a constant group is not
    tested."""
    row = SelectionRow(column)
    if float(np.var(a)) == 0.0 or float(np.var(b)) == 0.0:
        return row
    _, _, row.normal_adhd = dagostino_pearson(a, cfg.alpha)
    _, _, row.normal_td = dagostino_pearson(b, cfg.alpha)
    normal = row.normal_adhd and row.normal_td
    row.variance_test = "Bartlett" if normal else "Levene"
    _, row.variance_p = (bartlett if normal else levene)(a, b)
    row.homoscedastic = row.variance_p >= cfg.alpha
    if not (row.homoscedastic or normal):
        return row  # indeterminate
    row.mean_test = "Student" if row.homoscedastic else "Welch"
    _, _, row.p_value = t_test(a, b, variant=row.mean_test)
    row.selected = row.p_value < cfg.alpha
    return row


def _select(columns, values, labels, cfg):
    """The cascade's report on every column of a subjects x columns array,
    named by `columns`; ValueError where a group is below the normality
    test's n=20 floor."""
    mask_a = labels == 1
    mask_b = labels == 0
    n_a, n_b = int(np.sum(mask_a)), int(np.sum(mask_b))
    if n_a < 20 or n_b < 20:
        raise ValueError(
            "groups of %d/%d are below the n=20 validity floor of the "
            "normality test" % (n_a, n_b))
    return SelectionReport(
        rows=[_route_column(name, col[mask_a], col[mask_b], cfg)
              for name, col in zip(columns, values.T)], alpha=cfg.alpha)


def select_features(matrix, cfg=SelectionConfig()):
    """Apply the cascade to every column of a feature matrix.

    Returns (matrix restricted to the kept columns, SelectionReport).
    Column order is preserved; the label column is always retained by
    construction (labels live outside the value block).
    """
    report = _select(matrix.column_names, matrix.values, matrix.labels, cfg)
    return matrix.select_columns(report.kept), report


def select_indices(values, labels):
    """Cascade at the default alpha on a raw array; returns kept column
    indices.

    Used for in-fold selection where only training rows may be seen.
    """
    return _select(map(str, range(values.shape[1])), values, labels,
                   SelectionConfig()).kept
