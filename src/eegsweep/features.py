"""Per-channel feature extraction: the 53-feature vector and design matrices.

Every feature is computed from a single channel's samples. Degenerate
inputs (constant signals) yield documented finite sentinels instead of
NaN so downstream classifiers always see finite matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dwt
from .data_model import MIN_DURATION_S, check_pair, read_csv_matrix

#: Canonical feature order. Column names in matrices are "<CH>:<feature>".
FEATURE_NAMES = (
    # simple statistics
    "mean", "variance", "std", "ptp_amp", "skewness", "kurtosis", "rms",
    "quantile_75",
    # time-domain complexity
    "hurst_exp", "app_entropy", "decorr_time_s", "hjorth_mobility",
    "hjorth_complexity", "higuchi_fd", "katz_fd", "zero_crossings",
    "line_length",
    # relative spectral power
    "pow_delta", "pow_theta", "pow_alpha", "pow_beta",
    # spectral Hjorth
    "hjorth_mobility_spect", "hjorth_complexity_spect",
    # log-log PSD fit
    "psd_fit_intercept", "psd_fit_slope", "psd_fit_mse", "psd_fit_r2",
    "spect_entropy",
    # absolute band energies
    "energy_delta", "energy_theta", "energy_alpha", "energy_beta",
    "spect_edge_freq_95",
    # Daubechies-4 detail energies
    "wavelet_energy_d1", "wavelet_energy_d2", "wavelet_energy_d3",
    "wavelet_energy_d4", "wavelet_energy_d5", "wavelet_energy_d6",
    # Teager-Kaiser statistics on each wavelet subband
    "tkeo_d1_mean", "tkeo_d1_std", "tkeo_d2_mean", "tkeo_d2_std",
    "tkeo_d3_mean", "tkeo_d3_std", "tkeo_d4_mean", "tkeo_d4_std",
    "tkeo_d5_mean", "tkeo_d5_std", "tkeo_d6_mean", "tkeo_d6_std",
    "tkeo_a6_mean", "tkeo_a6_std",
)

N_FEATURES = len(FEATURE_NAMES)

#: EEG band edges in Hz, half-open [lo, hi).
BANDS = (("delta", 0.5, 4.0), ("theta", 4.0, 8.0),
         ("alpha", 8.0, 13.0), ("beta", 13.0, 30.0))


@dataclass(frozen=True)
class FeatureParams:
    """Extraction knobs the underlying study left unspecified.

    All defaults are field-standard choices; change them through config,
    not by editing call sites.
    """

    quantile: float = 0.75
    welch_nperseg: int = 256
    welch_overlap: float = 0.5
    total_band: tuple = (0.5, 40.0)
    psd_fit_range: tuple = (1.0, 40.0)
    sef_edge: float = 0.95
    app_entropy_m: int = 2
    app_entropy_r: float = 0.2
    higuchi_kmax: int = 10
    hurst_min_window: int = 10
    energy_transition_hz: float = 2.0

    def __post_init__(self):
        if not isinstance(self.app_entropy_m, int) or self.app_entropy_m < 1:
            raise ValueError("app_entropy_m must be an int >= 1")
        if not self.app_entropy_r > 0.0:
            raise ValueError("app_entropy_r must be > 0")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.welch_nperseg >= 1:
            raise ValueError("welch_nperseg must be >= 1")
        if not isinstance(self.higuchi_kmax, int) or self.higuchi_kmax < 2:
            raise ValueError("higuchi_kmax must be an int >= 2")
        if not self.hurst_min_window >= 2:
            raise ValueError("hurst_min_window must be >= 2")
        if not self.energy_transition_hz > 0.0:
            raise ValueError("energy_transition_hz must be > 0")
        check_pair("total_band", self.total_band)
        check_pair("psd_fit_range", self.psd_fit_range, above=0.0)


DEFAULT_PARAMS = FeatureParams()


# ---------------------------------------------------------------------------
# stacks
#
# Every feature group takes the C-contiguous float64 (rows, samples) stack
# that extract_channel builds, or the (rows, bins) PSD computed from it,
# works along the last axis and returns per-row arrays. Each row gets the
# bytes it gets in a stack of its own:
# - reductions are numpy's own (sum, np.mean, np.var, np.std) along the
#   last axis of C-contiguous arrays, so a row's pairwise sums do not
#   depend on its neighbours (np.compress picks columns, since p[:, mask]
#   is laid out column-major); the moments group centres each stack once
#   for the variance, skewness and kurtosis;
# - per-row scalar math stays in Python floats where it is `math.*` or
#   `**`, since numpy's SIMD log, exp and power can differ in the last bit;
# - a boolean selection of each row's entries is reduced per group of rows
#   that select the same entries (_by_mask), each group as one stack.

def _by_mask(mask):
    """(mask row, row indices) for each distinct row of a (rows, n) boolean
    mask, in order of first appearance; the rows of a group are reduced
    together, on np.compress(mask row, x[rows], axis=-1)."""
    groups = {}
    for r, key in enumerate(map(bytes, np.packbits(mask, axis=-1))):
        groups.setdefault(key, []).append(r)
    return [(mask[rows[0]], np.array(rows)) for rows in groups.values()]


# ---------------------------------------------------------------------------
# spectral estimation

def welch_psd(signal, fs, nperseg=DEFAULT_PARAMS.welch_nperseg,
              overlap=DEFAULT_PARAMS.welch_overlap):
    """Welch power spectral density (one-sided, density scaling).

    Hamming-windowed segments with the given fractional overlap, each
    detrended by its mean. Returns (freqs, psd) with freqs spanning
    [0, fs/2] and sum(psd) * df close to the time-domain variance for
    stationary signals; psd has one row per row of the stack. The
    segments of every row go through one rfft and are added in start order.
    """
    nperseg = int(min(nperseg, signal.shape[1]))
    step = max(1, nperseg - int(math.floor(nperseg * overlap)))
    win = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    scale = 1.0 / (fs * np.sum(win ** 2))
    frames = np.lib.stride_tricks.sliding_window_view(
        signal, nperseg, axis=-1)[:, ::step].reshape(-1, nperseg)
    frames = frames - np.mean(frames, axis=-1)[:, None]
    spec = np.fft.rfft(win * frames, axis=-1)
    p = ((spec.real ** 2 + spec.imag ** 2) * scale).reshape(
        signal.shape[0], -1, spec.shape[-1])
    psd = p[:, 0]
    for i in range(1, p.shape[1]):
        psd = psd + p[:, i]
    psd = psd / p.shape[1]
    if nperseg % 2 == 0:
        psd[:, 1:-1] *= 2.0
    else:
        psd[:, 1:] *= 2.0
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    return freqs, psd


def band_powers(freqs, psd, total_band=DEFAULT_PARAMS.total_band):
    """Relative delta/theta/alpha/beta power of a PSD.

    Each band integral is normalized by the total over `total_band`;
    a zero-power spectrum yields all-zero sentinels.
    """
    total_mask = (freqs >= total_band[0]) & (freqs < total_band[1])
    total = np.compress(total_mask, psd, axis=-1).sum(axis=-1)
    dead = total <= 0.0
    total[dead] = 1.0
    out = np.empty((psd.shape[0], len(BANDS)))
    for i, (_, lo, hi) in enumerate(BANDS):
        mask = (freqs >= lo) & (freqs < hi)
        out[:, i] = np.compress(mask, psd, axis=-1).sum(axis=-1) / total
    out[dead] = 0.0
    return out


def hjorth(signal):
    """Time-domain Hjorth parameters (activity, mobility, complexity).

    mobility = sqrt(var(dx)/var(x)); complexity = mobility(dx)/mobility(x),
    with dx the first difference, per row. A constant row gets (0, 0, 0).
    """
    dx = signal[:, 1:] - signal[:, :-1]
    var_x = np.var(signal, axis=-1)
    var_dx = np.var(dx, axis=-1)
    var_ddx = np.var(dx[:, 1:] - dx[:, :-1], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mobility = np.sqrt(var_dx / var_x)
        complexity = np.sqrt(var_ddx / var_dx) / mobility
    mobility[var_x == 0.0] = 0.0
    complexity[(var_x == 0.0) | (var_dx == 0.0)] = 0.0
    return var_x, mobility, complexity


def hjorth_spect(freqs, psd):
    """Hjorth mobility/complexity from spectral moments m_k = sum f^k psd."""
    m0 = psd.sum(axis=-1)
    m2 = (freqs ** 2 * psd).sum(axis=-1)
    m4 = (freqs ** 4 * psd).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mobility = np.sqrt(m2 / m0)
        complexity = np.sqrt(m4 / m2) / mobility
    mobility[m0 <= 0.0] = 0.0
    complexity[(m0 <= 0.0) | (m2 <= 0.0)] = 0.0
    return mobility, complexity


def psd_fit(freqs, psd, f_range=DEFAULT_PARAMS.psd_fit_range):
    """OLS fit of log10(psd) on log10(f) inside f_range.

    Zero-power bins, and bins more than 120 dB below the in-range peak
    (numerically empty, e.g. spectral nulls of pure tones), are excluded.
    Returns (intercept, slope, mse, r2); a log-constant spectrum takes
    the degenerate route slope = 0, r2 = 0, and all-zero sentinels are
    returned when fewer than two usable bins remain. The rows that keep
    the same bins are fitted together.
    """
    in_freq = (freqs >= f_range[0]) & (freqs <= f_range[1])
    lf = np.log10(freqs[in_freq])
    band = np.compress(in_freq, psd, axis=-1)
    peak = band.max(axis=-1, keepdims=True, initial=0.0)
    out = np.zeros((4, psd.shape[0]))
    for mask, rows in _by_mask((band > 0.0) & (band >= peak * 1e-12)):
        if mask.sum() >= 2:
            out[:, rows] = _fit_rows(np.compress(mask, lf), np.log10(
                np.compress(mask, band[rows], axis=-1)))
    return tuple(out)


def _fit_rows(lf, lp):
    """(intercept, slope, mse, r2) x rows: the OLS fit of each row of lp
    on lf, both restricted to the usable bins."""
    lp_mean = np.mean(lp, axis=-1)
    slope = _ols_slope(lf, lp)  # distinct frequencies: no zero division
    intercept = lp_mean - slope * np.mean(lf)
    resid = lp - (intercept[:, None] + slope[:, None] * lf)
    ss_res = (resid ** 2).sum(axis=-1)
    ss_tot = ((lp - lp_mean[:, None]) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = 1.0 - ss_res / ss_tot
    r2[ss_tot == 0.0] = 0.0
    fit = np.array([intercept, slope, ss_res / lp.shape[-1], r2])
    flat = lp.max(axis=-1) - lp.min(axis=-1) < 1e-9
    fit[:, flat] = 0.0
    fit[0, flat] = lp_mean[flat]
    return fit


def spect_edge_freq(freqs, psd, edge=DEFAULT_PARAMS.sef_edge,
                    total_band=DEFAULT_PARAMS.total_band):
    """Frequency below which `edge` of the power in total_band lies."""
    mask = (freqs >= total_band[0]) & (freqs < total_band[1])
    f = freqs[mask]
    psd = np.compress(mask, psd, axis=-1)
    total = psd.sum(axis=-1)
    out = np.zeros(psd.shape[0])
    live = total > 0.0
    if f.size:
        # searchsorted's left index, the count of partial sums below the
        # target: psd >= 0, so the partial sums never decrease
        idx = (np.cumsum(psd, axis=-1) < (edge * total)[:, None]).sum(axis=-1)
        out[live] = f[np.minimum(idx, f.size - 1)][live]
    return out


# ---------------------------------------------------------------------------
# time-domain complexity

def fractal(signal, kmax=DEFAULT_PARAMS.higuchi_kmax):
    """(Higuchi fractal dimension, Katz fractal dimension).

    Higuchi uses the standard curve-length regression over k = 1..kmax,
    clamped to the admissible range [1, 2]; Katz is
    log10(n) / (log10(n) + log10(d/L)) with L the total length, d the
    maximum excursion from the first point, n the segment count.
    A constant row gets (1.0, 1.0). Neither depends on scale, so a row
    whose summed steps overflow takes both on the row times the power of
    two (exact) that brings its largest |sample| into [0.5, 1).
    """
    rows, n = signal.shape
    total_len = np.abs(signal[:, 1:] - signal[:, :-1]).sum(axis=-1)
    wide = np.flatnonzero(total_len == math.inf)
    if wide.size:
        signal = signal.copy()
        signal[wide] = np.ldexp(signal[wide],
                                _unit_shift(signal[wide])[:, None])
        total_len[wide] = np.abs(
            signal[wide, 1:] - signal[wide, :-1]).sum(axis=-1)
    excursion = np.abs(signal - signal[:, :1]).max(axis=-1)
    hfd = np.ones(rows)
    katz = np.ones(rows)
    live = np.flatnonzero(total_len != 0.0)
    # Katz; the denominator floor covers the degenerate alternating-signal
    # case where the excursion equals one mean step
    for r, d, length in zip(live, excursion[live].tolist(),
                            total_len[live].tolist()):
        if d != 0.0:
            log_n = math.log10(n - 1)
            denom = max(log_n + math.log10(d / length), 1e-12)
            katz[r] = max(1.0, log_n / denom)
    lk = _curve_lengths(signal[live], kmax)
    log_k = np.log(1.0 / np.arange(1, kmax + 1))
    for mask, rows in _by_mask(lk > 0):
        if mask.sum() >= 2:
            slope = _ols_slope(np.compress(mask, log_k),
                               np.log(np.compress(mask, lk[rows], axis=-1)))
            # min(2, max(1, slope)) as Python takes it, NaN included
            slope = np.where(slope > 1.0, slope, 1.0)
            hfd[live[rows]] = np.where(slope < 2.0, slope, 2.0)
    return hfd, katz


def _curve_lengths(x, kmax):
    """Higuchi's mean normalized curve length L(k) for k = 1..kmax, of each
    row of a (rows, samples) stack.

    The curve that starts at sample m steps through x[m::k], so its steps
    are every k-th of the lag-k differences. Per k, the curves with the
    same number of steps are copied into one contiguous array, a curve
    per row. Curves of fewer than two samples are left out.
    """
    rows, n = x.shape
    lk = np.empty((rows, kmax))
    for k in range(1, kmax + 1):
        d = np.abs(x[:, k:] - x[:, :-k])
        # curves m < longer take one step more than the others
        steps, longer = divmod(max(n - k, 0), k)
        body = d[:, :steps * k].reshape(rows, steps, k)
        sums = np.empty((rows, k if steps else longer))
        if longer:
            curves = np.concatenate(
                [body[:, :, :longer], d[:, None, steps * k:]], axis=1)
            sums[:, :longer] = np.ascontiguousarray(
                curves.transpose(0, 2, 1)).sum(axis=-1)
        if steps:
            sums[:, longer:] = np.ascontiguousarray(
                body[:, :, longer:].transpose(0, 2, 1)).sum(axis=-1)
        m = np.arange(sums.shape[1])
        norm = (n - 1) / (k * ((n - 1 - m) // k))
        lk[:, k - 1] = np.mean(sums * norm / k, axis=-1)
    return lk


def _ols_slope(x, y):
    """OLS slope of y on x, for each row of y along its last axis."""
    xm = x - np.mean(x)
    return ((xm * (y - np.mean(y, axis=-1)[..., None])).sum(axis=-1)
            / (xm ** 2).sum())


def zero_crossings(signal):
    """Number of sign changes in each row, with values below machine
    epsilon in magnitude clipped to zero."""
    tiny = np.abs(signal) < np.finfo(np.float64).eps
    sgn = np.sign(np.where(tiny, 0.0, signal))
    out = np.zeros(signal.shape[0], dtype=np.intp)
    for mask, rows in _by_mask(sgn != 0.0):
        s = np.compress(mask, sgn[rows], axis=-1)  # < 2 signs count 0
        out[rows] = (s[:, 1:] != s[:, :-1]).sum(axis=-1)
    return out


#: Candidate pairs that one block of app_entropy's neighbour search holds
#: at most, unless one point alone has more. Like sweep._STACK_SAMPLES, it
#: bounds temporaries only: the counts are integers, so no value depends
#: on it.
_APEN_CANDIDATES = 1 << 16


def app_entropy(signal, m=DEFAULT_PARAMS.app_entropy_m,
                r_factor=DEFAULT_PARAMS.app_entropy_r):
    """Approximate entropy phi(m) - phi(m+1), Chebyshev radius 0.2 std.

    Self-matches are counted, as in the original definition. Both counts
    come from one neighbour search, as in Manis (2008, "Fast computation
    of approximate entropy"): each pair within r on the m-embedding is
    found once, and a pair that also lies within r on the next sample is
    a match at m + 1, since every match at m + 1 is a match at m. The
    search is an exact bucket grid in numpy (_match_counts), in memory
    bounded by _APEN_CANDIDATES. ApEn does not depend on scale, so each
    row is first scaled by the powers of two (exact) that bring its
    largest |sample|, then its largest deviation from its mean, into
    [0.5, 1), where neither its mean nor its variance overflows. A
    constant row (radius 0) gets the sentinel 0; a non-finite sample
    (radius NaN) raises ValueError.
    """
    shift = _unit_shift(signal)
    scaled = np.ldexp(signal, shift[:, None])
    shift += _unit_shift(scaled - np.mean(scaled, axis=-1)[:, None])
    signal = np.ldexp(signal, shift[:, None])
    radii = (r_factor * np.std(signal, axis=-1, ddof=1)).tolist()
    out = np.array([_app_entropy_row(row, m, r)
                    for row, r in zip(signal, radii)])
    return out


def _unit_shift(signal):
    """Per row, the power of two whose ldexp (exact) brings the largest
    |sample| into [0.5, 1); 0 for an empty or all-zero row."""
    return -np.frexp(np.abs(signal).max(axis=-1, initial=0.0))[1]


def _app_entropy_row(x, m, r):
    if r == 0.0:
        return 0.0
    n = x.size - m + 1
    if n < 1:
        raise ValueError("app_entropy needs at least m = %d samples, got %d"
                         % (m, x.size))
    # one point of finite samples has no pair to search, and reads NaN
    if r != r and (n > 1 or not np.isfinite(x).all()):
        raise ValueError("app_entropy radius is NaN: the row holds a "
                         "non-finite sample, or its variance overflows")
    if n == 1:  # no pair to search
        counts_m, counts_m1 = np.full(n, n), np.full(n - 1, n - 1)
    else:
        counts_m, counts_m1 = _match_counts(x, m, r, n)
    return (float(np.mean(np.log(counts_m / n)))
            - float(np.mean(np.log(counts_m1 / (n - 1)))))


def _match_counts(x, m, r, n):
    """Matches of each of the n embedding points at m, and of the first
    n - 1 at m + 1, self-matches included, for a finite radius r.

    Points are bucketed by their first coordinate a, in buckets of width
    w just over r, and ordered by one integer key: (bucket, rank of their
    second coordinate c, or of a when m is 1). The later point of a pair
    within r then lies in one of two key ranges of the earlier one: its
    own bucket after it, and the next bucket, each over the ranks of c
    within w. Every candidate is decided by the predicate itself,
    abs(x[i + k] - x[j + k]) <= r for each k < m, then at k = m for the
    m + 1 count. Points go in blocks of at most _APEN_CANDIDATES
    candidates.
    """
    a = x[:n]
    c = x[1:n + 1] if m > 1 else a
    a_min = a.min()
    # A gap that rounds to r or less is at most r (1 + 2^-53). w is wider
    # than that by 2^-20, and at least 2^-28 of the largest |a|, so
    # rounding moves a key by under 2^-23 of a bucket: no pair within r is
    # two buckets apart, and none lies outside [c - w, c + w] once rounded.
    # w is normal for any r_factor above about 1e-290: app_entropy's
    # scaling leaves the row a deviation of at least 0.5 from its mean, so
    # r is at least r_factor / (2 sqrt(x.size)).
    w = max(r, max(-a_min, a.max()) * 2.0 ** -28) * (1 + 2.0 ** -20)
    by_c = np.argsort(c)
    rank = np.empty(n, np.intp)
    rank[by_c] = np.arange(n)
    key = ((a - a_min) / w).astype(np.intp) * n + rank
    order = np.argsort(key)
    key = key[order]
    base = key - rank[order]
    c_sorted = c[by_c]
    c = c[order]
    lo_rank = np.searchsorted(c_sorted, c - w)
    hi_rank = np.searchsorted(c_sorted, c + w, "right")
    pos = np.arange(n)
    starts = np.stack((pos + 1, np.searchsorted(key, base + n + lo_rank)))
    lens = np.stack((np.searchsorted(key, base + hi_rank),
                     np.searchsorted(key, base + n + hi_rank))) - starts
    cum = np.concatenate(([0], np.cumsum(lens.sum(axis=0))))
    padded = np.append(x, np.nan)  # the last point has no sample m
    cols = [padded[order + k] for k in range(m + 1)]
    counts = np.ones((2, n), np.intp)
    p0 = 0
    while p0 < n:
        p1 = max(int(np.searchsorted(cum, cum[p0] + _APEN_CANDIDATES,
                                     "right")) - 1, p0 + 1)
        size = lens[:, p0:p1].ravel()
        owner = np.repeat(np.tile(pos[p0:p1], 2), size)
        # each range's positions, start + 0, 1, ...
        cand = (np.repeat(starts[:, p0:p1].ravel() - np.cumsum(size) + size,
                          size) + np.arange(owner.size))
        ok = np.ones(owner.size, bool)
        for col in cols[:m]:
            ok &= np.abs(col[owner] - col[cand]) <= r
        owner, cand = owner[ok], cand[ok]
        top = int(cand.max(initial=p0)) + 1
        counts[0, p0:top] += np.bincount(
            np.concatenate((owner, cand)) - p0, minlength=top - p0)
        ok = np.abs(cols[m][owner] - cols[m][cand]) <= r
        counts[1, p0:top] += np.bincount(
            np.concatenate((owner[ok], cand[ok])) - p0, minlength=top - p0)
        p0 = p1
    out = np.empty_like(counts)
    out[:, order] = counts
    return out[0], out[1, :n - 1]


def spect_entropy(freqs, psd, total_band=DEFAULT_PARAMS.total_band):
    """Normalized Shannon entropy of the PSD over total_band, in [0, 1]."""
    mask = (freqs >= total_band[0]) & (freqs < total_band[1])
    psd = np.compress(mask, psd, axis=-1)
    total = psd.sum(axis=-1)
    n_bins = psd.shape[1]
    out = np.zeros(psd.shape[0])
    live = np.flatnonzero(total > 0.0)
    if n_bins < 2:
        return out
    psd = psd[live] / total[live][:, None]
    for mask, rows in _by_mask(psd > 0.0):
        nz = np.compress(mask, psd[rows], axis=-1)
        out[live[rows]] = -(nz * np.log(nz)).sum(axis=-1) / math.log(n_bins)
    return out


def decorr_time(signal, fs):
    """First lag (in seconds) at which the autocorrelation drops to <= 0.

    A row gets the full duration when its autocorrelation never crosses
    zero and 1/fs when it is constant.
    """
    n = signal.shape[1]
    xm = signal - np.mean(signal, axis=-1)[:, None]
    denom = (xm ** 2).sum(axis=-1)
    nfft = int(2 ** math.ceil(math.log2(2 * n)))
    spec = np.fft.rfft(xm, nfft, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        acf = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft,
                           axis=-1)[:, :n] / denom[:, None]
    below = acf[:, 1:] <= 0.0
    out = np.where(below.any(axis=-1), (below.argmax(axis=-1) + 1) / fs,
                   n / fs)
    out[denom == 0.0] = 1.0 / fs
    return out


@functools.lru_cache(maxsize=None)
def _expected_rs(n):
    """Expected R/S of iid Gaussian noise at block size n (Anis-Lloyd with
    the Peters finite-sample factor); used to debias the regression.
    Cached: it depends on n alone, and every signal asks for ~10 sizes."""
    s = sum(math.sqrt((n - i) / i) for i in range(1, n))
    if n <= 340:
        front = math.gamma((n - 1) / 2.0) / (
            math.sqrt(math.pi) * math.gamma(n / 2.0))
    else:
        front = 1.0 / math.sqrt(math.pi * n / 2.0)
    return front * s * ((n - 0.5) / n)


def hurst_exp(signal, min_window=DEFAULT_PARAMS.hurst_min_window):
    """Hurst exponent by bias-corrected rescaled-range regression.

    R/S is averaged over non-overlapping blocks for ~10 logarithmically
    spaced block sizes in [min_window, n/2]. The small-sample expectation
    of R/S under the null is subtracted before regressing, so white noise
    centers on 0.5. A constant row gets the sentinel 0.5. One block array
    per size holds every row; the rows that leave out the same blocks, or
    the same sizes, are averaged, or regressed, together.
    """
    n = signal.shape[1]
    out = np.full(signal.shape[0], 0.5)
    # np.std(x) == 0 exactly where the variance is 0
    live = np.flatnonzero(np.var(signal, axis=-1) != 0.0)
    if n < 2 * min_window or not live.size:
        return out
    x = signal[live]
    sizes = np.unique(np.floor(np.logspace(
        math.log10(min_window), math.log10(n / 2.0), 10)).astype(int))
    log_rs = np.full((live.size, sizes.size), np.nan)  # NaN: size left out
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, size in enumerate(sizes.tolist()):
            n_blocks = n // size
            blocks = np.ascontiguousarray(x[:, :n_blocks * size]).reshape(
                live.size, n_blocks, size)
            centered = blocks - np.mean(blocks, axis=-1)[..., None]
            z = np.cumsum(centered, axis=-1)
            rng = z.max(axis=-1) - z.min(axis=-1)
            # the sample std of each block, as np.std(ddof=1) computes it
            std = np.sqrt((centered * centered).sum(axis=-1) / (size - 1))
            rs = np.zeros(live.size)  # 0: no block with spread
            for mask, rows in _by_mask(std > 0):
                if mask.any():
                    rs[rows] = np.mean(
                        np.compress(mask, rng[rows], axis=-1)
                        / np.compress(mask, std[rows], axis=-1), axis=-1)
            expected = math.log(_expected_rs(size))
            for r, value in enumerate(rs.tolist()):
                if value > 0:
                    log_rs[r, s] = math.log(value) - expected
    log_sizes = np.array([math.log(size) for size in sizes.tolist()])
    for mask, rows in _by_mask(~np.isnan(log_rs)):
        if mask.sum() >= 2:
            out[live[rows]] = 0.5 + _ols_slope(
                np.compress(mask, log_sizes),
                np.compress(mask, log_rs[rows], axis=-1))
    return out


# ---------------------------------------------------------------------------
# FIR filtering (shared with the cleaning band-pass) and band energies

def lowpass_kernel(fs, cutoff_hz, transition_hz):
    """Hamming windowed-sinc low-pass, unit DC gain, odd length."""
    length = int(math.ceil(3.3 / (transition_hz / fs)))
    if length % 2 == 0:
        length += 1
    m = np.arange(length) - (length - 1) / 2.0
    h = 2.0 * cutoff_hz / fs * np.sinc(2.0 * cutoff_hz / fs * m)
    h *= 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(length) / (length - 1))
    return h / np.sum(h)


def filter_zero_phase(samples, kernel):
    """Apply a symmetric kernel to each row with edge-reflection padding;
    length kept."""
    half = (kernel.size - 1) // 2
    n = samples.shape[1]
    if n < kernel.size:
        raise ValueError(
            "recording too short for filter order (%d samples < %d taps)"
            % (n, kernel.size))
    out = np.empty_like(samples)
    for i, row in enumerate(samples):
        ext = np.concatenate([row[half:0:-1], row, row[-2:-half - 2:-1]])
        out[i] = np.convolve(ext, kernel, mode="valid")
    return out


def band_energies(signal, fs,
                  transition_hz=DEFAULT_PARAMS.energy_transition_hz):
    """Absolute mean-square energy per EEG band after band-pass filtering.

    Each band-pass is the difference of two low-passes at the band edges;
    a low-pass shared by adjacent bands is computed once, and its kernel
    is designed once per stack.
    """
    edges = {edge for _, lo, hi in BANDS for edge in (lo, hi)}
    low = {edge: filter_zero_phase(signal,
                                   lowpass_kernel(fs, edge, transition_hz))
           for edge in edges}
    out = np.empty((signal.shape[0], len(BANDS)))
    for i, (_, lo, hi) in enumerate(BANDS):
        out[:, i] = np.mean((low[hi] - low[lo]) ** 2, axis=-1)
    return out


# ---------------------------------------------------------------------------
# wavelet subband features

def teager_kaiser(x):
    """Teager-Kaiser energy x_n^2 - x_{n-1} x_{n+1} over the interior
    samples of each row."""
    return x[:, 1:-1] ** 2 - x[:, :-2] * x[:, 2:]


def wavelet_features(signal):
    """Six db4 detail energies plus (mean, std) of TKEO per subband.

    Detail energy at level k is the mean of squared detail coefficients.
    TKEO statistics are reported for d1..d6 and the level-6 approximation,
    14 values in the order (d1 mean, d1 std, ..., a6 mean, a6 std).
    dwt.wavedec raises ValueError below 72 samples; from there on every
    subband has at least 8 coefficients, so every TKEO array has at least
    6 values and a sample standard deviation. Each row is decomposed on
    its own; the statistics take a subband of every row at once.
    """
    per_row = [details + [approx]
               for approx, details in (dwt.wavedec(row, levels=6)
                                       for row in signal)]
    energies = np.empty((signal.shape[0], 6))
    tkeo_stats = np.empty((signal.shape[0], 14))
    for level, band in enumerate(map(np.array, zip(*per_row))):
        if level < 6:
            energies[:, level] = np.mean(band ** 2, axis=-1)
        tk = teager_kaiser(band)
        tkeo_stats[:, 2 * level] = np.mean(tk, axis=-1)
        tkeo_stats[:, 2 * level + 1] = np.std(tk, axis=-1, ddof=1)
    return energies, tkeo_stats


# ---------------------------------------------------------------------------
# moments with degenerate-input sentinels

def moments(signal):
    """(variance, skewness, kurtosis) of each row, from one centring.

    The variance is the sample variance (ddof 1), with np.var's bytes;
    skewness is m3 / m2^1.5 and kurtosis the Pearson (non-excess)
    m4 / m2^2, 3 for a normal distribution, with m_k the k-th central
    moment. Both read 0 for a constant row, or one so small that the
    power of m2 underflows. Neither depends on scale, so a row whose
    m2 * m2 overflows takes them on the row times the power of two
    (exact) that brings its largest |sample| into [0.5, 1), as
    app_entropy's first step does; its variance is left as it is.
    """
    xm = signal - np.mean(signal, axis=-1)[:, None]
    ss = (xm * xm).sum(axis=-1)
    m2 = ss / xm.shape[-1]
    wide = [i for i, m in enumerate(m2.tolist()) if m * m == math.inf]
    if wide:
        rows = signal[wide]
        rows = np.ldexp(rows, _unit_shift(rows)[:, None])
        xm[wide] = rows - np.mean(rows, axis=-1)[:, None]
        m2[wide] = (xm[wide] * xm[wide]).sum(axis=-1) / xm.shape[-1]
    m2 = m2.tolist()

    def standardized(k, power):
        denom = [m ** power for m in m2]
        return np.array([0.0 if d == 0.0 else mk / d for d, mk in zip(
            denom, np.mean(xm ** k, axis=-1).tolist())])

    return ss / (xm.shape[-1] - 1), standardized(3, 1.5), standardized(4, 2)


# ---------------------------------------------------------------------------
# full vector

def extract_channel(signal, fs, params=DEFAULT_PARAMS):
    """Compute the canonical 53-feature vector of one channel, or of each
    row of a (rows, samples) stack of equal-length signals.

    The one entry that also takes a 1-D signal: it builds the C-contiguous
    float64 stack every feature group takes. The signal must be at least
    MIN_DURATION_S (2 s) long and finite everywhere. Returns a float array
    aligned with FEATURE_NAMES, of shape (53,) for a 1-D signal and
    (rows, 53) for a stack; each row's vector has the bytes that row gets
    alone.
    """
    x = np.asarray(signal, dtype=np.float64)
    single = x.ndim == 1
    x = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
    if x.shape[1] < MIN_DURATION_S * fs:
        raise ValueError("signal shorter than %g s (%d samples at %g Hz)"
                         % (MIN_DURATION_S, x.shape[1], fs))
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")

    out = np.empty((x.shape[0], N_FEATURES))
    out[:, 0] = np.mean(x, axis=-1)
    out[:, 1], out[:, 4], out[:, 5] = moments(x)
    out[:, 2] = np.sqrt(out[:, 1])  # np.std's bytes: the root of np.var's
    out[:, 3] = x.max(axis=-1) - x.min(axis=-1)
    out[:, 6] = np.sqrt(np.mean(x ** 2, axis=-1))
    out[:, 7] = np.quantile(x, params.quantile, axis=-1)

    freqs, psd = welch_psd(x, fs, nperseg=params.welch_nperseg,
                           overlap=params.welch_overlap)

    out[:, 8] = hurst_exp(x, min_window=params.hurst_min_window)
    out[:, 9] = app_entropy(x, m=params.app_entropy_m,
                            r_factor=params.app_entropy_r)
    out[:, 10] = decorr_time(x, fs)
    _, out[:, 11], out[:, 12] = hjorth(x)
    out[:, 13], out[:, 14] = fractal(x, kmax=params.higuchi_kmax)
    out[:, 15] = zero_crossings(x)
    out[:, 16] = np.mean(np.abs(x[:, 1:] - x[:, :-1]), axis=-1)

    out[:, 17:21] = band_powers(freqs, psd, total_band=params.total_band)
    out[:, 21], out[:, 22] = hjorth_spect(freqs, psd)
    out[:, 23:27] = np.transpose(
        psd_fit(freqs, psd, f_range=params.psd_fit_range))
    out[:, 27] = spect_entropy(freqs, psd, total_band=params.total_band)
    out[:, 28:32] = band_energies(x, fs,
                                  transition_hz=params.energy_transition_hz)
    out[:, 32] = spect_edge_freq(freqs, psd, edge=params.sef_edge,
                                 total_band=params.total_band)
    out[:, 33:39], out[:, 39:53] = wavelet_features(x)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# design matrices

@dataclass
class FeatureMatrix:
    """Subjects x (channel, feature) design matrix with labels."""

    column_names: list
    values: np.ndarray
    labels: np.ndarray
    subject_ids: list

    @property
    def n_subjects(self):
        return self.values.shape[0]

    @property
    def n_columns(self):
        return self.values.shape[1]

    def select_columns(self, indices):
        return FeatureMatrix(
            column_names=[self.column_names[i] for i in indices],
            values=self.values[:, list(indices)],
            labels=self.labels.copy(),
            subject_ids=list(self.subject_ids),
        )

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.values, self.labels]),
                   fmt=["%.17g"] * self.n_columns + ["%d"], delimiter=",",
                   header=",".join(self.column_names + ["label"]),
                   comments="")

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        if header[-1] != "label":
            raise ValueError("feature CSV must end with a label column")
        data = read_csv_matrix(path, skiprows=1)
        return cls(column_names=header[:-1],
                   values=np.ascontiguousarray(data[:, :-1]),
                   labels=data[:, -1].astype(int),
                   subject_ids=["s%03d" % i for i in range(data.shape[0])])


def channel_feature_names(channels):
    """Column names for a channel subset, channel-major canonical order."""
    return ["%s:%s" % (ch, f) for ch in channels for f in FEATURE_NAMES]
