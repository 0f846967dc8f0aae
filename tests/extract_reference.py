"""Reference per-signal feature extraction: one 1-D signal per call.

This is the code that `features.extract_channel` replaced when it began
to take a (rows, samples) stack, kept as the oracle that every row of a
stack must match byte for byte. Only the helpers the stacked version
left unchanged (FIR kernels and filtering, the DWT, the R/S
expectation) come from the package; Higuchi's curve lengths come from
`higuchi_reference`.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from eegsweep import dwt
from eegsweep.features import (BANDS, DEFAULT_PARAMS, N_FEATURES,
                               _expected_rs, filter_zero_phase,
                               lowpass_kernel)
from higuchi_reference import curve_lengths as _curve_lengths


def welch_psd(signal, fs, nperseg=None, overlap=0.5):
    """Welch power spectral density (one-sided, density scaling).

    Hamming-windowed segments with the given fractional overlap, each
    detrended by its mean. Returns (freqs, psd) with freqs spanning
    [0, fs/2] and sum(psd) * df close to the time-domain variance for
    stationary signals.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if nperseg is None:
        nperseg = min(256, n)
    nperseg = int(min(nperseg, n))
    step = max(1, nperseg - int(math.floor(nperseg * overlap)))
    win = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    scale = 1.0 / (fs * np.sum(win ** 2))
    starts = range(0, n - nperseg + 1, step)
    acc = None
    count = 0
    for s in starts:
        seg = x[s:s + nperseg]
        seg = seg - seg.mean()
        spec = np.fft.rfft(win * seg)
        p = (spec.real ** 2 + spec.imag ** 2) * scale
        acc = p if acc is None else acc + p
        count += 1
    psd = acc / count
    if nperseg % 2 == 0:
        psd[1:-1] *= 2.0
    else:
        psd[1:] *= 2.0
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    return freqs, psd


def band_powers(freqs, psd, total_band=(0.5, 40.0)):
    """Relative delta/theta/alpha/beta power of a PSD.

    Each band integral is normalized by the total over `total_band`;
    a zero-power spectrum yields all-zero sentinels.
    """
    total_mask = (freqs >= total_band[0]) & (freqs < total_band[1])
    total = float(np.sum(psd[total_mask]))
    out = np.zeros(len(BANDS))
    if total <= 0.0:
        return out
    for i, (_, lo, hi) in enumerate(BANDS):
        mask = (freqs >= lo) & (freqs < hi)
        out[i] = float(np.sum(psd[mask])) / total
    return out


def hjorth(signal):
    """Time-domain Hjorth parameters (activity, mobility, complexity).

    mobility = sqrt(var(dx)/var(x)); complexity = mobility(dx)/mobility(x),
    with dx the first difference. Constant input returns (0, 0, 0).
    """
    x = np.asarray(signal, dtype=np.float64)
    var_x = float(np.var(x))
    if var_x == 0.0:
        return 0.0, 0.0, 0.0
    dx = np.diff(x)
    var_dx = float(np.var(dx))
    mobility = math.sqrt(var_dx / var_x)
    if var_dx == 0.0:
        return var_x, mobility, 0.0
    ddx = np.diff(dx)
    mob_dx = math.sqrt(float(np.var(ddx)) / var_dx)
    return var_x, mobility, mob_dx / mobility


def hjorth_spect(freqs, psd):
    """Hjorth mobility/complexity from spectral moments m_k = sum f^k psd."""
    m0 = float(np.sum(psd))
    if m0 <= 0.0:
        return 0.0, 0.0
    m2 = float(np.sum(freqs ** 2 * psd))
    m4 = float(np.sum(freqs ** 4 * psd))
    mobility = math.sqrt(m2 / m0)
    if m2 <= 0.0:
        return mobility, 0.0
    return mobility, math.sqrt(m4 / m2) / mobility


def psd_fit(freqs, psd, f_range=(1.0, 40.0)):
    """OLS fit of log10(psd) on log10(f) inside f_range.

    Zero-power bins, and bins more than 120 dB below the in-range peak
    (numerically empty, e.g. spectral nulls of pure tones), are excluded.
    Returns (intercept, slope, mse, r2); a log-constant spectrum takes
    the degenerate route slope = 0, r2 = 0, and all-zero sentinels are
    returned when fewer than two usable bins remain.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    psd = np.asarray(psd, dtype=np.float64)
    in_range = (freqs >= f_range[0]) & (freqs <= f_range[1]) & (psd > 0.0)
    if not in_range.any():
        return 0.0, 0.0, 0.0, 0.0
    floor = float(psd[in_range].max()) * 1e-12
    mask = in_range & (psd >= floor)
    if int(mask.sum()) < 2:
        return 0.0, 0.0, 0.0, 0.0
    lf = np.log10(freqs[mask])
    lp = np.log10(psd[mask])
    lf_mean = lf.mean()
    lp_mean = lp.mean()
    if float(np.ptp(lp)) < 1e-9:
        return lp_mean, 0.0, 0.0, 0.0
    sxx = float(np.sum((lf - lf_mean) ** 2))  # > 0: distinct frequencies
    slope = float(np.sum((lf - lf_mean) * (lp - lp_mean))) / sxx
    intercept = lp_mean - slope * lf_mean
    resid = lp - (intercept + slope * lf)
    mse = float(np.mean(resid ** 2))
    ss_tot = float(np.sum((lp - lp_mean) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return intercept, slope, mse, r2


def spect_edge_freq(freqs, psd, edge=0.95, total_band=(0.5, 40.0)):
    """Frequency below which `edge` of the power in total_band lies."""
    mask = (freqs >= total_band[0]) & (freqs < total_band[1])
    f = freqs[mask]
    p = psd[mask]
    total = float(np.sum(p))
    if total <= 0.0 or f.size == 0:
        return 0.0
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, edge * total))
    return float(f[min(idx, f.size - 1)])


def fractal(signal, kmax=10):
    """(Higuchi fractal dimension, Katz fractal dimension).

    Higuchi uses the standard curve-length regression over k = 1..kmax,
    clamped to the admissible range [1, 2]; Katz is
    log10(n) / (log10(n) + log10(d/L)) with L the total length, d the
    maximum excursion from the first point, n the segment count.
    Constant input returns (1.0, 1.0).
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    dists = np.abs(np.diff(x))
    total_len = float(np.sum(dists))
    if total_len == 0.0:
        return 1.0, 1.0
    # Katz; the denominator floor covers the degenerate alternating-signal
    # case where the excursion equals one mean step
    d = float(np.max(np.abs(x - x[0])))
    if d == 0.0:
        katz = 1.0
    else:
        log_n = math.log10(n - 1)
        denom = max(log_n + math.log10(d / total_len), 1e-12)
        katz = max(1.0, log_n / denom)
    lk = _curve_lengths(x, kmax)
    valid = lk > 0
    if int(valid.sum()) < 2:
        return 1.0, katz
    logk = np.log(1.0 / np.arange(1, kmax + 1)[valid])
    logl = np.log(lk[valid])
    slope = _ols_slope(logk, logl)
    return float(min(2.0, max(1.0, slope))), katz

def _ols_slope(x, y):
    xm = x - x.mean()
    return float(np.sum(xm * (y - y.mean())) / np.sum(xm ** 2))


def zero_crossings(signal):
    """Number of sign changes, with values below machine epsilon in
    magnitude clipped to zero."""
    x = np.asarray(signal, dtype=np.float64).copy()
    x[np.abs(x) < np.finfo(np.float64).eps] = 0.0
    sgn = np.sign(x)
    sgn = sgn[sgn != 0]
    if sgn.size < 2:
        return 0
    return int(np.sum(sgn[1:] != sgn[:-1]))


def app_entropy(signal, m=2, r_factor=0.2):
    """Approximate entropy phi(m) - phi(m+1), Chebyshev radius 0.2 std.

    Self-matches are counted, as in the original definition. Both counts
    come from one neighbour search, as in Manis (2008, "Fast computation
    of approximate entropy"): one cKDTree on the m-embedding lists every
    pair within r, and a pair that also lies within r on the next sample
    is a match at m + 1, since every match at m + 1 is a match at m. A
    constant signal (radius 0) returns the sentinel 0.
    """
    x = np.asarray(signal, dtype=np.float64)
    r = r_factor * float(np.std(x, ddof=1))
    if r == 0.0:
        return 0.0
    n = x.size - m + 1
    emb = np.lib.stride_tricks.sliding_window_view(x, m)
    pairs = cKDTree(emb).query_pairs(r, p=np.inf, output_type="ndarray")
    i, j = pairs.T.astype(np.int32)  # contiguous columns, i < j
    counts_m = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1
    keep = j < n - 1
    i, j = i[keep], j[keep]
    nxt = x[m:]
    keep = np.abs(nxt[i] - nxt[j]) <= r
    counts_m1 = (np.bincount(i[keep], minlength=n - 1)
                 + np.bincount(j[keep], minlength=n - 1) + 1)
    return (float(np.mean(np.log(counts_m / n)))
            - float(np.mean(np.log(counts_m1 / (n - 1)))))


def spect_entropy(freqs, psd, total_band=(0.5, 40.0)):
    """Normalized Shannon entropy of the PSD over total_band, in [0, 1]."""
    mask = (freqs >= total_band[0]) & (freqs < total_band[1])
    p = psd[mask]
    total = float(np.sum(p))
    n_bins = int(mask.sum())
    if total <= 0.0 or n_bins < 2:
        return 0.0
    p = p / total
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)) / math.log(n_bins))


def decorr_time(signal, fs):
    """First lag (in seconds) at which the autocorrelation drops to <= 0.

    Returns the full duration when the autocorrelation never crosses zero
    and 1/fs for a constant signal.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    xm = x - x.mean()
    denom = float(np.sum(xm ** 2))
    if denom == 0.0:
        return 1.0 / fs
    nfft = int(2 ** math.ceil(math.log2(2 * n)))
    spec = np.fft.rfft(xm, nfft)
    acf = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft)[:n] / denom
    below = np.nonzero(acf[1:] <= 0.0)[0]
    if below.size == 0:
        return n / fs
    return float(below[0] + 1) / fs


def hurst_exp(signal, min_window=10):
    """Hurst exponent by bias-corrected rescaled-range regression.

    R/S is averaged over non-overlapping blocks for ~10 logarithmically
    spaced block sizes in [min_window, n/2]. The small-sample expectation
    of R/S under the null is subtracted before regressing, so white noise
    centers on 0.5. Constant input returns the sentinel 0.5.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if float(np.std(x)) == 0.0 or n < 2 * min_window:
        return 0.5
    sizes = np.unique(np.floor(np.logspace(
        math.log10(min_window), math.log10(n / 2.0), 10)).astype(int))
    log_sizes = []
    log_rs = []
    for size in sizes:
        n_blocks = n // size
        blocks = x[:n_blocks * size].reshape(n_blocks, size)
        centered = blocks - blocks.mean(axis=1, keepdims=True)
        z = np.cumsum(centered, axis=1)
        rng = z.max(axis=1) - z.min(axis=1)
        std = blocks.std(axis=1, ddof=1)
        ok = std > 0
        if not ok.any():
            continue
        rs = float(np.mean(rng[ok] / std[ok]))
        if rs <= 0:
            continue
        log_sizes.append(math.log(size))
        log_rs.append(math.log(rs) - math.log(_expected_rs(int(size))))
    if len(log_sizes) < 2:
        return 0.5
    return 0.5 + _ols_slope(np.array(log_sizes), np.array(log_rs))


def band_energies(signal, fs, transition_hz=2.0):
    """Absolute mean-square energy per EEG band after band-pass filtering.

    Each band-pass is the difference of two low-passes at the band edges;
    a low-pass shared by adjacent bands is computed once.
    """
    x = np.asarray(signal, dtype=np.float64)[None, :]
    edges = {edge for _, lo, hi in BANDS for edge in (lo, hi)}
    low = {edge: filter_zero_phase(
        x, lowpass_kernel(fs, edge, transition_hz))[0] for edge in edges}
    return np.array([float(np.mean((low[hi] - low[lo]) ** 2))
                     for _, lo, hi in BANDS])


def teager_kaiser(x):
    """Teager-Kaiser energy x_n^2 - x_{n-1} x_{n+1} over interior samples."""
    x = np.asarray(x, dtype=np.float64)
    return x[1:-1] ** 2 - x[:-2] * x[2:]


def wavelet_features(signal):
    """Six db4 detail energies plus (mean, std) of TKEO per subband.

    Detail energy at level k is the mean of squared detail coefficients.
    TKEO statistics are reported for d1..d6 and the level-6 approximation,
    14 values in the order (d1 mean, d1 std, ..., a6 mean, a6 std).
    dwt.wavedec raises ValueError below 72 samples; from there on every
    subband has at least 8 coefficients, so every TKEO array has at least
    6 values and a sample standard deviation.
    """
    approx, details = dwt.wavedec(signal, levels=6)
    energies = np.array([float(np.mean(d ** 2)) for d in details])
    tkeo_stats = []
    for band in details + [approx]:
        tk = teager_kaiser(band)
        tkeo_stats.append(float(np.mean(tk)))
        tkeo_stats.append(float(np.std(tk, ddof=1)))
    return energies, np.array(tkeo_stats)


def skewness(signal):
    x = np.asarray(signal, dtype=np.float64)
    xm = x - x.mean()
    denom = float(np.mean(xm ** 2)) ** 1.5
    if denom == 0.0:  # constant, or so small that the power underflows
        return 0.0
    return float(np.mean(xm ** 3)) / denom


def kurtosis(signal):
    """Pearson (non-excess) kurtosis; 3 for a normal distribution."""
    x = np.asarray(signal, dtype=np.float64)
    xm = x - x.mean()
    denom = float(np.mean(xm ** 2)) ** 2
    if denom == 0.0:  # constant, or so small that the power underflows
        return 0.0
    return float(np.mean(xm ** 4)) / denom


def extract_channel(signal, fs, params=DEFAULT_PARAMS):
    """Compute the canonical 53-feature vector of one channel.

    The signal must be at least 2 s long and finite everywhere. Returns a
    float array aligned with FEATURE_NAMES.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.size < 2 * fs:
        raise ValueError("signal shorter than 2 s (%d samples at %g Hz)"
                         % (x.size, fs))
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")

    out = np.empty(N_FEATURES)
    out[0] = float(np.mean(x))
    out[1] = float(np.var(x, ddof=1))
    out[2] = float(np.std(x, ddof=1))
    out[3] = float(np.ptp(x))
    out[4] = skewness(x)
    out[5] = kurtosis(x)
    out[6] = float(np.sqrt(np.mean(x ** 2)))
    out[7] = float(np.quantile(x, params.quantile))

    freqs, psd = welch_psd(x, fs, nperseg=params.welch_nperseg,
                           overlap=params.welch_overlap)

    out[8] = hurst_exp(x, min_window=params.hurst_min_window)
    out[9] = app_entropy(x, m=params.app_entropy_m,
                         r_factor=params.app_entropy_r)
    out[10] = decorr_time(x, fs)
    _, mob, comp = hjorth(x)
    out[11] = mob
    out[12] = comp
    hfd, kfd = fractal(x, kmax=params.higuchi_kmax)
    out[13] = hfd
    out[14] = kfd
    out[15] = float(zero_crossings(x))
    out[16] = float(np.mean(np.abs(np.diff(x))))

    out[17:21] = band_powers(freqs, psd, total_band=params.total_band)
    mob_s, comp_s = hjorth_spect(freqs, psd)
    out[21] = mob_s
    out[22] = comp_s
    out[23:27] = psd_fit(freqs, psd, f_range=params.psd_fit_range)
    out[27] = spect_entropy(freqs, psd, total_band=params.total_band)
    out[28:32] = band_energies(x, fs, transition_hz=params.energy_transition_hz)
    out[32] = spect_edge_freq(freqs, psd, edge=params.sef_edge,
                              total_band=params.total_band)
    energies, tkeo_stats = wavelet_features(x)
    out[33:39] = energies
    out[39:53] = tkeo_stats
    return out
