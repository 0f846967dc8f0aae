"""The four cleaning pipelines: raw, FIR band-pass, FIR+ASR, FIR+ASR+ICA.

Every stage maps a Recording to a Recording of the same shape. The FIR
stage is a zero-phase Hamming windowed-sinc band-pass; ASR reconstructs
high-variance principal subspaces from calibration statistics without
dropping any time segment; the ICA stage decomposes with FastICA, labels
components with threshold rules, and reconstructs from the components
labeled as brain activity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import features as _features
from .data_model import CHANNELS_1020

PIPELINE_KINDS = ("raw", "filtered", "asr", "ica")


@dataclass(frozen=True)
class FirParams:
    low_hz: float = 0.5
    high_hz: float = 40.0
    transition_low_hz: float = 0.5
    transition_high_hz: float = 10.0


@dataclass(frozen=True)
class AsrParams:
    cutoff_k: float = 20.0
    calib_window_s: float = 1.0
    calib_bad_channel_fraction: float = 0.25
    calib_z_bounds: tuple = (-3.5, 5.5)
    proc_window_s: float = 0.5
    proc_overlap: float = 0.5

    def __post_init__(self):
        if self.cutoff_k <= 0:
            raise ValueError("cutoff_k must be > 0")
        if not 0.0 < self.proc_overlap < 1.0:
            raise ValueError("proc_overlap must be in (0, 1)")


@dataclass(frozen=True)
class LabelerThresholds:
    """Rule thresholds for the component labeler (configuration, not
    constants; parity with learned classifiers is not claimed)."""

    ocular_low_hz: float = 3.0
    ocular_low_power: float = 0.6
    line_hz: float = 50.0
    line_peak_ratio: float = 10.0
    muscle_band: tuple = (20.0, 45.0)
    muscle_power: float = 0.6
    channel_dominance: float = 0.9


@dataclass(frozen=True)
class IcaParams:
    max_iter: int = 500
    tol: float = 1e-6
    rng_seed: int = 0
    variance_coverage: float = 0.9999
    labeler: LabelerThresholds = LabelerThresholds()


@dataclass(frozen=True)
class CleaningPipeline:
    kind: str = "raw"
    fir: FirParams = FirParams()
    asr: AsrParams = AsrParams()
    ica: IcaParams = IcaParams()

    def __post_init__(self):
        if self.kind not in PIPELINE_KINDS:
            raise ValueError("unknown pipeline kind %r" % self.kind)


# ---------------------------------------------------------------------------
# FIR band-pass

def bandpass_kernel(fs, params=FirParams()):
    """Symmetric band-pass kernel: high-pass and low-pass stages cascaded.

    Sinc cutoffs sit half a transition width outside the requested band so
    the passband spans [low_hz, high_hz]; the low-pass stopband therefore
    starts at high_hz + transition_high_hz, comfortably below 50 Hz for
    the default band.
    """
    nyq = fs / 2.0
    if not (0.0 < params.low_hz < params.high_hz < nyq):
        raise ValueError("band [%g, %g] must sit inside (0, %g)"
                         % (params.low_hz, params.high_hz, nyq))
    lp = _features.lowpass_kernel(
        fs, params.high_hz + params.transition_high_hz / 2.0,
        params.transition_high_hz)
    hp_lp = _features.lowpass_kernel(
        fs, params.low_hz - params.transition_low_hz / 2.0,
        params.transition_low_hz)
    hp = -hp_lp
    hp[(hp_lp.size - 1) // 2] += 1.0
    return np.convolve(lp, hp)


def fir_bandpass(rec, params=FirParams()):
    """Zero-phase FIR band-pass of every channel; output length = input."""
    kernel = bandpass_kernel(rec.sample_rate_hz, params)
    return rec.with_samples(_features.filter_zero_phase(rec.samples, kernel))


# ---------------------------------------------------------------------------
# ASR

@dataclass
class AsrModel:
    """Calibration state: covariance square root, its eigenvectors, and
    per-principal-direction RMS thresholds mu_i + k sigma_i."""

    mixing_sqrt: np.ndarray      # channels x channels, symmetric sqrt of cov
    eigvecs: np.ndarray          # channels x channels, columns = directions
    thresholds: np.ndarray       # per-direction RMS threshold
    n_calib_windows: int
    n_windows_total: int


def _window_starts(n, win, hop):
    starts = list(range(0, n - win + 1, hop))
    if starts and starts[-1] + win < n:
        starts.append(n - win)
    return starts


def _robust_loc_scale(values, axis):
    """Median and MAD-derived sigma; scale falls back to 1 when zero."""
    loc = np.median(values, axis=axis, keepdims=True)
    scale = 1.4826 * np.median(np.abs(values - loc), axis=axis,
                               keepdims=True)
    scale = np.where(scale == 0.0, 1.0, scale)
    return loc, scale


def asr_calibrate(rec, params=AsrParams()):
    """Estimate ASR calibration statistics from the cleanest 1 s windows.

    A window is accepted when the fraction of channels whose window RMS
    z-score (per channel, across windows) falls outside calib_z_bounds is
    at most calib_bad_channel_fraction. Location and scale are estimated
    robustly (median / MAD) both here and for the per-direction RMS
    thresholds, standing in for the reference method's truncated
    distribution fit so that residual artifact windows cannot inflate the
    thresholds. Raises when fewer than 10 windows survive.
    """
    fs = rec.sample_rate_hz
    win = int(round(params.calib_window_s * fs))
    n_win = rec.n_samples // win
    if n_win < 10:
        raise ValueError(
            "insufficient clean calibration data: %d windows < 10" % n_win)
    x = rec.samples[:, :n_win * win]
    windows = x.reshape(x.shape[0], n_win, win)
    rms = np.sqrt(np.mean(windows ** 2, axis=2))  # channels x n_win
    loc, scale = _robust_loc_scale(rms, axis=1)
    z = (rms - loc) / scale
    lo, hi = params.calib_z_bounds
    bad_frac = np.mean((z < lo) | (z > hi), axis=0)
    accepted = bad_frac <= params.calib_bad_channel_fraction
    if int(accepted.sum()) < 10:
        raise ValueError(
            "insufficient clean calibration data: %d clean windows < 10"
            % int(accepted.sum()))
    calib = windows[:, accepted, :].reshape(x.shape[0], -1)

    cov = calib @ calib.T / calib.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    mixing_sqrt = (evecs * np.sqrt(evals)) @ evecs.T

    # per-direction RMS statistics over sliding processing-sized windows
    comp = evecs.T @ calib
    pwin = int(round(params.proc_window_s * fs))
    hop = max(1, int(round(pwin * (1.0 - params.proc_overlap))))
    starts = _window_starts(comp.shape[1], pwin, hop)
    seg_rms = np.array([
        np.sqrt(np.mean(comp[:, s:s + pwin] ** 2, axis=1)) for s in starts])
    mu_c, sd_c = _robust_loc_scale(seg_rms, axis=0)
    thresholds = (mu_c + params.cutoff_k * sd_c).ravel()
    return AsrModel(mixing_sqrt=mixing_sqrt, eigvecs=evecs,
                    thresholds=thresholds,
                    n_calib_windows=int(accepted.sum()),
                    n_windows_total=n_win)


def asr_process(rec, model, params=AsrParams()):
    """Reconstruct artifact subspaces window by window.

    Sliding proc_window_s windows with the configured overlap are
    eigendecomposed; directions whose variance exceeds the calibrated
    threshold projected into the window basis are rebuilt from the clean
    subspace through the calibration mixing, and windows are blended with
    a raised-cosine cross-fade. Output length equals input length.
    """
    if model.mixing_sqrt.shape[0] != rec.n_channels:
        raise ValueError("model channel count %d != recording channels %d"
                         % (model.mixing_sqrt.shape[0], rec.n_channels))
    fs = rec.sample_rate_hz
    x = rec.samples
    n = x.shape[1]
    win = int(round(params.proc_window_s * fs))
    if n < win:
        raise ValueError("recording shorter than one processing window")
    hop = max(1, int(round(win * (1.0 - params.proc_overlap))))
    starts = _window_starts(n, win, hop)
    fade = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(win) + 0.5) / win)

    m = model.mixing_sqrt
    u = model.eigvecs
    thr = model.thresholds
    out = np.zeros_like(x)
    weight = np.zeros(n)
    for s in starts:
        seg = x[:, s:s + win]
        cov = seg @ seg.T / win
        evals, v = np.linalg.eigh(cov)
        # calibration RMS thresholds projected onto the window directions,
        # squared to compare against variances
        proj = (thr[:, None] * (u.T @ v)) ** 2
        flagged = evals > proj.sum(axis=0)
        if flagged.any():
            keep_rows = v.T[~flagged]
            recon = m @ np.linalg.pinv(keep_rows @ m) @ keep_rows
            seg = recon @ seg
        out[:, s:s + win] += seg * fade
        weight[s:s + win] += fade
    covered = weight > 0
    out[:, covered] /= weight[covered]
    out[:, ~covered] = x[:, ~covered]
    return rec.with_samples(out)


# ---------------------------------------------------------------------------
# ICA

@dataclass(frozen=True)
class IcaDecomposition:
    """FastICA result in channel space.

    unmixing (components x channels) maps channel data to sources;
    mixing (channels x components) is its pseudo-inverse, so keeping all
    components reconstructs the input on the retained rank. sources
    (components x samples) are the decomposed recording's sources. It
    holds neither the recording's metadata nor component labels:
    label_components returns the labels, and ica_reconstruct takes the
    recording it rebuilds.
    """

    unmixing: np.ndarray
    mixing: np.ndarray
    sources: np.ndarray
    converged: bool

    @property
    def n_components(self):
        return self.unmixing.shape[0]


def _sym_decorrelate(w):
    s, u = np.linalg.eigh(w @ w.T)
    s = np.clip(s, 1e-12, None)
    return (u / np.sqrt(s)) @ u.T @ w


def ica_decompose(rec, params=IcaParams()):
    """Whiten to >= 99.99% variance coverage and run symmetric FastICA.

    Uses the tanh contrast with symmetric orthogonalization; iteration
    stops when the largest weight change drops below tol. Deterministic
    under a fixed seed. Non-convergence returns the best iterate with
    converged=False.
    """
    x = rec.samples
    n_ch, n_t = x.shape
    min_t = int(math.ceil(20 * n_ch ** 2 / 0.95))
    if n_t < min_t:
        warnings.warn(
            "recording has %d samples; ICA is better conditioned with >= %d"
            % (n_t, min_t), stacklevel=2)

    cov = x @ x.T / n_t
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    total = float(evals.sum())
    if total <= 0.0:
        raise ValueError("cannot decompose an all-zero recording")
    cum = np.cumsum(evals) / total
    k = int(np.searchsorted(cum, params.variance_coverage) + 1)
    k = min(k, n_ch)
    whiten = evecs[:, :k].T / np.sqrt(evals[:k])[:, None]  # k x channels
    z = whiten @ x

    rng = np.random.default_rng(params.rng_seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    converged = False
    # the two k x samples arrays of every iteration, written in place
    g = np.empty_like(z)
    g_prime = np.empty_like(z)
    for _ in range(params.max_iter):
        np.matmul(w, z, out=g)
        np.tanh(g, out=g)
        np.square(g, out=g_prime)
        np.subtract(1.0, g_prime, out=g_prime)
        w_new = (g @ z.T) / n_t - g_prime.mean(axis=1)[:, None] * w
        w_new = _sym_decorrelate(w_new)
        delta = float(np.max(np.abs(np.abs(np.einsum(
            "ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if delta < params.tol:
            converged = True
            break

    unmixing = w @ whiten
    mixing = np.linalg.pinv(unmixing)
    sources = unmixing @ x
    return IcaDecomposition(unmixing=unmixing, mixing=mixing,
                            sources=sources, converged=converged)


def label_components(decomp, fs, thresholds=LabelerThresholds()):
    """Rule-based component labeling (documented ICLabel substitute).

    `fs` is the sample rate of the sources in Hz. Rules are applied in
    order: ocular, line_noise, muscle, channel_noise, else brain. Returns
    one label per component and stores nothing on the decomposition.
    """
    th = thresholds
    frontal = {CHANNELS_1020.index("Fp1"), CHANNELS_1020.index("Fp2")}
    labels = []
    for i in range(decomp.n_components):
        src = decomp.sources[i]
        freqs, psd = _features.welch_psd(src, fs)
        total = float(psd.sum())
        col = decomp.mixing[:, i]
        col_norm = float(np.linalg.norm(col))
        dominated = col_norm > 0 and np.max(np.abs(col)) > \
            th.channel_dominance * col_norm
        label = "brain"
        if total > 0.0:
            low = float(psd[freqs < th.ocular_low_hz].sum()) / total
            peak_ch = int(np.argmax(np.abs(col)))
            if low > th.ocular_low_power and peak_ch in frontal:
                label = "ocular"
            elif _line_peak_ratio(freqs, psd, th.line_hz) >= \
                    th.line_peak_ratio:
                label = "line_noise"
            else:
                band = (freqs >= th.muscle_band[0]) & \
                       (freqs < th.muscle_band[1])
                if float(psd[band].sum()) / total > th.muscle_power:
                    label = "muscle"
                elif dominated:
                    label = "channel_noise"
        elif dominated:
            label = "channel_noise"
        labels.append(label)
    return labels


def _line_peak_ratio(freqs, psd, line_hz):
    """PSD at the line frequency over the local median (line excluded)."""
    if freqs[-1] < line_hz:
        return 0.0
    peak = float(psd[np.argmin(np.abs(freqs - line_hz))])
    local = (np.abs(freqs - line_hz) <= 10.0) & \
            (np.abs(freqs - line_hz) > 2.0)
    med = float(np.median(psd[local])) if local.any() else 0.0
    if med <= 0.0:
        return np.inf if peak > 0.0 else 0.0
    return peak / med


def ica_reconstruct(rec, decomp, keep):
    """Rebuild `rec` from the components of its decomposition `decomp`
    whose flag in `keep` (one per component) is true.

    Keeping every component reproduces the input on the retained rank;
    keeping none yields all zeros. Metadata comes from `rec`.
    """
    keep = np.asarray(keep, dtype=bool)
    return rec.with_samples(decomp.mixing[:, keep] @ decomp.sources[keep])


# ---------------------------------------------------------------------------
# pipeline composition

def run_pipeline(rec, pipeline):
    """Apply one of the four cleaning pipelines to a recording."""
    *_, (_, out, _) = walk_pipeline(rec, pipeline)
    return out


def walk_pipeline(rec, pipeline):
    """Yield (kind, recording, info) per stage from raw to pipeline.kind,
    each stage cleaning the previous one's output; raw yields `rec` itself.
    info is the stage's provenance (ASR stats, ICA labels) for sidecars."""
    yield "raw", rec, {"kind": "raw"}
    if pipeline.kind == "raw":
        return
    out = fir_bandpass(rec, pipeline.fir)
    yield "filtered", out, {"kind": "filtered"}
    if pipeline.kind == "filtered":
        return
    model = asr_calibrate(out, pipeline.asr)
    out = asr_process(out, model, pipeline.asr)
    info = {"kind": "asr", "asr_calib_windows": model.n_calib_windows,
            "asr_windows_total": model.n_windows_total}
    yield "asr", out, info
    if pipeline.kind == "asr":
        return
    decomp = ica_decompose(out, pipeline.ica)
    labels = label_components(decomp, out.sample_rate_hz,
                              pipeline.ica.labeler)
    out = ica_reconstruct(out, decomp, [lab == "brain" for lab in labels])
    yield "ica", out, dict(info, kind="ica", ica_labels=labels,
                           ica_converged=bool(decomp.converged))
