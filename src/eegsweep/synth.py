"""Synthetic EEG cohorts with known class effects and injected artifacts.

Generated cohorts carry exact ground truth: the clean background of every
subject and boolean time masks of the transient artifacts. Signals obey
superposition (signal = clean + sum of artifact terms, exactly), which is
what makes them usable as oracles for the cleaning stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import (CHANNELS_1020, MIN_DURATION_S, MONTAGE_COORDS,
                         Recording)

#: Sinusoid carrier frequency used per band, Hz.
BAND_CENTERS = {"delta": 2.0, "theta": 6.0, "alpha": 10.0, "beta": 20.0}

_DEFAULT_BAND_AMPS = {"delta": 0.6, "theta": 0.5, "alpha": 0.7, "beta": 0.3}

#: Artifact kinds inject_artifact knows.
ARTIFACT_KINDS = ("blink", "muscle_burst", "line_50hz", "bad_channel")

#: Artifact kinds whose masks mark transient windows; continuous kinds
#: (line_50hz, bad_channel) return an all-False mask.
TRANSIENT_KINDS = ("blink", "muscle_burst")

#: What a class effect can change at its target channel.
EFFECT_AXES = ("theta_power", "alpha_power", "kurtosis")


@dataclass(frozen=True)
class ClassEffect:
    """Ground-truth discriminative difference injected into class 1."""

    target_channel: str = "P3"
    feature_axis: str = "theta_power"  # one of EFFECT_AXES
    effect_size: float = 1.0


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact family to inject into every subject."""

    kind: str
    amplitude: float = 5.0
    rate_per_min: float = 4.0
    times_s: tuple = None  # explicit burst instants; overrides rate
    channel: str = None    # muscle_burst / bad_channel target override


@dataclass(frozen=True)
class SynthSpec:
    n_subjects_per_class: int = 10
    duration_s: float = 30.0
    sample_rate_hz: float = 128.0
    pink_amplitude: float = 1.0
    band_amplitudes: tuple = tuple(sorted(_DEFAULT_BAND_AMPS.items()))
    class_effect: ClassEffect = ClassEffect()
    artifacts: tuple = ()
    rng_seed: int = 0


@dataclass
class GroundTruth:
    """Per-subject clean signals and transient-artifact masks."""

    clean: dict
    artifact_mask: dict        # subject_id -> bool (n_samples,)


def _validate_spec(spec):
    if spec.n_subjects_per_class < 1:
        raise ValueError("n_subjects_per_class must be >= 1")
    if spec.duration_s < MIN_DURATION_S:
        raise ValueError("duration_s must be >= %g" % MIN_DURATION_S)
    if spec.class_effect.effect_size <= 0:
        raise ValueError("effect_size must be > 0")
    if spec.class_effect.target_channel not in CHANNELS_1020:
        raise ValueError("unknown channel label %r"
                         % spec.class_effect.target_channel)
    if spec.class_effect.feature_axis not in EFFECT_AXES:
        raise ValueError("unknown feature axis %r"
                         % spec.class_effect.feature_axis)
    for art in spec.artifacts:
        if art.kind not in ARTIFACT_KINDS:
            raise ValueError("unknown artifact kind %r" % art.kind)
        if art.amplitude <= 0:
            raise ValueError("artifact amplitude must be positive")


def pink_noise(n, rng, amplitude=1.0):
    """1/f-power background: white noise shaped to f^(-1/2) amplitude."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n)
    shape = np.zeros_like(f)
    shape[1:] = f[1:] ** -0.5
    x = np.fft.irfft(spec * shape, n)
    return amplitude * x / max(np.std(x), 1e-30)


def _background_channel(n, fs, rng, spec, band_scale):
    t = np.arange(n) / fs
    x = pink_noise(n, rng, spec.pink_amplitude)
    for band, amp in dict(spec.band_amplitudes).items():
        phase = rng.uniform(0, 2 * np.pi)
        x += amp * band_scale.get(band, 1.0) * np.sin(
            2 * np.pi * BAND_CENTERS[band] * t + phase)
    return x


def _blink_waveform(fs):
    """Biphasic low-frequency burst (single-cycle sine under a Hann lobe),
    0.7 s long."""
    n = int(round(0.7 * fs))
    tau = np.arange(n) / n
    return np.sin(2 * np.pi * tau) * np.sin(np.pi * tau) ** 2


def _frontal_weights(channel_names):
    """Fixed frontal-to-posterior decay, max 1 at Fp1/Fp2.

    The decay constant of 0.6 unit-disc radii mimics the broad scalp
    spread of ocular potentials.
    """
    xy = MONTAGE_COORDS
    fx = np.mean([xy["Fp1"][0], xy["Fp2"][0]])
    fy = np.mean([xy["Fp1"][1], xy["Fp2"][1]])
    w = np.array([math.exp(-math.hypot(xy[ch][0] - fx, xy[ch][1] - fy)
                           / 0.6) for ch in channel_names])
    return w / w.max()


def _burst_times(rng, params, duration_s, width_s):
    if params.times_s is not None:
        return list(params.times_s)
    n_bursts = int(round(params.rate_per_min * duration_s / 60.0))
    if n_bursts == 0:
        return []
    hi = max(duration_s - width_s, 0.0)
    return sorted(rng.uniform(0.0, hi, size=n_bursts))


def _bandlimited_noise(n, fs, lo, hi, rng):
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / fs)
    spec[(f < lo) | (f > hi)] = 0.0
    x = np.fft.irfft(spec, n)
    return x / max(np.std(x), 1e-30)


def inject_artifact(rec, spec, rng_seed):
    """Add one artifact family, an ArtifactSpec, to a recording.

    Returns (new recording, boolean time mask of the affected windows).
    Continuous artifacts (line_50hz, bad_channel) return all-False masks:
    they have no clean/dirty window distinction.
    """
    rng = np.random.default_rng(rng_seed)
    fs = rec.sample_rate_hz
    n = rec.n_samples
    addition = np.zeros_like(rec.samples)
    mask = np.zeros(n, dtype=bool)

    if spec.kind == "blink":
        wave = _blink_waveform(fs) * spec.amplitude
        weights = _frontal_weights(rec.channel_names)
        for t0 in _burst_times(rng, spec, rec.duration_s, 0.7):
            i0 = int(round(t0 * fs))
            i1 = min(i0 + wave.size, n)
            addition[:, i0:i1] += np.outer(weights, wave[:i1 - i0])
            mask[i0:i1] = True
    elif spec.kind == "muscle_burst":
        width_s = 0.5
        ch = spec.channel or ("T7", "T8")[int(rng.integers(2))]
        row = rec.channel_names.index(ch)
        for t0 in _burst_times(rng, spec, rec.duration_s, width_s):
            i0 = int(round(t0 * fs))
            i1 = min(i0 + int(width_s * fs), n)
            burst = _bandlimited_noise(i1 - i0, fs, 20.0, 45.0, rng)
            env = np.sin(np.pi * np.arange(i1 - i0) / (i1 - i0)) ** 2
            addition[row, i0:i1] += spec.amplitude * burst * env
            mask[i0:i1] = True
    elif spec.kind == "line_50hz":
        t = np.arange(n) / fs
        phase = rng.uniform(0, 2 * np.pi)
        addition += spec.amplitude * np.sin(2 * np.pi * 50.0 * t + phase)
    elif spec.kind == "bad_channel":
        ch = spec.channel or rec.channel_names[int(
            rng.integers(len(rec.channel_names)))]
        row = rec.channel_names.index(ch)
        noise = spec.amplitude * rng.standard_normal(n)
        # additive term that replaces the original row under superposition
        addition[row] = noise - rec.samples[row]
    else:
        raise ValueError("unknown artifact kind %r" % spec.kind)

    return rec.with_samples(rec.samples + addition), mask


def generate_cohort(spec):
    """Generate a seeded two-class cohort plus its ground truth.

    Class-1 subjects differ from class-0 only along the configured class
    effect on the target channel. Subject i uses the derived seed
    rng_seed + i, so per-subject generation is order-independent.
    """
    _validate_spec(spec)
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_s * fs))
    target_row = CHANNELS_1020.index(spec.class_effect.target_channel)

    recordings = []
    clean = {}
    masks = {}
    index = 0
    for label in (1, 0):
        prefix = "adhd" if label == 1 else "td"
        for k in range(spec.n_subjects_per_class):
            sid = "%s%03d" % (prefix, k)
            rng = np.random.default_rng(spec.rng_seed + index)
            band_scale_target = {}
            if label == 1 and spec.class_effect.feature_axis in (
                    "theta_power", "alpha_power"):
                band = spec.class_effect.feature_axis.split("_")[0]
                band_scale_target[band] = spec.class_effect.effect_size
            sig = np.empty((len(CHANNELS_1020), n))
            for row, ch in enumerate(CHANNELS_1020):
                scale = band_scale_target if row == target_row else {}
                sig[row] = _background_channel(n, fs, rng, spec, scale)
            if label == 1 and spec.class_effect.feature_axis == "kurtosis":
                sig[target_row] += _heavy_tail_spikes(
                    n, fs, rng, spec.class_effect.effect_size,
                    float(np.std(sig[target_row])))
            rec = Recording(subject_id=sid, label=label, sample_rate_hz=fs,
                            channel_names=CHANNELS_1020, samples=sig)
            clean[sid] = rec.samples.copy()
            total_mask = np.zeros(n, dtype=bool)
            for j, art in enumerate(spec.artifacts):
                rec, m = inject_artifact(
                    rec, art, rng_seed=spec.rng_seed + 7919 * (index + 1) + j)
                if art.kind in TRANSIENT_KINDS:
                    total_mask |= m
            recordings.append(rec)
            masks[sid] = total_mask
            index += 1
    return recordings, GroundTruth(clean=clean, artifact_mask=masks)


def _heavy_tail_spikes(n, fs, rng, effect_size, base_std):
    """Sparse large deflections that raise kurtosis without moving power."""
    out = np.zeros(n)
    n_spikes = max(1, int(n / fs))  # about one per second
    idx = rng.integers(0, n, size=n_spikes)
    out[idx] = (effect_size - 1.0) * base_std * 4.0 * rng.standard_normal(
        n_spikes)
    return out
