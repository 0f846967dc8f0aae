import numpy as np
import pytest

from conftest import one_row
from eegsweep import synth
from eegsweep.data_model import CHANNELS_1020, Recording
from eegsweep.features import welch_psd
from eegsweep.selection import t_test


def zero_recording(n=2560, fs=128.0):
    return Recording("z", 0, fs, CHANNELS_1020, np.zeros((19, n)))


def theta_rel_power(x, fs):
    freqs, psd = one_row(welch_psd, x, fs)
    total = psd[(freqs >= 0.5) & (freqs < 40)].sum()
    return psd[(freqs >= 4) & (freqs < 8)].sum() / total


def test_determinism_bit_identical():
    spec = synth.SynthSpec(n_subjects_per_class=2, duration_s=10.0,
                           artifacts=(synth.ArtifactSpec(kind="blink"),),
                           rng_seed=9)
    a, _ = synth.generate_cohort(spec)
    b, _ = synth.generate_cohort(spec)
    for ra, rb in zip(a, b):
        assert ra.subject_id == rb.subject_id
        assert np.array_equal(ra.samples, rb.samples)


def test_superposition_exact():
    spec = synth.SynthSpec(
        n_subjects_per_class=1, duration_s=10.0,
        artifacts=(synth.ArtifactSpec(kind="blink", amplitude=10.0,
                                      rate_per_min=12.0),
                   synth.ArtifactSpec(kind="line_50hz", amplitude=2.0)),
        rng_seed=4)
    cohort, truth = synth.generate_cohort(spec)
    clean_spec = synth.SynthSpec(
        n_subjects_per_class=1, duration_s=10.0, artifacts=(), rng_seed=4)
    clean_cohort, _ = synth.generate_cohort(clean_spec)
    rec = cohort[0]
    assert np.array_equal(truth.clean[rec.subject_id],
                          clean_cohort[0].samples)
    # artifacts are strictly additive on top of the stored clean signal
    diff = rec.samples - truth.clean[rec.subject_id]
    mask = truth.artifact_mask[rec.subject_id]
    line_rms = np.sqrt(np.mean(diff[:, ~mask] ** 2))
    assert line_rms == pytest.approx(2.0 / np.sqrt(2), rel=0.05)


def test_null_effect_statistically_indistinguishable():
    hits = 0
    reps = 20
    for rep in range(reps):
        spec = synth.SynthSpec(n_subjects_per_class=8, duration_s=4.0,
                               class_effect=synth.ClassEffect(
                                   effect_size=1.0),
                               rng_seed=1000 + rep)
        cohort, _ = synth.generate_cohort(spec)
        powers = {0: [], 1: []}
        for rec in cohort:
            powers[rec.label].append(
                theta_rel_power(rec.channel("P3"), rec.sample_rate_hz))
        _, _, p = t_test(powers[1], powers[0], variant="Welch")
        hits += p > 0.05
    assert hits >= 0.9 * reps


def test_theta_effect_visible_at_target_channel():
    spec = synth.SynthSpec(n_subjects_per_class=20, duration_s=8.0,
                           class_effect=synth.ClassEffect(
                               target_channel="P3",
                               feature_axis="theta_power", effect_size=2.0),
                           rng_seed=77)
    cohort, _ = synth.generate_cohort(spec)
    p1 = [theta_rel_power(r.channel("P3"), r.sample_rate_hz)
          for r in cohort if r.label == 1]
    p0 = [theta_rel_power(r.channel("P3"), r.sample_rate_hz)
          for r in cohort if r.label == 0]
    assert np.mean(p1) > np.mean(p0)
    # non-target channel unaffected
    q1 = [theta_rel_power(r.channel("O2"), r.sample_rate_hz)
          for r in cohort if r.label == 1]
    q0 = [theta_rel_power(r.channel("O2"), r.sample_rate_hz)
          for r in cohort if r.label == 0]
    assert abs(np.mean(q1) - np.mean(q0)) < 0.25 * abs(
        np.mean(p1) - np.mean(p0))


def test_kurtosis_effect_axis():
    spec = synth.SynthSpec(n_subjects_per_class=10, duration_s=8.0,
                           class_effect=synth.ClassEffect(
                               target_channel="C3", feature_axis="kurtosis",
                               effect_size=3.0),
                           rng_seed=5)
    cohort, _ = synth.generate_cohort(spec)
    from eegsweep.features import moments
    k1 = np.mean([one_row(moments, r.channel("C3"))[2]
                  for r in cohort if r.label == 1])
    k0 = np.mean([one_row(moments, r.channel("C3"))[2]
                  for r in cohort if r.label == 0])
    assert k1 > k0 + 0.5


def test_blink_mask_marks_exact_windows():
    rec = zero_recording()
    out, mask = synth.inject_artifact(
        rec, synth.ArtifactSpec(kind="blink", amplitude=10.0, times_s=(5.0,)),
        rng_seed=0)
    fs = rec.sample_rate_hz
    assert mask[int(5.2 * fs)]
    assert not mask[int(3.0 * fs)]
    on = np.nonzero(mask)[0]
    assert on[0] == int(round(5.0 * fs))
    assert on[-1] < int(round(5.0 * fs)) + int(0.7 * fs) + 1
    assert not np.any(out.samples[:, ~mask])


def test_blink_frontal_decay():
    rec = zero_recording()
    out, mask = synth.inject_artifact(
        rec, synth.ArtifactSpec(kind="blink", amplitude=10.0, times_s=(5.0,)),
        rng_seed=0)
    i = int(5.35 * rec.sample_rate_hz)
    fp1 = abs(out.channel("Fp1")[i])
    o1 = abs(out.channel("O1")[i])
    assert fp1 > o1


def test_line_50hz_single_psd_peak():
    rec = zero_recording()
    out, mask = synth.inject_artifact(
        rec, synth.ArtifactSpec(kind="line_50hz", amplitude=1.0), rng_seed=1)
    assert not mask.any()
    freqs, psd = one_row(welch_psd, out.samples[7], rec.sample_rate_hz)
    assert abs(freqs[np.argmax(psd)] - 50.0) <= 0.5


def test_muscle_burst_band_power_ratio():
    spec = synth.SynthSpec(n_subjects_per_class=1, duration_s=30.0,
                           rng_seed=8)
    cohort, _ = synth.generate_cohort(spec)
    rec = cohort[0]
    out, mask = synth.inject_artifact(
        rec, synth.ArtifactSpec(kind="muscle_burst", amplitude=12.0,
                                times_s=(5.0, 12.0, 20.0), channel="T7"),
        rng_seed=2)
    x = out.channel("T7")
    fs = rec.sample_rate_hz

    def band_power_20_45(seg):
        freqs, psd = one_row(welch_psd, seg, fs, nperseg=min(128, seg.size))
        return psd[(freqs >= 20) & (freqs <= 45)].mean()

    inside = band_power_20_45(x[mask])
    outside = band_power_20_45(x[~mask])
    assert inside >= 10 * outside


def test_bad_channel_replaces_row():
    spec = synth.SynthSpec(n_subjects_per_class=1, duration_s=10.0,
                           rng_seed=3)
    cohort, _ = synth.generate_cohort(spec)
    rec = cohort[0]
    out, _ = synth.inject_artifact(
        rec, synth.ArtifactSpec(kind="bad_channel", amplitude=30.0,
                                channel="Pz"), rng_seed=5)
    row = out.channel("Pz")
    assert np.std(row) > 5 * np.std(rec.channel("Pz"))
    others = [ch for ch in CHANNELS_1020 if ch != "Pz"]
    for ch in others[:3]:
        assert np.array_equal(out.channel(ch), rec.channel(ch))


def test_unknown_kind_and_bad_params():
    rec = zero_recording()
    with pytest.raises(ValueError, match="unknown artifact kind"):
        synth.inject_artifact(rec, synth.ArtifactSpec(kind="gamma_ray"),
                              rng_seed=0)
    with pytest.raises(ValueError, match="channel"):
        synth.generate_cohort(synth.SynthSpec(
            class_effect=synth.ClassEffect(target_channel="XX")))
    with pytest.raises(ValueError, match="amplitude"):
        synth.generate_cohort(synth.SynthSpec(
            artifacts=(synth.ArtifactSpec(kind="blink", amplitude=-1.0),)))


def test_pink_background_psd_slope():
    spec = synth.SynthSpec(n_subjects_per_class=1, duration_s=20.0,
                           band_amplitudes=(("alpha", 0.0), ("beta", 0.0),
                                            ("delta", 0.0), ("theta", 0.0)),
                           rng_seed=21)
    cohort, _ = synth.generate_cohort(spec)
    from eegsweep.features import psd_fit
    slopes = []
    for ch in range(19):
        freqs, psd = one_row(welch_psd, cohort[0].samples[ch], 128.0)
        slopes.append(one_row(psd_fit, freqs, psd)[1])
    assert abs(np.mean(slopes) - (-1.0)) < 0.3
