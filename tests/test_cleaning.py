import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ARTIFACT_MIX, one_row
from eegsweep import cleaning, synth
from eegsweep.cleaning import (PIPELINE_KINDS, AsrParams, CleaningPipeline,
                               FirParams, IcaParams, asr_calibrate,
                               asr_process, bandpass_kernel, fir_bandpass,
                               ica_decompose, ica_reconstruct,
                               label_components, run_pipeline, walk_pipeline)
from eegsweep.data_model import CHANNELS_1020, Recording
from eegsweep.features import welch_psd

FS = 128.0


def recording_from_rows(row, n_copies=19, fs=FS, label=0):
    return Recording("t", label, fs, CHANNELS_1020,
                     np.tile(row, (n_copies, 1)))


def interior(x, kernel_size):
    half = (kernel_size - 1) // 2
    return x[..., half:-half]


# ---------------------------------------------------------------------------
# FIR

def test_fir_output_shape_preserved():
    rng = np.random.default_rng(0)
    rec = Recording("r", 0, FS, CHANNELS_1020, rng.standard_normal((19, 2000)))
    out = fir_bandpass(rec)
    assert out.samples.shape == rec.samples.shape


def test_fir_50hz_attenuation():
    t = np.arange(int(30 * FS)) / FS
    rec = recording_from_rows(np.sin(2 * np.pi * 50 * t))
    out = fir_bandpass(rec)
    k = bandpass_kernel(FS).size
    ratio = (np.sqrt(np.mean(interior(out.samples[0], k) ** 2))
             / np.sqrt(np.mean(interior(rec.samples[0], k) ** 2)))
    assert ratio <= 0.01


def test_fir_passband_identity():
    t = np.arange(int(30 * FS)) / FS
    rec = recording_from_rows(np.sin(2 * np.pi * 10 * t))
    out = fir_bandpass(rec)
    ratio = (np.sqrt(np.mean(out.samples[0] ** 2))
             / np.sqrt(np.mean(rec.samples[0] ** 2)))
    assert abs(ratio - 1.0) <= 0.1


def test_fir_passband_flatness_and_dc():
    k = bandpass_kernel(FS)
    freqs = np.fft.rfftfreq(32768, 1 / FS)
    mag = np.abs(np.fft.rfft(k, 32768))
    band = (freqs >= 1.0) & (freqs <= 35.0)
    gain_db = 20 * np.log10(mag[band])
    assert np.all(np.abs(gain_db) <= 1.0)
    assert mag[0] <= 1e-12  # exact DC zero by construction


def test_fir_dc_removed():
    rec = recording_from_rows(np.full(int(30 * FS), 5.0))
    out = fir_bandpass(rec)
    k = bandpass_kernel(FS).size
    assert np.max(np.abs(interior(out.samples[0], k))) < 0.05


def test_fir_zero_phase_no_delay():
    # a pulse in the passband stays centered
    t = np.arange(int(30 * FS)) / FS
    pulse = np.exp(-0.5 * ((t - 15.0) / 0.3) ** 2) * np.sin(2 * np.pi * 10 * t)
    rec = recording_from_rows(pulse)
    out = fir_bandpass(rec)
    assert abs(int(np.argmax(np.abs(out.samples[0])))
               - int(np.argmax(np.abs(pulse)))) <= 2


def test_fir_too_short_recording():
    rec = recording_from_rows(np.zeros(400))
    with pytest.raises(ValueError, match="too short for filter order"):
        fir_bandpass(rec)


def test_fir_invalid_band():
    with pytest.raises(ValueError, match="band"):
        bandpass_kernel(FS, FirParams(low_hz=0.5, high_hz=70.0))


# ---------------------------------------------------------------------------
# ASR

def stationary_recording(seed=0, duration_s=40.0):
    rng = np.random.default_rng(seed)
    return Recording("n", 0, FS, CHANNELS_1020,
                     rng.standard_normal((19, int(duration_s * FS))))


def test_asr_calibrate_stationary_accepts_all():
    rec = stationary_recording()
    model = asr_calibrate(rec)
    assert model.n_calib_windows == model.n_windows_total
    assert np.all(model.thresholds > 0)


def test_asr_calibrate_excludes_burst_windows(cleaning_cohort):
    cohort, truth = cleaning_cohort
    agreements = []
    for rec in cohort[:4]:
        fir = fir_bandpass(rec)
        win = int(FS)
        n_win = rec.n_samples // win
        mask = truth.artifact_mask[rec.subject_id]
        gt_bad = np.array([mask[i * win:(i + 1) * win].mean() > 0.25
                           for i in range(n_win)])
        x = fir.samples[:, :n_win * win].reshape(19, n_win, win)
        rms = np.sqrt(np.mean(x ** 2, axis=2))
        loc, scale = cleaning._robust_loc_scale(rms, axis=1)
        z = (rms - loc) / scale
        params = AsrParams()
        bad_frac = np.mean((z < params.calib_z_bounds[0])
                           | (z > params.calib_z_bounds[1]), axis=0)
        detected_bad = bad_frac > params.calib_bad_channel_fraction
        agreements.append(np.mean(detected_bad == gt_bad))
    assert np.mean(agreements) >= 0.9


def test_asr_calibrate_too_short():
    rec = stationary_recording(duration_s=5.0)
    with pytest.raises(ValueError, match="insufficient clean calibration"):
        asr_calibrate(rec)


def test_asr_process_preserves_clean_signal():
    rec = stationary_recording(seed=5)
    model = asr_calibrate(rec)
    out = asr_process(rec, model)
    for ch in range(19):
        corr = np.corrcoef(out.samples[ch], rec.samples[ch])[0, 1]
        assert corr >= 0.95


def test_asr_reduces_bursts_preserves_rest(cleaning_cohort):
    cohort, truth = cleaning_cohort
    for rec in cohort[:3]:
        fir = fir_bandpass(rec)
        model = asr_calibrate(fir)
        out = asr_process(fir, model)
        mask = truth.artifact_mask[rec.subject_id]
        rms_in = np.sqrt(np.mean(fir.samples[:, mask] ** 2))
        rms_out = np.sqrt(np.mean(out.samples[:, mask] ** 2))
        assert rms_out <= 0.5 * rms_in
        clean_in = np.sqrt(np.mean(fir.samples[:, ~mask] ** 2))
        clean_out = np.sqrt(np.mean(out.samples[:, ~mask] ** 2))
        assert abs(clean_out - clean_in) / clean_in < 0.1


def test_asr_all_zero_recording():
    zero = Recording("z", 0, FS, CHANNELS_1020, np.zeros((19, int(20 * FS))))
    model = asr_calibrate(zero)
    out = asr_process(zero, model)
    assert not out.samples.any()


def test_asr_idempotent_in_clean_limit():
    rec = stationary_recording(seed=9)
    model = asr_calibrate(rec)
    once = asr_process(rec, model)
    twice = asr_process(once, model)
    delta = np.sqrt(np.mean((twice.samples - once.samples) ** 2))
    assert delta < 0.05 * np.sqrt(np.mean(once.samples ** 2))


def test_asr_channel_mismatch():
    rec = stationary_recording()
    model = asr_calibrate(rec)
    small = Recording("s", 0, FS, CHANNELS_1020[:5],
                      np.zeros((5, int(20 * FS))))
    with pytest.raises(ValueError, match="channel count"):
        asr_process(small, model)


# ---------------------------------------------------------------------------
# ICA

def test_ica_blind_source_separation():
    from scipy import signal as sps
    rng = np.random.default_rng(7)
    t = np.arange(int(30 * FS)) / FS
    sources = np.vstack([
        np.sin(2 * np.pi * 10 * t),
        sps.sawtooth(2 * np.pi * 3 * t),
        rng.uniform(-1, 1, t.size),
    ])
    mixing = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
    rec = Recording("bss", 0, FS, ("F3", "C3", "P3"), mixing @ sources)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dec = ica_decompose(rec, IcaParams(rng_seed=1))
    assert dec.converged
    cors = np.abs(np.corrcoef(np.vstack([sources, dec.sources]))[:3, 3:])
    assert np.all(cors.max(axis=1) >= 0.95)


def test_ica_identity_mixing_permutation():
    rng = np.random.default_rng(2)
    n = 8000
    sources = rng.uniform(-1, 1, (19, n))  # independent, non-Gaussian
    rec = Recording("id", 0, FS, CHANNELS_1020, sources)
    dec = ica_decompose(rec, IcaParams(rng_seed=0))
    w = dec.unmixing
    scaled = w / np.linalg.norm(w, axis=1, keepdims=True)
    # each row should align with exactly one axis
    peak = np.max(np.abs(scaled), axis=1)
    assert np.all(peak >= 0.95)


def test_ica_rank_deficient_input():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((19, 8000))
    x[1] = x[0]  # duplicate channel
    rec = Recording("rd", 0, FS, CHANNELS_1020, x)
    dec = ica_decompose(rec, IcaParams(rng_seed=0))
    assert dec.n_components <= 18


def test_ica_reconstruct_identity_and_none():
    rng = np.random.default_rng(6)
    rec = Recording("r", 0, FS, CHANNELS_1020,
                    rng.uniform(-1, 1, (19, 8000)))
    dec = ica_decompose(rec, IcaParams(rng_seed=3))
    full = ica_reconstruct(rec, dec, keep=[True] * dec.n_components)
    rel = (np.linalg.norm(full.samples - rec.samples)
           / np.linalg.norm(rec.samples))
    assert rel < 1e-6
    none = ica_reconstruct(rec, dec, keep=[False] * dec.n_components)
    assert not none.samples.any()


def test_ica_deterministic_under_seed():
    rng = np.random.default_rng(8)
    rec = Recording("d", 0, FS, CHANNELS_1020, rng.uniform(-1, 1, (19, 7600)))
    d1 = ica_decompose(rec, IcaParams(rng_seed=42))
    d2 = ica_decompose(rec, IcaParams(rng_seed=42))
    assert np.array_equal(d1.unmixing, d2.unmixing)


def test_ica_drop_line_component():
    rng = np.random.default_rng(10)
    t = np.arange(8000) / FS
    sources = rng.uniform(-1, 1, (19, 8000))
    line = 3.0 * np.sin(2 * np.pi * 50 * t)
    mixed = sources + line  # same line on every channel
    rec = Recording("ln", 0, FS, CHANNELS_1020, mixed)
    dec = ica_decompose(rec, IcaParams(rng_seed=5))
    labels = label_components(dec, FS)
    assert "line_noise" in labels
    out = ica_reconstruct(rec, dec, [lab != "line_noise" for lab in labels])

    def line_power(x):
        freqs, psd = one_row(welch_psd, x, FS)
        return psd[np.argmin(np.abs(freqs - 50.0))]

    for ch in range(0, 19, 6):
        assert line_power(out.samples[ch]) <= 1e-2 * line_power(mixed[ch])


# ---------------------------------------------------------------------------
# component labeling rules

def _decomp_with_sources(sources, mixing):
    return cleaning.IcaDecomposition(
        unmixing=np.linalg.pinv(mixing), mixing=mixing, sources=sources,
        converged=True)


def test_label_line_noise_rule():
    t = np.arange(4096) / FS
    src = np.vstack([np.sin(2 * np.pi * 50 * t)])
    mixing = np.ones((19, 1)) / np.sqrt(19)
    dec = _decomp_with_sources(src, mixing)
    assert label_components(dec, FS) == ["line_noise"]


def test_label_ocular_rule(cleaning_cohort):
    # a blink-only source: low frequency, frontal topography
    t = np.arange(4096) / FS
    wave = np.zeros(4096)
    for t0 in (3.0, 10.0, 17.0, 24.0):
        i0 = int(t0 * FS)
        seg = synth._blink_waveform(FS)
        wave[i0:i0 + seg.size] += seg
    mixing = synth._frontal_weights(CHANNELS_1020)[:, None]
    dec = _decomp_with_sources(wave[None, :], mixing)
    assert label_components(dec, FS) == ["ocular"]


def test_label_muscle_rule():
    rng = np.random.default_rng(3)
    n = 4096
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1 / FS)
    spec[(f < 20) | (f > 45)] = 0.0
    src = np.fft.irfft(spec, n)[None, :]
    mixing = np.zeros((19, 1))
    mixing[10, 0] = 0.9
    mixing[11, 0] = 0.4
    dec = _decomp_with_sources(src, mixing)
    assert label_components(dec, FS) == ["muscle"]


def test_label_channel_noise_rule():
    rng = np.random.default_rng(4)
    # broadband noise, all loading on one channel
    src = rng.standard_normal((1, 4096))
    mixing = np.zeros((19, 1))
    mixing[7, 0] = 1.0
    mixing[8, 0] = 0.05
    dec = _decomp_with_sources(src, mixing)
    assert label_components(dec, FS) == ["channel_noise"]


def test_label_brain_default():
    rng = np.random.default_rng(5)
    n = 4096
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1 / FS)
    shape = np.zeros_like(f)
    shape[1:] = f[1:] ** -0.5
    src = np.fft.irfft(spec * shape, n)[None, :]
    mixing = np.ones((19, 1)) / np.sqrt(19.0)
    dec = _decomp_with_sources(src, mixing)
    assert label_components(dec, FS) == ["brain"]


# ---------------------------------------------------------------------------
# pipelines

def test_pipeline_raw_is_identity(small_cohort):
    cohort, _ = small_cohort
    out = run_pipeline(cohort[0], CleaningPipeline(kind="raw"))
    assert np.array_equal(out.samples, cohort[0].samples)


def test_pipeline_filtered_equals_fir(small_cohort):
    cohort, _ = small_cohort
    out = run_pipeline(cohort[0], CleaningPipeline(kind="filtered"))
    assert np.array_equal(out.samples, fir_bandpass(cohort[0]).samples)


def test_pipeline_shapes_preserved(cleaning_cohort):
    cohort, _ = cleaning_cohort
    rec = cohort[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in ("raw", "filtered", "asr", "ica"):
            out = run_pipeline(rec, CleaningPipeline(kind=kind))
            assert out.samples.shape == rec.samples.shape


def test_pipeline_ica_keeps_the_recording_metadata():
    rng = np.random.default_rng(17)
    rec = Recording("meta", 1, FS, CHANNELS_1020,
                    rng.uniform(-1, 1, (19, 8000)))
    out = run_pipeline(rec, CleaningPipeline(kind="ica"))
    assert out.subject_id == "meta"
    assert out.label == 1
    assert out.sample_rate_hz == FS
    assert out.channel_names == CHANNELS_1020


def test_pipeline_monotone_artifact_energy(cleaning_cohort):
    cohort, truth = cleaning_cohort
    for rec in cohort[:2]:
        mask = truth.artifact_mask[rec.subject_id]
        raw = rec.samples
        fil = run_pipeline(rec, CleaningPipeline(kind="filtered")).samples
        asr = run_pipeline(rec, CleaningPipeline(kind="asr")).samples
        e_raw = np.sum(raw[:, mask] ** 2)
        e_fil = np.sum(fil[:, mask] ** 2)
        e_asr = np.sum(asr[:, mask] ** 2)
        assert e_raw >= e_fil >= e_asr


def test_pipeline_ica_improves_frontal_correlation(cleaning_cohort):
    cohort, truth = cleaning_cohort
    improved = 0
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rec in cohort[:3]:
            clean = truth.clean[rec.subject_id]
            fil = run_pipeline(rec, CleaningPipeline(kind="filtered"))
            ica = run_pipeline(rec, CleaningPipeline(kind="ica"))
            for ch_name in ("Fp1", "Fp2"):
                ch = CHANNELS_1020.index(ch_name)
                c_f = np.corrcoef(fil.samples[ch], clean[ch])[0, 1]
                c_i = np.corrcoef(ica.samples[ch], clean[ch])[0, 1]
                improved += c_i > c_f
                total += 1
    assert improved == total


def _metadata(rec):
    return (rec.subject_id, rec.label, rec.sample_rate_hz, rec.channel_names)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from((9.0, 10.0, 12.0, 16.0)),
       st.sampled_from(((), ARTIFACT_MIX)), st.integers(0, 1))
def test_every_stage_of_the_walk_keeps_the_shape(seed, seconds, artifacts,
                                                 index):
    """Each stage keeps the input's shape and metadata and equals its
    standalone pipeline byte for byte; a stage that fails fails its own
    and every later standalone pipeline with the same message."""
    spec = synth.SynthSpec(n_subjects_per_class=1, duration_s=seconds,
                           artifacts=artifacts, rng_seed=seed)
    rec = synth.generate_cohort(spec)[0][index]
    stages, error = [], None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for stage in walk_pipeline(rec, CleaningPipeline(kind="ica")):
                stages.append(stage)
        except ValueError as exc:
            error = str(exc)
        assert [kind for kind, _, _ in stages] == \
            list(PIPELINE_KINDS[:len(stages)])
        for kind, out, info in stages:
            assert info["kind"] == kind
            assert out.samples.shape == rec.samples.shape
            assert _metadata(out) == _metadata(rec)
            alone = run_pipeline(rec, CleaningPipeline(kind=kind))
            assert out.samples.tobytes() == alone.samples.tobytes()
        assert (error is None) == (len(stages) == len(PIPELINE_KINDS))
        for kind in PIPELINE_KINDS[len(stages):]:
            with pytest.raises(ValueError) as alone:
                run_pipeline(rec, CleaningPipeline(kind=kind))
            assert str(alone.value) == error


def test_walk_stops_at_a_failed_asr_calibration():
    spec = synth.SynthSpec(n_subjects_per_class=1, duration_s=9.0,
                           artifacts=ARTIFACT_MIX, rng_seed=0)
    rec = synth.generate_cohort(spec)[0][0]
    walk = walk_pipeline(rec, CleaningPipeline(kind="ica"))
    kind, raw, _ = next(walk)
    assert kind == "raw" and raw is rec
    assert next(walk)[0] == "filtered"
    with pytest.raises(ValueError,
                       match="insufficient clean calibration data") as err:
        next(walk)
    for kind in ("asr", "ica"):
        with pytest.raises(ValueError) as alone:
            run_pipeline(rec, CleaningPipeline(kind=kind))
        assert str(alone.value) == str(err.value)


def test_asr_params_validation():
    with pytest.raises(ValueError, match="cutoff_k"):
        AsrParams(cutoff_k=0.0)
    with pytest.raises(ValueError, match="proc_overlap"):
        AsrParams(proc_overlap=1.0)
    with pytest.raises(ValueError, match="pipeline kind"):
        CleaningPipeline(kind="fancy")


def test_ica_identity_on_retained_rank():
    rng = np.random.default_rng(15)
    rec = Recording("i", 0, FS, CHANNELS_1020, rng.uniform(-1, 1, (19, 7600)))
    dec = ica_decompose(rec, IcaParams(rng_seed=2))
    k = dec.n_components
    resid = np.linalg.norm(dec.unmixing @ dec.mixing - np.eye(k))
    assert resid < 1e-6


def test_ica_warns_on_short_recording():
    rng = np.random.default_rng(16)
    rec = Recording("w", 0, FS, CHANNELS_1020, rng.uniform(-1, 1, (19, 3000)))
    with pytest.warns(UserWarning, match="better conditioned"):
        ica_decompose(rec, IcaParams(rng_seed=0, max_iter=5))
