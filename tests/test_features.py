import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

import higuchi_reference
import oracles
from conftest import FS, golden_corpus, one_row, raw_feature_matrix
from eegsweep import features as F

T8 = np.arange(int(8 * FS)) / FS
T16 = np.arange(int(16 * FS)) / FS
SINE10 = np.sin(2 * np.pi * 10 * T8)


def feat(x, name, fs=FS):
    vec = F.extract_channel(np.asarray(x, float), fs)
    return vec[F.FEATURE_NAMES.index(name)]


# ---------------------------------------------------------------------------
# welch_psd

def test_welch_peak_at_tone():
    freqs, psd = one_row(F.welch_psd, SINE10, FS)
    assert abs(freqs[np.argmax(psd)] - 10.0) <= 0.5


def test_welch_white_noise_flat():
    acc = None
    for s in range(50):
        x = np.random.default_rng(s).standard_normal(int(8 * FS))
        freqs, psd = one_row(F.welch_psd, x, FS)
        acc = psd if acc is None else acc + psd
    band = acc[(freqs >= 1) & (freqs <= 40)]
    assert band.max() / band.min() < 10


def test_welch_zero_signal():
    _, psd = one_row(F.welch_psd, np.zeros(1024), FS)
    assert not psd.any()


def test_welch_parseval():
    x = np.random.default_rng(3).standard_normal(4096)
    freqs, psd = one_row(F.welch_psd, x, FS)
    df = freqs[1] - freqs[0]
    assert psd.sum() * df == pytest.approx(np.var(x), rel=0.1)


# ---------------------------------------------------------------------------
# band powers

def test_band_powers_sine6():
    freqs, psd = one_row(F.welch_psd, 2.0 * np.sin(2 * np.pi * 6 * T8), FS)
    powers = one_row(F.band_powers, freqs, psd)
    assert powers[1] >= 0.95  # theta


def test_band_powers_two_tone_ratio():
    x = np.sin(2 * np.pi * 2 * T8) + np.sin(2 * np.pi * 10 * T8)
    freqs, psd = one_row(F.welch_psd, x, FS)
    powers = one_row(F.band_powers, freqs, psd)
    ratio = powers[0] / powers[2]
    assert 0.8 <= ratio <= 1.25


def test_band_powers_flat_psd():
    freqs = np.linspace(0.0, 64.0, 1281)
    psd = np.ones_like(freqs)
    powers = one_row(F.band_powers, freqs, psd)
    assert powers[0] == pytest.approx(3.5 / 39.5, rel=0.02)
    assert sum(powers) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# hjorth

def test_hjorth_sine_closed_form():
    x = np.sin(2 * np.pi * 10 * T16)
    omega = 2 * np.pi * 10 / FS
    _, mob, comp = one_row(F.hjorth, x)
    assert mob == pytest.approx(2 * np.sin(omega / 2), abs=1e-3)
    assert comp == pytest.approx(1.0, abs=1e-3)


def test_hjorth_noise_complexity_above_one():
    for s in range(10):
        x = np.random.default_rng(s).standard_normal(2048)
        assert one_row(F.hjorth, x)[2] > 1.0


def test_hjorth_constant_sentinel():
    assert one_row(F.hjorth, np.full(512, 2.0)) == (0.0, 0.0, 0.0)


def test_hjorth_spect_moments():
    freqs = np.array([0.0, 1.0, 2.0, 3.0])
    psd = np.array([0.0, 1.0, 0.0, 0.0])
    mob, comp = one_row(F.hjorth_spect, freqs, psd)
    assert mob == pytest.approx(1.0)
    assert comp == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# fractal dimensions

def test_katz_straight_line_exact():
    line = np.arange(1024, dtype=float)
    _, katz = one_row(F.fractal, line)
    assert katz == 1.0


def test_higuchi_slow_sine_range():
    x = np.sin(2 * np.pi * 2 * T16)
    hfd, _ = one_row(F.fractal, x)
    assert 1.0 <= hfd <= 1.3


def test_higuchi_noise_range():
    for s in range(20):
        x = np.random.default_rng(s).standard_normal(2048)
        hfd, _ = one_row(F.fractal, x)
        assert 1.9 <= hfd <= 2.0


def test_fractal_constant_sentinels():
    hfd, katz = one_row(F.fractal, np.full(400, 1.5))
    assert hfd == 1.0 and katz == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the huge row
def test_fractal_of_a_row_whose_summed_steps_overflow():
    # Katz's log10(d / L) raised "math domain error" once L overflowed
    x = np.random.default_rng(4).standard_normal(512)
    hfd, katz = F.fractal(np.stack([x, 2.0 ** 1020 * x]))
    assert abs(hfd[1] - hfd[0]) <= 1e-12 and abs(katz[1] - katz[0]) <= 1e-12
    # the other row of the stack keeps its bytes
    assert (hfd[0], katz[0]) == one_row(F.fractal, x)
    F.extract_channel(2.0 ** 1020 * x, FS)


@st.composite
def higuchi_cases(draw):
    """Signals long enough for pairwise summation to recurse, with tied
    steps, a constant run or a tiny scale, and kmax up to a third of the
    length."""
    n = draw(st.integers(3, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(n) * draw(st.sampled_from([1.0, 1e3, 1e-150]))
    shape = draw(st.sampled_from(["noise", "rounded", "flat_run", "walk"]))
    if shape == "rounded":
        x = np.round(x, 1)
    elif shape == "flat_run":
        x[n // 4:n // 2] = x[n // 4]
    elif shape == "walk":
        x = np.cumsum(x)
    return x, draw(st.integers(1, max(1, min(40, (n - 1) // 3))))


@settings(max_examples=150, deadline=None)
@given(higuchi_cases())
def test_curve_lengths_equal_the_per_curve_gathers(case):
    x, kmax = case
    assert (F._curve_lengths(x[None], kmax)[0].tobytes()
            == higuchi_reference.curve_lengths(x, kmax).tobytes())


def test_curve_lengths_of_a_strided_signal():
    # a channel row of a recording sliced by a step is not contiguous
    x = np.random.default_rng(9).standard_normal((3, 4000))[1, ::2]
    assert (F._curve_lengths(x[None], 10)[0].tobytes()
            == higuchi_reference.curve_lengths(x, 10).tobytes())


# ---------------------------------------------------------------------------
# entropies / decorrelation / hurst

def test_entropies_sine_low():
    freqs, psd = one_row(F.welch_psd, SINE10, FS)
    assert one_row(F.spect_entropy, freqs, psd) <= 0.2
    assert one_row(F.app_entropy, SINE10) <= 0.3


def test_entropies_noise():
    ses, dts = [], []
    for s in range(30):
        x = np.random.default_rng(s).standard_normal(2048)
        ses.append(one_row(F.spect_entropy, *one_row(F.welch_psd, x, FS)))
        dts.append(one_row(F.decorr_time, x, FS))
    assert min(ses) >= 0.9
    # white-noise autocorrelation hovers around zero from lag 1 on; the
    # first non-positive lag is small but not always exactly 1
    dts = np.array(dts)
    assert np.all(dts >= 1 / FS)
    assert np.median(dts) <= 3 / FS
    assert (dts == 1 / FS).mean() >= 0.3


def test_app_entropy_constant_sentinel():
    assert one_row(F.app_entropy, np.full(600, 4.2)) == 0.0


def _phi_two_searches(x, m, r):
    """phi(m) by its definition, from its own tree and ball query; the
    reference for app_entropy's counts from one neighbour search."""
    n = x.size - m + 1
    emb = np.lib.stride_tricks.sliding_window_view(x, m)
    counts = cKDTree(emb).query_ball_point(emb, r, p=np.inf,
                                           return_length=True)
    return float(np.mean(np.log(counts / n)))


def app_entropy_two_searches(x, m, r_factor):
    # ApEn does not depend on scale: an exact power of two brings the
    # largest |sample| into [0.5, 1), so that the std stays finite and
    # every distance and the radius keep their ratios
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    r = r_factor * float(np.std(x, ddof=1))
    if r == 0.0:
        return 0.0
    return _phi_two_searches(x, m, r) - _phi_two_searches(x, m + 1, r)


#: The longest row the strategy draws under each block budget (None keeps
#: features._APEN_CANDIDATES), so that a tiny budget still runs in a few
#: thousand blocks.
_APEN_BUDGET_ROWS = {None: 4000, 97: 1200, 7: 320}


@st.composite
def app_entropy_cases(draw):
    """(signal, m, r_factor, block budget): noise, random walks, small
    integers with heavy ties, noise with one spike at 1e6 std, or a
    constant, scaled by 1e-150 to 1e150; the radius is the default, a tiny
    one that matches nothing but ties, or the Chebyshev distance of a pair
    of m-vectors, so that a pair sits exactly on r; the block budget is
    the default or small enough that a row spans many blocks."""
    budget = draw(st.sampled_from(list(_APEN_BUDGET_ROWS)))
    n = draw(st.integers(256, _APEN_BUDGET_ROWS[budget]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["noise", "walk", "ties", "spike",
                                 "constant"]))
    if kind in ("noise", "spike"):
        x = rng.standard_normal(n)
        if kind == "spike":
            x[draw(st.integers(0, n - 1))] = 1e6 * np.std(x, ddof=1)
    elif kind == "walk":
        x = np.cumsum(rng.standard_normal(n))
    elif kind == "ties":
        k = draw(st.integers(3, 20))
        x = rng.integers(-k, k + 1, n).astype(float)
    else:
        x = np.full(n, draw(st.floats(-1e3, 1e3)))
    x = x * 10.0 ** draw(st.integers(-150, 150))
    m = draw(st.integers(1, 4))
    std = float(np.std(x, ddof=1))  # inf for a spike at 1e150
    radius = draw(st.sampled_from(["default", "tiny", "pair"]))
    if radius == "default" or np.ptp(x) == 0.0 or std == np.inf:
        return x, m, 0.2, budget
    if radius == "tiny":
        return x, m, 1e-9, budget
    emb = np.lib.stride_tricks.sliding_window_view(x, m)
    a = draw(st.integers(0, n - m))
    dists = np.unique(np.max(np.abs(emb - emb[a]), axis=1))[1:]
    d = float(dists[int(draw(st.floats(0.0, 0.05)) * (dists.size - 1))])
    r_factor = d / std
    # the neighbour of d / std whose product with std gives d exactly
    for cand in (r_factor, np.nextafter(r_factor, np.inf),
                 np.nextafter(r_factor, 0.0)):
        if float(cand) * std == d:
            r_factor = float(cand)
            break
    return x, m, r_factor, budget


#: Noise with a spike at 1e6 std, times 1e150: its std overflows, so the
#: strategy keeps the default radius, and an oracle that took the std of
#: the unscaled row read 0.0 for it.
_SPIKE_1E150 = np.random.default_rng(3).standard_normal(300)
_SPIKE_1E150[5] = 1e6 * np.std(_SPIKE_1E150, ddof=1)
_SPIKE_1E150 *= 1e150


@settings(max_examples=60, deadline=None)
@given(app_entropy_cases())
@example((_SPIKE_1E150, 2, 0.2, None))
def test_app_entropy_equals_the_two_search_formula(case):
    x, m, r_factor, budget = case
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(F, "_APEN_CANDIDATES", budget)
        assert (one_row(F.app_entropy, x, m, r_factor)
                == app_entropy_two_searches(x, m, r_factor))


def test_app_entropy_memory_is_bounded_on_a_long_row():
    # one 285 s row at 128 Hz, where the array of every pair within r
    # would take over 300 MB
    x = np.random.default_rng(7).standard_normal(36480)
    tracemalloc.start()
    try:
        one_row(F.app_entropy, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


@pytest.mark.parametrize("m", [1, 2, 3])
def test_app_entropy_radius_nan_and_inf(m):
    # a NaN sample gives a NaN radius. +-1.7e308 halves, whose sum is
    # inf - inf, and a scale of 1e160, which overflows the variance, read
    # what the same rows read scaled by an exact power of two (they read
    # a NaN radius and 0.0)
    with pytest.raises(ValueError, match="radius is NaN"):
        one_row(F.app_entropy, np.r_[np.nan, np.zeros(40)], m)
    halves = np.repeat([1.7e308, -1.7e308], 4)
    assert one_row(F.app_entropy, halves, m) \
        == one_row(F.app_entropy, np.ldexp(halves, -1100), m)
    big = np.random.default_rng(m).standard_normal(40) * 1e160
    assert one_row(F.app_entropy, big, m) \
        == one_row(F.app_entropy, np.ldexp(big, -540), m) != 0.0


def test_decorr_time_slow_sine():
    # quarter period of a 1 Hz tone is 0.25 s
    x = np.sin(2 * np.pi * 1.0 * T8)
    assert one_row(F.decorr_time, x, FS) == pytest.approx(0.25, abs=0.05)


def test_hurst_white_noise_calibrated():
    vals = [one_row(F.hurst_exp,
                    np.random.default_rng(s).standard_normal(2048))
            for s in range(40)]
    assert all(abs(v - 0.5) <= 0.1 for v in vals)


def test_hurst_persistent_signal_high():
    walk = np.cumsum(np.random.default_rng(0).standard_normal(2048))
    assert one_row(F.hurst_exp, walk) > 0.8


# ---------------------------------------------------------------------------
# psd fit

def test_psd_fit_exact_power_law():
    freqs = np.linspace(0.5, 64, 1000)
    psd = freqs ** -2.0
    intercept, slope, mse, r2 = one_row(F.psd_fit, freqs, psd)
    assert slope == pytest.approx(-2.0, abs=1e-6)
    assert r2 == pytest.approx(1.0, abs=1e-9)
    assert mse <= 1e-12


def test_psd_fit_constant_degenerate():
    freqs = np.linspace(0.5, 64, 1000)
    psd = np.full_like(freqs, 2.5)
    intercept, slope, mse, r2 = one_row(F.psd_fit, freqs, psd)
    assert slope == 0.0
    assert intercept == pytest.approx(np.log10(2.5))
    assert r2 == 0.0


def test_psd_fit_pink_noise_slope():
    slopes = []
    for s in range(10):
        rng = np.random.default_rng(s)
        n = int(16 * FS)
        w = rng.standard_normal(n)
        spec = np.fft.rfft(w)
        f = np.fft.rfftfreq(n)
        shape = np.zeros_like(f)
        shape[1:] = f[1:] ** -0.5
        x = np.fft.irfft(spec * shape, n)
        freqs, psd = one_row(F.welch_psd, x, FS)
        slopes.append(one_row(F.psd_fit, freqs, psd)[1])
    assert np.mean(slopes) == pytest.approx(-1.0, abs=0.3)


# ---------------------------------------------------------------------------
# band energies

def test_band_energies_sine10():
    energies = one_row(F.band_energies, SINE10, FS)
    assert energies[2] == pytest.approx(0.5, abs=0.02)
    assert energies[0] <= 0.01 and energies[1] <= 0.01 and energies[3] <= 0.01


def test_band_energies_zero():
    assert not any(one_row(F.band_energies, np.zeros(1024), FS))


def test_band_energies_quadratic_scaling():
    x = np.random.default_rng(1).standard_normal(1024)
    e1 = np.array(one_row(F.band_energies, x, FS))
    e2 = np.array(one_row(F.band_energies, 2.0 * x, FS))
    assert np.allclose(e2, 4.0 * e1, rtol=0.01)


# ---------------------------------------------------------------------------
# wavelet features

def test_wavelet_zero_signal():
    energies, tkeo = one_row(F.wavelet_features, np.zeros(1024))
    assert not energies.any() and not tkeo.any()


def test_wavelet_impulse_energy():
    x = np.zeros(1024)
    x[512] = 1.0
    from eegsweep import dwt
    approx, details = dwt.wavedec(x, 6)
    total = (approx ** 2).sum() + sum((d ** 2).sum() for d in details)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_wavelet_sine32_boundary_band():
    x = np.sin(2 * np.pi * 32 * T8)
    energies, _ = one_row(F.wavelet_features, x)
    from eegsweep import dwt
    _, details = dwt.wavedec(x, 6)
    sums = [(d ** 2).sum() for d in details]
    assert (sums[0] + sums[1]) / sum(sums) >= 0.9


def test_wavelet_too_short():
    with pytest.raises(ValueError, match="too short"):
        one_row(F.wavelet_features, np.zeros(64))


# ---------------------------------------------------------------------------
# extract_channel contract

def test_extract_sine_examples():
    vec = F.extract_channel(SINE10, FS)
    d = dict(zip(F.FEATURE_NAMES, vec))
    assert d["pow_alpha"] >= 0.95
    assert d["pow_delta"] + d["pow_theta"] + d["pow_beta"] <= 0.05
    assert abs(d["zero_crossings"] - 160) <= 1
    assert d["rms"] == pytest.approx(0.7071, abs=1e-3)


def test_extract_white_noise_examples():
    for s in range(5):
        x = np.random.default_rng(s).standard_normal(int(16 * FS))
        d = dict(zip(F.FEATURE_NAMES, F.extract_channel(x, FS)))
        assert d["spect_entropy"] >= 0.9
        assert 1.9 <= d["higuchi_fd"] <= 2.0
        assert abs(d["hurst_exp"] - 0.5) <= 0.1


def test_extract_constant_all_finite_sentinels():
    vec = F.extract_channel(np.full(512, 5.0), FS)
    assert np.all(np.isfinite(vec))
    d = dict(zip(F.FEATURE_NAMES, vec))
    assert d["skewness"] == 0.0 and d["kurtosis"] == 0.0
    assert d["hjorth_mobility"] == 0.0 and d["hjorth_complexity"] == 0.0
    assert d["app_entropy"] == 0.0
    assert d["rms"] == pytest.approx(5.0)
    assert d["variance"] == 0.0


def test_extract_rejects_short_and_nonfinite():
    with pytest.raises(ValueError, match="shorter than 2 s"):
        F.extract_channel(np.zeros(100), FS)
    bad = np.zeros(512)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        F.extract_channel(bad, FS)


def test_moments_of_a_signal_whose_powers_underflow():
    # m2 > 0, but m2 ** 1.5 and m2 ** 2 underflow to 0
    x = 1e-110 * np.random.default_rng(4).standard_normal(512)
    assert one_row(F.moments, x)[1:] == (0.0, 0.0)
    assert np.all(np.isfinite(F.extract_channel(x, FS)))


@pytest.mark.parametrize("k", [256, 260, 500])
def test_moments_of_a_signal_whose_m2_squared_overflows(k):
    # m2 ** 2 overflows from k = 256; the moments do not depend on scale
    x = np.random.default_rng(4).standard_normal(512)
    cols = [F.FEATURE_NAMES.index(name) for name in ("skewness", "kurtosis")]
    want = F.extract_channel(x, FS)[cols]
    got = F.extract_channel(2.0 ** k * x, FS)[cols]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert one_row(F.moments, 2.0 ** k * x)[1:] == tuple(got)


def test_moments_of_a_signal_whose_fourth_moment_overflows():
    # the mean of xm ** 4 overflows from k = 254, two powers before
    # m2 ** 2; the moments read the bits of the unscaled signal's
    x = np.random.default_rng(4).standard_normal(512)
    cols = [F.FEATURE_NAMES.index(name) for name in ("skewness", "kurtosis")]
    want = F.extract_channel(x, FS)[cols]
    for k in range(240, 261):
        got = F.extract_channel(2.0 ** k * x, FS)[cols]
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("k", [254, 300, 500])
def test_tkeo_stds_of_a_signal_whose_tkeo_squared_overflows(k):
    # Teager-Kaiser energy scales by 4 ** k and stays finite up to
    # k = 511, but its square overflows from k = 254
    x = np.random.default_rng(4).standard_normal(512)
    cols = [i for i, name in enumerate(F.FEATURE_NAMES)
            if name.startswith("tkeo_") and name.endswith("_std")]
    base = F.extract_channel(x, FS)[cols]
    got = F.extract_channel(2.0 ** k * x, FS)[cols]
    assert got.tobytes() == np.ldexp(base, 2 * k).tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(int(2 * FS), 1200),
                  elements=st.floats(-1e3, 1e3)))
def test_extract_channel_finite_on_any_finite_signal(x):
    vec = F.extract_channel(x, FS)
    assert vec.shape == (F.N_FEATURES,)
    assert np.all(np.isfinite(vec))


def test_all_53_finite_on_golden_corpus():
    for name, x in golden_corpus():
        vec = F.extract_channel(x, FS)
        assert vec.shape == (53,)
        assert np.all(np.isfinite(vec)), name


# ---------------------------------------------------------------------------
# invariants

SCALE_BY_C = ("mean", "std", "rms", "ptp_amp")
SCALE_BY_C2 = ("variance", "energy_delta", "energy_theta", "energy_alpha",
               "energy_beta")
SCALE_INVARIANT = ("skewness", "kurtosis", "zero_crossings",
                   "hjorth_mobility", "hjorth_complexity", "higuchi_fd",
                   "pow_delta", "pow_theta", "pow_alpha", "pow_beta",
                   "spect_entropy", "psd_fit_slope", "psd_fit_r2")


def test_scale_behavior():
    x = np.random.default_rng(11).standard_normal(int(8 * FS))
    c = 3.7
    v1 = dict(zip(F.FEATURE_NAMES, F.extract_channel(x, FS)))
    v2 = dict(zip(F.FEATURE_NAMES, F.extract_channel(c * x, FS)))
    for name in SCALE_BY_C:
        assert v2[name] == pytest.approx(c * v1[name], rel=1e-6), name
    for name in SCALE_BY_C2:
        assert v2[name] == pytest.approx(c * c * v1[name], rel=1e-6), name
    for name in SCALE_INVARIANT:
        assert v2[name] == pytest.approx(v1[name], rel=1e-6, abs=1e-9), name


SPECTRAL = ("pow_delta", "pow_theta", "pow_alpha", "pow_beta",
            "spect_entropy", "hjorth_mobility_spect",
            "hjorth_complexity_spect")


def test_time_shift_spectral_stability_tones():
    t = np.arange(int(16 * FS)) / FS
    x = (np.sin(2 * np.pi * 2 * t) + np.sin(2 * np.pi * 6 * t)
         + np.sin(2 * np.pi * 10 * t) + 0.5 * np.sin(2 * np.pi * 20 * t))
    v1 = dict(zip(F.FEATURE_NAMES, F.extract_channel(x, FS)))
    v2 = dict(zip(F.FEATURE_NAMES, F.extract_channel(np.roll(x, 137), FS)))
    for name in SPECTRAL:
        assert v2[name] == pytest.approx(v1[name], rel=0.01), name
    assert abs(v2["spect_edge_freq_95"] - v1["spect_edge_freq_95"]) <= 0.5


def test_time_shift_spectral_stability_noise():
    # a circular shift rewrites the Welch segments straddling the wrap
    # junction (2 of 63 here), which moves narrow-band powers of noise by
    # up to a few percent; tones above pin the sub-1% behavior
    x = np.random.default_rng(12).standard_normal(int(64 * FS))
    v1 = dict(zip(F.FEATURE_NAMES, F.extract_channel(x, FS)))
    v2 = dict(zip(F.FEATURE_NAMES, F.extract_channel(np.roll(x, 1280), FS)))
    for name in SPECTRAL:
        assert v2[name] == pytest.approx(v1[name], rel=0.03), name
    assert abs(v2["spect_edge_freq_95"] - v1["spect_edge_freq_95"]) <= 0.5


REGRESSION_FEATURES = {"hurst_exp", "higuchi_fd", "psd_fit_intercept",
                       "psd_fit_slope", "psd_fit_mse", "psd_fit_r2"}


def test_oracle_equivalence_spot_check():
    # the full-corpus check is acceptance criterion 1; spot-check two
    # signals here so feature regressions fail fast
    for name, x in [("sine", SINE10),
                    ("noise",
                     np.random.default_rng(9).standard_normal(1024))]:
        mine = F.extract_channel(x, FS)
        ref = oracles.feature_vector(x, FS)
        for i, fn in enumerate(F.FEATURE_NAMES):
            tol = 1e-3 if fn in REGRESSION_FEATURES else 1e-6
            assert mine[i] == pytest.approx(ref[i], rel=tol, abs=1e-9), \
                (fn, name)


# ---------------------------------------------------------------------------
# matrices

def test_feature_matrix_csv_round_trip(tmp_path, small_cohort):
    cohort, _ = small_cohort
    m = raw_feature_matrix(cohort, ["Cz"])
    path = tmp_path / "feat.csv"
    m.to_csv(path)
    back = F.FeatureMatrix.from_csv(path)
    assert back.column_names == m.column_names
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.labels, m.labels)


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(0, 6)), data=st.data())
def test_feature_matrix_csv_round_trip_bit_exact(shape, data):
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    labels = data.draw(hnp.arrays(int, shape[0], elements=st.integers(0, 1)))
    m = F.FeatureMatrix(column_names=["c%d" % j for j in range(shape[1])],
                        values=values, labels=labels,
                        subject_ids=["s%03d" % i for i in range(shape[0])])
    with tempfile.TemporaryDirectory() as tmp:
        m.to_csv(Path(tmp) / "feat.csv")
        back = F.FeatureMatrix.from_csv(Path(tmp) / "feat.csv")
    assert back.column_names == m.column_names
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))
    assert np.array_equal(back.labels, labels)


def test_feature_bound_invariants_on_corpus():
    for name, x in golden_corpus():
        d = dict(zip(F.FEATURE_NAMES, F.extract_channel(x, FS)))
        powers = [d["pow_delta"], d["pow_theta"], d["pow_alpha"],
                  d["pow_beta"]]
        assert all(0.0 <= p <= 1.0 for p in powers), name
        assert sum(powers) <= 1.0 + 1e-9, name
        assert 0.0 <= d["spect_entropy"] <= 1.0, name
        assert 1.0 <= d["higuchi_fd"] <= 2.0, name
        assert d["katz_fd"] >= 1.0, name
        assert d["zero_crossings"] == int(d["zero_crossings"]), name
        assert d["decorr_time_s"] >= 1.0 / FS, name
        assert d["variance"] >= 0.0, name
