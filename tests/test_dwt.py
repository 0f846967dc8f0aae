import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from eegsweep import dwt


def test_db4_filter_identities():
    h = dwt.DB4_LO
    assert np.isclose(h.sum(), np.sqrt(2))
    assert np.isclose((h ** 2).sum(), 1.0)
    # two vanishing moments at least: high-pass kills constants and ramps
    g = dwt.DB4_HI
    assert abs(g.sum()) < 1e-12
    assert abs((np.arange(g.size) * g).sum()) < 1e-10
    # orthogonality of even shifts
    assert abs(np.dot(h[:-2], h[2:])) < 1e-12


def test_impulse_energy_preserved():
    x = np.zeros(1024)
    x[512] = 1.0
    approx, details = dwt.wavedec(x, 6)
    total = (approx ** 2).sum() + sum((d ** 2).sum() for d in details)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_zero_signal_all_zero():
    approx, details = dwt.wavedec(np.zeros(512), 6)
    assert not approx.any()
    assert not any(d.any() for d in details)


def test_constant_goes_to_approximation():
    approx, details = dwt.wavedec(np.full(512, 3.0), 6)
    for d in details:
        # ignore boundary coefficients, interior must vanish
        assert np.max(np.abs(d[4:-4])) < 1e-10


def test_dyadic_band_mapping():
    fs = 128.0
    t = np.arange(int(8 * fs)) / fs
    # 24 Hz sits inside d2 = [16, 32) Hz
    x = np.sin(2 * np.pi * 24 * t)
    _, details = dwt.wavedec(x, 6)
    energies = [float((d ** 2).sum()) for d in details]
    assert np.argmax(energies) == 1


def test_too_short_raises():
    with pytest.raises(ValueError, match="too short"):
        dwt.wavedec(np.zeros(60), 6)


def test_output_lengths():
    x = np.zeros(300)
    approx, details = dwt.wavedec(x, 6)
    n = 300
    for d in details:
        n = (n + len(dwt.DB4_LO) - 1) // 2
        assert d.size == n
    assert approx.size == n


@settings(max_examples=60, deadline=None)
@given(data=st.data(), levels=st.integers(1, 8))
def test_wavedec_matches_oracle_from_the_shortest_input(data, levels):
    # the shortest accepted inputs are where each level's input comes
    # closest to the 7-sample reflection pad
    shortest = 2 ** levels + len(dwt.DB4_LO)
    n = data.draw(st.integers(shortest, shortest + 200), label="n")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    x = np.random.default_rng(seed).standard_normal(n)
    approx, details = dwt.wavedec(x, levels)
    ref_approx, ref_details = oracles.wavelet_subbands(x, levels)
    for got, ref in zip(details + [approx], ref_details + [ref_approx]):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
