"""FastICA written into preallocated arrays returns, byte for byte, the
decomposition of the loop with fresh arrays kept in `ica_reference`.

Both sides run under the same BLAS thread count: the process default,
and the one thread that every command runs on. The count itself can
change the last bits of a product (a 19 x 3000 recording decomposes to
other bytes on one thread than on two), so it is held fixed here.
"""

import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from scipy import signal as sps

import ica_reference
from conftest import ARTIFACT_MIX, FS
from eegsweep import synth
from eegsweep.cleaning import IcaParams, ica_decompose
from eegsweep.cli import _one_blas_thread
from eegsweep.data_model import CHANNELS_1020, Recording


def converging_mixture():
    rng = np.random.default_rng(7)
    t = np.arange(int(30 * FS)) / FS
    sources = np.vstack([np.sin(2 * np.pi * 10 * t),
                         sps.sawtooth(2 * np.pi * 3 * t),
                         rng.uniform(-1, 1, t.size)])
    mixing = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
    return Recording("bss", 0, FS, ("F3", "C3", "P3"), mixing @ sources)


def artifact_recording():
    spec = synth.SynthSpec(n_subjects_per_class=1, duration_s=60.0,
                           artifacts=ARTIFACT_MIX, rng_seed=5)
    cohort, _ = synth.generate_cohort(spec)
    return cohort[0]


def rank_deficient():
    x = np.random.default_rng(4).standard_normal((19, 8000))
    x[1] = x[0]
    x[5] = 0.5 * x[2] - x[3]
    return Recording("rd", 0, FS, CHANNELS_1020, x)


def short_recording():
    x = np.random.default_rng(16).uniform(-1, 1, (19, 3000))
    return Recording("w", 0, FS, CHANNELS_1020, x)


CASES = {
    # (recording, params, converged, warns)
    "converging_mixture": (converging_mixture, IcaParams(rng_seed=1),
                           True, False),
    "artifacts_60s_unconverged": (artifact_recording,
                                  IcaParams(rng_seed=0, max_iter=12),
                                  False, False),
    "rank_deficient": (rank_deficient, IcaParams(rng_seed=0), None, False),
    "short_warns": (short_recording, IcaParams(rng_seed=0, max_iter=30),
                    None, True),
}


def decompose(fn, rec, params, warns):
    if warns:
        with pytest.warns(UserWarning, match="better conditioned"):
            return fn(rec, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(rec, params)


@pytest.mark.parametrize("one_thread", [False, True],
                         ids=["default_threads", "one_thread"])
@pytest.mark.parametrize("name", list(CASES))
def test_ica_matches_the_reference_loop(name, one_thread):
    make, params, converged, warns = CASES[name]
    rec = make()
    with _one_blas_thread() if one_thread else nullcontext():
        want = decompose(ica_reference.ica_decompose, rec, params, warns)
        got = decompose(ica_decompose, rec, params, warns)
    for field in ("unmixing", "mixing", "sources"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert got.converged is want.converged
    if converged is not None:
        assert got.converged is converged
    if name == "rank_deficient":
        assert got.n_components < len(CHANNELS_1020)
