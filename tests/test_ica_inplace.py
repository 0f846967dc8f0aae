"""FastICA written into preallocated arrays returns, byte for byte, the
decomposition of the loop with fresh arrays kept in `ica_reference`.

The BLAS thread count can change the last bits of a product (a 19 x 3000
recording decomposes to other bytes on one thread than on two), so
`ica_decompose` runs on one OpenBLAS thread whatever its caller set, and
the reference runs under the same pin. `ica_decompose` is called both
under the process default and under an outer pin.

Its products go through np.dot, which releases the interpreter lock, so
two threads' FastICA run their OpenBLAS calls at once; each must still
give the bytes it gives alone.
"""

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from scipy import signal as sps

import ica_reference
from conftest import ARTIFACT_MIX, FS
from eegsweep import cleaning, sweep, synth
from eegsweep.cleaning import IcaParams, _one_blas_thread, ica_decompose
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
    with _one_blas_thread():
        want = decompose(ica_reference.ica_decompose, rec, params, warns)
    with _one_blas_thread() if one_thread else nullcontext():
        got = decompose(ica_decompose, rec, params, warns)
    for field in ("unmixing", "mixing", "sources"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert got.converged is want.converged
    if converged is not None:
        assert got.converged is converged
    if name == "rank_deficient":
        assert got.n_components < len(CHANNELS_1020)


def test_ica_bytes_do_not_depend_on_the_callers_thread_count():
    blas = cleaning._openblas()
    if blas is None or sweep._usable_cpus() < 2:
        pytest.skip("needs numpy's bundled OpenBLAS and two usable CPUs")
    get, put = blas
    make, params, _, warns = CASES["short_warns"]
    rec = make()
    with _one_blas_thread():
        pinned = decompose(ica_decompose, rec, params, warns)
    before = get()
    put(2)
    try:
        free = decompose(ica_decompose, rec, params, warns)
        assert get() == 2  # the inner pin restores the count it found
    finally:
        put(before)
    for field in ("unmixing", "mixing", "sources"):
        assert getattr(free, field).tobytes() \
            == getattr(pinned, field).tobytes(), field
    assert free.converged is pinned.converged


def test_concurrent_decompositions_give_the_serial_bytes():
    # Two calls start together on two threads, under the outer pin that
    # sweep.feature_vectors holds around its pool. On one CPU the threads
    # interleave instead, which is also a case to cover.
    jobs = [(artifact_recording(), IcaParams(rng_seed=0, max_iter=12)),
            (rank_deficient(), IcaParams(rng_seed=0))]
    barrier = threading.Barrier(len(jobs))

    def together(rec, params):
        barrier.wait()
        return ica_decompose(rec, params)

    with _one_blas_thread():
        serial = [ica_decompose(rec, params) for rec, params in jobs]
        with ThreadPoolExecutor(len(jobs)) as pool:
            running = [pool.submit(together, *job) for job in jobs]
            concurrent = [future.result() for future in running]
    for got, want in zip(concurrent, serial):
        for field in ("unmixing", "mixing", "sources"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape, field
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), field
        assert got.converged is want.converged
