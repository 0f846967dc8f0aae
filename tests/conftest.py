import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eegsweep import features, synth, sweep
from eegsweep.cleaning import CleaningPipeline
from eegsweep.features import DEFAULT_PARAMS
from eegsweep.segmentation import SegmentSpec

FS = 128.0


def one_row(group, *args, **kwargs):
    """A feature group's outputs for one 1-D signal or PSD.

    The argument named signal or psd goes in as a one-row stack, x[None],
    and row 0 of each output comes back; welch_psd's freqs, one per bin,
    come back whole.
    """
    bound = inspect.signature(group).bind(*args, **kwargs)
    name = "psd" if "psd" in bound.arguments else "signal"
    bound.arguments[name] = bound.arguments[name][None]
    out = group(*bound.args, **bound.kwargs)
    if group is features.welch_psd:
        return out[0], out[1][0]
    return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]


def raw_feature_matrix(cohort, channels):
    """The feature matrix of whole, uncleaned recordings, sliced from a
    feature table of those channels."""
    whole = SegmentSpec(1, 1)
    table = sweep.feature_vectors(
        cohort, [("raw", whole, ch) for ch in channels], CleaningPipeline(),
        DEFAULT_PARAMS)
    return sweep.feature_matrix(table, "raw", whole, channels)


def golden_corpus():
    """20 deterministic signals: sines, lines, noise, constant, impulse."""
    t8 = np.arange(int(8 * FS)) / FS
    t4 = np.arange(int(4 * FS)) / FS
    t16 = np.arange(int(16 * FS)) / FS
    sigs = [
        ("sine10_8s", np.sin(2 * np.pi * 10 * t8)),
        ("sine2_16s", np.sin(2 * np.pi * 2 * t16)),
        ("sine6_4s", 2.0 * np.sin(2 * np.pi * 6 * t4)),
        ("sine32_8s", np.sin(2 * np.pi * 32 * t8)),
        ("two_tone", np.sin(2 * np.pi * 2 * t8) + np.sin(2 * np.pi * 10 * t8)),
        ("line", np.linspace(-1, 1, 1024)),
        ("line_steep", 5.0 * np.arange(512) / 512.0),
        ("constant", np.full(512, 5.0)),
        ("constant0", np.zeros(512)),
    ]
    imp = np.zeros(1024)
    imp[512] = 1.0
    sigs.append(("impulse", imp))
    for s in range(5):
        sigs.append(("white%d" % s,
                     np.random.default_rng(s).standard_normal(int(8 * FS))))
    for s in range(3):
        rng = np.random.default_rng(100 + s)
        w = rng.standard_normal(int(8 * FS))
        spec = np.fft.rfft(w)
        f = np.fft.rfftfreq(int(8 * FS))
        shape = np.zeros_like(f)
        shape[1:] = f[1:] ** -0.5
        p = np.fft.irfft(spec * shape, int(8 * FS))
        sigs.append(("pink%d" % s, p / np.std(p)))
    sigs.append(("chirp", np.sin(2 * np.pi * (1 + 10 * t8 / 8) * t8)))
    sigs.append(("am_sine", (1 + 0.5 * np.sin(2 * np.pi * 0.5 * t8))
                 * np.sin(2 * np.pi * 10 * t8)))
    return sigs


ARTIFACT_MIX = (
    synth.ArtifactSpec(kind="blink", amplitude=14.0, rate_per_min=6.0),
    synth.ArtifactSpec(kind="line_50hz", amplitude=3.0),
    synth.ArtifactSpec(kind="muscle_burst", amplitude=8.0, rate_per_min=4.0),
)


@pytest.fixture(scope="session")
def cleaning_cohort():
    """10+10 subjects, 60 s, blinks + 50 Hz + muscle bursts."""
    spec = synth.SynthSpec(
        n_subjects_per_class=10, duration_s=60.0,
        class_effect=synth.ClassEffect(effect_size=1.0),
        artifacts=ARTIFACT_MIX, rng_seed=101)
    return synth.generate_cohort(spec)


@pytest.fixture(scope="session")
def theta_cohort():
    """30+30 subjects, 12 s, theta-power effect 2.0 at P3, no artifacts."""
    spec = synth.SynthSpec(
        n_subjects_per_class=30, duration_s=12.0,
        class_effect=synth.ClassEffect(target_channel="P3",
                                       feature_axis="theta_power",
                                       effect_size=2.0),
        rng_seed=202)
    return synth.generate_cohort(spec)


@pytest.fixture(scope="session")
def small_cohort():
    """12 subjects (6+6), 12 s, light artifacts; for sweep plumbing tests."""
    spec = synth.SynthSpec(
        n_subjects_per_class=6, duration_s=12.0,
        class_effect=synth.ClassEffect(effect_size=1.5),
        artifacts=(synth.ArtifactSpec(kind="blink", amplitude=10.0,
                                      rate_per_min=5.0),),
        rng_seed=303)
    return synth.generate_cohort(spec)
