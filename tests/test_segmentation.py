import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegsweep.data_model import CHANNELS_1020, Recording, validate_recording
from eegsweep.features import extract_channel
from eegsweep.segmentation import DIVISORS, SegmentSpec, segment

FS = 128.0


def make_rec(n, seed=0):
    rng = np.random.default_rng(seed)
    return Recording("s", 1, FS, CHANNELS_1020, rng.standard_normal((19, n)))


def test_spec_validation_and_chunk_id():
    spec = SegmentSpec(divisor=20, index=17)
    assert spec.chunk_id == "17/20"
    assert SegmentSpec.from_chunk_id("17/20") == spec
    with pytest.raises(ValueError):
        SegmentSpec(divisor=7, index=1)
    with pytest.raises(ValueError):
        SegmentSpec(divisor=3, index=4)


@pytest.mark.parametrize("fs", [128.0, 100.5, 256.0])
def test_one_2_s_floor_for_recordings_segments_and_signals(fs):
    shortest = math.ceil(2 * fs)
    for n, admitted in ((shortest - 1, False), (shortest, True)):
        samples = np.random.default_rng(n).standard_normal((19, n))
        rec = Recording("s", 1, fs, CHANNELS_1020, samples)
        assert (validate_recording(rec) == []) is admitted
        if admitted:
            segment(rec, SegmentSpec(1, 1))
            extract_channel(samples[0], fs)
        else:
            assert validate_recording(rec) == [
                "duration below 2 s (%.3f s at %g Hz)" % (n / fs, fs)]
            with pytest.raises(ValueError, match="below minimum"):
                segment(rec, SegmentSpec(1, 1))
            with pytest.raises(ValueError, match="shorter than 2 s"):
                extract_channel(samples[0], fs)


def test_identity_segmentation():
    rec = make_rec(1000)
    out = segment(rec, SegmentSpec(1, 1))
    assert np.array_equal(out.samples, rec.samples)
    assert out.label == rec.label


def test_floor_arithmetic_discards_tail():
    rec = make_rec(1000)
    parts = [segment(rec, SegmentSpec(3, i)) for i in (1, 2, 3)]
    assert all(p.n_samples == 333 for p in parts)
    assert np.array_equal(parts[0].samples, rec.samples[:, 0:333])
    assert np.array_equal(parts[1].samples, rec.samples[:, 333:666])
    assert np.array_equal(parts[2].samples, rec.samples[:, 666:999])


def test_mean_duration_twentieth_length():
    # mean recording length of the target dataset: twentieths are ~2.47 s,
    # just above the 2 s floor, so no warning fires
    n = int(round(49.33 * FS))
    rec = make_rec(n)
    out = segment(rec, SegmentSpec(20, 1))
    assert out.duration_s == pytest.approx(2.47, abs=0.01)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=int(40 * FS), max_value=int(90 * FS)),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_segments_tile_the_recording(n, seed):
    rec = make_rec(n, seed=seed)
    n_segments = 0
    for j in DIVISORS:
        parts = [segment(rec, SegmentSpec(j, i)).samples
                 for i in range(1, j + 1)]
        n_segments += len(parts)
        assert np.array_equal(np.concatenate(parts, axis=1),
                              rec.samples[:, :(n // j) * j])
    assert n_segments == sum(DIVISORS) == 35


def test_divisible_length_loses_nothing():
    rec = make_rec(20 * 256)  # divisible by every j in {1,2,4,5,20}
    for j in (1, 2, 4, 5, 20):
        total = sum(segment(rec, SegmentSpec(j, i)).n_samples
                    for i in range(1, j + 1))
        assert total == rec.n_samples


def test_segments_disjoint_and_ordered():
    rec = make_rec(int(30 * FS))
    starts = []
    for i in range(1, 6):
        seg = segment(rec, SegmentSpec(5, i))
        idx = rec.n_samples // 5 * (i - 1)
        assert np.array_equal(seg.samples,
                              rec.samples[:, idx:idx + rec.n_samples // 5])
        starts.append(idx)
    assert starts == sorted(starts)


def test_minimum_length_rules():
    rec = make_rec(int(6 * FS))  # 6 s
    with pytest.raises(ValueError, match="below minimum"):
        segment(rec, SegmentSpec(4, 1))  # 1.5 s segments
    assert segment(rec, SegmentSpec(3, 3)).n_samples == 256  # exactly 2 s
    # j = 20 takes the same 2 s minimum, for every index
    for n, index in ((int(25 * FS), 20), (int(39.9 * FS), 7)):
        with pytest.raises(ValueError) as err:
            segment(make_rec(n), SegmentSpec(20, index))
        assert str(err.value) == ("segment length %d below minimum 256 "
                                  "samples (j=20)" % (n // 20))
    assert segment(make_rec(int(40 * FS)), SegmentSpec(20, 20)).n_samples \
        == 256


def test_segmentation_commutes_with_channel_selection():
    rec = make_rec(int(10 * FS), seed=9)
    spec = SegmentSpec(2, 2)
    seg_then_pick = segment(rec, spec).channel("P3")
    sub = Recording("s", 1, FS, ("P3",), rec.channel("P3")[None, :])
    pick_then_seg = segment(sub, spec).samples[0]
    assert np.array_equal(seg_then_pick, pick_then_seg)
