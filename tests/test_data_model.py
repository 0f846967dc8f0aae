import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eegsweep.data_model import (CHANNELS_1020, MONTAGE_COORDS,
                                 CohortLoadError, Recording, load_cohort,
                                 validate_recording, write_cohort,
                                 write_recording_csv)


def make_recording(sid="s00", label=0, fs=128.0, n=512, value=None, seed=0):
    if value is not None:
        samples = np.full((19, n), value)
    else:
        samples = np.random.default_rng(seed).standard_normal((19, n))
    return Recording(subject_id=sid, label=label, sample_rate_hz=fs,
                     channel_names=CHANNELS_1020, samples=samples)


def test_montage_unique_and_inside_unit_disc():
    assert len(set(CHANNELS_1020)) == 19
    for name, (x, y) in MONTAGE_COORDS.items():
        assert x * x + y * y <= 1.0 + 1e-12, name
    assert MONTAGE_COORDS["Cz"] == (0.0, 0.0)


def test_validate_clean_recording_empty_report():
    rec = make_recording(n=12800)
    assert validate_recording(rec) == []


def test_validate_nan_names_channel_and_index():
    samples = np.zeros((19, 512))
    samples[4, 100] = np.nan
    rec = Recording("s", 0, 128.0, CHANNELS_1020, samples)
    report = validate_recording(rec)
    assert len(report) == 1
    assert "F7" in report[0] and "100" in report[0]


def test_validate_short_recording():
    rec = make_recording(n=100)
    assert any("below 2 s" in v for v in validate_recording(rec))


def test_round_trip_bit_exact(tmp_path):
    rec = make_recording(n=300, seed=3)
    path = tmp_path / "s00.csv"
    write_recording_csv(rec, path)
    manifest = {"sample_rate_hz": 128.0, "channels": list(CHANNELS_1020),
                "subjects": [{"id": "s00", "label": 0, "path": "s00.csv"}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    loaded = load_cohort(mpath)[0]
    assert np.array_equal(loaded.samples, rec.samples)


#: Finite float64 cells, with signed zeros, subnormals and the extremes
#: drawn on purpose.
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(samples=st.integers(min_value=2, max_value=12).flatmap(
    lambda n: hnp.arrays(np.float64, (19, n), elements=FINITE)))
def test_write_load_cohort_bit_exact(samples):
    rec = Recording("s", 1, 1.0, CHANNELS_1020, samples)
    with tempfile.TemporaryDirectory() as tmp:
        (loaded,) = load_cohort(write_cohort([rec], Path(tmp)))
    assert np.array_equal(loaded.samples.view(np.int64),
                          rec.samples.view(np.int64))


def test_load_cohort_empty_file_is_named(tmp_path, recwarn):
    write_cohort([make_recording("e", n=256)], tmp_path)
    (tmp_path / "e.csv").write_text("\n")
    with pytest.raises(CohortLoadError, match="e: empty file"):
        load_cohort(tmp_path / "manifest.json")
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_load_cohort_ragged_row_is_named(tmp_path):
    write_cohort([make_recording("r", n=256)], tmp_path)
    lines = (tmp_path / "r.csv").read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0]
    (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CohortLoadError,
                       match="row 5 has 255 cells, expected 256"):
        load_cohort(tmp_path / "manifest.json")


def test_load_cohort_identity_and_duration(tmp_path):
    rec = Recording("z", 0, 128.0, CHANNELS_1020, np.zeros((19, 256)))
    mpath = write_cohort([rec], tmp_path)
    loaded = load_cohort(mpath)
    assert len(loaded) == 1
    assert loaded[0].n_samples == 256
    assert loaded[0].duration_s == pytest.approx(2.0)


def test_load_cohort_manifest_order_and_class_counts(tmp_path):
    recs = [make_recording("s%03d" % i, label=int(i < 7), n=256, seed=i)
            for i in range(13)]
    mpath = write_cohort(recs, tmp_path)
    loaded = load_cohort(mpath)
    assert [r.subject_id for r in loaded] == [r.subject_id for r in recs]
    labels = [r.label for r in loaded]
    assert labels.count(1) == 7 and labels.count(0) == 6


def test_load_cohort_channel_reorder(tmp_path):
    rec = make_recording(n=256, seed=5)
    write_recording_csv(rec, tmp_path / "s.csv")
    shuffled = list(CHANNELS_1020)[::-1]
    manifest = {"sample_rate_hz": 128.0, "channels": shuffled,
                "subjects": [{"id": "s", "label": 1, "path": "s.csv"}]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    loaded = load_cohort(tmp_path / "m.json")[0]
    # file rows were written in canonical order but declared reversed,
    # so the loader must undo the declared order
    assert loaded.channel_names == CHANNELS_1020
    assert np.array_equal(loaded.samples, rec.samples[::-1])


def test_load_cohort_aggregates_named_errors(tmp_path):
    good = make_recording("good", n=256)
    write_recording_csv(good, tmp_path / "good.csv")
    (tmp_path / "short.csv").write_text(
        "\n".join(",".join("0.0" for _ in range(64)) for _ in range(18)))
    (tmp_path / "badcell.csv").write_text(
        "\n".join(",".join("x" if (r, c) == (2, 3) else "1.0"
                           for c in range(256)) for r in range(19)))
    manifest = {"sample_rate_hz": 128.0, "channels": list(CHANNELS_1020),
                "subjects": [
                    {"id": "good", "label": 0, "path": "good.csv"},
                    {"id": "few_rows", "label": 1, "path": "short.csv"},
                    {"id": "bad_cell", "label": 0, "path": "badcell.csv"},
                    {"id": "missing", "label": 1, "path": "nope.csv"},
                ]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(CohortLoadError) as exc:
        load_cohort(tmp_path / "m.json")
    text = str(exc.value)
    assert "few_rows" in text and "18" in text
    assert "bad_cell" in text and "non-numeric" in text
    assert "missing" in text


def test_duplicate_subject_id(tmp_path):
    rec = make_recording(n=256)
    write_recording_csv(rec, tmp_path / "a.csv")
    manifest = {"sample_rate_hz": 128.0, "channels": list(CHANNELS_1020),
                "subjects": [{"id": "dup", "label": 0, "path": "a.csv"},
                             {"id": "dup", "label": 1, "path": "a.csv"}]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(CohortLoadError, match="duplicate"):
        load_cohort(tmp_path / "m.json")


_MANIFEST = {"sample_rate_hz": 128.0, "channels": list(CHANNELS_1020),
             "subjects": [{"id": "s", "label": 0, "path": "s.csv"}]}


@pytest.mark.parametrize("doc, problem", [
    ([_MANIFEST], "manifest is not a JSON object"),
    (7, "manifest is not a JSON object"),
    (dict(_MANIFEST, channels=19),
     "manifest key 'channels' is not a list of names: 19"),
    (dict(_MANIFEST, channels=list(CHANNELS_1020[:-1]) + [5]),
     "manifest key 'channels' is not a list of names: [\"Fp1\""),
    (dict(_MANIFEST, subjects={"s": {"label": 0, "path": "s.csv"}}),
     "manifest key 'subjects' is not a list"),
    (dict(_MANIFEST, subjects=[]),
     "manifest key 'subjects' is not a list of one subject or more"),
    (dict(_MANIFEST, subjects=_MANIFEST["subjects"] + ["t"]),
     'subject 1: "t" is not an object whose id is a plain file name (not '
     'empty, . or .., without / or \\)'),
] + [
    (dict(_MANIFEST, subjects=[{"id": sid, "label": 0, "path": "s.csv"}]),
     'subject 0: {"id": %s, "label": 0, "path": "s.csv"} is not an object '
     "whose id is a plain file name" % json.dumps(sid))
    for sid in ("../../escaped", "", ".", "..", "a/b", "a\\b", 3)
] + [
    (dict(_MANIFEST, sample_rate_hz=rate),
     "manifest key 'sample_rate_hz' is not a finite number: "
     + json.dumps(rate))
    for rate in ([128], "fast", None, True, "nan", "-Infinity")
] + [
    # each subject reported "sample_rate_hz must be positive"
    (dict(_MANIFEST, sample_rate_hz=rate),
     "manifest key 'sample_rate_hz' must be positive, got "
     + json.dumps(rate))
    for rate in (0, -128.0, "-1")
] + [
    (dict(_MANIFEST, subjects=[{"id": "s", "label": 0, "path": path}]),
     "s: path must be a string, got " + json.dumps(path))
    for path in (7, ["s.csv"], None)
], ids=["list", "number", "channels_number", "channel_not_a_name",
        "subjects_object", "subjects_empty", "subject_string", "id_escapes",
        "id_empty", "id_dot", "id_dotdot", "id_slash", "id_backslash",
        "id_number", "rate_list", "rate_word", "rate_null", "rate_true",
        "rate_nan", "rate_infinite", "rate_zero", "rate_negative",
        "rate_negative_string", "path_number", "path_list", "path_null"])
def test_manifest_of_the_wrong_shape_names_the_key_or_subject(
        tmp_path, doc, problem):
    # each was read as a subject id that leaves the directory, died with
    # an AttributeError or TypeError, named no key, or (a rate of nan, no
    # subjects) loaded
    write_recording_csv(make_recording("s", n=256), tmp_path / "s.csv")
    (tmp_path / "m.json").write_text(json.dumps(doc))
    with pytest.raises(CohortLoadError) as exc:
        load_cohort(tmp_path / "m.json")
    (found,) = exc.value.problems
    assert found.startswith(problem)


def test_a_numeric_string_rate_still_loads(tmp_path):
    write_recording_csv(make_recording("s", n=256), tmp_path / "s.csv")
    (tmp_path / "m.json").write_text(json.dumps(
        dict(_MANIFEST, sample_rate_hz="128")))
    (rec,) = load_cohort(tmp_path / "m.json")
    assert rec.sample_rate_hz == 128.0


def test_a_dotted_subject_id_is_a_plain_file_name(tmp_path):
    rec = make_recording("s.01-a b", n=256)
    (loaded,) = load_cohort(write_cohort([rec], tmp_path))
    assert loaded.subject_id == "s.01-a b"


def test_samples_read_only():
    rec = make_recording()
    with pytest.raises(ValueError):
        rec.samples[0, 0] = 1.0


def test_load_cohort_121_subjects_class_counts(tmp_path):
    rng = np.random.default_rng(0)
    recs = []
    for i in range(121):
        label = 1 if i < 61 else 0
        sid = "s%03d" % i
        recs.append(Recording(sid, label, 128.0, CHANNELS_1020,
                              rng.standard_normal((19, 256))))
    mpath = write_cohort(recs, tmp_path)
    loaded = load_cohort(mpath)
    assert len(loaded) == 121
    labels = [r.label for r in loaded]
    assert (labels.count(1), labels.count(0)) == (61, 60)
