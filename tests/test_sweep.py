import json
import os
import tempfile
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ARTIFACT_MIX, FS
from eegsweep import classify, cleaning, features, selection, synth
from eegsweep.classify import GbtConfig
from eegsweep.cleaning import PIPELINE_KINDS, CleaningPipeline
from eegsweep.data_model import CHANNELS_1020, Recording
from eegsweep.features import DEFAULT_PARAMS, FeatureParams
from eegsweep.segmentation import SegmentSpec, segment
from eegsweep.sweep import (ExperimentRecord, ExperimentSpec, SweepSpace,
                            _spec_seed, enumerate_space, feature_matrix,
                            feature_vectors, records_from_csv,
                            records_to_csv, run_one, run_sweep)

FAST_GRIDS = {"gbt": ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},),
              "knn": ({"k": 3},),
              "svm": ({"c": 1.0, "gamma_rbf": "scale"},)}
FAST_GBT = GbtConfig(n_rounds=30, early_stopping_rounds=10)

PIPELINE = CleaningPipeline()

SMALL_SPACE = SweepSpace(cleanings=("raw", "filtered"), divisors=(1, 2),
                         subset_sizes=(1,), channels=("P3", "Cz"),
                         classifiers=("gbt",), selection_flags=(False,))


def small_specs():
    return enumerate_space(SMALL_SPACE)


def _dump(records):
    return [json.dumps(asdict(r), sort_keys=True) for r in records]


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_singles_full_axes():
    space = SweepSpace(subset_sizes=(1,), selection_flags=(True, False))
    assert len(enumerate_space(space)) == 4 * 35 * 19 * 3 * 2 == 15960


def test_enumerate_pair_count():
    space = SweepSpace(subset_sizes=(2,), cleanings=("raw",), divisors=(1,),
                       classifiers=("gbt",), selection_flags=(True,))
    assert len(enumerate_space(space)) == 171


def test_enumerate_trios_restricted():
    space = SweepSpace(subset_sizes=(3,))
    specs = enumerate_space(space)
    assert len(specs) == 4 * 35 * 969
    assert all(s.classifier == "gbt" and s.feature_selection for s in specs)


def test_enumerate_deterministic_order():
    assert [s.key for s in small_specs()] == [s.key for s in small_specs()]


# ---------------------------------------------------------------------------
# execution

def test_run_sweep_deterministic(small_cohort):
    cohort, _ = small_cohort
    kwargs = dict(seed=3, grids=FAST_GRIDS, gbt_base=FAST_GBT)
    r1 = run_sweep(cohort, small_specs(), **kwargs)
    r2 = run_sweep(cohort, small_specs(), **kwargs)
    assert _dump(r1) == _dump(r2)


def _cells(spec):
    return [(spec.cleaning, spec.chunk, ch) for ch in spec.channels]


def _run_uncached(cohort, specs, seed):
    """Every spec on its own fresh table: nothing is shared between specs."""
    return [record for spec in specs for record in run_one(
        cohort, spec, seed,
        feature_vectors(cohort, _cells(spec), PIPELINE, DEFAULT_PARAMS),
        grids=FAST_GRIDS, gbt_base=FAST_GBT)]


def test_run_sweep_cache_matches_uncached(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    cached = run_sweep(cohort, specs, seed=1, grids=FAST_GRIDS,
                       gbt_base=FAST_GBT)
    assert _dump(cached) == _dump(_run_uncached(cohort, specs, 1))


def test_run_sweep_records_in_spec_order(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    records = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS,
                        gbt_base=FAST_GBT)
    assert len(records) == len(specs)
    for spec, rec in zip(specs, records):
        assert rec.cleaning == spec.cleaning
        assert rec.chunk == spec.chunk.chunk_id
        assert rec.channels == "-".join(spec.channels)


def test_run_sweep_failure_rows_do_not_abort(small_cohort):
    cohort, _ = small_cohort
    # 12 s recordings cannot be split into 5 x 2 s segments after the
    # floor: 12/5 = 2.4 s per segment, fine; use j=4 on a short subject
    # instead: force failure through an impossible chunk by shrinking
    bad = ExperimentSpec(cleaning="raw", chunk=SegmentSpec(5, 5),
                         channels=("P3",), classifier="gbt",
                         feature_selection=False)
    good = small_specs()[0]
    short = [r.with_samples(r.samples[:, :int(4.0 * 128)]) for r in cohort]
    records = run_sweep(short, [bad, good], seed=0, grids=FAST_GRIDS,
                        gbt_base=FAST_GBT)
    assert not records[0].ok
    assert "below minimum" in records[0].error
    assert records[1].ok


def test_run_sweep_empty():
    assert run_sweep([], [], seed=0) == []


def test_run_sweep_resume_equivalence(tmp_path, small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    full = run_sweep(cohort, specs, seed=7, grids=FAST_GRIDS,
                     gbt_base=FAST_GBT)

    # simulate a crash: run only the first 3 specs into the checkpoint
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs[:3], seed=7, grids=FAST_GRIDS,
              gbt_base=FAST_GBT, checkpoint_dir=ckpt)
    lines = (ckpt / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3

    resumed = run_sweep(cohort, specs, seed=7, grids=FAST_GRIDS,
                        gbt_base=FAST_GBT, checkpoint_dir=ckpt)
    assert _dump(resumed) == _dump(full)
    # no recomputation of finished specs: checkpoint has one line per spec
    lines = (ckpt / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(specs)
    keys = [json.loads(l)["key"] for l in lines]
    assert len(set(keys)) == len(specs)


def test_run_sweep_parallel_matches_serial(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    serial = run_sweep(cohort, specs, seed=2, grids=FAST_GRIDS,
                       gbt_base=FAST_GBT, jobs=1)
    parallel = run_sweep(cohort, specs, seed=2, grids=FAST_GRIDS,
                         gbt_base=FAST_GBT, jobs=2)
    assert _dump(serial) == _dump(parallel)


def test_records_csv_round_trip(tmp_path, small_cohort):
    cohort, _ = small_cohort
    records = run_sweep(cohort, small_specs()[:4], seed=0, grids=FAST_GRIDS,
                        gbt_base=FAST_GBT)
    path = tmp_path / "results.csv"
    records_to_csv(records, path)
    back = records_from_csv(path)
    assert len(back) == 4
    for a, b in zip(records, back):
        assert a.cleaning == b.cleaning and a.chunk == b.chunk
        assert a.channels == b.channels
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.best_params == b.best_params


def _today_row(r):
    """A results row in the plain form: nine cells, with the commas in
    best_params and error written as ";"."""
    return "%.10g,%.10g,%s,%s,%s,%s,%s,%s,%s\n" % (
        r.accuracy, r.spread, r.cleaning, r.chunk, r.channels, r.classifier,
        "Yes" if r.feature_selection else "No",
        json.dumps(r.best_params, sort_keys=True).replace(",", ";"),
        r.error.replace(",", ";"))


#: One line of text: no control characters, so no line breaks.
_LINE_TEXT = st.text(st.characters(max_codepoint=0x24f,
                                   exclude_categories=("Cc", "Cs"))
                     | st.sampled_from(',;"\\'))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(
    ExperimentRecord, cleaning=st.sampled_from(PIPELINE_KINDS),
    chunk=st.just("1/2"), channels=st.just("P3-P4"),
    classifier=st.sampled_from(tuple(classify.DEFAULT_GRIDS)),
    feature_selection=st.booleans(),
    accuracy=st.floats(0.0, 1.0) | st.just(float("nan")),
    spread=st.floats(0.0, 1.0) | st.just(float("nan")),
    best_params=st.dictionaries(_LINE_TEXT, _LINE_TEXT | st.integers()),
    error=_LINE_TEXT), max_size=5))
def test_results_csv_round_trips_any_error_text(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        records_to_csv(records, path)
        back = records_from_csv(path)
        with open(path) as fh:
            lines = fh.readlines()[1:]
    assert len(back) == len(records)
    for r, b, line in zip(records, back, lines):
        assert b.error == r.error and b.best_params == r.best_params
        assert ("%.10g %.10g" % (b.accuracy, b.spread)
                == "%.10g %.10g" % (r.accuracy, r.spread))
        assert (b.cleaning, b.chunk, b.channels, b.classifier,
                b.feature_selection) == (r.cleaning, r.chunk, r.channels,
                                         r.classifier, r.feature_selection)
        if ";" not in json.dumps(r.best_params) + r.error:
            assert line == _today_row(r)


def test_stage_cache_reuses_cleaning(small_cohort, monkeypatch):
    cohort, _ = small_cohort
    filtered = []  # subject of every fir_bandpass call
    real = cleaning.fir_bandpass

    def fir_bandpass(rec, params):
        filtered.append(rec.subject_id)
        return real(rec, params)
    monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    cell = ("filtered", SegmentSpec(1, 1), "P3")
    table = feature_vectors(cohort[:1], [cell, cell], PIPELINE,
                            DEFAULT_PARAMS)
    assert filtered == ["adhd000"]
    assert table.cells == {cell: 0} and not table.failures
    assert table.values.shape == (1, 1, 53)
    matrix = feature_matrix(cohort[:1], table, *cell[:2], ["P3"])
    assert matrix.values.tobytes() == table.values.tobytes()


def test_expand_grid_rows(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:2]
    grids = {"gbt": ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},
                     {"max_depth": 3, "eta": 0.3, "gamma": 0.0})}
    records = run_sweep(cohort, specs, seed=0, grids=grids,
                        gbt_base=FAST_GBT, expand_grid=True)
    assert len(records) == 4  # 2 specs x 2 grid points
    params = [r.best_params["max_depth"] for r in records]
    assert params == [2, 3, 2, 3]


def test_invalid_grid_point_is_dropped_not_the_spec(small_cohort):
    # the default KNN grid's k=9 exceeds the 8 training rows of a fold
    cohort, _ = small_cohort
    specs = enumerate_space(SweepSpace(
        cleanings=("raw",), divisors=(1,), subset_sizes=(1,),
        channels=("P3",), classifiers=("knn",), selection_flags=(False,)))
    text = "ValueError: k=9 exceeds training size 8"
    with pytest.warns(UserWarning, match="grid point {'k': 9} dropped: "
                      + text):
        best = run_sweep(cohort, specs, seed=5)
    with pytest.warns(UserWarning, match=text):
        rows = run_sweep(cohort, specs, seed=5, expand_grid=True)
    assert [r.best_params for r in rows] == [{"k": k} for k in (3, 5, 7, 9)]
    assert [r.error for r in rows] == ["", "", "", text]
    assert np.isnan(rows[3].accuracy) and np.isnan(rows[3].spread)
    valid = rows[:3]
    assert best[0].error == ""
    assert best[0].accuracy == max(r.accuracy for r in valid)
    assert best[0] in valid
    # a spec fails only when every point fails, with the first error
    failed = run_sweep(cohort, specs, seed=5,
                       grids={"knn": ({"k": 50}, {"k": 60})})
    assert [(r.error, r.best_params) for r in failed] == [
        ("ValueError: k=50 exceeds training size 8", {})]


def test_lax_early_stop_mode(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:1]
    strict = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS,
                       gbt_base=FAST_GBT, eval_on_test_fold=False)
    lax = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS,
                    gbt_base=FAST_GBT, eval_on_test_fold=True)
    assert strict[0].ok and lax[0].ok


def test_cache_makes_sweep_cheaper(small_cohort, monkeypatch):
    cohort, _ = small_cohort
    specs = small_specs()  # 12 specs over 2 cleanings
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "extract_channel":  # one signal, or a stack of rows
                calls["rows"] = (calls.get("rows", 0)
                                 + len(np.atleast_2d(args[0])))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cleaning, "walk_pipeline")
    counted(features, "extract_channel")
    runs = {}
    for cached in (True, False):
        calls.clear()
        if cached:
            records = run_sweep(cohort, specs, seed=4, grids=FAST_GRIDS,
                                gbt_base=FAST_GBT)
        else:
            records = _run_uncached(cohort, specs, 4)
        runs[cached] = (dict(calls), _dump(records))
    assert runs[True][1] == runs[False][1]
    # cached, each subject is walked through the cleanings once; uncached,
    # once per spec. Every spec here needs its own (cleaning, chunk,
    # channel) vector, so both extract one row per spec and subject.
    # Cached, rows of one segment length wait across subjects: each
    # subject adds 4 rows of 1,536 samples (chunk 1/1) and 8 of 768
    # (chunks 1/2 and 2/2), so a stack of at most 2**16 samples takes 10
    # subjects, and the 12 take two stacks per length. Uncached, each
    # spec's 12 rows fit one stack.
    n = len(cohort)
    assert runs[True][0] == {"walk_pipeline": n, "extract_channel": 4,
                             "rows": len(specs) * n}
    assert runs[False][0] == {"walk_pipeline": len(specs) * n,
                              "extract_channel": len(specs),
                              "rows": len(specs) * n}


def test_resume_recomputes_an_unparsable_last_line(tmp_path, small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:3]
    kwargs = dict(seed=7, grids=FAST_GRIDS, gbt_base=FAST_GBT)
    ckpt = tmp_path / "ck"
    full = run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    path = ckpt / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2]) + b'{"key": "\n')
    resumed = run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    assert _dump(resumed) == _dump(full)
    assert path.read_bytes() == b"".join(lines)


def test_resume_rejects_a_bad_line_before_the_last(tmp_path, small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:3]
    kwargs = dict(seed=7, grids=FAST_GRIDS, gbt_base=FAST_GBT)
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    path = ckpt / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:-6] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(json.JSONDecodeError):
        run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    assert path.read_bytes() == b"".join(lines)


@pytest.mark.parametrize("change", [
    {"grids": dict(FAST_GRIDS, knn=({"k": 5},))},
    {"seed": 8},
    {"eval_on_test_fold": True},
    {"params": FeatureParams(quantile=0.9)},
], ids=["knn_k3_to_k5", "seed", "flag", "feature_params"])
def test_resume_refuses_another_config(tmp_path, small_cohort, change):
    # resuming used to return the old rows, e.g. {"k": 3} after the KNN
    # grid changed to k=5
    cohort, _ = small_cohort
    specs = enumerate_space(SweepSpace(
        cleanings=("raw",), divisors=(1,), channels=("P3", "Cz"),
        classifiers=("knn",), selection_flags=(False,)))
    kwargs = dict(seed=7, grids=FAST_GRIDS, gbt_base=FAST_GBT)
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs[:1], checkpoint_dir=ckpt, **kwargs)
    before = (ckpt / "records.jsonl").read_bytes()
    with pytest.raises(ValueError, match="another sweep config") as err:
        run_sweep(cohort, specs, checkpoint_dir=ckpt, **dict(kwargs, **change))
    stamp = (ckpt / "config.sha256").read_text().strip()
    assert stamp in str(err.value)
    assert (ckpt / "records.jsonl").read_bytes() == before
    # the same config still resumes
    resumed = run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    assert _dump(resumed) == _dump(run_sweep(cohort, specs, **kwargs))


def test_resume_refuses_another_cohort(tmp_path, small_cohort):
    # resuming on a cohort with other samples used to return the first
    # cohort's rows
    cohort, _ = small_cohort
    specs = enumerate_space(SweepSpace(
        cleanings=("raw",), divisors=(1,), channels=("P3", "P4"),
        classifiers=("knn",), selection_flags=(False,)))
    kwargs = dict(seed=7, grids=FAST_GRIDS)
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    before = (ckpt / "records.jsonl").read_bytes()
    samples = cohort[-1].samples.copy()
    samples[0, 0] += 1.0
    other = cohort[:-1] + [replace(cohort[-1], samples=samples)]
    with pytest.raises(ValueError, match="another sweep config or cohort"):
        run_sweep(other, specs, checkpoint_dir=ckpt, **kwargs)
    assert (ckpt / "records.jsonl").read_bytes() == before


def test_resume_without_stamp_is_refused(tmp_path, small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:2]
    kwargs = dict(seed=7, grids=FAST_GRIDS, gbt_base=FAST_GBT)
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs[:1], checkpoint_dir=ckpt, **kwargs)
    (ckpt / "config.sha256").unlink()
    with pytest.raises(ValueError, match="stamp missing"):
        run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    # an empty checkpoint holds no rows to protect: it is restamped
    (ckpt / "records.jsonl").write_bytes(b"")
    assert len(run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)) == 2
    assert (ckpt / "config.sha256").exists()


# ---------------------------------------------------------------------------
# the feature table against the lazy per-vector memo it replaced

class _LazyCache:
    """The memo the sweep used before the feature table: cleans and
    extracts on first use, keeps every cleaned recording, and does not
    store failures, so a failing stage runs again for every spec."""

    def __init__(self):
        self._cleaned = {}
        self._vectors = {}

    def cleaned(self, rec, kind):
        key = (rec.subject_id, kind)
        if key not in self._cleaned:
            self._cleaned[key] = cleaning.run_pipeline(
                rec, CleaningPipeline(kind=kind))
        return self._cleaned[key]

    def vector(self, rec, kind, chunk, channel):
        key = (rec.subject_id, kind, chunk.chunk_id, channel)
        if key not in self._vectors:
            seg = segment(self.cleaned(rec, kind), chunk)
            self._vectors[key] = features.extract_channel(
                seg.channel(channel), seg.sample_rate_hz, DEFAULT_PARAMS)
        return self._vectors[key]


def _lazy_run_one(cohort, spec, seed, cache):
    """run_one as it was on the lazy memo (best grid point only)."""
    record = ExperimentRecord(
        cleaning=spec.cleaning, chunk=spec.chunk.chunk_id,
        channels="-".join(spec.channels), classifier=spec.classifier,
        feature_selection=spec.feature_selection)
    try:
        # subject by subject, channel by channel: the first failure raises
        rows = [np.concatenate([cache.vector(rec, spec.cleaning, spec.chunk,
                                             ch) for ch in spec.channels])
                for rec in cohort]
        matrix = features.FeatureMatrix(
            column_names=features.channel_feature_names(spec.channels),
            values=np.array(rows),
            labels=np.array([rec.label for rec in cohort], dtype=int),
            subject_ids=[rec.subject_id for rec in cohort])
        if spec.feature_selection:
            matrix, _ = selection.select_features(matrix)
            if matrix.n_columns == 0:
                raise ValueError("selection kept no columns")
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier,
            grid=FAST_GRIDS.get(spec.classifier),
            seed=_spec_seed(seed, spec), gbt_base=FAST_GBT)
    except Exception as exc:
        record.error = "%s: %s" % (type(exc).__name__, exc)
        return record
    return replace(record, accuracy=result.mean_accuracy,
                   spread=result.spread, best_params=result.best_config)


@pytest.fixture(scope="module")
def failing_cohort():
    """5+5 subjects with blinks, 50 Hz and muscle bursts, 12 s except
    adhd002 (9 s) and td001 (10 s): ASR calibration fails on those two,
    and a fifth of adhd002 is shorter than the 2 s minimum."""
    spec = synth.SynthSpec(n_subjects_per_class=5, duration_s=12.0,
                           artifacts=ARTIFACT_MIX, rng_seed=0)
    cohort, _ = synth.generate_cohort(spec)
    seconds = [12, 12, 9, 12, 12, 12, 10, 12, 12, 12]
    return [r.with_samples(r.samples[:, :int(n * r.sample_rate_hz)])
            for r, n in zip(cohort, seconds)]


_SPEC_POOL = [
    ExperimentSpec(cleaning=kind, chunk=chunk, channels=channels,
                   classifier=clf, feature_selection=sel)
    for kind in ("raw", "filtered", "asr")
    for chunk in (SegmentSpec(1, 1), SegmentSpec(4, 2), SegmentSpec(5, 5),
                  SegmentSpec(20, 3))
    for channels in (("P3",), ("Cz",), ("P3", "Cz"))
    for clf in ("knn", "svm") for sel in (False, True)]


@settings(max_examples=8, deadline=None)
@given(st.lists(st.sampled_from(_SPEC_POOL), min_size=1, max_size=6,
                unique_by=lambda spec: spec.key),
       st.integers(0, 2 ** 16))
def test_table_records_equal_the_lazy_memo(failing_cohort, specs, seed):
    cache = _LazyCache()
    lazy = [_lazy_run_one(failing_cohort, spec, seed, cache)
            for spec in specs]
    table = run_sweep(failing_cohort, specs, seed=seed, grids=FAST_GRIDS,
                      gbt_base=FAST_GBT)
    assert _dump(table) == _dump(lazy)


def test_failing_cohort_reaches_every_failure(failing_cohort):
    """The property's pool meets a failed ASR calibration, a chunk too
    short for one subject and a chunk too short for all."""
    errors = {r.chunk + " " + r.cleaning: r.error for r in run_sweep(
        failing_cohort, [s for s in _SPEC_POOL if s.channels == ("P3",)
                         and s.classifier == "knn"
                         and not s.feature_selection],
        grids=FAST_GRIDS)}
    assert errors["1/1 asr"].startswith(
        "ValueError: insufficient clean calibration data")
    assert errors["5/5 raw"] == ("ValueError: segment length 230 below "
                                 "minimum 256 samples (j=5)")
    assert errors["3/20 raw"].startswith("ValueError: segment length")
    assert errors["1/1 raw"] == errors["2/4 filtered"] == ""


def _log_calls(monkeypatch, path, module, name):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write("%d %s\n" % (os.getpid(), name))
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_workers_neither_clean_nor_extract(small_cohort, monkeypatch,
                                           tmp_path):
    cohort, _ = small_cohort
    specs = small_specs()
    log = tmp_path / "calls.log"
    _log_calls(monkeypatch, log, cleaning, "fir_bandpass")
    _log_calls(monkeypatch, log, features, "extract_channel")
    records = run_sweep(cohort, specs, seed=2, grids=FAST_GRIDS,
                        gbt_base=FAST_GBT, jobs=2)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert {pid for pid, _ in calls} == {str(os.getpid())}
    # two stacks per segment length, chunk 1/1 and the halves, each of
    # at most 10 subjects' rows (see test_cache_makes_sweep_cheaper)
    assert Counter(name for _, name in calls) == {
        "fir_bandpass": len(cohort), "extract_channel": 4}
    assert all(r.ok for r in records)


def test_failing_cleaning_is_attempted_once(small_cohort, monkeypatch):
    cohort, _ = small_cohort
    attempts = Counter()
    real = cleaning.fir_bandpass

    def fir_bandpass(rec, params):
        attempts[rec.subject_id] += 1
        if rec.subject_id == "adhd002":
            raise RuntimeError("no clean data in %s" % rec.subject_id)
        return real(rec, params)
    monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    specs = small_specs()
    records = run_sweep(cohort, specs, seed=4, grids=FAST_GRIDS,
                        gbt_base=FAST_GBT)
    assert len(attempts) == len(cohort)
    assert set(attempts.values()) == {1}
    for spec, rec in zip(specs, records):
        assert rec.error == ("RuntimeError: no clean data in adhd002"
                             if spec.cleaning == "filtered" else "")


def test_each_subject_is_filtered_and_calibrated_once(small_cohort,
                                                      monkeypatch):
    """A sweep over the four cleanings runs FIR and ASR calibration once
    per subject: asr continues the filtered stage and ica the asr stage,
    instead of each starting again from raw."""
    cohort, _ = small_cohort
    calls = Counter()
    for name in ("fir_bandpass", "asr_calibrate"):
        real = getattr(cleaning, name)

        def wrapper(rec, params, name=name, real=real):
            calls[name, rec.subject_id] += 1
            return real(rec, params)
        monkeypatch.setattr(cleaning, name, wrapper)
    specs = enumerate_space(SweepSpace(
        divisors=(1,), channels=("P3",), classifiers=("knn",),
        selection_flags=(False,)))
    records = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS)
    assert [r.cleaning for r in records] == list(PIPELINE_KINDS)
    assert all(r.ok for r in records)
    assert calls == {(name, rec.subject_id): 1 for rec in cohort
                     for name in ("fir_bandpass", "asr_calibrate")}


def test_a_failed_stage_fails_every_later_cleaning(failing_cohort,
                                                   monkeypatch):
    """adhd002 (9 s) fails ASR calibration: its asr and ica cells hold
    that one exception, calibration is attempted once, and its raw and
    filtered vectors are extracted."""
    calibrations = []
    real = cleaning.asr_calibrate

    def asr_calibrate(rec, params):
        calibrations.append(rec.subject_id)
        return real(rec, params)
    monkeypatch.setattr(cleaning, "asr_calibrate", asr_calibrate)
    whole = SegmentSpec(1, 1)
    table = feature_vectors(
        failing_cohort[2:3], [(kind, whole, "P3") for kind in PIPELINE_KINDS],
        PIPELINE, DEFAULT_PARAMS)
    pos = {kind: table.cells[kind, whole, "P3"] for kind in PIPELINE_KINDS}
    assert calibrations == ["adhd002"]
    _, asr = table.failures[pos["asr"]]
    assert table.failures == {pos["asr"]: (0, asr), pos["ica"]: (0, asr)}
    assert str(asr).startswith("insufficient clean calibration data")
    for kind in ("raw", "filtered"):
        assert table.values[0, pos[kind]].tobytes() == _alone(
            failing_cohort[2], kind, whole, "P3").tobytes()


# ---------------------------------------------------------------------------
# feature matrices, sliced from the table

def test_feature_matrix_shapes(small_cohort):
    cohort, _ = small_cohort
    whole = SegmentSpec(1, 1)
    table = feature_vectors(cohort, [("raw", whole, "P4"),
                                     ("raw", whole, "P3")],
                            PIPELINE, DEFAULT_PARAMS)
    m1 = feature_matrix(cohort, table, "raw", whole, ["P3"])
    assert m1.values.shape == (len(cohort), 53)
    assert m1.column_names[0] == "P3:mean"
    m2 = feature_matrix(cohort, table, "raw", whole, ["P3", "P4"])
    assert m2.values.shape == (len(cohort), 106)
    assert m2.column_names[53] == "P4:mean"
    assert list(m2.labels) == [r.label for r in cohort]
    assert m2.subject_ids == [r.subject_id for r in cohort]
    assert m2.values[:, :53].tobytes() == m1.values.tobytes()
    assert m2.values[:, 53:].tobytes() == table.values[:, 0].tobytes()


def test_feature_matrix_empty_channels(small_cohort):
    cohort, _ = small_cohort
    table = feature_vectors(cohort, [], PIPELINE, DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="empty"):
        feature_matrix(cohort, table, "raw", SegmentSpec(1, 1), [])


def test_a_spec_fails_with_its_earliest_subject_then_channel(small_cohort,
                                                             monkeypatch):
    """P3 fails at subject 2, Cz and O1 at subject 1, each row with its
    own text: the spec P3-Cz-O1 raises Cz's, the error that assembling
    subject by subject, channel by channel, meets first, and not the
    first failure of its first channel or of the table's first cell."""
    cohort = small_cohort[0][:3]
    whole = SegmentSpec(1, 1)
    channels = ("P3", "Cz", "O1")
    names = {rec.channel(ch).tobytes(): "%s %s" % (rec.subject_id, ch)
             for rec in cohort for ch in channels}
    refused = {"%s %s" % (cohort[s].subject_id, ch)
               for s, ch in ((2, "P3"), (1, "Cz"), (2, "Cz"), (1, "O1"))}
    real = features.extract_channel

    def extract(signal, fs, params):
        for row in np.atleast_2d(signal):
            if names[row.tobytes()] in refused:
                raise ValueError("refused " + names[row.tobytes()])
        return real(signal, fs, params)
    monkeypatch.setattr(features, "extract_channel", extract)
    # the table holds the cells in the reverse of the spec's order
    table = feature_vectors(cohort, [("raw", whole, ch)
                                     for ch in reversed(channels)],
                            PIPELINE, DEFAULT_PARAMS)
    assert {ch: table.failures[table.cells["raw", whole, ch]][0]
            for ch in channels} == {"P3": 2, "Cz": 1, "O1": 1}
    text = "refused %s Cz" % cohort[1].subject_id
    with pytest.raises(ValueError) as err:
        feature_matrix(cohort, table, "raw", whole, channels)
    assert str(err.value) == text
    spec = ExperimentSpec(cleaning="raw", chunk=whole, channels=channels,
                          classifier="knn", feature_selection=False)
    assert [r.error for r in run_one(cohort, spec, 0, table)] == [
        "ValueError: " + text]


def test_a_late_stack_failure_beats_a_later_subjects_stage_failure(
        small_cohort, monkeypatch):
    """Subject 1's row fails in a stack that is still waiting when
    subject 3's filter fails: the cell keeps subject 1's failure, the
    one a subject-by-subject assembly would meet first."""
    cohort = small_cohort[0][:4]
    whole = SegmentSpec(1, 1)
    names = {segment(cleaning.run_pipeline(rec, CleaningPipeline(
        kind="filtered")), whole).channel("P3").tobytes(): rec.subject_id
        for rec in cohort}
    ids = [rec.subject_id for rec in cohort]
    events = []
    real_filter, real_extract = cleaning.fir_bandpass, features.extract_channel

    def fir_bandpass(rec, params):
        events.append(("filter", rec.subject_id))
        if rec.subject_id == ids[3]:
            raise RuntimeError("no clean data in " + rec.subject_id)
        return real_filter(rec, params)

    def extract(signal, fs, params):
        rows = [names[row.tobytes()] for row in np.atleast_2d(signal)]
        events.append(("extract", tuple(rows)))
        if ids[1] in rows:
            raise ValueError("refused " + ids[1])
        return real_extract(signal, fs, params)
    monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    monkeypatch.setattr(features, "extract_channel", extract)
    table = feature_vectors(cohort, [("filtered", whole, "P3")], PIPELINE,
                            DEFAULT_PARAMS)
    # every filter ran before the stack of subjects 0-2 was extracted
    assert events[:5] == [("filter", i) for i in ids] \
        + [("extract", tuple(ids[:3]))]
    subject, err = table.failures[table.cells["filtered", whole, "P3"]]
    assert (subject, str(err)) == (1, "refused " + ids[1])
    spec = ExperimentSpec(cleaning="filtered", chunk=whole, channels=("P3",),
                          classifier="knn", feature_selection=False)
    assert [r.error for r in run_one(cohort, spec, 0, table)] == [
        "ValueError: refused " + ids[1]]


# ---------------------------------------------------------------------------
# stacked extraction

def _stacks_seen(monkeypatch):
    """Record the shape of every signal extract_channel is given."""
    shapes = []
    real = features.extract_channel

    def extract(signal, *args):
        shapes.append(np.shape(signal))
        return real(signal, *args)
    monkeypatch.setattr(features, "extract_channel", extract)
    return shapes


def _alone(rec, kind, chunk, channel):
    """The vector of one channel row extracted on its own."""
    seg = segment(cleaning.run_pipeline(rec, CleaningPipeline(kind=kind)),
                  chunk)
    return features.extract_channel(seg.channel(channel),
                                    seg.sample_rate_hz, DEFAULT_PARAMS)


def test_a_non_finite_row_fails_only_its_own_key(small_cohort, monkeypatch):
    rec = small_cohort[0][0]
    samples = rec.samples.copy()
    samples[rec.channel_names.index("Cz"), 100] = np.nan  # in chunk 1/2
    rec = rec.with_samples(samples)
    chunks = (SegmentSpec(1, 1), SegmentSpec(2, 1), SegmentSpec(2, 2))
    cells = [("raw", chunk, ch) for chunk in chunks for ch in ("P3", "Cz")]
    shapes = _stacks_seen(monkeypatch)
    table = feature_vectors([rec], cells, PIPELINE, DEFAULT_PARAMS)
    n = rec.n_samples
    # both stacks fail; the rows of each are then extracted alone
    assert shapes == [(2, n), (n,), (n,), (4, n // 2)] + [(n // 2,)] * 4
    bad = [table.cells["raw", chunk, "Cz"] for chunk in chunks[:2]]
    assert sorted(table.failures) == bad
    for pos in bad:
        subject, err = table.failures[pos]
        assert subject == 0 and isinstance(err, ValueError)
        assert str(err) == "signal contains non-finite values"
    for cell in cells:
        if table.cells[cell] not in bad:
            got = table.values[0, table.cells[cell]]
            assert got.tobytes() == _alone(rec, *cell).tobytes()


def test_a_failed_stack_fails_every_row(monkeypatch):
    # 4 s at 30 Hz cut in halves: 60-sample rows pass the 2 s minimum and
    # fail the DWT's 72-sample one, together, and then each alone
    rng = np.random.default_rng(0)
    rec = Recording("s", 1, 30.0, CHANNELS_1020,
                    rng.standard_normal((len(CHANNELS_1020), 120)))
    cells = [("raw", SegmentSpec(2, 2), ch) for ch in ("P3", "Cz")] \
        + [("raw", SegmentSpec(1, 1), "P3")]
    shapes = _stacks_seen(monkeypatch)
    table = feature_vectors([rec], cells, PIPELINE, DEFAULT_PARAMS)
    assert shapes == [(2, 60), (60,), (60,), (1, 120)]
    text = "signal of length 60 too short for 6-level DWT (needs >= 72 " \
           "samples)"
    assert {pos: (subject, str(err))
            for pos, (subject, err) in table.failures.items()} == {
        table.cells[cell]: (0, text) for cell in cells[:2]}
    whole = table.values[0, table.cells[cells[2]]]
    assert whole.tobytes() == _alone(rec, *cells[2]).tobytes()


def test_lengths_one_sample_apart_go_to_separate_stacks(small_cohort,
                                                        monkeypatch):
    # halves of 1,535 and 1,536 samples: 767 and 768
    cohort = [rec.with_samples(rec.samples[:, :1535 + i])
              for i, rec in enumerate(small_cohort[0][:2])]
    cells = [(kind, SegmentSpec(2, i), ch) for kind in ("raw", "filtered")
             for i in (1, 2) for ch in ("P3", "Cz")]
    shapes = _stacks_seen(monkeypatch)
    table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
    assert shapes == [(8, 767), (8, 768)]
    monkeypatch.undo()
    for s, rec in enumerate(cohort):
        for cell in cells:
            got = table.values[s, table.cells[cell]]
            assert got.tobytes() == _alone(rec, *cell).tobytes()


def test_each_sample_rate_gets_its_own_stacks(small_cohort, monkeypatch):
    # subjects 1 and 3 declared at twice the rate: their segments have
    # the same lengths as the others' and must still not share a stack
    cohort = [replace(rec, sample_rate_hz=FS * (1 + s % 2))
              for s, rec in enumerate(small_cohort[0][:4])]
    chunks = (SegmentSpec(1, 1), SegmentSpec(2, 1), SegmentSpec(2, 2))
    cells = [("raw", chunk, ch) for chunk in chunks for ch in ("P3", "Cz")]
    rates = []
    real = features.extract_channel

    def extract(signal, fs, *args):
        rates.append((np.shape(signal), fs))
        return real(signal, fs, *args)
    monkeypatch.setattr(features, "extract_channel", extract)
    table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
    n = cohort[0].n_samples
    assert sorted(rates) == sorted(
        (shape, fs) for shape in ((4, n), (8, n // 2)) for fs in (FS, 2 * FS))
    monkeypatch.undo()
    for s, rec in enumerate(cohort):
        for cell in cells:
            got = table.values[s, table.cells[cell]]
            assert got.tobytes() == _alone(rec, *cell).tobytes()
