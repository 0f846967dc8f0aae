import json
import multiprocessing
import os
import tempfile
import threading
import warnings
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ARTIFACT_MIX, FS
from eegsweep import classify, cleaning, features, selection, sweep, synth
from eegsweep.cleaning import PIPELINE_KINDS, CleaningPipeline
from eegsweep.data_model import CHANNELS_1020, Recording
from eegsweep.features import DEFAULT_PARAMS, FeatureParams
from eegsweep.segmentation import SegmentSpec, segment
from eegsweep.sweep import (ExperimentRecord, ExperimentSpec, SweepSpace,
                            _error_text, _spec_seed, enumerate_space,
                            feature_matrix, feature_vectors,
                            records_from_csv, records_to_csv, run_one,
                            run_sweep)

#: A GBT point sets its rounds; the point is their only source.
FAST_ROUNDS = {"n_rounds": 30, "early_stopping_rounds": 10}
FAST_GRIDS = {"gbt": (dict(FAST_ROUNDS, max_depth=2, eta=0.3, gamma=0.0),),
              "knn": ({"k": 3},),
              "svm": ({"c": 1.0, "gamma_rbf": "scale"},)}

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
    kwargs = dict(seed=3, grids=FAST_GRIDS)
    r1 = run_sweep(cohort, small_specs(), **kwargs)
    r2 = run_sweep(cohort, small_specs(), **kwargs)
    assert _dump(r1) == _dump(r2)


def _cells(spec):
    return [(spec.cleaning, spec.chunk, ch) for ch in spec.channels]


def _run_uncached(cohort, specs, seed):
    """Every spec on its own fresh table: nothing is shared between specs."""
    return [record for spec in specs for record in run_one(
        feature_vectors(cohort, _cells(spec), PIPELINE, DEFAULT_PARAMS),
        spec, seed, grids=FAST_GRIDS)]


def test_run_sweep_cache_matches_uncached(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    cached = run_sweep(cohort, specs, seed=1, grids=FAST_GRIDS)
    assert _dump(cached) == _dump(_run_uncached(cohort, specs, 1))


def test_run_sweep_records_in_spec_order(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    records = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS)
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
    records = run_sweep(short, [bad, good], seed=0, grids=FAST_GRIDS)
    assert not records[0].ok
    assert "below minimum" in records[0].error
    assert records[1].ok


def test_run_sweep_empty():
    assert run_sweep([], [], seed=0) == []


def test_run_sweep_resume_equivalence(tmp_path, small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    full = run_sweep(cohort, specs, seed=7, grids=FAST_GRIDS)

    # simulate a crash: run only the first 3 specs into the checkpoint
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs[:3], seed=7, grids=FAST_GRIDS, checkpoint_dir=ckpt)
    lines = (ckpt / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3

    resumed = run_sweep(cohort, specs, seed=7, grids=FAST_GRIDS,
                        checkpoint_dir=ckpt)
    assert _dump(resumed) == _dump(full)
    # no recomputation of finished specs: checkpoint has one line per spec
    lines = (ckpt / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(specs)
    keys = [json.loads(l)["key"] for l in lines]
    assert len(set(keys)) == len(specs)


def test_run_sweep_parallel_matches_serial(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    serial = run_sweep(cohort, specs, seed=2, grids=FAST_GRIDS, jobs=1)
    parallel = run_sweep(cohort, specs, seed=2, grids=FAST_GRIDS, jobs=2)
    assert _dump(serial) == _dump(parallel)


def test_records_csv_round_trip(tmp_path, small_cohort):
    cohort, _ = small_cohort
    records = run_sweep(cohort, small_specs()[:4], seed=0, grids=FAST_GRIDS)
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
    assert table.cells == {cell: 0} and table.errors.tolist() == [[None]]
    assert table.values.shape == (1, 1, 53)
    matrix = feature_matrix(table, *cell[:2], ["P3"])
    assert matrix.values.tobytes() == table.values.tobytes()


def test_expand_grid_rows(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:2]
    grids = {"gbt": tuple(dict(FAST_ROUNDS, max_depth=d, eta=0.3, gamma=0.0)
                          for d in (2, 3))}
    records = run_sweep(cohort, specs, seed=0, grids=grids, expand_grid=True)
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
                       eval_on_test_fold=False)
    lax = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS,
                    eval_on_test_fold=True)
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
    _one_worker(monkeypatch)
    runs = {}
    for cached in (True, False):
        calls.clear()
        if cached:
            records = run_sweep(cohort, specs, seed=4, grids=FAST_GRIDS)
        else:
            records = _run_uncached(cohort, specs, 4)
        runs[cached] = (dict(calls), _dump(records))
    assert runs[True][1] == runs[False][1]
    # cached, each subject is walked through the cleanings once; uncached,
    # once per spec. Every spec here needs its own (cleaning, chunk,
    # channel) vector, so both extract one row per spec and subject.
    # Cached, each subject stacks its rows of one segment length: 4 rows
    # of 1,536 samples (chunk 1/1) and 8 of 768 (chunks 1/2 and 2/2),
    # two stacks. Uncached, each spec's row of a subject is a stack alone.
    n = len(cohort)
    assert runs[True][0] == {"walk_pipeline": n, "extract_channel": 2 * n,
                             "rows": len(specs) * n}
    assert runs[False][0] == {"walk_pipeline": len(specs) * n,
                              "extract_channel": len(specs) * n,
                              "rows": len(specs) * n}


def test_resume_recomputes_an_unparsable_last_line(tmp_path, small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:3]
    kwargs = dict(seed=7, grids=FAST_GRIDS)
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
    kwargs = dict(seed=7, grids=FAST_GRIDS)
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
    # the one cleaning config is stamped whole, though these specs are raw
    {"pipeline": replace(PIPELINE, fir=replace(PIPELINE.fir, high_hz=35.0))},
    {"pipeline": replace(PIPELINE, asr=replace(PIPELINE.asr, cutoff_k=15.0))},
    {"pipeline": replace(PIPELINE, ica=replace(PIPELINE.ica, rng_seed=1))},
], ids=["knn_k3_to_k5", "seed", "flag", "feature_params", "fir", "asr",
        "ica"])
def test_resume_refuses_another_config(tmp_path, small_cohort, change):
    # resuming used to return the old rows, e.g. {"k": 3} after the KNN
    # grid changed to k=5
    cohort, _ = small_cohort
    specs = enumerate_space(SweepSpace(
        cleanings=("raw",), divisors=(1,), channels=("P3", "Cz"),
        classifiers=("knn",), selection_flags=(False,)))
    kwargs = dict(seed=7, grids=FAST_GRIDS)
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
    kwargs = dict(seed=7, grids=FAST_GRIDS)
    ckpt = tmp_path / "ck"
    run_sweep(cohort, specs[:1], checkpoint_dir=ckpt, **kwargs)
    (ckpt / "config.sha256").unlink()
    with pytest.raises(ValueError, match="stamp missing"):
        run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    # an empty checkpoint holds no rows to protect: it is restamped
    (ckpt / "records.jsonl").write_bytes(b"")
    assert len(run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)) == 2
    assert (ckpt / "config.sha256").exists()


def test_resume_that_adds_a_cleaning_runs_only_its_specs(tmp_path,
                                                         small_cohort,
                                                         monkeypatch):
    # the stamp covers the one cleaning config, not the cleanings that
    # the specs name
    cohort, _ = small_cohort
    specs = small_specs()
    kwargs = dict(seed=7, grids=FAST_GRIDS)
    full = run_sweep(cohort, specs, **kwargs)
    ckpt = tmp_path / "ck"
    run_sweep(cohort, [s for s in specs if s.cleaning == "raw"],
              checkpoint_dir=ckpt, **kwargs)
    stamp = (ckpt / "config.sha256").read_bytes()
    ran = []
    real = sweep.run_one

    def run_one(table, spec, *args, **kw):
        ran.append(spec.key)
        return real(table, spec, *args, **kw)
    monkeypatch.setattr(sweep, "run_one", run_one)
    resumed = run_sweep(cohort, specs, checkpoint_dir=ckpt, **kwargs)
    assert ran == [s.key for s in specs if s.cleaning == "filtered"]
    assert _dump(resumed) == _dump(full)
    assert (ckpt / "config.sha256").read_bytes() == stamp
    lines = (ckpt / "records.jsonl").read_text().splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) \
        == sorted(s.key for s in specs)


def test_stamp_leaves_out_the_pipeline_kind(tmp_path, small_cohort):
    # the sweep cleans by each spec's cleaning, never by the config's kind
    cohort, _ = small_cohort
    stamps = set()
    for kind in ("raw", "ica"):
        ckpt = tmp_path / kind
        run_sweep(cohort, small_specs()[:1], seed=7, grids=FAST_GRIDS,
                  pipeline=replace(PIPELINE, kind=kind), checkpoint_dir=ckpt)
        stamps.add((ckpt / "config.sha256").read_text())
    assert len(stamps) == 1


def test_a_gbt_point_that_sets_its_rounds_names_them(small_cohort,
                                                     monkeypatch):
    # the point is the one source of a booster's settings
    cohort, _ = small_cohort
    point = dict(max_depth=2, eta=0.3, gamma=0.0, n_rounds=7,
                 early_stopping_rounds=3)
    fits = []
    real = classify._boost

    def boost(batch):
        fits.extend(batch)
        return real(batch)
    monkeypatch.setattr(classify, "_boost", boost)
    (row,) = run_sweep(cohort, small_specs()[:1], seed=0,
                       grids={"gbt": (point,)})
    assert row.ok and row.best_params == point
    assert fits and {fit.cfg for fit in fits} \
        == {classify.GbtConfig(**point)}


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
            selected, _ = selection.select_features(matrix)
            if selected.n_columns:  # none kept keeps every column
                matrix = selected
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier,
            grid=FAST_GRIDS.get(spec.classifier),
            seed=_spec_seed(seed, spec))
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
    table = run_sweep(failing_cohort, specs, seed=seed, grids=FAST_GRIDS)
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
    """The table's processes clean and extract; the spec processes,
    forked after them, run the specs alone."""
    cohort, _ = small_cohort
    specs = small_specs()
    log = tmp_path / "calls.log"
    _log_calls(monkeypatch, log, cleaning, "fir_bandpass")
    _log_calls(monkeypatch, log, features, "extract_channel")
    _log_calls(monkeypatch, log, sweep, "run_one")
    records = run_sweep(cohort, specs, seed=2, grids=FAST_GRIDS, jobs=2)
    calls = [line.split() for line in log.read_text().splitlines()]
    pids = {}
    for pid, name in calls:
        pids.setdefault(name, set()).add(pid)
    assert str(os.getpid()) not in pids["run_one"]
    assert not pids["run_one"] & (pids["fir_bandpass"]
                                  | pids["extract_channel"])
    # two stacks per subject, chunk 1/1 and the halves (see
    # test_cache_makes_sweep_cheaper)
    assert Counter(name for _, name in calls) == {
        "fir_bandpass": len(cohort), "extract_channel": 2 * len(cohort),
        "run_one": len(specs)}
    assert all(r.ok for r in records)


def test_failing_cleaning_is_attempted_once(small_cohort, monkeypatch,
                                            tmp_path):
    cohort, _ = small_cohort
    log = tmp_path / "attempts.log"  # appended to by the table's processes
    real = cleaning.fir_bandpass

    def fir_bandpass(rec, params):
        with open(log, "a") as fh:
            fh.write(rec.subject_id + "\n")
        if rec.subject_id == "adhd002":
            raise RuntimeError("no clean data in %s" % rec.subject_id)
        return real(rec, params)
    monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    specs = small_specs()
    records = run_sweep(cohort, specs, seed=4, grids=FAST_GRIDS)
    attempts = Counter(log.read_text().split())
    assert len(attempts) == len(cohort)
    assert set(attempts.values()) == {1}
    for spec, rec in zip(specs, records):
        assert rec.error == ("RuntimeError: no clean data in adhd002"
                             if spec.cleaning == "filtered" else "")


def test_each_subject_is_filtered_and_calibrated_once(small_cohort,
                                                      monkeypatch, tmp_path):
    """A sweep over the four cleanings runs FIR and ASR calibration once
    per subject: asr continues the filtered stage and ica the asr stage,
    instead of each starting again from raw."""
    cohort, _ = small_cohort
    log = tmp_path / "calls.log"  # appended to by the table's processes
    for name in ("fir_bandpass", "asr_calibrate"):
        real = getattr(cleaning, name)

        def wrapper(rec, params, name=name, real=real):
            with open(log, "a") as fh:
                fh.write("%s %s\n" % (name, rec.subject_id))
            return real(rec, params)
        monkeypatch.setattr(cleaning, name, wrapper)
    specs = enumerate_space(SweepSpace(
        divisors=(1,), channels=("P3",), classifiers=("knn",),
        selection_flags=(False,)))
    records = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS)
    assert [r.cleaning for r in records] == list(PIPELINE_KINDS)
    assert all(r.ok for r in records)
    calls = Counter(tuple(line.split())
                    for line in log.read_text().splitlines())
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
    asr = table.errors[0, pos["asr"]]
    assert {kind: table.errors[0, p] for kind, p in pos.items()} == {
        "raw": None, "filtered": None, "asr": asr, "ica": asr}
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
    m1 = feature_matrix(table, "raw", whole, ["P3"])
    assert m1.values.shape == (len(cohort), 53)
    assert m1.column_names[0] == "P3:mean"
    m2 = feature_matrix(table, "raw", whole, ["P3", "P4"])
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
        feature_matrix(table, "raw", SegmentSpec(1, 1), [])


def test_a_table_carries_its_cohorts_labels_and_ids(small_cohort):
    """A matrix sliced from a table alone has the labels and ids of the
    table's cohort, in its order (here class 0 first), and no caller can
    write to the table's labels."""
    cohort = small_cohort[0][::-1]
    whole = SegmentSpec(1, 1)
    table = feature_vectors(cohort, [("raw", whole, "P3")], PIPELINE,
                            DEFAULT_PARAMS)
    matrix = feature_matrix(table, "raw", whole, ["P3"])
    assert matrix.labels.tolist() == table.labels.tolist() \
        == [rec.label for rec in cohort]
    assert matrix.labels.tolist()[0] == 0
    assert matrix.subject_ids == list(table.subject_ids) \
        == [rec.subject_id for rec in cohort]
    assert matrix.values[0].tobytes() == _alone(cohort[0], "raw", whole,
                                                "P3").tobytes()
    with pytest.raises(ValueError, match="read-only"):
        table.labels[0] = 1


_TABLE_CHANNELS = ("P3", "P4", "C3", "Cz", "O1")


def _synthetic_table(seed, n_a, n_b):
    """A table of drawn vectors, one raw whole-recording cell per channel
    of _TABLE_CHANNELS. Each column is normal, heavy-tailed, skewed or
    constant within a class, some with a class shift or a spread that
    differs by class, at scales from 1e-5 to 1e5, so that the cascade
    takes every route."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 0], [n_a, n_b])
    shape = (n_a + n_b, len(_TABLE_CHANNELS) * features.N_FEATURES)
    values = np.choose(rng.integers(0, 4, shape[1]), [
        rng.standard_normal(shape), rng.standard_t(2, shape),
        rng.exponential(size=shape), np.ones(shape)])
    values *= np.where(labels[:, None] == 1, rng.choice([1.0, 3.0], shape[1]),
                       1.0)
    values += labels[:, None] * rng.choice([0.0, 0.0, 0.8, 2.0], shape[1])
    values *= 10.0 ** rng.integers(-5, 6, shape[1])
    labels.flags.writeable = False
    whole = SegmentSpec(1, 1)
    return sweep.FeatureTable(
        cells={("raw", whole, ch): i for i, ch in enumerate(_TABLE_CHANNELS)},
        values=values.reshape(shape[0], len(_TABLE_CHANNELS), -1),
        errors=np.full((shape[0], len(_TABLE_CHANNELS)), None, dtype=object),
        labels=labels, subject_ids=tuple("s%d" % s for s in range(shape[0])))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(_TABLE_CHANNELS), min_size=1, max_size=3,
                unique=True),
       st.integers(0, 2 ** 16), st.integers(20, 30), st.integers(20, 30))
def test_subset_selection_concatenates_its_channels_selections(
        channels, seed, n_a, n_b):
    """Whole-cohort selection routes each column on its own, so a subset
    keeps exactly its channels' kept columns, each offset by 53 times the
    channel's place in the subset, with the same routes and bytes."""
    table = _synthetic_table(seed, n_a, n_b)
    whole = SegmentSpec(1, 1)
    alone = [selection.select_features(feature_matrix(table, "raw", whole,
                                                      [ch]))
             for ch in channels]
    kept, report = selection.select_features(
        feature_matrix(table, "raw", whole, channels))
    assert [j for j, row in enumerate(report.rows) if row.selected] == [
        features.N_FEATURES * i + j for i, (_, rep) in enumerate(alone)
        for j, row in enumerate(rep.rows) if row.selected]
    assert repr(report.rows) == repr([row for _, rep in alone
                                      for row in rep.rows])
    assert kept.column_names == [name for matrix, _ in alone
                                 for name in matrix.column_names]
    assert kept.values.tobytes() == np.hstack(
        [matrix.values for matrix, _ in alone]).tobytes()


def _per_spec_run_one(table, spec, seed):
    """run_one with whole-cohort selection run on each spec's own subset
    matrix (best grid point only)."""
    record = ExperimentRecord(
        cleaning=spec.cleaning, chunk=spec.chunk.chunk_id,
        channels="-".join(spec.channels), classifier=spec.classifier,
        feature_selection=spec.feature_selection)
    try:
        matrix = feature_matrix(table, spec.cleaning, spec.chunk,
                                spec.channels)
        selected, _ = selection.select_features(matrix)
        if selected.n_columns:  # none kept keeps every column
            matrix = selected
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier,
            grid=FAST_GRIDS.get(spec.classifier),
            seed=_spec_seed(seed, spec))
    except Exception as exc:
        return replace(record, error=_error_text(exc))
    return replace(record, accuracy=result.mean_accuracy,
                   spread=result.spread, best_params=result.best_config)


def test_each_cell_is_selected_once_for_every_spec(theta_cohort,
                                                   monkeypatch):
    """Whole-cohort selection specs over the singles, pairs and trio of
    P3, P4 and C3 give the records of selecting each spec's own subset,
    serially and in fork workers, and select each cell once."""
    cohort, _ = theta_cohort
    specs = enumerate_space(SweepSpace(
        cleanings=("raw",), divisors=(1, 2), subset_sizes=(1, 2, 3),
        channels=("P3", "P4", "C3"), classifiers=("knn",),
        selection_flags=(True,)))
    table = feature_vectors(cohort, [(spec.cleaning, spec.chunk, ch)
                                     for spec in specs
                                     for ch in spec.channels],
                            PIPELINE, DEFAULT_PARAMS)
    reference = [_per_spec_run_one(table, spec, 3) for spec in specs]
    assert all(r.ok for r in reference)
    assert _dump(run_sweep(cohort, specs, seed=3, grids=FAST_GRIDS,
                           jobs=2)) == _dump(reference)
    calls = Counter()
    real = selection.select_features

    def select_features(matrix, *args):
        calls[matrix.values.tobytes()] += 1
        return real(matrix, *args)
    monkeypatch.setattr(selection, "select_features", select_features)
    assert _dump(run_sweep(cohort, specs, seed=3, grids=FAST_GRIDS,
                           jobs=1)) == _dump(reference)
    assert sorted(calls.values()) == [1] * len(table.cells) == [1] * 9


def test_a_selection_that_keeps_no_column_keeps_every_column(
        theta_cohort):
    """Whole-cohort selection keeps no column of raw C3 at 1/1, of P4 at
    1/2, or of either at 2/2 (the effect is at P3 alone). Those specs
    cross-validate every column of their subset, as a fold whose
    selection keeps none does, and P3-C3 at 1/1 keeps P3's columns."""
    cohort, _ = theta_cohort
    whole, first, second = (SegmentSpec(1, 1), SegmentSpec(2, 1),
                            SegmentSpec(2, 2))
    specs = [ExperimentSpec("raw", chunk, channels, clf, True)
             for chunk, channels in ((whole, ("C3",)), (first, ("P4",)))
             for clf in ("knn", "svm", "gbt")]
    specs += [ExperimentSpec("raw", second, ("P4", "C3"), "knn", True),
              ExperimentSpec("raw", whole, ("P3", "C3"), "knn", True)]
    table = feature_vectors(cohort, [(spec.cleaning, spec.chunk, ch)
                                     for spec in specs
                                     for ch in spec.channels],
                            PIPELINE, DEFAULT_PARAMS)
    p3, _ = selection.select_features(feature_matrix(table, "raw", whole,
                                                     ["P3"]))
    assert 0 < p3.n_columns < features.N_FEATURES
    matrices = [feature_matrix(table, spec.cleaning, spec.chunk,
                               spec.channels) for spec in specs[:-1]] + [p3]
    expected = []
    for spec, matrix in zip(specs, matrices):
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier,
            grid=FAST_GRIDS[spec.classifier], seed=_spec_seed(7, spec))
        expected.append(ExperimentRecord(
            cleaning="raw", chunk=spec.chunk.chunk_id,
            channels="-".join(spec.channels), classifier=spec.classifier,
            feature_selection=True, accuracy=result.mean_accuracy,
            spread=result.spread, best_params=result.best_config))
    assert _dump(run_sweep(cohort, specs, seed=7,
                           grids=FAST_GRIDS)) == _dump(expected)


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
    assert {(s, ch): str(table.errors[s, table.cells["raw", whole, ch]])
            for s in range(3) for ch in channels
            if table.errors[s, table.cells["raw", whole, ch]] is not None} \
        == {(s, ch): "refused %s %s" % (cohort[s].subject_id, ch)
            for s, ch in ((2, "P3"), (1, "Cz"), (2, "Cz"), (1, "O1"))}
    text = "refused %s Cz" % cohort[1].subject_id
    with pytest.raises(ValueError) as err:
        feature_matrix(table, "raw", whole, channels)
    assert str(err.value) == text
    # the vectors fail before selection, whose n=20 floor would refuse
    # these three subjects
    for sel in (False, True):
        spec = ExperimentSpec(cleaning="raw", chunk=whole, channels=channels,
                              classifier="knn", feature_selection=sel)
        assert [r.error for r in run_one(table, spec, 0)] == [
            "ValueError: " + text]


def _late_stack_failure(small_cohort, monkeypatch, tmp_path, workers):
    """Subject 1's row fails in its stack, and subject 3's filter fails,
    on `workers` processes: the filter and extract events, in the order
    each process logged them, the table, and the errors of its one
    cell."""
    cohort = small_cohort[0][:4]
    whole = SegmentSpec(1, 1)
    names = {segment(cleaning.run_pipeline(rec, CleaningPipeline(
        kind="filtered")), whole).channel("P3").tobytes(): rec.subject_id
        for rec in cohort}
    ids = [rec.subject_id for rec in cohort]
    log = tmp_path / "events.log"
    real_filter, real_extract = cleaning.fir_bandpass, features.extract_channel

    def event(*words):
        with open(log, "a") as fh:
            fh.write(" ".join(words) + "\n")

    def fir_bandpass(rec, params):
        event("filter", rec.subject_id)
        if rec.subject_id == ids[3]:
            raise RuntimeError("no clean data in " + rec.subject_id)
        return real_filter(rec, params)

    def extract(signal, fs, params):
        rows = [names[row.tobytes()] for row in np.atleast_2d(signal)]
        event("extract", *rows)
        if ids[1] in rows:
            raise ValueError("refused " + ids[1])
        return real_extract(signal, fs, params)
    monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    monkeypatch.setattr(features, "extract_channel", extract)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: workers)
    table = feature_vectors(cohort, [("filtered", whole, "P3")], PIPELINE,
                            DEFAULT_PARAMS)
    events = [(words[0], words[1] if words[0] == "filter"
               else tuple(words[1:]))
              for words in map(str.split, log.read_text().splitlines())]
    errors = table.errors[:, table.cells["filtered", whole, "P3"]]
    return events, table, [err if err is None else str(err)
                           for err in errors]


def test_a_late_stack_failure_beats_a_later_subjects_stage_failure(
        small_cohort, monkeypatch, tmp_path):
    """Subject 1's row fails in its stack and subject 3's filter fails:
    each failure stays at its own subject, and the spec raises subject
    1's, the one a subject-by-subject assembly would meet first."""
    cohort = small_cohort[0][:4]
    ids = [rec.subject_id for rec in cohort]
    events, table, errors = _late_stack_failure(small_cohort, monkeypatch,
                                                tmp_path, 1)
    # each subject is filtered, then its one row is extracted alone
    assert events == [("filter", ids[0]), ("extract", (ids[0],)),
                      ("filter", ids[1]), ("extract", (ids[1],)),
                      ("filter", ids[2]), ("extract", (ids[2],)),
                      ("filter", ids[3])]
    assert errors == [None, "refused " + ids[1], None,
                      "no clean data in " + ids[3]]
    spec = ExperimentSpec(cleaning="filtered", chunk=SegmentSpec(1, 1),
                          channels=("P3",), classifier="knn",
                          feature_selection=False)
    assert [r.error for r in run_one(table, spec, 0)] == [
        "ValueError: refused " + ids[1]]


def test_a_late_stack_failure_on_two_workers(small_cohort, monkeypatch,
                                             tmp_path):
    """Two processes take the subjects in either order, but each subject
    is filtered before its row is extracted, and each failure stays at
    its own subject."""
    ids = [rec.subject_id for rec in small_cohort[0][:4]]
    events, _, errors = _late_stack_failure(small_cohort, monkeypatch,
                                            tmp_path, 2)
    assert sorted(events) == sorted(
        [("filter", i) for i in ids] + [("extract", (i,)) for i in ids[:3]])
    for i in ids[:3]:
        assert events.index(("filter", i)) < events.index(("extract", (i,)))
    assert errors == [None, "refused " + ids[1], None,
                      "no clean data in " + ids[3]]


_GRID_CHANNELS = ("P3", "Cz", "O1")


@pytest.fixture(scope="module")
def grid_rows(small_cohort):
    """Four subjects, and the name (kind, subject, channel) of each of
    their raw and filtered whole-recording rows, by the row's bytes."""
    cohort = small_cohort[0][:4]
    whole = SegmentSpec(1, 1)
    return cohort, {
        segment(cleaning.run_pipeline(rec, CleaningPipeline(kind=kind)),
                whole).channel(ch).tobytes(): (kind, s, ch)
        for s, rec in enumerate(cohort) for kind in ("raw", "filtered")
        for ch in _GRID_CHANNELS}


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.sampled_from(("raw", "filtered")),
                         st.integers(0, 3), st.sampled_from(_GRID_CHANNELS))),
       st.one_of(st.none(), st.integers(0, 3)),
       st.integers(1, 24),
       st.permutations(_GRID_CHANNELS), st.integers(1, 3),
       st.integers(1, 3))
def test_errors_hold_each_failure_at_its_subject_and_cell(
        grid_rows, refused, stage_failure, stack_rows, order, size, workers):
    """extract_channel refuses a random set of rows and FIR fails for a
    random subject, under any stack budget and on 1 to 3 processes: `errors`
    holds exactly those failures, and each spec's matrix raises what
    assembling it subject by subject, channel by channel, meets first."""
    cohort, names = grid_rows
    whole = SegmentSpec(1, 1)
    failing = None if stage_failure is None else cohort[stage_failure]
    codes = {name: i for i, name in enumerate(names.values())}
    real_filter = cleaning.fir_bandpass

    def fir_bandpass(rec, params):
        if rec is failing:
            raise RuntimeError("no clean data in " + rec.subject_id)
        return real_filter(rec, params)

    def extract(signal, fs, params=DEFAULT_PARAMS):
        rows = [names[row.tobytes()] for row in np.atleast_2d(signal)]
        for name in rows:
            if name in refused:
                raise ValueError("refused %s %d %s" % name)
        # a vector that names its row
        vectors = np.array([[codes[name]] * features.N_FEATURES
                            for name in rows], dtype=float)
        return vectors if np.ndim(signal) == 2 else vectors[0]

    cells = [(kind, whole, ch) for kind in ("raw", "filtered")
             for ch in _GRID_CHANNELS]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cleaning, "fir_bandpass", fir_bandpass)
        patch.setattr(features, "extract_channel", extract)
        patch.setattr(sweep, "_STACK_SAMPLES",
                      stack_rows * cohort[0].n_samples)
        patch.setattr(sweep, "_usable_cpus", lambda: workers)
        table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
        expected = {}
        for kind, _, ch in cells:
            for s, rec in enumerate(cohort):
                if kind == "filtered" and s == stage_failure:
                    expected[s, kind, ch] = ("RuntimeError: no clean data in "
                                             + rec.subject_id)
                elif (kind, s, ch) in refused:
                    expected[s, kind, ch] = "ValueError: refused %s %d %s" \
                        % (kind, s, ch)
        assert {(s, kind, ch): _error_text(table.errors[s, pos])
                for (kind, _, ch), pos in table.cells.items()
                for s in range(len(cohort))
                if table.errors[s, pos] is not None} == expected

        for kind in ("raw", "filtered"):
            channels = order[:size]
            try:  # subject by subject, channel by channel
                want = np.array([np.concatenate([
                    features.extract_channel(seg.channel(ch),
                                             seg.sample_rate_hz)
                    for ch in channels]) for seg in (
                        segment(cleaning.run_pipeline(
                            rec, CleaningPipeline(kind=kind)), whole)
                        for rec in cohort)])
            except Exception as exc:
                with pytest.raises(type(exc)) as got:
                    feature_matrix(table, kind, whole, channels)
                assert str(got.value) == str(exc)
            else:
                got = feature_matrix(table, kind, whole, channels)
                assert got.values.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# stacked extraction

def _one_worker(monkeypatch):
    """Build feature tables in this process, as with one usable CPU, so
    that a spy sees every stack, in the order they are extracted."""
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)


def _stacks_seen(monkeypatch):
    """Record the shape of every signal extract_channel is given, on one
    worker."""
    _one_worker(monkeypatch)
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
    # both stacks fail and are halved until each failure is alone; the
    # two rows of chunk 2/2, the clean half, stay in one stack
    h = n // 2
    assert shapes == [(2, n), (1, n), (1, n), (4, h), (2, h), (1, h), (1, h),
                      (2, h)]
    bad = [table.cells["raw", chunk, "Cz"] for chunk in chunks[:2]]
    assert [pos for pos, err in enumerate(table.errors[0])
            if err is not None] == bad
    for pos in bad:
        err = table.errors[0, pos]
        assert isinstance(err, ValueError)
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
    assert shapes == [(2, 60), (1, 60), (1, 60), (1, 120)]
    text = "signal of length 60 too short for 6-level DWT (needs >= 72 " \
           "samples)"
    assert {(s, pos): str(err)
            for (s, pos), err in np.ndenumerate(table.errors)
            if err is not None} == {
        (0, table.cells[cell]): text for cell in cells[:2]}
    whole = table.values[0, table.cells[cells[2]]]
    assert whole.tobytes() == _alone(rec, *cells[2]).tobytes()


def test_a_failed_stack_is_bisected_down_to_its_bad_row(small_cohort,
                                                        monkeypatch):
    """A subject's 8 rows in one stack, one of them non-finite: 7 stacked
    calls find it, where extracting every row again alone took 9, and
    every other row, and the other subject's stack, gets the vector it
    gets alone."""
    cohort = list(small_cohort[0][:2])
    samples = cohort[1].samples.copy()
    samples[cohort[1].channel_names.index("Cz"), 100] = np.inf
    cohort[1] = cohort[1].with_samples(samples)
    whole = SegmentSpec(1, 1)
    cells = [("raw", whole, ch) for ch in ("Fp1", "Fp2", "F3", "F4", "C3",
                                           "Cz", "P3", "P4")]
    shapes = _stacks_seen(monkeypatch)
    table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
    n = cohort[0].n_samples
    # subject 0's stack passes; in subject 1's, rows 0-3 pass and row 5,
    # Cz, is split from 4, 6 and 7
    assert shapes == [(8, n), (8, n), (4, n), (4, n), (2, n), (1, n),
                      (1, n), (2, n)]
    monkeypatch.undo()
    bad = table.cells["raw", whole, "Cz"]
    for s, rec in enumerate(cohort):
        for cell in cells:
            pos = table.cells[cell]
            if (s, pos) == (1, bad):
                err = table.errors[s, pos]
                assert isinstance(err, ValueError)
                assert str(err) == "signal contains non-finite values"
            else:
                assert table.errors[s, pos] is None
                assert table.values[s, pos].tobytes() == _alone(
                    rec, *cell).tobytes()


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
    # the same lengths as the others' and are extracted at their own rate
    cohort = [replace(rec, sample_rate_hz=FS * (1 + s % 2))
              for s, rec in enumerate(small_cohort[0][:4])]
    chunks = (SegmentSpec(1, 1), SegmentSpec(2, 1), SegmentSpec(2, 2))
    cells = [("raw", chunk, ch) for chunk in chunks for ch in ("P3", "Cz")]
    rates = []
    real = features.extract_channel

    def extract(signal, fs, *args):
        rates.append((np.shape(signal), fs))
        return real(signal, fs, *args)
    _one_worker(monkeypatch)
    monkeypatch.setattr(features, "extract_channel", extract)
    table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
    n = cohort[0].n_samples
    assert rates == [(shape, rec.sample_rate_hz) for rec in cohort
                     for shape in ((2, n), (4, n // 2))]
    monkeypatch.undo()
    for s, rec in enumerate(cohort):
        for cell in cells:
            got = table.values[s, table.cells[cell]]
            assert got.tobytes() == _alone(rec, *cell).tobytes()


# ---------------------------------------------------------------------------
# the table's processes and the spec processes

def test_the_worker_count_never_changes_a_table(failing_cohort, monkeypatch):
    """FIR fails for td003, ASR calibration for adhd002 (9 s) and td001
    (10 s), and one row of adhd004 is non-finite: on 1, 2 and 3
    processes, the table holds the same vectors and the same
    failures."""
    cohort = list(failing_cohort)
    samples = cohort[4].samples.copy()
    samples[cohort[4].channel_names.index("Cz"), 100] = np.nan
    cohort[4] = cohort[4].with_samples(samples)
    real = cleaning.fir_bandpass

    def fir_bandpass(rec, params):
        if rec.subject_id == "td003":
            raise RuntimeError("no clean data in " + rec.subject_id)
        return real(rec, params)
    monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    cells = [(kind, chunk, ch) for kind in PIPELINE_KINDS
             for chunk in (SegmentSpec(1, 1), SegmentSpec(2, 1),
                           SegmentSpec(2, 2))
             for ch in ("P3", "Cz")]
    tables = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: workers)
        table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
        tables[workers] = (
            {(s, pos): _error_text(err)
             for (s, pos), err in np.ndenumerate(table.errors)
             if err is not None},
            table.values[table.errors == None].tobytes())  # noqa: E711
    assert tables[2] == tables[1] and tables[3] == tables[1]
    errors = {(cohort[s].subject_id, cell[0]): text
              for cell, pos in table.cells.items()
              for (s, p), text in tables[1][0].items() if p == pos}
    assert errors["td003", "filtered"] == errors["td003", "ica"] \
        == "RuntimeError: no clean data in td003"
    for sid in ("adhd002", "td001"):
        assert errors[sid, "asr"].startswith(
            "ValueError: insufficient clean calibration data")
    assert errors["adhd004", "raw"] \
        == "ValueError: signal contains non-finite values"


def test_one_blas_pin_holds_the_whole_pool(small_cohort, monkeypatch):
    """A library call with OpenBLAS on 2 threads: each subject's process
    runs FastICA on 1 thread from entry to exit, and the caller's 2 are
    back once the table is built."""
    blas = cleaning._openblas()
    if blas is None:
        pytest.skip("needs numpy's bundled OpenBLAS")
    get, put = blas
    real = cleaning.ica_decompose

    def on_one_thread():
        if get() != 1:  # a table error, which the test reads
            raise RuntimeError("OpenBLAS on %d threads" % get())

    def ica_decompose(rec, params):
        on_one_thread()
        result = real(rec, params)
        on_one_thread()
        return result
    monkeypatch.setattr(cleaning, "ica_decompose", ica_decompose)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    before = get()
    put(2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short recordings
            table = feature_vectors(small_cohort[0][:2],
                                    [("ica", SegmentSpec(1, 1), "P3")],
                                    PIPELINE, DEFAULT_PARAMS)
        assert get() == 2
    finally:
        put(before)
    assert table.errors.tolist() == [[None], [None]]


def test_spec_processes_are_no_more_than_pending_specs(
        tmp_path, small_cohort, monkeypatch):
    """A resume with 2 of 4 specs left under jobs=8 forks 2 spec
    processes, and one with 1 left forks none. The table is built in
    this process, so that every fork counted is a spec process."""
    cohort, _ = small_cohort
    specs = small_specs()[:4]
    _one_worker(monkeypatch)
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(proc):
        started.append(proc)
        real_start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    want = _dump(run_sweep(cohort, specs, seed=1, grids=FAST_GRIDS))
    for done, forks in ((2, 2), (3, 0)):
        started.clear()
        ckpt = tmp_path / str(done)
        run_sweep(cohort, specs[:done], seed=1, grids=FAST_GRIDS,
                  checkpoint_dir=ckpt)
        got = run_sweep(cohort, specs, seed=1, grids=FAST_GRIDS,
                        checkpoint_dir=ckpt, jobs=8)
        assert len(started) == forks and _dump(got) == want
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failure", ["stage", "task"])
def test_a_table_leaves_no_thread_and_no_process(small_cohort, monkeypatch,
                                                failure):
    """At width 2 the table starts no thread while it is built, and its
    processes have exited once it is, also when a subject's stage fails
    (a table error) or its task raises (which the call raises)."""
    cohort = small_cohort[0][:4]
    bad = cohort[1].subject_id
    real_filter, real_walk = cleaning.fir_bandpass, sweep._walk_rows

    def fir_bandpass(rec, params):
        if rec.subject_id == bad:
            raise RuntimeError("no clean data in " + bad)
        return real_filter(rec, params)

    def walk_rows(rec, pipeline, plan):
        if rec.subject_id == bad:
            raise RuntimeError("walk refused for " + bad)
        return real_walk(rec, pipeline, plan)
    if failure == "stage":
        monkeypatch.setattr(cleaning, "fir_bandpass", fir_bandpass)
    else:
        monkeypatch.setattr(sweep, "_walk_rows", walk_rows)
    threads = threading.active_count()
    seen = []
    real_map = sweep.fork_map

    def fork_map(fn, items, width):
        assert width == 2
        for result in real_map(fn, items, width):
            seen.append(threading.active_count())
            yield result
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sweep, "fork_map", fork_map)
    cells = [(kind, SegmentSpec(1, 1), "P3") for kind in ("raw", "filtered")]
    if failure == "stage":
        table = feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
        assert str(table.errors[1, 1]) == "no clean data in " + bad
        assert seen == [threads] * len(cohort)
    else:
        with pytest.raises(RuntimeError, match="walk refused for " + bad):
            feature_vectors(cohort, cells, PIPELINE, DEFAULT_PARAMS)
        assert seen == [threads]
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []
