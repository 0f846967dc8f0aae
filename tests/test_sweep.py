import json

import numpy as np
import pytest

from eegsweep.classify import GbtConfig
from eegsweep.segmentation import SegmentSpec
from eegsweep.sweep import (ExperimentSpec, StageCache, SweepSpace,
                            enumerate_space, records_from_csv,
                            records_to_csv, run_sweep)

FAST_GRIDS = {"gbt": ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},),
              "knn": ({"k": 3},),
              "svm": ({"c": 1.0, "gamma_rbf": "scale"},)}
FAST_GBT = GbtConfig(n_rounds=30, early_stopping_rounds=10)

SMALL_SPACE = SweepSpace(cleanings=("raw", "filtered"), divisors=(1, 2),
                         subset_sizes=(1,), channels=("P3", "Cz"),
                         classifiers=("gbt",), selection_flags=(False,))


def small_specs():
    return enumerate_space(SMALL_SPACE)


def _dump(records):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in records]


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
    space = SweepSpace(subset_sizes=(3,), trios_gbt_selection_only=True)
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


def test_run_sweep_cache_matches_uncached(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()
    cached = run_sweep(cohort, specs, seed=1, grids=FAST_GRIDS,
                       gbt_base=FAST_GBT, cache=StageCache(enabled=True))
    uncached = run_sweep(cohort, specs, seed=1, grids=FAST_GRIDS,
                         gbt_base=FAST_GBT, cache=StageCache(enabled=False))
    assert _dump(cached) == _dump(uncached)


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


def test_stage_cache_reuses_cleaning(small_cohort):
    cohort, _ = small_cohort
    cache = StageCache()
    v1 = cache.vector(cohort[0], "filtered", SegmentSpec(1, 1), "P3")
    assert ("adhd000", "filtered") in cache._cleaned
    v2 = cache.vector(cohort[0], "filtered", SegmentSpec(1, 1), "P3")
    assert np.array_equal(v1, v2)
    assert len(cache._vectors) == 1


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


def test_lax_early_stop_mode(small_cohort):
    cohort, _ = small_cohort
    specs = small_specs()[:1]
    strict = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS,
                       gbt_base=FAST_GBT, eval_on_test_fold=False)
    lax = run_sweep(cohort, specs, seed=0, grids=FAST_GRIDS,
                    gbt_base=FAST_GBT, eval_on_test_fold=True)
    assert strict[0].ok and lax[0].ok


def test_cache_makes_sweep_cheaper(small_cohort, monkeypatch):
    from eegsweep import cleaning, features
    cohort, _ = small_cohort
    specs = small_specs()  # 12 specs over 2 cleanings
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cleaning, "run_pipeline")
    counted(features, "extract_channel")
    runs = {}
    for enabled in (True, False):
        calls.clear()
        records = run_sweep(cohort, specs, seed=4, grids=FAST_GRIDS,
                            gbt_base=FAST_GBT,
                            cache=StageCache(enabled=enabled))
        runs[enabled] = (dict(calls), _dump(records))
    assert runs[True][1] == runs[False][1]
    # cached, each (subject, cleaning) is cleaned once; uncached, once per
    # spec. Every spec here needs its own (cleaning, chunk, channel) vector,
    # so both extract once per spec and subject.
    n = len(cohort)
    assert runs[True][0] == {"run_pipeline": 2 * n,
                             "extract_channel": len(specs) * n}
    assert runs[False][0] == {"run_pipeline": len(specs) * n,
                              "extract_channel": len(specs) * n}


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
