"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one PASS/FAIL line. Criterion 7 (real-dataset numbers)
is gated on a converted copy of the clinical dataset and skips when the
EEGSWEEP_REAL_DATA environment variable does not point at its manifest.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import FS, golden_corpus, raw_feature_matrix
from eegsweep import cleaning, features, report, selection, sweep
from eegsweep.classify import cross_validate
from eegsweep.data_model import CHANNELS_1020, Recording, load_cohort

REGRESSION_FEATURES = {"hurst_exp", "higuchi_fd", "psd_fit_intercept",
                       "psd_fit_slope", "psd_fit_mse", "psd_fit_r2"}


def _report(criterion, ok, detail=""):
    print("ACCEPTANCE %-12s %s %s" % (criterion,
                                      "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (criterion, detail)


def test_criterion_1_feature_oracle_suite():
    start = time.time()
    worst = (0.0, "", "")
    for name, x in golden_corpus():
        mine = features.extract_channel(x, FS)
        ref = oracles.feature_vector(x, FS)
        for i, fn in enumerate(features.FEATURE_NAMES):
            tol = 1e-3 if fn in REGRESSION_FEATURES else 1e-6
            rel = abs(mine[i] - ref[i]) / max(abs(ref[i]), 1e-9)
            if rel > worst[0]:
                worst = (rel, fn, name)
            assert rel <= tol, (fn, name, mine[i], ref[i])
    elapsed = time.time() - start
    _report("criterion-1", elapsed < 10.0,
            "53 features x 20 signals, worst rel %.2e (%s on %s), %.1f s"
            % (worst[0], worst[1], worst[2], elapsed))


def test_criterion_2_filter_spec():
    start = time.time()
    t = np.arange(int(30 * FS)) / FS
    kernel = cleaning.bandpass_kernel(FS)
    half = (kernel.size - 1) // 2

    def attenuation_db(freq):
        row = np.sin(2 * np.pi * freq * t)
        rec = Recording("f", 0, FS, CHANNELS_1020, np.tile(row, (19, 1)))
        out = cleaning.fir_bandpass(rec).samples[0][half:-half]
        return 20 * np.log10(np.sqrt(np.mean(out ** 2))
                             / np.sqrt(np.mean(row[half:-half] ** 2)))

    att50 = attenuation_db(50.0)
    freqs = np.fft.rfftfreq(32768, 1 / FS)
    mag = np.abs(np.fft.rfft(kernel, 32768))
    band = (freqs >= 1.0) & (freqs <= 35.0)
    ripple_db = float(np.max(np.abs(20 * np.log10(mag[band]))))
    dc_rec = Recording("d", 0, FS, CHANNELS_1020,
                       np.full((19, int(30 * FS)), 5.0))
    dc_resid = float(np.max(np.abs(
        cleaning.fir_bandpass(dc_rec).samples[0][half:-half])))
    elapsed = time.time() - start
    ok = att50 <= -40.0 and ripple_db <= 1.0 and dc_resid < 0.05 \
        and elapsed < 1.0
    _report("criterion-2", ok,
            "50 Hz %.1f dB, ripple %.3f dB, DC residual %.3g, %.2f s"
            % (att50, ripple_db, dc_resid, elapsed))


def test_criterion_3_cleaning_recovery(cleaning_cohort):
    start = time.time()
    cohort, truth = cleaning_cohort
    asr_pipe = cleaning.CleaningPipeline(kind="asr")
    ica_pipe = cleaning.CleaningPipeline(kind="ica")
    fil_pipe = cleaning.CleaningPipeline(kind="filtered")
    reductions = []
    clean_corrs = []
    ica_improved = 0
    ica_total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rec in cohort:
            mask = truth.artifact_mask[rec.subject_id]
            clean = truth.clean[rec.subject_id]
            fil = cleaning.run_pipeline(rec, fil_pipe)
            asr = cleaning.run_pipeline(rec, asr_pipe)
            reductions.append(
                1 - np.sqrt(np.mean(asr.samples[:, mask] ** 2))
                / np.sqrt(np.mean(fil.samples[:, mask] ** 2)))
            for ch in range(19):
                clean_corrs.append(np.corrcoef(
                    asr.samples[ch, ~mask], fil.samples[ch, ~mask])[0, 1])
            ica = cleaning.run_pipeline(rec, ica_pipe)
            for name in ("Fp1", "Fp2"):
                i = CHANNELS_1020.index(name)
                c_f = np.corrcoef(fil.samples[i], clean[i])[0, 1]
                c_i = np.corrcoef(ica.samples[i], clean[i])[0, 1]
                ica_improved += c_i > c_f
                ica_total += 1
    elapsed = time.time() - start
    ok = (min(reductions) >= 0.5 and min(clean_corrs) >= 0.95
          and ica_improved == ica_total and elapsed < 120.0)
    _report("criterion-3", ok,
            "ASR reduction min %.2f, clean corr min %.3f, ICA improved "
            "%d/%d frontal channels, %.0f s"
            % (min(reductions), min(clean_corrs), ica_improved, ica_total,
               elapsed))


def test_criterion_4_selection_calibration(theta_cohort):
    start = time.time()
    rng = np.random.default_rng(0)
    values = rng.standard_normal((121, 1000))
    labels = np.array([1] * 61 + [0] * 60)
    matrix = features.FeatureMatrix(
        column_names=["c%d" % i for i in range(1000)], values=values,
        labels=labels, subject_ids=["s%d" % i for i in range(121)])
    kept, _ = selection.select_features(matrix)
    frac = kept.n_columns / 1000.0

    cohort, _ = theta_cohort
    fmat = raw_feature_matrix(cohort, ["P3"])
    kept_theta, _ = selection.select_features(fmat)
    has_theta = "P3:pow_theta" in kept_theta.column_names
    elapsed = time.time() - start
    ok = 0.02 <= frac <= 0.09 and has_theta and elapsed < 60.0
    _report("criterion-4", ok,
            "null kept fraction %.3f, P3:pow_theta selected %s, %.0f s"
            % (frac, has_theta, elapsed))


def test_criterion_5_classifier_sanity():
    start = time.time()
    rng = np.random.default_rng(1)
    n = 100
    x_sep = np.vstack([rng.standard_normal((n, 2)) - 2.0,
                       rng.standard_normal((n, 2)) + 2.0])
    y_sep = np.array([0] * n + [1] * n)
    acc_sep = cross_validate(
        x_sep, y_sep, "gbt",
        grid=({"max_depth": 2, "eta": 0.3, "gamma": 0.0},),
        seed=0).mean_accuracy

    xs, ys = [], []
    for cx, cy, lab in ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)):
        xs.append(rng.normal(0, 0.1, (50, 2)) + [cx, cy])
        ys += [lab] * 50
    acc_xor = cross_validate(
        np.vstack(xs), np.array(ys), "gbt",
        grid=({"max_depth": 2, "eta": 0.3, "gamma": 0.0},),
        seed=0).mean_accuracy

    theta = rng.uniform(0, 2 * np.pi, n)
    x_circ = np.vstack([
        np.c_[np.cos(theta), np.sin(theta)] * rng.normal(1, .05, (n, 1)),
        np.c_[np.cos(theta), np.sin(theta)] * rng.normal(2.5, .05, (n, 1))])
    y_circ = np.array([0] * n + [1] * n)
    acc_svm = cross_validate(x_circ, y_circ, "svm",
                             grid=({"c": 1.0, "gamma_rbf": 1.0},),
                             seed=0).mean_accuracy

    x_blob = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(10, 1, (40, 3))])
    y_blob = np.array([0] * 40 + [1] * 40)
    acc_knn = cross_validate(x_blob, y_blob, "knn", grid=({"k": 5},),
                             seed=0).mean_accuracy

    null_accs = []
    x_null = rng.standard_normal((60, 10))
    for s in range(5):
        y_null = np.random.default_rng(50 + s).integers(0, 2, 60)
        while min(np.bincount(y_null, minlength=2)) < 5:
            y_null = np.random.default_rng(500 + s).integers(0, 2, 60)
        null_accs.append(cross_validate(
            x_null, y_null, "knn", grid=({"k": 5},), seed=s).mean_accuracy)
    null_mean = float(np.mean(null_accs))
    elapsed = time.time() - start
    ok = (acc_sep >= 0.95 and acc_xor >= 0.9 and acc_svm >= 0.9
          and acc_knn == 1.0 and 0.35 <= null_mean <= 0.65
          and elapsed < 60.0)
    _report("criterion-5", ok,
            "separable %.2f, xor@d2 %.2f, svm-circles %.2f, knn-blobs %.2f, "
            "null %.2f, %.0f s"
            % (acc_sep, acc_xor, acc_svm, acc_knn, null_mean, elapsed))


def test_criterion_6_end_to_end_synthetic(theta_cohort):
    start = time.time()
    cohort, _ = theta_cohort
    space = sweep.SweepSpace(
        cleanings=("filtered", "asr"), divisors=(1, 2), subset_sizes=(1,),
        classifiers=("gbt",), selection_flags=(True,))
    specs = sweep.enumerate_space(space)
    rounds = {"n_rounds": 60, "early_stopping_rounds": 20}
    grids = {"gbt": (dict(rounds, max_depth=2, eta=0.3, gamma=0.0),
                     dict(rounds, max_depth=3, eta=0.1, gamma=0.0))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = sweep.run_sweep(cohort, specs, seed=17, grids=grids)
    ok_records = [r for r in records if r.ok]
    best = max(ok_records, key=lambda r: r.accuracy)
    by_channel = {}
    for r in ok_records:
        by_channel.setdefault(r.channels, []).append(r.accuracy)
    ranking = sorted(by_channel, key=lambda ch: -max(by_channel[ch]))
    topo = report.topomap_data(records, reduce="max")
    topo_argmax = max(topo, key=lambda row: row[3])[0]
    elapsed = time.time() - start
    ok = (ranking[0] == "P3" and best.accuracy >= 0.85
          and topo_argmax == "P3" and elapsed < 900.0)
    _report("criterion-6", ok,
            "top channel %s, best accuracy %.3f, topomap argmax %s, %.0f s"
            % (ranking[0], best.accuracy, topo_argmax, elapsed))


REAL_DATA = os.environ.get("EEGSWEEP_REAL_DATA", "")


@pytest.mark.skipif(not REAL_DATA or not Path(REAL_DATA).is_file(),
                    reason="converted clinical dataset not present "
                           "(set EEGSWEEP_REAL_DATA to its manifest)")
def test_criterion_7_real_dataset_numbers():
    cohort = load_cohort(REAL_DATA)
    assert len(cohort) == 121
    seed = 0

    def run(cleaning_kind, channels, chunk=(1, 1)):
        from eegsweep.segmentation import SegmentSpec
        spec = sweep.ExperimentSpec(
            cleaning=cleaning_kind, chunk=SegmentSpec(*chunk),
            channels=channels, classifier="gbt", feature_selection=True)
        table = sweep.feature_vectors(
            cohort, [(cleaning_kind, spec.chunk, ch) for ch in channels],
            cleaning.CleaningPipeline(), features.DEFAULT_PARAMS)
        return sweep.run_one(table, spec, seed)[0]

    rec_p3 = run("asr", ("P3",))
    rec_p3p4 = run("asr", ("P3", "P4"))
    ok_a = abs(rec_p3.accuracy - 0.80) <= 0.05
    ok_b = abs(rec_p3p4.accuracy - 0.861) <= 0.05

    singles = sweep.SweepSpace(subset_sizes=(1,), classifiers=("gbt",),
                               selection_flags=(True,), divisors=(1,))
    records = sweep.run_sweep(cohort, sweep.enumerate_space(singles),
                              seed=seed)
    acc = {}
    for r in records:
        if r.ok:
            acc.setdefault(r.cleaning, []).append(r.accuracy)
    ok_c = np.mean(acc["raw"]) > np.mean(acc["ica"])

    trios = sweep.SweepSpace(subset_sizes=(3,), divisors=(2,))
    trio_records = sweep.run_sweep(cohort, sweep.enumerate_space(trios),
                                   seed=seed)
    halves = {"1/2": [], "2/2": []}
    for r in trio_records:
        if r.ok:
            halves[r.chunk].append(r.accuracy)
    ok_d = np.mean(halves["2/2"]) > np.mean(halves["1/2"])
    _report("criterion-7", ok_a and ok_b and ok_c and ok_d,
            "P3 %.3f, P3-P4 %.3f, raw>ica %s, 2nd half>1st %s"
            % (rec_p3.accuracy, rec_p3p4.accuracy, ok_c, ok_d))


def test_criterion_8_determinism_and_resume(tmp_path, small_cohort):
    start = time.time()
    cohort, _ = small_cohort
    space = sweep.SweepSpace(cleanings=("raw", "filtered"), divisors=(1, 2),
                             subset_sizes=(1,), channels=("P3", "Cz", "O1"),
                             classifiers=("gbt", "knn"),
                             selection_flags=(False,))
    specs = sweep.enumerate_space(space)
    grids = {"gbt": ({"max_depth": 2, "eta": 0.3, "gamma": 0.0,
                      "n_rounds": 30, "early_stopping_rounds": 10},),
             "knn": ({"k": 3},)}

    csvs = []
    for run_dir in ("a", "b"):
        records = sweep.run_sweep(cohort, specs, seed=9, grids=grids)
        path = tmp_path / ("results_%s.csv" % run_dir)
        sweep.records_to_csv(records, path)
        csvs.append(path.read_bytes())
    identical = csvs[0] == csvs[1]

    # kill-and-resume: stop after 5 specs, then resume
    ckpt = tmp_path / "ck"
    sweep.run_sweep(cohort, specs[:5], seed=9, grids=grids,
                    checkpoint_dir=ckpt)
    resumed = sweep.run_sweep(cohort, specs, seed=9, grids=grids,
                              checkpoint_dir=ckpt)
    resumed_path = tmp_path / "resumed.csv"
    sweep.records_to_csv(resumed, resumed_path)
    resume_identical = resumed_path.read_bytes() == csvs[0]
    elapsed = time.time() - start
    ok = identical and resume_identical
    _report("criterion-8", ok,
            "rerun identical %s, resume identical %s, %.0f s"
            % (identical, resume_identical, elapsed))
