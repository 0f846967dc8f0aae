"""Which eegsweep functions the traced run wraps, and the per-layer
metrics derived from their spans and counts.
"""

from __future__ import annotations

#: Specs per stratum in one (cleaning, chunk) cell of the paper space:
#: 19 singles and 171 pairs with 3 classifiers x 2 selection flags, and
#: 969 trios with boosted trees and selection only.
PAPER_STRATA = {"gbt_1ch": 38, "gbt_2ch": 342, "gbt_3ch": 969,
                "svm_1ch": 38, "svm_2ch": 342,
                "knn_1ch": 38, "knn_2ch": 342}
#: 4 cleanings x 35 chunks.
PAPER_CELLS = 140

FEATURE_GROUPS = ("app_entropy", "hurst_exp", "welch_psd", "fractal",
                  "band_energies", "wavelet_features", "decorr_time")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("data_model.load_cohort_s", "s", "lower"),
     ("data_model.load_mb_per_s", "MB/s", "higher"),
     ("data_model.write_cohort_s", "s", "lower"),
     ("cleaning.fir_bandpass_s", "s", "lower"),
     ("cleaning.fir_bandpass_calls", "count", "lower"),
     ("cleaning.asr_calibrate_s", "s", "lower"),
     ("cleaning.asr_process_s", "s", "lower"),
     ("cleaning.ica_decompose_s", "s", "lower"),
     ("cleaning.ica_unconverged", "count", "lower"),
     ("cleaning.label_components_s", "s", "lower"),
     ("cleaning.pipeline_calls", "count", "lower"),
     ("cleaning.repeat_calls", "count", "lower"),
     ("segmentation.segment_s", "s", "lower"),
     ("features.extract_channel_s", "s", "lower"),
     ("features.extract_channel_calls", "count", "lower"),
     ("features.vectors_per_s", "1/s", "higher")]
    + [("features.%s_s" % g, "s", "lower") for g in FEATURE_GROUPS]
    + [("features.other_s", "s", "lower"),
       ("selection.select_s", "s", "lower"),
       ("selection.calls", "count", "lower"),
       ("selection.columns_tested", "count", "lower"),
       ("selection.columns_kept", "count", "lower")]
    + [("classify.cv_s.%s" % s, "s", "lower") for s in PAPER_STRATA]
    + [("classify.gbt_train_s", "s", "lower"),
       ("classify.gbt_rounds_built", "count", "lower"),
       ("classify.gbt_rounds_used", "count", "lower"),
       ("classify.gbt_rounds_useful_frac", "ratio", "higher"),
       ("classify.svm_train_s", "s", "lower"),
       ("classify.knn_predict_s", "s", "lower"),
       ("sweep.run_one_s", "s", "lower"),
       ("sweep.specs_run", "count", "lower"),
       ("sweep.specs_skipped", "count", "higher"),
       ("sweep.self_s", "s", "lower"),
       ("sweep.records_to_csv_s", "s", "lower"),
       ("sweep.paper_cpu_h", "h", "lower"),
       ("trace.overhead_s", "s", "lower")])


def _run_one_name(tracer, args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    stratum = "%s_%dch" % (spec.classifier, len(spec.channels))
    tracer.context["stratum"] = stratum
    return "sweep.run_one." + stratum


def _cv_name(tracer, args, kwargs):
    return "classify.cv." + tracer.context.get("stratum", "unknown")


def _count_specs(tracer, args, kwargs):
    specs = args[1] if len(args) > 1 else kwargs["specs"]
    tracer.counts["sweep.specs_given"] += len(specs)


def _count_pipeline(tracer, args, kwargs):
    rec, pipeline = args[0], args[1]
    key = (rec.subject_id, pipeline.kind)
    seen = tracer.context.setdefault("cleaned", set())
    tracer.counts["cleaning.pipeline_calls"] += 1
    if key in seen:
        tracer.counts["cleaning.repeat_calls"] += 1
    seen.add(key)


def _count_ica(tracer, args, kwargs, result):
    tracer.counts["cleaning.ica_unconverged"] += not result.converged


def _count_selection(tracer, args, kwargs, result):
    tracer.counts["selection.columns_tested"] += args[0].n_columns
    tracer.counts["selection.columns_kept"] += result[0].n_columns


def _count_gbt(tracer, args, kwargs, result):
    tracer.counts["classify.gbt_rounds_built"] += len(result.trees)
    tracer.counts["classify.gbt_rounds_used"] += result.best_iteration


def install(tracer, modules):
    """Wrap every traced name; ``modules`` maps short names to modules."""
    cli = modules["cli"]
    cleaning, sweep = modules["cleaning"], modules["sweep"]
    features, selection = modules["features"], modules["selection"]
    classify = modules["classify"]
    tracer.wrap(cli, "load_cohort", "data_model.load_cohort")
    tracer.wrap(sweep, "run_sweep", "sweep.run_sweep", before=_count_specs)
    tracer.wrap(sweep, "run_one", _run_one_name)
    tracer.wrap(sweep, "records_to_csv", "sweep.records_to_csv")
    tracer.wrap(sweep, "segment", "segmentation.segment")
    # StageCache.cleaned imports run_pipeline from cleaning at call time.
    tracer.wrap(cleaning, "run_pipeline", "cleaning.run_pipeline",
                before=_count_pipeline)
    for name in ("fir_bandpass", "asr_calibrate", "asr_process",
                 "label_components"):
        tracer.wrap(cleaning, name, "cleaning." + name)
    tracer.wrap(cleaning, "ica_decompose", "cleaning.ica_decompose",
                after=_count_ica)
    tracer.wrap(features, "extract_channel", "features.extract_channel")
    for name in FEATURE_GROUPS:
        tracer.wrap(features, name, "features." + name)
    tracer.wrap(selection, "select_features", "selection.select_features",
                after=_count_selection)
    tracer.wrap(classify, "cross_validate", _cv_name)
    tracer.wrap(classify, "gbt_train", "classify.gbt_train",
                after=_count_gbt)
    tracer.wrap(classify, "svm_train", "classify.svm_train")
    tracer.wrap(classify, "knn_predict", "classify.knn_predict")


def round_metrics(tracer, cohort_bytes):
    """Per-layer values of one traced round (before averaging)."""
    tot = tracer.totals()
    cnt = tracer.counts

    def total(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[1]

    def self_time(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[2]

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[0]

    load_s = total("data_model.load_cohort")
    extract_s = total("features.extract_channel")
    built = cnt["classify.gbt_rounds_built"]
    m = {
        "data_model.load_cohort_s": load_s,
        "data_model.load_mb_per_s": (
            calls("data_model.load_cohort") * cohort_bytes / 1e6 / load_s
            if load_s else 0.0),
        "cleaning.fir_bandpass_s": total("cleaning.fir_bandpass"),
        "cleaning.fir_bandpass_calls": calls("cleaning.fir_bandpass"),
        "cleaning.asr_calibrate_s": total("cleaning.asr_calibrate"),
        "cleaning.asr_process_s": total("cleaning.asr_process"),
        "cleaning.ica_decompose_s": total("cleaning.ica_decompose"),
        "cleaning.ica_unconverged": cnt["cleaning.ica_unconverged"],
        "cleaning.label_components_s": total("cleaning.label_components"),
        "cleaning.pipeline_calls": cnt["cleaning.pipeline_calls"],
        "cleaning.repeat_calls": cnt["cleaning.repeat_calls"],
        "segmentation.segment_s": total("segmentation.segment"),
        "features.extract_channel_s": extract_s,
        "features.extract_channel_calls": calls("features.extract_channel"),
        "features.vectors_per_s": (
            calls("features.extract_channel") / extract_s
            if extract_s else 0.0),
        "features.other_s": self_time("features.extract_channel"),
        "selection.select_s": total("selection.select_features"),
        "selection.calls": calls("selection.select_features"),
        "selection.columns_tested": cnt["selection.columns_tested"],
        "selection.columns_kept": cnt["selection.columns_kept"],
        "classify.gbt_train_s": total("classify.gbt_train"),
        "classify.gbt_rounds_built": built,
        "classify.gbt_rounds_used": cnt["classify.gbt_rounds_used"],
        "classify.gbt_rounds_useful_frac": (
            cnt["classify.gbt_rounds_used"] / built if built else 0.0),
        "classify.svm_train_s": total("classify.svm_train"),
        "classify.knn_predict_s": total("classify.knn_predict"),
        "sweep.self_s": self_time("sweep.run_sweep"),
        "sweep.records_to_csv_s": total("sweep.records_to_csv"),
    }
    for g in FEATURE_GROUPS:
        m["features.%s_s" % g] = self_time("features." + g)
    run_one = {name[len("sweep.run_one."):]: entry
               for name, entry in tot.items()
               if name.startswith("sweep.run_one.")}
    m["sweep.run_one_s"] = sum(e[1] for e in run_one.values())
    m["sweep.specs_run"] = sum(e[0] for e in run_one.values())
    m["sweep.specs_skipped"] = cnt["sweep.specs_given"] - m["sweep.specs_run"]
    for stratum in PAPER_STRATA:
        n = calls("classify.cv." + stratum)
        # mean CV wall time per spec of this stratum
        m["classify.cv_s." + stratum] = (
            total("classify.cv." + stratum) / n if n else 0.0)
    # CPU of whole specs (features, selection and CV) per stratum, scaled
    # to the stratum's count in the paper space
    m["sweep.paper_cpu_h"] = (
        PAPER_CELLS * sum(count * run_one[s][3] / run_one[s][0]
                          for s, count in PAPER_STRATA.items()) / 3600.0
        if all(s in run_one for s in PAPER_STRATA) else 0.0)
    return m
