"""
Classifier training and a desk-scale experiment sweep
=====================================================

Cross-validates the three classifiers on one feature matrix, then runs a
reduced cleaning x chunk x channel sweep and aggregates it into the
report tables (group summaries, significance pairs, channel topomap,
feature importance).
"""

import warnings

from eegsweep import report, sweep, synth
from eegsweep.classify import (GbtConfig, cross_validate, gbt_importance,
                               train_final)
from eegsweep.cleaning import CleaningPipeline
from eegsweep.features import DEFAULT_PARAMS
from eegsweep.segmentation import SegmentSpec
from eegsweep.selection import select_features

spec = synth.SynthSpec(
    n_subjects_per_class=30,
    duration_s=12.0,
    class_effect=synth.ClassEffect(target_channel="P3",
                                   feature_axis="theta_power",
                                   effect_size=2.0),
    rng_seed=5,
)
cohort, _ = synth.generate_cohort(spec)

# --- one matrix, three classifiers -----------------------------------------
whole = SegmentSpec(1, 1)
table = sweep.feature_vectors(cohort, [("raw", whole, "P3")],
                              CleaningPipeline(), DEFAULT_PARAMS)
matrix = sweep.feature_matrix(table, "raw", whole, ["P3"])
selected, _ = select_features(matrix)
print("selected %d of %d columns" % (selected.n_columns, matrix.n_columns))
for clf, grid in (("gbt", ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},)),
                  ("svm", ({"c": 1.0, "gamma_rbf": "scale"},)),
                  ("knn", ({"k": 5},))):
    res = cross_validate(selected.values, selected.labels, clf, grid=grid,
                         seed=3)
    print("  %-4s mean accuracy %.3f +- %.3f  best %s"
          % (clf, res.mean_accuracy, res.spread, res.best_config))

# --- which features carry the decision --------------------------------------
model, holdout, importance = train_final(
    selected.values, selected.labels,
    GbtConfig(max_depth=3, eta=0.1, n_rounds=60), split_seed=1,
    feature_names=selected.column_names)
print("\n80/20 holdout accuracy %.3f; top features by split gain:" % holdout)
for name, gain in gbt_importance(model)[:5]:
    print("  %-24s %.3f" % (name, gain))

# --- a reduced sweep ---------------------------------------------------------
space = sweep.SweepSpace(cleanings=("filtered", "asr"), divisors=(1, 2),
                         subset_sizes=(1,),
                         channels=("P3", "P4", "Cz", "O1", "F3"),
                         classifiers=("gbt",), selection_flags=(True,))
specs = sweep.enumerate_space(space)
print("\nsweep over %d experiment specs..." % len(specs))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    records = sweep.run_sweep(
        cohort, specs, seed=11,
        grids={"gbt": ({"max_depth": 2, "eta": 0.3, "gamma": 0.0,
                        "n_rounds": 40, "early_stopping_rounds": 15},)})

ok = [r for r in records if r.ok]
print("finished: %d ok, %d failed (where selection keeps no column, a "
      "spec uses every column)" % (len(ok), len(records) - len(ok)))

print("\naccuracy by cleaning:")
for s in report.summarize(records, ["cleaning"]):
    print("  %-9s n=%2d median %.3f IQR [%.3f, %.3f] max %.3f"
          % (s.key["cleaning"], s.n, s.median, s.q1, s.q3, s.max))

marks = report.mark_significance(records, "cleaning",
                                 [("filtered", "asr")])
print("significance filtered vs asr: p=%.3f -> %s"
      % (marks[0]["p"], "significant" if marks[0]["significant"]
         else "not significant"))

print("\nchannel topomap (max accuracy over records containing the "
      "channel):")
for ch, x, y, v in report.topomap_data(records, reduce="max"):
    print("  %-3s (%+.2f, %+.2f)  %.3f" % (ch, x, y, v))
