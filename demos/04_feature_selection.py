"""
Inference-based feature selection
=================================

Shows the normality / homoscedasticity / mean-test cascade on a cohort
with a known theta-power effect at P3: which test route each feature
column takes and which columns survive.
"""

import numpy as np

from eegsweep import sweep, synth
from eegsweep.cleaning import CleaningPipeline
from eegsweep.features import DEFAULT_PARAMS
from eegsweep.segmentation import SegmentSpec
from eegsweep.selection import SelectionConfig, select_features

spec = synth.SynthSpec(
    n_subjects_per_class=30,
    duration_s=12.0,
    class_effect=synth.ClassEffect(target_channel="P3",
                                   feature_axis="theta_power",
                                   effect_size=2.0),
    rng_seed=99,
)
cohort, _ = synth.generate_cohort(spec)
# one table of feature vectors, and the P3 matrix sliced from it
whole = SegmentSpec(1, 1)
table = sweep.feature_vectors(cohort, [("raw", whole, "P3")],
                              CleaningPipeline(), DEFAULT_PARAMS)
matrix = sweep.feature_matrix(table, "raw", whole, ["P3"])
print("design matrix: %d subjects x %d columns"
      % (matrix.n_subjects, matrix.n_columns))

kept, report = select_features(matrix, SelectionConfig(alpha=0.05))

routes = {}
for row in report.rows:
    routes[row.mean_test] = routes.get(row.mean_test, 0) + 1
print("test routes over the 53 columns:", routes)

print("\nkept columns (p < 0.05):")
for row in report.rows:
    if row.selected:
        print("  %-28s via %-8s p=%.2e" % (row.column, row.mean_test,
                                           row.p_value))

print("\nthe injected effect surfaces as P3:pow_theta%s"
      % (" (kept)" if "P3:pow_theta" in kept.column_names else " (missed!)"))

# the same cascade on pure noise keeps roughly alpha of the columns
rng = np.random.default_rng(0)
null = matrix.__class__(column_names=["n%d" % i for i in range(500)],
                        values=rng.standard_normal((60, 500)),
                        labels=matrix.labels,
                        subject_ids=matrix.subject_ids)
null_kept, _ = select_features(null)
print("null calibration: %.1f%% of 500 noise columns kept at alpha=5%%"
      % (100 * null_kept.n_columns / 500))
