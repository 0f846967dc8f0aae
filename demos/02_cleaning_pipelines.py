"""
The four cleaning pipelines side by side
========================================

Walks one artifact-heavy synthetic subject through raw / FIR / FIR+ASR /
FIR+ASR+ICA, each stage cleaning the previous stage's output, and measures
how much artifact energy each stage removes while preserving the clean
background.
"""

import warnings

import numpy as np

from eegsweep import synth
from eegsweep.cleaning import CleaningPipeline, walk_pipeline
from eegsweep.data_model import CHANNELS_1020

spec = synth.SynthSpec(
    n_subjects_per_class=1,
    duration_s=60.0,
    artifacts=(
        synth.ArtifactSpec(kind="blink", amplitude=14.0, rate_per_min=6),
        synth.ArtifactSpec(kind="line_50hz", amplitude=3.0),
        synth.ArtifactSpec(kind="muscle_burst", amplitude=8.0,
                           rate_per_min=4),
    ),
    rng_seed=42,
)
cohort, truth = synth.generate_cohort(spec)
rec = cohort[0]
mask = truth.artifact_mask[rec.subject_id]
clean = truth.clean[rec.subject_id]
fp1 = CHANNELS_1020.index("Fp1")

print("artifact windows cover %.1f%% of the recording" % (100 * mask.mean()))
print("\n%-10s %-18s %-18s %s" % ("pipeline", "artifact-window RMS",
                                  "clean-window RMS", "Fp1 corr to truth"))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    stages = list(walk_pipeline(rec, CleaningPipeline(kind="ica")))
for kind, out, info in stages:
    rms_art = np.sqrt(np.mean(out.samples[:, mask] ** 2))
    rms_clean = np.sqrt(np.mean(out.samples[:, ~mask] ** 2))
    corr = np.corrcoef(out.samples[fp1], clean[fp1])[0, 1]
    extra = ""
    if "ica_labels" in info:
        counts = {}
        for lab in info["ica_labels"]:
            counts[lab] = counts.get(lab, 0) + 1
        extra = "  components: %s" % counts
    print("%-10s %-18.3f %-18.3f %.3f%s"
          % (kind, rms_art, rms_clean, corr, extra))

print("\nreading the table: filtering kills the 50 Hz line, ASR collapses "
      "the burst windows\nwithout touching clean data, and the ICA stage "
      "additionally drops whole\nstructured components (see the label "
      "counts). Both subspace stages recover\nthe frontal channels far "
      "better than filtering alone.")
