"""
Generating a synthetic EEG cohort with known ground truth
=========================================================

Builds a small two-class cohort with a theta-power difference at P3 and
a few injected artifacts, then shows what the ground truth records.
"""

import numpy as np

from eegsweep import synth
from eegsweep.features import welch_psd

# one spec fully determines the cohort: same seed, same bytes
spec = synth.SynthSpec(
    n_subjects_per_class=4,
    duration_s=20.0,
    class_effect=synth.ClassEffect(target_channel="P3",
                                   feature_axis="theta_power",
                                   effect_size=2.0),
    artifacts=(
        synth.ArtifactSpec(kind="blink", amplitude=12.0, rate_per_min=6),
        synth.ArtifactSpec(kind="line_50hz", amplitude=2.0),
    ),
    rng_seed=7,
)
cohort, truth = synth.generate_cohort(spec)

print("subjects:", [r.subject_id for r in cohort])
print("labels:  ", [r.label for r in cohort])
print("matrix shape per subject:", cohort[0].samples.shape)

# the ground truth holds the artifact-free signal and the transient masks
rec = cohort[0]
mask = truth.artifact_mask[rec.subject_id]
print("\n%s: %.1f%% of samples inside blink windows"
      % (rec.subject_id, 100 * mask.mean()))

clean = truth.clean[rec.subject_id]
residual = rec.samples - clean
print("superposition check, max |signal - clean - artifacts| residual "
      "outside masks is just the 50 Hz line:")
print("  residual RMS outside masks: %.3f (line amplitude/sqrt(2) = %.3f)"
      % (np.sqrt(np.mean(residual[:, ~mask] ** 2)), 2.0 / np.sqrt(2)))

# the injected class effect is visible as relative theta power at P3
def theta_fraction(x, fs):
    freqs, psd = welch_psd(x[None], fs)
    psd = psd[0]
    total = psd[(freqs >= 0.5) & (freqs < 40)].sum()
    return psd[(freqs >= 4) & (freqs < 8)].sum() / total

print("\nrelative theta power at P3:")
for r in cohort:
    print("  %s (label %d): %.3f"
          % (r.subject_id, r.label, theta_fraction(r.channel("P3"),
                                                   r.sample_rate_hz)))
