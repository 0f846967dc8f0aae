"""Re-measure the ROADMAP baseline table, one layer at a time.

    python3 perfbench/reference.py

Times, by calling the library directly: each cleaning pipeline on one
19-channel x 120 s recording at 128 Hz; ``extract_channel`` on a 120 s
and a 6 s channel, with the self time of each feature group; default-grid
cross-validation per classifier on 121 subjects at 53/106/159 columns;
and the selection cascade on 121 x 159. Cheap cases report the median of
five calls, the boosted-tree cases one call. These are reference figures
for the README, not gated metrics.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eegsweep import classify, cleaning, features, selection, synth  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def row(layer, case, seconds):
    print("| %s | %s | %.4g s |" % (layer, case, seconds), flush=True)


def main():
    print("| layer | case | time |\n|---|---|---|")
    long_rec = synth.generate_cohort(synth.SynthSpec(
        n_subjects_per_class=1, duration_s=120.0, rng_seed=0,
        artifacts=(synth.ArtifactSpec("blink"),
                   synth.ArtifactSpec("line_50hz"))))[0][0]
    for kind in ("filtered", "asr", "ica"):
        pipe = cleaning.CleaningPipeline(kind=kind)
        row("cleaning", "19 ch x 120 s, %s" % kind,
            timed(lambda: cleaning.run_pipeline(long_rec, pipe), 3))

    for seconds in (120, 6):
        signal = long_rec.channel("P3")[:int(seconds * 128)]
        row("extract_channel", "%d s channel" % seconds,
            timed(lambda: features.extract_channel(signal, 128.0), 5))
        tracer = Tracer()
        tracer.wrap(features, "extract_channel", "features.extract_channel")
        for name in layers.FEATURE_GROUPS:
            tracer.wrap(features, name, "features." + name)
        try:
            for _ in range(5):
                features.extract_channel(signal, 128.0)
        finally:
            tracer.unwrap()
        for name, (calls, _, self_s, _) in sorted(tracer.totals().items()):
            label = name.split(".", 1)[1]
            if label == "extract_channel":
                label = "other"
            row("extract_channel", "%d s channel, %s self" % (seconds, label),
                self_s / 5)

    cohort, _ = synth.generate_cohort(synth.SynthSpec(
        n_subjects_per_class=61, duration_s=8.0, rng_seed=0,
        class_effect=synth.ClassEffect("P3", "theta_power", 2.0)))
    cohort = cohort[:121]
    channels = ("P3", "P4", "C3")
    matrix = features.FeatureMatrix(
        column_names=features.channel_feature_names(channels),
        values=np.array([np.concatenate([
            features.extract_channel(rec.channel(ch), rec.sample_rate_hz)
            for ch in channels]) for rec in cohort]),
        labels=np.array([rec.label for rec in cohort], dtype=int),
        subject_ids=[rec.subject_id for rec in cohort])
    x, y = matrix.values, matrix.labels
    for clf, widths, repeats in (("gbt", (53, 106, 159), 1),
                                 ("svm", (53,), 5), ("knn", (53,), 5)):
        for width in widths:
            row("CV, default grid", "%s, 121 x %d" % (clf, width),
                timed(lambda: classify.cross_validate(
                    x[:, :width], y, clf, seed=0), repeats))
    row("selection cascade", "121 x 159",
        timed(lambda: selection.select_features(matrix), 5))


if __name__ == "__main__":
    main()
