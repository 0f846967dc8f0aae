"""Golden fixture for the sweep paths that `feature_golden.json` leaves out.

`sweep_golden.json` pins the sha256 of `results.csv` of a small sweep
over the asr and ica cleanings, whole-cohort selection, and the default
gbt and svm grids, run serially and on a fork pool of two. The cohort
is 21 + 20 subjects, so both groups clear the normality test's n=20
floor. Regenerate the file only for a change that means to move these
bytes: `python tests/test_sweep_golden.py` prints the payload.
"""

import hashlib
import json
from pathlib import Path

import pytest

from eegsweep import synth
from eegsweep.sweep import SweepSpace, enumerate_space, records_to_csv, run_sweep

GOLDEN = Path(__file__).with_name("sweep_golden.json")
SEED = 7

#: asr and ica x P3, P4 and the pair x default gbt and svm grids, with
#: whole-cohort selection
SPACE = SweepSpace(cleanings=("asr", "ica"), divisors=(1,),
                   subset_sizes=(1, 2), channels=("P3", "P4"),
                   classifiers=("gbt", "svm"), selection_flags=(True,))


def golden_cohort():
    """21 + 20 subjects of 20 s with blinks and 50 Hz line noise."""
    spec = synth.SynthSpec(
        n_subjects_per_class=21, duration_s=20.0,
        class_effect=synth.ClassEffect(effect_size=1.5),
        artifacts=(synth.ArtifactSpec(kind="blink", amplitude=10.0,
                                      rate_per_min=5.0),
                   synth.ArtifactSpec(kind="line_50hz", amplitude=3.0)),
        rng_seed=404)
    cohort, _ = synth.generate_cohort(spec)
    drop = max(i for i, rec in enumerate(cohort) if rec.label == 0)
    return cohort[:drop] + cohort[drop + 1:]


def results_sha(cohort, tmp_dir, jobs):
    records = run_sweep(cohort, enumerate_space(SPACE), seed=SEED, jobs=jobs)
    path = Path(tmp_dir) / ("results_%d.csv" % jobs)
    records_to_csv(records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def cohort():
    return golden_cohort()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_results_match_golden(cohort, tmp_path, jobs):
    golden = json.loads(GOLDEN.read_text())
    assert results_sha(cohort, tmp_path, jobs) == golden["results_csv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({"results_csv": results_sha(golden_cohort(), tmp, 1)},
                         indent=1))
