"""Golden fixture for FIR filtering, feature extraction and matrix assembly.

`feature_golden.json` was written by the code that still had two FIR
implementations (the cleaning band-pass and a separate windowed-sinc
band-pass for the band-energy features) and three feature-matrix
assemblers (the sweep's, `eegsweep extract`'s and
`features.build_feature_matrix`). It pins sha256s of the raw float64
bytes, so any change to a kernel tap, a padding sample, a summation
order or a column order changes a hash here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import golden_corpus
from eegsweep import cli, features
from eegsweep.cleaning import fir_bandpass
from eegsweep.data_model import write_cohort
from eegsweep.sweep import SweepSpace, enumerate_space, records_to_csv, run_sweep

GOLDEN = Path(__file__).with_name("feature_golden.json")
SEED = 5

#: raw and filtered x P3, Cz and P3-Cz x knn and svm, no selection
SPACE = SweepSpace(cleanings=("raw", "filtered"), divisors=(1, 2),
                   subset_sizes=(1, 2), channels=("P3", "Cz"),
                   classifiers=("knn", "svm"), selection_flags=(False,))
#: the default KNN grid's k=9 exceeds the 8 training rows of a fold here
GRIDS = {"knn": ({"k": 1}, {"k": 3}, {"k": 5})}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def golden_payload(cohort, tmp_dir):
    """Hashes of every pinned output; `cohort` is conftest's small_cohort."""
    tmp_dir = Path(tmp_dir)
    out = {"extract_channel": {
        name: _sha(features.extract_channel(x, 128.0).tobytes())
        for name, x in golden_corpus()}}
    out["fir_bandpass"] = _sha(fir_bandpass(cohort[0]).samples.tobytes())
    records = run_sweep(cohort, enumerate_space(SPACE), seed=SEED,
                        grids=GRIDS)
    records_to_csv(records, tmp_dir / "results.csv")
    out["results_csv"] = _sha((tmp_dir / "results.csv").read_bytes())
    manifest = write_cohort(cohort, tmp_dir / "cohort")
    assert cli.main(["extract", "--manifest", str(manifest),
                     "--pipeline", "filtered", "--chunk", "2/2",
                     "--channels", "P3,Cz",
                     "--out", str(tmp_dir / "features.csv")]) == 0
    out["extract_csv"] = _sha((tmp_dir / "features.csv").read_bytes())
    return out


@pytest.fixture(scope="module")
def payload(small_cohort, tmp_path_factory):
    return golden_payload(small_cohort[0], tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_extract_channel_matches_golden(payload, golden):
    assert len(golden["extract_channel"]) == len(golden_corpus()) == 20
    assert payload["extract_channel"] == golden["extract_channel"]


@pytest.mark.parametrize("key", ["fir_bandpass", "results_csv",
                                 "extract_csv"])
def test_output_matches_golden(payload, golden, key):
    assert payload[key] == golden[key]


def test_parallel_sweep_matches_golden(small_cohort, golden, tmp_path):
    records = run_sweep(small_cohort[0], enumerate_space(SPACE), seed=SEED,
                        grids=GRIDS, jobs=2)
    records_to_csv(records, tmp_path / "results.csv")
    assert _sha((tmp_path / "results.csv").read_bytes()) \
        == golden["results_csv"]
