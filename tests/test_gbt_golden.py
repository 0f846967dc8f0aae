"""Golden fixture for the boosted-tree grid search.

`gbt_golden.json` was written by the builder that gathered every node's
rows from the whole presorted matrix, before the node-local partition
and the model sharing across `max_depth` replaced it. Any change to a
split, a leaf value, a summation order or an early-stopping decision
changes a hash or an accuracy here.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eegsweep.classify import (GBT_GRID, GbtConfig, cross_validate,
                               gbt_train, stratified_folds, stratified_split)

GOLDEN = Path(__file__).with_name("gbt_golden.json")
SEED = 17
N_FOLDS = 5


def tied_matrix():
    """60 x 20, one decimal place (many ties), an effect in 3 columns."""
    rng = np.random.default_rng(2024)
    y = np.array([0] * 30 + [1] * 30)
    x = rng.standard_normal((60, 20))
    x[:, :3] += 0.8 * y[:, None]
    x[:, 5] = rng.integers(0, 3, 60)        # a column of three levels
    return np.round(x, 1), y


def _fold_models(x, y, cfg, eval_on_test):
    """The models cross_validate trains for one grid point, fold by fold."""
    fold_of = stratified_folds(y, N_FOLDS, SEED)
    models = []
    for fold in range(N_FOLDS):
        tr, te = np.nonzero(fold_of != fold)[0], np.nonzero(fold_of == fold)[0]
        full = replace(GbtConfig(), **cfg)
        if eval_on_test:
            models.append(gbt_train(x[tr], y[tr], full,
                                    eval_set=(x[te], y[te])))
        else:
            fit, ev = stratified_split(y[tr], 0.2, SEED * 1000003 + fold)
            models.append(gbt_train(x[tr][fit], y[tr][fit], full,
                                    eval_set=(x[tr][ev], y[tr][ev])))
    return models


def _sha(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def golden_payload():
    x, y = tied_matrix()
    out = {}
    for protocol, eval_on_test in (("carve_out", False), ("test_fold", True)):
        results = cross_validate(x, y, "gbt", grid=GBT_GRID, seed=SEED,
                                 eval_on_test_fold=eval_on_test,
                                 return_all=True)
        rows = []
        for cfg, res in zip(GBT_GRID, results):
            models = _fold_models(x, y, cfg, eval_on_test)
            rows.append({
                "config": dict(cfg),
                "fold_accuracies": res.fold_accuracies,
                "fold_confusions": [list(c) for c in res.fold_confusions],
                "trees_sha256": [_sha([t.to_dict() for t in m.trees])
                                 for m in models],
                "logloss_sha256": [_sha([m.best_iteration, m.train_logloss,
                                         m.eval_logloss]) for m in models],
            })
        out[protocol] = rows
    return out


@pytest.fixture(scope="module")
def payload():
    return golden_payload()


@pytest.mark.parametrize("protocol", ["carve_out", "test_fold"])
def test_gbt_grid_matches_golden(payload, protocol):
    golden = json.loads(GOLDEN.read_text())[protocol]
    got = payload[protocol]
    assert len(got) == len(golden) == len(GBT_GRID) == 16
    for want, have in zip(golden, got):
        assert have["config"] == want["config"]
        assert have["fold_accuracies"] == want["fold_accuracies"]
        assert have["fold_confusions"] == want["fold_confusions"]
        assert have["trees_sha256"] == want["trees_sha256"]
        assert have["logloss_sha256"] == want["logloss_sha256"]
