"""Golden fixture for the boosted-tree grid search.

`gbt_golden.json` was written by the builder that gathered every node's
rows from the whole presorted matrix, before the node-local partition
and the model sharing across `max_depth` replaced it. Any change to a
split, a leaf value, a summation order or an early-stopping decision
changes a hash or an accuracy here. The tree dicts and the per-round
training logloss that the hashes cover are rebuilt here from the fitted
models, in the form the builder of the fixture exported them.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eegsweep import classify
from eegsweep.classify import (GBT_GRID, GbtConfig, _logloss, cross_validate,
                               gbt_train, stratified_folds, stratified_split)
from gbt_reference import tree_predict

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
    """The models cross_validate trains for one grid point, fold by fold,
    each with the rows it was trained on: (model, train_x, train_y)."""
    fold_of = stratified_folds(y, N_FOLDS, SEED)
    models = []
    for fold in range(N_FOLDS):
        tr, te = np.nonzero(fold_of != fold)[0], np.nonzero(fold_of == fold)[0]
        full = replace(GbtConfig(), **cfg)
        if eval_on_test:
            fit_x, fit_y, eval_set = x[tr], y[tr], (x[te], y[te])
        else:
            fit, ev = stratified_split(y[tr], 0.2, SEED * 1000003 + fold)
            fit_x, fit_y = x[tr][fit], y[tr][fit]
            eval_set = (x[tr][ev], y[tr][ev])
        models.append((gbt_train(fit_x, fit_y, full, eval_set=eval_set),
                       fit_x, fit_y))
    return models


def _tree_dict(node):
    if node.is_leaf:
        return {"leaf": node.leaf_value}
    return {"feature": node.feature, "threshold": node.threshold,
            "gain": node.gain, "left": _tree_dict(node.left),
            "right": _tree_dict(node.right)}


def _train_logloss(model, x, y):
    """Training-set logloss after each boosting round."""
    raw = np.zeros(x.shape[0])
    hist = []
    for tree in model.trees:
        raw += model.config.eta * tree_predict(tree, x)
        hist.append(_logloss(y, 1.0 / (1.0 + np.exp(-raw))))
    return hist


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
                "trees_sha256": [_sha([_tree_dict(t) for t in m.trees])
                                 for m, _, _ in models],
                "logloss_sha256": [
                    _sha([m.best_iteration, _train_logloss(m, fx, fy),
                          m.eval_logloss]) for m, fx, fy in models],
            })
        out[protocol] = rows
    return out


@pytest.fixture(scope="module")
def payload():
    return golden_payload()


def assert_matches_golden(got, protocol):
    golden = json.loads(GOLDEN.read_text())[protocol]
    assert len(got) == len(golden) == len(GBT_GRID) == 16
    for want, have in zip(golden, got):
        assert have["config"] == want["config"]
        assert have["fold_accuracies"] == want["fold_accuracies"]
        assert have["fold_confusions"] == want["fold_confusions"]
        assert have["trees_sha256"] == want["trees_sha256"]
        assert have["logloss_sha256"] == want["logloss_sha256"]


@pytest.mark.parametrize("protocol", ["carve_out", "test_fold"])
def test_gbt_grid_matches_golden(payload, protocol):
    assert_matches_golden(payload[protocol], protocol)


def test_gbt_grid_matches_golden_in_pieces_and_waves(monkeypatch):
    # one node per piece of every level, two boosters per wave; the lax
    # protocol under small budgets is drawn in test_gbt_lockstep.py
    monkeypatch.setattr(classify, "_CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(classify, "_WAVE_ELEMENTS", 2000)
    x, y = tied_matrix()
    results = cross_validate(x, y, "gbt", grid=GBT_GRID, seed=SEED,
                             return_all=True)
    golden = json.loads(GOLDEN.read_text())["carve_out"]
    for cfg, want, have in zip(GBT_GRID, golden, results):
        assert have.fold_accuracies == want["fold_accuracies"]
        assert [list(c) for c in have.fold_confusions] \
            == want["fold_confusions"]
        assert [_sha([_tree_dict(t) for t in m.trees])
                for m, _, _ in _fold_models(x, y, cfg, False)] \
            == want["trees_sha256"]
