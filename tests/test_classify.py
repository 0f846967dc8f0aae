import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gbt_reference as ref
from eegsweep.classify import (GbtConfig, _logloss, cross_validate,
                               gbt_importance, gbt_train, knn_predict,
                               stratified_folds, stratified_split, svm_train,
                               train_final)
from test_gbt_lockstep import boosted, drawn_matrix

FAST_GBT_GRID = ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},)


def separable_blobs(n=100, d=2, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n, d)) - gap / 2
    x1 = rng.standard_normal((n, d)) + gap / 2
    return np.vstack([x0, x1]), np.array([0] * n + [1] * n)


def xor_clusters(per=50, seed=1):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cx, cy, lab in ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)):
        xs.append(rng.normal(0, 0.1, (per, 2)) + [cx, cy])
        ys += [lab] * per
    return np.vstack(xs), np.array(ys)


# ---------------------------------------------------------------------------
# gradient-boosted trees

def test_gbt_separable_train_and_cv():
    x, y = separable_blobs()
    model = gbt_train(x, y, GbtConfig(max_depth=2, eta=0.3))
    assert np.mean(ref.predict(model, x) == y) == 1.0
    res = cross_validate(x, y, "gbt", grid=FAST_GBT_GRID, seed=0)
    assert res.mean_accuracy >= 0.95


def test_gbt_xor_depth_expressiveness():
    x, y = xor_clusters()
    deep = cross_validate(x, y, "gbt",
                          grid=({"max_depth": 2, "eta": 0.3, "gamma": 0.0},),
                          seed=0)
    shallow = cross_validate(x, y, "gbt",
                             grid=({"max_depth": 1, "eta": 0.3,
                                    "gamma": 0.0},),
                             seed=0)
    assert deep.mean_accuracy >= 0.9
    assert shallow.mean_accuracy <= 0.7


def test_gbt_single_class_error():
    x = np.random.default_rng(0).standard_normal((20, 3))
    with pytest.raises(ValueError, match="single class"):
        gbt_train(x, np.ones(20), GbtConfig())


def test_gbt_train_logloss_non_increasing():
    x, y = xor_clusters(seed=3)
    model = gbt_train(x, y, GbtConfig(max_depth=3, eta=0.1, n_rounds=60))
    raw = np.zeros(x.shape[0])
    hist = []
    for tree in model.trees:
        raw += model.config.eta * ref.tree_predict(tree, x)
        hist.append(_logloss(y, 1.0 / (1.0 + np.exp(-raw))))
    assert len(hist) == 60
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_gbt_early_stopping_uses_best_round():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((80, 5))
    y = (x[:, 0] > 0).astype(int)
    x_eval = rng.standard_normal((30, 5))
    y_eval = (x_eval[:, 0] > 0).astype(int)
    model = gbt_train(x, y, GbtConfig(max_depth=6, eta=0.3, n_rounds=100,
                                      early_stopping_rounds=10),
                      eval_set=(x_eval, y_eval))
    assert model.best_iteration <= len(model.trees)
    assert model.eval_logloss
    best = int(np.argmin(model.eval_logloss)) + 1
    assert model.best_iteration == best


def test_gbt_gamma_prunes_splits():
    x, y = separable_blobs(n=40)
    low = gbt_train(x, y, GbtConfig(max_depth=4, eta=0.3, gamma=0.0,
                                    n_rounds=5))
    high = gbt_train(x, y, GbtConfig(max_depth=4, eta=0.3, gamma=1e6,
                                     n_rounds=5))
    n_splits_low = sum(len([1 for _ in _walk(t)]) for t in low.trees)
    n_splits_high = sum(len([1 for _ in _walk(t)]) for t in high.trees)
    assert n_splits_high < n_splits_low


def _walk(node):
    if node.is_leaf:
        return
    yield node
    yield from _walk(node.left)
    yield from _walk(node.right)


def test_gbt_importance_single_and_dominant_feature():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 1))
    y = (x[:, 0] > 0).astype(int)
    model = gbt_train(x, y, GbtConfig(max_depth=2, eta=0.3, n_rounds=10),
                      feature_names=["only"])
    imp = gbt_importance(model)
    assert [name for name, _ in imp] == ["only"]

    x2 = np.column_stack([x[:, 0], rng.standard_normal(200)])
    model2 = gbt_train(x2, y, GbtConfig(max_depth=3, eta=0.3, n_rounds=20),
                       feature_names=["signal", "noise"])
    imp2 = dict(gbt_importance(model2))
    assert imp2["signal"] > 10 * imp2.get("noise", imp2["signal"] / 1e9)


def test_gbt_importance_empty_for_zero_rounds():
    x, y = separable_blobs(n=20)
    model = gbt_train(x, y, GbtConfig(max_depth=2, n_rounds=1, eta=0.3))
    model.best_iteration = 0
    assert gbt_importance(model) == []


# ---------------------------------------------------------------------------
# KNN

def test_knn_memorizes_training_point():
    x, y = separable_blobs(n=20, seed=4)
    pred = knn_predict(x, y, x[:5], k=1)
    assert np.array_equal(pred, y[:5])


def test_knn_separated_blobs_all_k():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(10, 1, (40, 3))])
    y = np.array([0] * 40 + [1] * 40)
    test = np.vstack([rng.normal(0, 1, (10, 3)), rng.normal(10, 1, (10, 3))])
    truth = np.array([0] * 10 + [1] * 10)
    for k in (1, 3, 5, 9, 15):
        assert np.array_equal(knn_predict(x, y, test, k), truth)


def test_knn_k_too_large():
    x, y = separable_blobs(n=5)
    with pytest.raises(ValueError, match="exceeds training size"):
        knn_predict(x, y, x, k=11)


def test_knn_tie_goes_to_nearest():
    x = np.array([[0.0], [1.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    # query at 1.9: neighbors within k=2 are 1.0 (label 0) and 3.0 (label 1);
    # tie resolves to the closer sample, 1.0
    assert knn_predict(x, y, np.array([[1.9]]), k=2)[0] == 0


# ---------------------------------------------------------------------------
# SVM

def test_svm_concentric_circles():
    rng = np.random.default_rng(7)
    n = 100
    theta = rng.uniform(0, 2 * np.pi, n)
    r_in = rng.normal(1.0, 0.05, n)
    r_out = rng.normal(2.5, 0.05, n)
    x = np.vstack([np.c_[r_in * np.cos(theta), r_in * np.sin(theta)],
                   np.c_[r_out * np.cos(theta), r_out * np.sin(theta)]])
    y = np.array([0] * n + [1] * n)
    rbf = cross_validate(x, y, "svm", grid=({"c": 1.0, "gamma_rbf": 1.0},),
                         seed=0)
    assert rbf.mean_accuracy >= 0.9
    near_linear = cross_validate(x, y, "svm",
                                 grid=({"c": 1.0, "gamma_rbf": 1e-4},),
                                 seed=0)
    assert near_linear.mean_accuracy <= 0.7


def test_svm_single_class_error():
    x = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(ValueError, match="single class"):
        svm_train(x, np.zeros(10))


def test_svm_deterministic():
    x, y = separable_blobs(n=30, seed=8)
    m1 = svm_train(x, y, c=1.0)
    m2 = svm_train(x, y, c=1.0)
    assert np.array_equal(m1.support_coef, m2.support_coef)
    assert m1.bias == m2.bias


# ---------------------------------------------------------------------------
# folds / CV machinery

def test_stratified_fold_sizes_121():
    labels = np.array([1] * 61 + [0] * 60)
    folds = stratified_folds(labels, 5, seed=0)
    sizes = sorted(np.bincount(folds), reverse=True)
    assert sizes == [25, 24, 24, 24, 24]
    for f in range(5):
        ones = int(labels[folds == f].sum())
        assert abs(ones - 61 / 5) <= 1


def test_stratified_folds_small_class_error():
    labels = np.array([1] * 3 + [0] * 20)
    with pytest.raises(ValueError, match="cannot stratify"):
        stratified_folds(labels, 5, seed=0)


def test_stratified_split_80_20():
    labels = np.array([1] * 61 + [0] * 60)
    train, test = stratified_split(labels, 0.2, seed=0)
    assert abs(len(train) - 96) <= 1
    assert abs(len(test) - 25) <= 1
    assert abs(int(labels[test].sum()) - 12) <= 1
    assert set(train) | set(test) == set(range(121))
    assert not set(train) & set(test)


def test_stratified_split_seed_changes_membership_not_balance():
    labels = np.array([1] * 61 + [0] * 60)
    _, t1 = stratified_split(labels, 0.2, seed=1)
    _, t2 = stratified_split(labels, 0.2, seed=2)
    assert set(t1) != set(t2)
    assert abs(int(labels[t1].sum()) - int(labels[t2].sum())) <= 1


def test_cv_deterministic_and_tie_break():
    x, y = separable_blobs(n=30, seed=9)
    grid = ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},
            {"max_depth": 2, "eta": 0.3, "gamma": 0.0})
    r1 = cross_validate(x, y, "gbt", grid=grid, seed=5)
    r2 = cross_validate(x, y, "gbt", grid=grid, seed=5)
    assert r1.fold_accuracies == r2.fold_accuracies
    assert r1.best_config == r2.best_config
    assert r1.mean_accuracy == pytest.approx(
        np.mean(r1.fold_accuracies))
    assert r1.spread == pytest.approx(np.std(r1.fold_accuracies, ddof=1))


def test_cv_drops_a_failing_grid_point():
    x, y = separable_blobs(n=20, seed=9)
    grid = ({"max_depth": 2, "eta": 0.3, "gamma": 0.0},
            {"max_depth": 2, "eta": 0.0, "gamma": 0.0})
    with pytest.warns(UserWarning, match=r"'eta': 0.0.* dropped: ValueError: "
                      r"eta must be in \(0, 1\]"):
        every = cross_validate(x, y, "gbt", grid=grid, seed=0,
                               return_all=True)
    assert every[0].error is None and every[0].mean_accuracy >= 0.95
    assert isinstance(every[1].error, ValueError)
    assert every[1].fold_accuracies == [] and every[1].best_config == grid[1]
    with pytest.warns(UserWarning):
        best = cross_validate(x, y, "gbt", grid=grid, seed=0)
    assert best.best_config == grid[0]
    assert best.fold_accuracies == every[0].fold_accuracies
    # when every point fails, the first point's error is raised
    with pytest.raises(ValueError, match="k=99 exceeds training size 32"):
        cross_validate(x, y, "knn", grid=({"k": 99}, {"k": 98}), seed=0)


def test_cv_drops_an_out_of_range_knn_point():
    # k=-1 scored 0.5 as a valid point
    x, y = separable_blobs(n=20, seed=9)
    with pytest.warns(UserWarning, match=r"\{'k': -1\} dropped: ValueError: "
                      r"k must be an int >= 1"):
        every = cross_validate(x, y, "knn", grid=({"k": -1}, {"k": 3}),
                               seed=0, return_all=True)
    assert isinstance(every[0].error, ValueError)
    assert np.isnan(every[0].mean_accuracy)
    assert every[1].error is None and every[1].mean_accuracy >= 0.95


def test_gbt_train_scores_test_rows_only_when_watched():
    x, y = separable_blobs(n=20, seed=9)
    cfg = GbtConfig(max_depth=2, n_rounds=5)
    model = gbt_train(x[:30], y[:30], cfg, eval_set=(x[30:], y[30:]),
                      test_x=x[:4])
    assert model.test_raw.shape == (4,)
    assert gbt_train(x, y, cfg, test_x=x[:4]).test_raw is None


def test_cv_null_labels_near_chance():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((60, 10))
    accs = []
    for s in range(5):
        y = np.random.default_rng(100 + s).integers(0, 2, 60)
        while len(np.unique(y)) < 2 or min(np.bincount(y)) < 5:
            y = np.random.default_rng(200 + s).integers(0, 2, 60)
        res = cross_validate(x, y, "knn", grid=({"k": 5},), seed=s)
        accs.append(res.mean_accuracy)
    assert 0.35 <= np.mean(accs) <= 0.65


def test_cv_leakage_instrumentation():
    x, y = separable_blobs(n=30, seed=11)
    row_of = {tuple(row): i for i, row in enumerate(x)}
    assert len(row_of) == 60
    seen = []

    def selector(tx, ty):
        seen.append([row_of[tuple(row)] for row in tx])
        return [0, 1]

    cross_validate(x, y, "knn", grid=({"k": 3},), seed=0, selector=selector)
    assert len(seen) == 5
    # each row trains in 4 of the 5 folds, so the test folds partition
    # the rows and no fold trains on its own test rows
    counts = np.zeros(60, dtype=int)
    for rows in seen:
        assert len(set(rows)) == len(rows)
        counts[rows] += 1
    assert np.all(counts == 4)


def test_cv_in_fold_selector_sees_train_only():
    x, y = separable_blobs(n=30, seed=12)
    calls = []

    def selector(tx, ty):
        calls.append(tx.shape[0])
        return [0, 1]

    cross_validate(x, y, "gbt", grid=FAST_GBT_GRID, seed=0,
                   selector=selector)
    assert len(calls) == 5
    assert all(c == 48 for c in calls)


def test_train_final_split_and_importance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((121, 4))
    y = np.array([1] * 61 + [0] * 60)
    x[:, 2] += y * 5.0
    model, acc, imp = train_final(
        x, y, GbtConfig(max_depth=3, eta=0.3, n_rounds=30), split_seed=0,
        feature_names=["a", "b", "strong", "d"])
    assert imp[0][0] == "strong"
    assert acc >= 0.8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 60), d=st.integers(1, 6),
       decimals=st.integers(0, 1), effect=st.sampled_from([0.0, 1.0, 3.0]),
       max_depth=st.sampled_from([0, 1, 2, 3, 6]),
       eta=st.sampled_from([0.1, 0.3, 1.0]),
       gamma=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 1000))
def test_train_final_holdout_equals_a_walk_of_its_trees(
        n, d, decimals, effect, max_depth, eta, gamma, seed):
    # the holdout is scored from the raw score the engine routed at the
    # best round; the oracle walks the returned model's trees over it
    x, y = drawn_matrix(seed, n, d, decimals, effect)
    cfg = GbtConfig(n_rounds=12, early_stopping_rounds=4,
                    max_depth=max_depth, eta=eta, gamma=gamma)
    with boosted() as seen:
        model, acc, _ = train_final(x, y, cfg, split_seed=seed)
    _, test_idx = stratified_split(y, 0.2, seed)
    want = ref.predict_raw(model, x[test_idx])
    [(_, (_, raw, _))] = seen
    assert raw.tobytes() == want.tobytes()
    assert acc == float(np.mean(ref.predict(model, x[test_idx])
                                == y[test_idx]))


@pytest.mark.parametrize("classifier", ["gbt", "svm", "knn"])
def test_cv_refuses_a_matrix_without_columns(classifier):
    y = np.repeat([0, 1], 10)
    with pytest.raises(ValueError, match="no columns"):
        cross_validate(np.empty((20, 0)), y, classifier)


def test_single_fits_refuse_a_matrix_without_columns():
    y = np.repeat([0, 1], 10)
    with pytest.raises(ValueError, match="no columns"):
        gbt_train(np.empty((20, 0)), y)
    with pytest.raises(ValueError, match="no columns"):
        train_final(np.empty((20, 0)), y)
