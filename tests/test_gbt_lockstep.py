"""The lockstep engine grows, for every booster, byte for byte the model
that the recursive node-at-a-time builder in `gbt_reference` grows alone.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

import gbt_reference as ref
from eegsweep import classify
from eegsweep.classify import GBT_GRID, GbtConfig, _Fit, cross_validate
from test_gbt_golden import _tree_dict


def drawn_matrix(seed, n, d, decimals, effect):
    """Tied values (few decimals) and one constant column when d > 2."""
    rng = np.random.default_rng(seed)
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    x = np.round(rng.standard_normal((n, d)), decimals)
    x[:, 0] += effect * y
    if d > 2:
        x[:, d - 1] = 1.5
    return x, y


def assert_same_as_reference(fit, grown):
    model, test_raw, depth = grown
    want = ref.gbt_train(fit.x, fit.y, fit.cfg, eval_set=fit.eval_set)
    assert [_tree_dict(t) for t in model.trees] \
        == [_tree_dict(t) for t in want.trees]
    assert model.best_iteration == want.best_iteration
    assert model.eval_logloss == want.eval_logloss
    assert depth == max(ref.tree_depth(t) for t in want.trees)
    if fit.test_x is not None:
        assert test_raw.tobytes() \
            == ref.predict_raw(want, fit.test_x).tobytes()
        assert (ref.predict(want, fit.test_x)
                == (classify._sigmoid(test_raw) >= 0.5)).all()


@contextmanager
def limits(chunk, wave):
    """The engine's piece and wave budgets set to `chunk` and `wave`
    padded elements: small ones cut every level into several pieces and
    the fits of one cross-validation into several waves."""
    saved = classify._CHUNK_ELEMENTS, classify._WAVE_ELEMENTS
    classify._CHUNK_ELEMENTS, classify._WAVE_ELEMENTS = chunk, wave
    try:
        yield
    finally:
        classify._CHUNK_ELEMENTS, classify._WAVE_ELEMENTS = saved


#: (piece, wave) budgets: the defaults, one node per piece and a few
#: boosters per wave, and one booster per wave
budgets = st.sampled_from([(classify._CHUNK_ELEMENTS, classify._WAVE_ELEMENTS),
                           (64, 2000), (200, 300)])


@contextmanager
def boosted():
    """Every (fit, result) the engine returns inside the block."""
    seen = []
    real = classify._boost

    def spy(fits):
        grown = real(fits)
        seen.extend(zip(fits, grown))
        return grown

    classify._boost = spy
    try:
        yield seen
    finally:
        classify._boost = real


configs = st.builds(
    dict, max_depth=st.sampled_from([0, 1, 2, 3, 6]),
    eta=st.sampled_from([0.1, 0.3, 1.0]), gamma=st.sampled_from([0.0, 1.0]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(10, 60), d=st.integers(1, 6),
       decimals=st.integers(0, 1), effect=st.sampled_from([0.0, 1.0, 3.0]),
       grid=st.lists(configs, min_size=1, max_size=4),
       min_hess=st.sampled_from([1e-3, 0.3, 1.0]),
       eval_on_test=st.booleans(), in_fold_selector=st.booleans(),
       budget=budgets, seed=st.integers(0, 1000))
def test_cv_boosters_equal_the_recursive_builder(
        n, d, decimals, effect, grid, min_hess, eval_on_test,
        in_fold_selector, budget, seed):
    x, y = drawn_matrix(seed, n, d, decimals, effect)
    selector = None
    if in_fold_selector:
        def selector(tx, ty):
            # a fold-dependent count: columns whose class means differ by
            # more than their median gap
            gap = np.abs(tx[ty == 1].mean(0) - tx[ty == 0].mean(0))
            return np.flatnonzero(gap > np.median(gap))
    base = GbtConfig(n_rounds=8, early_stopping_rounds=3,
                     min_child_hessian=min_hess)
    with limits(*budget), boosted() as seen:
        cross_validate(x, y, "gbt", grid=grid, seed=seed, gbt_base=base,
                       selector=selector, eval_on_test_fold=eval_on_test,
                       return_all=True)
    assert seen
    for fit, grown in seen:
        assert_same_as_reference(fit, grown)


@settings(max_examples=30, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(8, 60), st.integers(1, 6),
                                 configs, st.booleans()),
                       min_size=1, max_size=5),
       min_hess=st.sampled_from([1e-3, 0.3, 1.0]),
       budget=budgets, seed=st.integers(0, 1000))
def test_one_wave_of_unlike_boosters(shapes, min_hess, budget, seed):
    # boosters of different sizes, widths, caps and early-stopping
    # settings share every pass of one wave (of several under the small
    # budgets)
    fits = []
    for i, (n, d, cfg, watched) in enumerate(shapes):
        x, y = drawn_matrix(seed + i, n + 6, d, 1, 1.0)
        cfg = GbtConfig(n_rounds=10, early_stopping_rounds=2,
                        min_child_hessian=min_hess, **cfg)
        perm = np.random.default_rng(seed + i).permutation(n + 6)
        train, held = perm[:n], perm[n:]
        if np.unique(y[train]).size < 2:
            continue
        eval_set = (x[held], y[held].astype(float)) if watched else None
        # test rows go to watched fits only, as in every library caller
        fits.append(_Fit(x[train], y[train].astype(float), cfg, eval_set,
                         x[held] if watched else None))
    with limits(*budget):
        grown = classify._boost(fits)
    for fit, one in zip(fits, grown):
        assert_same_as_reference(fit, one)


def test_small_budgets_cut_levels_and_waves(monkeypatch):
    # the drawn budgets reach the per-piece merge of the partition and
    # the split of one cross-validation's fits into several waves
    x, y = drawn_matrix(5, 40, 6, 1, 1.0)
    calls, waves, pieces = [], [], []
    real_boost, real_wave, real_chunks = (classify._boost, classify._Wave,
                                          classify._chunks)

    def boost(fits):
        calls.append(len(fits))
        return real_boost(fits)

    def wave(fits):
        waves.append(len(fits))
        return real_wave(fits)

    def chunks(k, d):
        out = real_chunks(k, d)
        pieces.append(len(out))
        return out

    monkeypatch.setattr(classify, "_boost", boost)
    monkeypatch.setattr(classify, "_Wave", wave)
    monkeypatch.setattr(classify, "_chunks", chunks)
    with limits(64, 2000), boosted() as seen:
        cross_validate(x, y, "gbt", grid=GBT_GRID, seed=5,
                       gbt_base=GbtConfig(n_rounds=8,
                                          early_stopping_rounds=3),
                       return_all=True)
    assert len(waves) > len(calls) and max(waves) > 1
    assert max(pieces) > 1
    for fit, grown in seen:
        assert_same_as_reference(fit, grown)
