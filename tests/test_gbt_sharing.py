"""Grid points that differ only in max_depth share a boosted-tree fit
only when the shared model is the model an independent fit would grow.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from eegsweep import classify
from eegsweep.classify import cross_validate

#: The rounds every grid point below sets.
ROUNDS = {"n_rounds": 12, "early_stopping_rounds": 4}


def small_matrix(seed, effect):
    rng = np.random.default_rng(seed)
    y = np.array([0] * 12 + [1] * 13)
    x = np.round(rng.standard_normal((25, 4)), 1)
    x[:, 0] += effect * y
    return x, y


def count_fits(monkeypatch):
    """The cap of every booster the lockstep engine is handed."""
    calls = []
    real = classify._boost

    def counting(fits):
        calls.extend(fit.cfg.max_depth for fit in fits)
        return real(fits)

    monkeypatch.setattr(classify, "_boost", counting)
    return calls


@contextmanager
def boost_calls():
    """The number of fits of every `_boost` call inside the block."""
    calls = []
    real = classify._boost

    def counting(fits):
        calls.append(len(fits))
        return real(fits)

    classify._boost = counting
    try:
        yield calls
    finally:
        classify._boost = real


def _as_tuple(res):
    return (res.fold_accuracies, res.fold_confusions, res.best_config)


@settings(max_examples=25, deadline=None)
@given(depths=st.lists(st.sampled_from([0, 1, 2, 3, 5, 12]), min_size=1,
                       max_size=5),
       order=st.sampled_from(["drawn", "ascending", "descending"]),
       etas=st.lists(st.sampled_from([0.1, 0.3]), min_size=1, max_size=2,
                     unique=True),
       gamma=st.sampled_from([0.0, 1.0]),
       data_seed=st.integers(0, 50),
       effect=st.sampled_from([0.0, 1.0, 4.0]),
       eval_on_test=st.booleans(),
       in_fold_selector=st.booleans())
def test_shared_fits_equal_independent_fits(depths, order, etas, gamma,
                                            data_seed, effect, eval_on_test,
                                            in_fold_selector):
    if order != "drawn":
        depths = sorted(depths, reverse=order == "descending")
    depths = depths + depths[:1]    # always one repeated depth
    x, y = small_matrix(data_seed, effect)
    grid = [dict(ROUNDS, max_depth=d, eta=e, gamma=gamma)
            for d in depths for e in etas]
    selector = None
    if in_fold_selector:
        def selector(tx, ty):
            # the two columns whose class means differ most in this fold
            gap = np.abs(tx[ty == 1].mean(0) - tx[ty == 0].mean(0))
            return np.sort(np.argsort(-gap, kind="stable")[:2])
    kwargs = dict(seed=data_seed, selector=selector,
                  eval_on_test_fold=eval_on_test)
    with boost_calls() as calls:
        shared = cross_validate(x, y, "gbt", grid=grid, return_all=True,
                                **kwargs)
    # the deepest caps, then the caps below their fits' deepest leaves
    assert len(calls) <= 2
    # a one-point grid fits one model per fold, with nothing to share
    for cfg, res in zip(grid, shared):
        alone = cross_validate(x, y, "gbt", grid=[cfg], **kwargs)
        assert _as_tuple(res) == _as_tuple(alone)
    best = cross_validate(x, y, "gbt", grid=grid, **kwargs)
    assert best.mean_accuracy == max(r.mean_accuracy for r in shared)


def test_unbound_cap_fits_once_per_fold(monkeypatch):
    # one column cleanly separates the classes: every tree is a stump
    x, y = small_matrix(0, 50.0)
    calls = count_fits(monkeypatch)
    grid = [dict(ROUNDS, max_depth=d, eta=0.3, gamma=0.0) for d in (12, 6, 3)]
    cross_validate(x, y, "gbt", grid=grid, return_all=True)
    assert calls == [12] * 5


def test_bound_cap_fits_every_depth(monkeypatch):
    # without gamma, noise is always worth a root split: a cap of 1 binds
    x, y = small_matrix(1, 0.0)
    calls = count_fits(monkeypatch)
    grid = [dict(ROUNDS, max_depth=d, eta=0.3, gamma=0.0) for d in (1, 2, 1)]
    cross_validate(x, y, "gbt", grid=grid, return_all=True)
    # the repeated depth-1 point reuses its own fit
    assert calls.count(1) == 5
    assert calls.count(2) == 5


def test_deepest_cap_covers_the_caps_down_to_its_deepest_leaf(
        monkeypatch):
    # ones at (1, 1), zeros at (-1, 1) and (1, -1): two splits isolate
    # every point, so one cap-3 fit per fold stops at depth 2 and covers
    # cap 2 too; grown first, the cap-2 fits would meet their cap and
    # cover nothing else
    y = np.array([0] * 12 + [1] * 13)
    x = np.array([[-1.0, 1.0], [1.0, -1.0]] * 6 + [[1.0, 1.0]] * 13)
    calls = count_fits(monkeypatch)
    grid = [dict(ROUNDS, max_depth=d, eta=0.3, gamma=0.0) for d in (2, 3)]
    cross_validate(x, y, "gbt", grid=grid, return_all=True)
    assert calls == [3] * 5


def test_other_settings_never_share(monkeypatch):
    x, y = small_matrix(0, 50.0)
    calls = count_fits(monkeypatch)
    grid = [dict(ROUNDS, max_depth=3, eta=e, gamma=g)
            for e, g in ((0.3, 0.0), (0.1, 0.0), (0.3, 1.0))]
    cross_validate(x, y, "gbt", grid=grid, return_all=True)
    assert len(calls) == 15


def test_each_wave_searches_a_whole_level_per_pass(monkeypatch):
    # noise under deep caps: trees of many nodes, so one search per node
    # would need far more passes than one per level
    x, y = small_matrix(3, 0.0)
    waves = []
    real_boost, real_search = classify._boost, classify._best_splits

    def boost(fits):
        waves.append({"fits": len(fits), "searches": 0,
                      "cap": max(fit.cfg.max_depth for fit in fits),
                      "rounds": max(fit.cfg.n_rounds for fit in fits)})
        return real_boost(fits)

    def search(wave, idx, *args):
        waves[-1]["searches"] += 1
        waves[-1]["nodes"] = waves[-1].get("nodes", 0) + idx.shape[1]
        return real_search(wave, idx, *args)

    monkeypatch.setattr(classify, "_boost", boost)
    monkeypatch.setattr(classify, "_best_splits", search)
    grid = [dict(ROUNDS, max_depth=d, eta=e, gamma=0.0)
            for d in (6, 12) for e in (0.1, 0.3)]
    cross_validate(x, y, "gbt", grid=grid, return_all=True)
    assert waves and waves[0]["fits"] == 10     # 5 folds x 2 etas
    for wave in waves:
        assert wave["searches"] <= wave["rounds"] * (wave["cap"] + 1)
    # the passes served several nodes each
    assert sum(w["nodes"] for w in waves) > 2 * sum(w["searches"]
                                                   for w in waves)
