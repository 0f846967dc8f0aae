"""From-scratch classifiers and cross-validation.

Gradient-boosted trees optimize the second-order binary logistic
objective with gain-based splits; the SVM solves the soft-margin dual by
sequential minimal optimization; KNN votes over z-scored Euclidean
neighbors. Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: Default hyperparameter grids reconstructed around the reported optima.
GBT_GRID = tuple(
    {"max_depth": d, "eta": e, "gamma": g}
    for d in (2, 3, 6, 12) for e in (0.1, 0.3) for g in (0.0, 1.0))
SVM_GRID = tuple(
    {"c": c, "gamma_rbf": g} for c in (0.1, 1.0, 10.0)
    for g in ("scale", 0.1, 1.0))
KNN_GRID = tuple({"k": k} for k in (3, 5, 7, 9))

DEFAULT_GRIDS = {"gbt": GBT_GRID, "svm": SVM_GRID, "knn": KNN_GRID}


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 100
    early_stopping_rounds: int = 50
    max_depth: int = 6
    eta: float = 0.3
    gamma: float = 0.0
    lambda_: float = 1.0
    min_child_hessian: float = 1e-3

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")


@dataclass
class CvResult:
    fold_accuracies: list
    mean_accuracy: float
    spread: float
    best_config: dict
    fold_confusions: list    # (tn, fp, fn, tp) per fold
    classifier: str


# ---------------------------------------------------------------------------
# gradient-boosted trees

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None
    leaf_value: float = 0.0
    gain: float = 0.0

    @property
    def is_leaf(self):
        return self.feature < 0

    def to_dict(self):
        if self.is_leaf:
            return {"leaf": self.leaf_value}
        return {"feature": self.feature, "threshold": self.threshold,
                "gain": self.gain, "left": self.left.to_dict(),
                "right": self.right.to_dict()}


class _TreeBuilder:
    """Greedy exact split search, vectorized over all features at once.

    Features are argsorted once per training. Each node holds its own rows
    in that presorted order (a d x k index matrix and the matching values)
    and hands a stable partition of both to its children, so split search
    at a node costs O(d k), not O(d n). Each training row's leaf value is
    recorded as the rows are partitioned.
    """

    def __init__(self, x, cfg):
        self.x = x
        self.cfg = cfg
        order = np.argsort(x, axis=0, kind="stable")             # n x d
        self.root_idx = np.ascontiguousarray(order.T)             # d x n
        self.root_xs = np.take_along_axis(x, order, 0).T.copy()  # d x n
        self.root_rows = np.arange(x.shape[0])

    def build(self, g, h):
        """Grow one tree; returns it and every training row's leaf value."""
        out = np.empty(self.x.shape[0])
        tree = self._grow(g, h, self.root_rows, self.root_idx, self.root_xs,
                          0, out)
        return tree, out

    def _grow(self, g, h, rows, idx, xs, depth, out):
        # rows ascending; idx[j] and xs[j] are the same rows sorted by
        # feature j
        cfg = self.cfg
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        leaf = TreeNode(leaf_value=-g_sum / (h_sum + cfg.lambda_))
        k = rows.size
        if depth >= cfg.max_depth or k < 2:
            out[rows] = leaf.leaf_value
            return leaf
        gl = np.cumsum(g[idx], axis=1)[:, :-1]
        hl = np.cumsum(h[idx], axis=1)[:, :-1]
        gr = g_sum - gl
        hr = h_sum - hl
        parent = g_sum * g_sum / (h_sum + cfg.lambda_)
        gain = 0.5 * (gl ** 2 / (hl + cfg.lambda_)
                      + gr ** 2 / (hr + cfg.lambda_) - parent) - cfg.gamma
        ok = (np.diff(xs, axis=1) > 0) \
            & (hl >= cfg.min_child_hessian) & (hr >= cfg.min_child_hessian)
        gain[~ok] = -np.inf
        flat = int(np.argmax(gain))
        feat, cut = divmod(flat, gain.shape[1])
        best_gain = float(gain[feat, cut])
        if best_gain <= 0.0:
            out[rows] = leaf.leaf_value
            return leaf
        thr = 0.5 * (xs[feat, cut] + xs[feat, cut + 1])
        node = TreeNode(feature=int(feat), threshold=float(thr),
                        gain=best_gain)
        goes_left = self.x[:, feat] <= thr
        left = goes_left[rows]
        sorted_left = goes_left[idx]
        sorted_right = ~sorted_left
        d = idx.shape[0]
        node.left = self._grow(
            g, h, rows[left], idx[sorted_left].reshape(d, -1),
            xs[sorted_left].reshape(d, -1), depth + 1, out)
        node.right = self._grow(
            g, h, rows[~left], idx[sorted_right].reshape(d, -1),
            xs[sorted_right].reshape(d, -1), depth + 1, out)
        return node


def _tree_depth(node):
    """Depth of the deepest leaf; a lone leaf has depth 0."""
    if node.is_leaf:
        return 0
    return 1 + max(_tree_depth(node.left), _tree_depth(node.right))


def _tree_predict(node, x):
    out = np.empty(x.shape[0])
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        nd, rows = stack.pop()
        if nd.is_leaf:
            out[rows] = nd.leaf_value
            continue
        mask = x[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[mask]))
        stack.append((nd.right, rows[~mask]))
    return out


def _logloss(y, prob):
    eps = 1e-12
    p = np.clip(prob, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass
class GbtModel:
    trees: list
    config: GbtConfig
    best_iteration: int         # number of trees actually used
    feature_names: list
    train_logloss: list
    eval_logloss: list

    def predict_raw(self, x):
        x = np.asarray(x, dtype=np.float64)
        raw = np.zeros(x.shape[0])
        for tree in self.trees[:self.best_iteration]:
            raw += self.config.eta * _tree_predict(tree, x)
        return raw

    def predict_proba(self, x):
        return 1.0 / (1.0 + np.exp(-self.predict_raw(x)))

    def predict(self, x):
        return (self.predict_proba(x) >= 0.5).astype(int)

    def to_dict(self):
        return {
            "kind": "gbt",
            "config": {"max_depth": self.config.max_depth,
                       "eta": self.config.eta, "gamma": self.config.gamma,
                       "lambda": self.config.lambda_},
            "best_iteration": self.best_iteration,
            "feature_names": list(self.feature_names),
            "trees": [t.to_dict()
                      for t in self.trees[:self.best_iteration]],
        }


def gbt_train(x, y, cfg=GbtConfig(), eval_set=None, feature_names=None):
    """Boost depth-limited regression trees on the logistic objective.

    Split gain and leaf weights follow the second-order expansion; splits
    with non-positive gain are rejected. When an eval set is given,
    boosting stops once its logloss has not improved for
    early_stopping_rounds, and the best round is kept.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains non-finite values")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("training labels contain a single class")
    if feature_names is None:
        feature_names = ["f%d" % i for i in range(x.shape[1])]

    raw = np.zeros(x.shape[0])
    raw_eval = None
    if eval_set is not None:
        x_eval = np.asarray(eval_set[0], dtype=np.float64)
        y_eval = np.asarray(eval_set[1], dtype=np.float64)
        raw_eval = np.zeros(x_eval.shape[0])

    trees = []
    train_hist = []
    eval_hist = []
    best_eval = math.inf
    best_round = 0
    builder = _TreeBuilder(x, cfg)
    for rnd in range(cfg.n_rounds):
        prob = 1.0 / (1.0 + np.exp(-raw))
        g = prob - y
        h = prob * (1.0 - prob)
        tree, leaf_values = builder.build(g, h)
        trees.append(tree)
        raw += cfg.eta * leaf_values
        train_hist.append(_logloss(y, 1.0 / (1.0 + np.exp(-raw))))
        if raw_eval is not None:
            raw_eval += cfg.eta * _tree_predict(tree, x_eval)
            ll = _logloss(y_eval, 1.0 / (1.0 + np.exp(-raw_eval)))
            eval_hist.append(ll)
            if ll < best_eval - 1e-12:
                best_eval = ll
                best_round = rnd + 1
            elif rnd + 1 - best_round >= cfg.early_stopping_rounds:
                break
    best_iteration = best_round if raw_eval is not None else len(trees)
    if best_iteration == 0:
        best_iteration = 1
    return GbtModel(trees=trees, config=cfg, best_iteration=best_iteration,
                    feature_names=list(feature_names),
                    train_logloss=train_hist, eval_logloss=eval_hist)


def gbt_importance(model):
    """Total realized split gain per feature, descending; ties by name.

    Features never split do not appear.
    """
    totals = {}
    for tree in model.trees[:model.best_iteration]:
        stack = [tree]
        while stack:
            nd = stack.pop()
            if nd.is_leaf:
                continue
            name = model.feature_names[nd.feature]
            totals[name] = totals.get(name, 0.0) + nd.gain
            stack.append(nd.left)
            stack.append(nd.right)
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


# ---------------------------------------------------------------------------
# z-scoring (fit on training rows only)

@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x):
        mean = x.mean(axis=0)
        std = x.std(axis=0, ddof=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, x):
        return (x - self.mean) / self.std


# ---------------------------------------------------------------------------
# KNN

@dataclass
class KnnModel:
    """Instance-based model: the training set plus k."""

    train_x: np.ndarray
    train_y: np.ndarray
    k: int

    def predict(self, x):
        return knn_predict(self.train_x, self.train_y, x, self.k)

    def to_dict(self):
        return {"kind": "knn", "k": self.k,
                "train_x": self.train_x.tolist(),
                "train_y": self.train_y.tolist()}


def knn_predict(train_x, train_y, test_x, k):
    """Majority vote over the k nearest z-scored Euclidean neighbors.

    The scaler is fit on the training rows only. A tied vote falls back
    to the label of the single nearest neighbor.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=int)
    if k > train_x.shape[0]:
        raise ValueError("k=%d exceeds training size %d"
                         % (k, train_x.shape[0]))
    scaler = Scaler.fit(train_x)
    a = scaler.transform(train_x)
    b = scaler.transform(test_x)
    d2 = ((b[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    out = np.empty(test_x.shape[0], dtype=int)
    for i in range(test_x.shape[0]):
        order = np.argsort(d2[i], kind="stable")
        votes = train_y[order[:k]]
        ones = int(votes.sum())
        if ones * 2 > k:
            out[i] = 1
        elif ones * 2 < k:
            out[i] = 0
        else:
            out[i] = train_y[order[0]]
    return out


# ---------------------------------------------------------------------------
# SVM (RBF kernel, SMO)

@dataclass
class SvmModel:
    support_x: np.ndarray
    support_coef: np.ndarray   # alpha_i * y_i for support vectors
    bias: float
    gamma_rbf: float
    scaler: Scaler

    def decision(self, x):
        x = self.scaler.transform(np.asarray(x, dtype=np.float64))
        k = _rbf(self.support_x, x, self.gamma_rbf)
        return self.support_coef @ k + self.bias

    def predict(self, x):
        return (self.decision(x) >= 0.0).astype(int)

    def to_dict(self):
        return {"kind": "svm", "gamma_rbf": self.gamma_rbf,
                "bias": self.bias,
                "support_coef": self.support_coef.tolist(),
                "support_x": self.support_x.tolist()}


def _rbf(a, b, gamma):
    d2 = (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.clip(d2, 0.0, None))


def svm_train(x, y, c=1.0, gamma_rbf="scale", tol=1e-3, max_passes=200):
    """Soft-margin RBF SVM fit by sequential minimal optimization.

    gamma_rbf="scale" resolves to 1 / (n_features * var(X)) on the
    z-scored training data. Deterministic: the partner index is chosen by
    the maximal |E_i - E_j| heuristic.
    """
    x = np.asarray(x, dtype=np.float64)
    y01 = np.asarray(y, dtype=int)
    if np.unique(y01).size < 2:
        raise ValueError("training labels contain a single class")
    scaler = Scaler.fit(x)
    xs = scaler.transform(x)
    if gamma_rbf == "scale":
        var = float(xs.var())
        gamma_rbf = 1.0 / (xs.shape[1] * var) if var > 0 else 1.0
    ysgn = np.where(y01 == 1, 1.0, -1.0)
    n = xs.shape[0]
    k = _rbf(xs, xs, gamma_rbf)
    alpha = np.zeros(n)
    bias = 0.0

    def decision_all():
        return (alpha * ysgn) @ k + bias

    passes = 0
    while passes < max_passes:
        changed = 0
        err = decision_all() - ysgn
        for i in range(n):
            e_i = err[i]
            r_i = e_i * ysgn[i]
            if not ((r_i < -tol and alpha[i] < c)
                    or (r_i > tol and alpha[i] > 0)):
                continue
            j = int(np.argmax(np.abs(err - e_i)))
            if j == i:
                continue
            e_j = err[j]
            a_i_old, a_j_old = alpha[i], alpha[j]
            if ysgn[i] != ysgn[j]:
                low = max(0.0, a_j_old - a_i_old)
                high = min(c, c + a_j_old - a_i_old)
            else:
                low = max(0.0, a_i_old + a_j_old - c)
                high = min(c, a_i_old + a_j_old)
            if high - low < 1e-12:
                continue
            eta = 2.0 * k[i, j] - k[i, i] - k[j, j]
            if eta >= 0:
                continue
            a_j = a_j_old - ysgn[j] * (e_i - e_j) / eta
            a_j = min(high, max(low, a_j))
            if abs(a_j - a_j_old) < 1e-7:
                continue
            a_i = a_i_old + ysgn[i] * ysgn[j] * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j
            b1 = bias - e_i - ysgn[i] * (a_i - a_i_old) * k[i, i] \
                - ysgn[j] * (a_j - a_j_old) * k[i, j]
            b2 = bias - e_j - ysgn[i] * (a_i - a_i_old) * k[i, j] \
                - ysgn[j] * (a_j - a_j_old) * k[j, j]
            if 0.0 < a_i < c:
                bias = b1
            elif 0.0 < a_j < c:
                bias = b2
            else:
                bias = 0.5 * (b1 + b2)
            err = decision_all() - ysgn
            changed += 1
        if changed == 0:
            break
        passes += 1
    sv = alpha > 1e-9
    return SvmModel(support_x=xs[sv], support_coef=(alpha * ysgn)[sv],
                    bias=bias, gamma_rbf=gamma_rbf, scaler=scaler)


# ---------------------------------------------------------------------------
# splits, cross-validation, grid search

def stratified_folds(labels, n_folds, seed):
    """Assign each row to one of n_folds, preserving class proportions.

    Raises when any class has fewer members than n_folds.
    """
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=int)
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < n_folds:
            raise ValueError("class %d has %d members, cannot stratify "
                             "%d folds" % (cls, idx.size, n_folds))
        perm = rng.permutation(idx)
        fold_of[perm] = np.arange(perm.size) % n_folds
    return fold_of


def stratified_split(labels, test_fraction, seed):
    """Stratified (train_idx, test_idx) split preserving class balance."""
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls in np.unique(labels):
        idx = rng.permutation(np.nonzero(labels == cls)[0])
        n_test = int(round(idx.size * test_fraction))
        test_idx.extend(idx[:n_test])
    test_mask = np.zeros(labels.size, dtype=bool)
    test_mask[test_idx] = True
    return np.nonzero(~test_mask)[0], np.nonzero(test_mask)[0]


def _config_sort_key(cfg):
    def token(v):
        return (0, float(v), "") if isinstance(v, (int, float)) \
            else (1, 0.0, str(v))
    return tuple(sorted((k, token(v)) for k, v in cfg.items()))


def _fit_predict(kind, train_x, train_y, test_x, cfg):
    if kind == "svm":
        model = svm_train(train_x, train_y, c=cfg["c"],
                          gamma_rbf=cfg["gamma_rbf"])
        return model.predict(test_x)
    if kind == "knn":
        return KnnModel(train_x, np.asarray(train_y, dtype=int),
                        cfg["k"]).predict(test_x)
    raise ValueError("unknown classifier %r" % kind)


def _gbt_fit_predict(fits, fold, train_x, train_y, test_x, test_y, cfg,
                     seed, gbt_base, eval_on_test):
    """GBT fold predictions, fitting once per distinct model.

    A model grown under cap D whose deepest leaf sits at depth s < D never
    met its cap, so every cap D' >= s grows it tree for tree. `fits` maps
    (fold, config without max_depth) to (lowest cap, highest cap,
    predictions) for the models fitted so far.
    """
    full = replace(gbt_base or GbtConfig(), **cfg)
    slot = fits.setdefault((fold, replace(full, max_depth=0)), [])
    cap = full.max_depth
    for lo, hi, pred in slot:
        if lo <= cap <= hi:
            return pred
    if eval_on_test:
        # laxer historical protocol: early stopping watches the CV test
        # fold itself
        model = gbt_train(train_x, train_y, full, eval_set=(test_x, test_y))
    else:
        tr_idx, ev_idx = stratified_split(train_y, 0.2, seed)
        model = gbt_train(train_x[tr_idx], train_y[tr_idx], full,
                          eval_set=(train_x[ev_idx], train_y[ev_idx]))
    pred = model.predict(test_x)
    depth = max(_tree_depth(t) for t in model.trees)
    slot.append((depth, math.inf, pred) if depth < cap else (cap, cap, pred))
    return pred


def cross_validate(x, y, classifier, grid=None, seed=0, n_folds=5,
                   gbt_base=None, selector=None, instrument=None,
                   eval_on_test_fold=False, return_all=False):
    """Stratified k-fold CV with a small grid search.

    For every grid point the mean fold accuracy is computed; the best
    configuration (ties broken by lexicographically smallest config) is
    reported with its per-fold accuracies. GBT early stopping uses a 20%
    stratified carve-out of each training fold; eval_on_test_fold=True
    switches to the laxer protocol that watches the test fold instead.
    `selector(train_x, train_y) -> column indices` enables leakage-free
    in-fold feature selection. `instrument` receives
    (fold, train_idx, test_idx) for leakage audits. With return_all, one
    CvResult per grid point is returned instead of the best one.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if grid is None:
        grid = DEFAULT_GRIDS[classifier]
    fold_of = stratified_folds(y, n_folds, seed)

    fold_data = []
    for fold in range(n_folds):
        test_idx = np.nonzero(fold_of == fold)[0]
        train_idx = np.nonzero(fold_of != fold)[0]
        if instrument is not None:
            instrument(fold, train_idx, test_idx)
        cols = None
        if selector is not None:
            cols = selector(x[train_idx], y[train_idx])
            if not len(cols):
                cols = None  # no informative column; fall back to all
        fold_data.append((train_idx, test_idx, cols))

    results = []
    gbt_fits = {}
    for cfg in grid:
        accs = []
        confusions = []
        for fold, (train_idx, test_idx, cols) in enumerate(fold_data):
            tx, sx = x[train_idx], x[test_idx]
            if cols is not None:
                tx, sx = tx[:, cols], sx[:, cols]
            if classifier == "gbt":
                pred = _gbt_fit_predict(
                    gbt_fits, fold, tx, y[train_idx], sx, y[test_idx], cfg,
                    seed * 1000003 + fold, gbt_base, eval_on_test_fold)
            else:
                pred = _fit_predict(classifier, tx, y[train_idx], sx, cfg)
            truth = y[test_idx]
            accs.append(float(np.mean(pred == truth)))
            tn = int(np.sum((pred == 0) & (truth == 0)))
            fp = int(np.sum((pred == 1) & (truth == 0)))
            fn = int(np.sum((pred == 0) & (truth == 1)))
            tp = int(np.sum((pred == 1) & (truth == 1)))
            confusions.append((tn, fp, fn, tp))
        results.append((float(np.mean(accs)), cfg, accs, confusions))

    def to_result(entry):
        mean_acc, cfg, accs, confusions = entry
        spread = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        return CvResult(fold_accuracies=accs, mean_accuracy=mean_acc,
                        spread=spread, best_config=dict(cfg),
                        fold_confusions=confusions, classifier=classifier)

    if return_all:
        return [to_result(r) for r in results]
    best_mean = max(r[0] for r in results)
    best = min((r for r in results if r[0] == best_mean),
               key=lambda r: _config_sort_key(r[1]))
    return to_result(best)


def train_final(x, y, cfg=GbtConfig(), split_seed=0, feature_names=None):
    """Stratified 80/20 holdout fit of the boosted-tree model.

    Early stopping runs on an internal carve-out of the training portion.
    Returns (model, holdout_accuracy, ranked importance).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    train_idx, test_idx = stratified_split(y, 0.2, split_seed)
    tr_idx, ev_idx = stratified_split(y[train_idx], 0.2, split_seed + 1)
    model = gbt_train(x[train_idx][tr_idx], y[train_idx][tr_idx], cfg,
                      eval_set=(x[train_idx][ev_idx], y[train_idx][ev_idx]),
                      feature_names=feature_names)
    acc = float(np.mean(model.predict(x[test_idx]) == y[test_idx]))
    return model, acc, gbt_importance(model)
