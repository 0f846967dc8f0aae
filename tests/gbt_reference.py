"""Reference boosted-tree trainer: one recursive call per node.

This is the node-at-a-time builder and boosting loop that
`classify._boost` replaced, kept as the oracle that the lockstep engine
must match byte for byte. It returns `classify.GbtModel`s built from
`classify.TreeNode`s, so both sides are compared in one form. The
library scores rows only inside its engine; the tree walk and predictor
here score a model's trees for the tests.
"""

import math

import numpy as np

from eegsweep.classify import GbtModel, TreeNode


class TreeBuilder:
    """Greedy exact split search, vectorized over all features at once.

    Features are argsorted once per training. Each node holds its own rows
    in that presorted order (a d x k index matrix and the matching values)
    and hands a stable partition of both to its children.
    """

    def __init__(self, x, cfg):
        self.x = x
        self.cfg = cfg
        order = np.argsort(x, axis=0, kind="stable")
        self.root_idx = np.ascontiguousarray(order.T)
        self.root_xs = np.take_along_axis(x, order, 0).T.copy()
        self.root_rows = np.arange(x.shape[0])

    def build(self, g, h):
        out = np.empty(self.x.shape[0])
        tree = self._grow(g, h, self.root_rows, self.root_idx, self.root_xs,
                          0, out)
        return tree, out

    def _grow(self, g, h, rows, idx, xs, depth, out):
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


def tree_predict(node, x):
    """Each row's leaf value, reached by `x[:, feature] <= threshold`."""
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


def predict_raw(model, x):
    """Raw score of the model's first best_iteration trees, added in
    boosting order."""
    x = np.asarray(x, dtype=np.float64)
    raw = np.zeros(x.shape[0])
    for tree in model.trees[:model.best_iteration]:
        raw += model.config.eta * tree_predict(tree, x)
    return raw


def predict(model, x):
    return (1.0 / (1.0 + np.exp(-predict_raw(model, x))) >= 0.5).astype(int)


def tree_depth(node):
    """Depth of the deepest leaf; a lone leaf has depth 0."""
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def logloss(y, prob):
    eps = 1e-12
    p = np.clip(prob, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def gbt_train(x, y, cfg, eval_set=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    raw = np.zeros(x.shape[0])
    raw_eval = None
    if eval_set is not None:
        x_eval = np.asarray(eval_set[0], dtype=np.float64)
        y_eval = np.asarray(eval_set[1], dtype=np.float64)
        raw_eval = np.zeros(x_eval.shape[0])
    trees = []
    eval_hist = []
    best_eval = math.inf
    best_round = 0
    builder = TreeBuilder(x, cfg)
    for rnd in range(cfg.n_rounds):
        prob = 1.0 / (1.0 + np.exp(-raw))
        g = prob - y
        h = prob * (1.0 - prob)
        tree, leaf_values = builder.build(g, h)
        trees.append(tree)
        raw += cfg.eta * leaf_values
        if raw_eval is not None:
            raw_eval += cfg.eta * tree_predict(tree, x_eval)
            ll = logloss(y_eval, 1.0 / (1.0 + np.exp(-raw_eval)))
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
                    feature_names=["f%d" % i for i in range(x.shape[1])],
                    eval_logloss=eval_hist)
