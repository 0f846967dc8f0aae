"""From-scratch classifiers and cross-validation.

Gradient-boosted trees optimize the second-order binary logistic
objective with gain-based splits; the SVM solves the soft-margin dual by
sequential minimal optimization; KNN votes over z-scored Euclidean
neighbors. Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import numbers
import warnings
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

#: Stratified folds of every cross-validation.
N_FOLDS = 5


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
    error: Exception = None  # why a dropped grid point failed


# ---------------------------------------------------------------------------
# gradient-boosted trees

@dataclass(slots=True)
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


def _sigmoid(raw):
    return 1.0 / (1.0 + np.exp(-raw))


def _logloss(y, prob):
    """Mean logloss along the last axis: one value per row of a matrix."""
    eps = 1e-12
    p = np.clip(prob, eps, 1.0 - eps)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)


@dataclass
class GbtModel:
    """A fitted booster, the record of trees and split gains that
    `gbt_importance` reads. It has no predictor: rows are scored inside
    the lockstep engine, which routes them down the trees as it grows
    them."""
    trees: list
    config: GbtConfig
    best_iteration: int         # number of trees actually used
    feature_names: list
    eval_logloss: list
    test_raw: np.ndarray = None  # raw score of the test rows, best round


#: Padded elements (boosters x features x rows) of one lockstep wave's
#: root level; more pending fits than that are grown in several waves.
_WAVE_ELEMENTS = 1 << 18
#: Padded elements (row positions x nodes x features) that one pass of
#: the split search or the partition works on; larger levels are cut,
#: which bounds the memory of a deep level with many nodes.
_CHUNK_ELEMENTS = 1 << 15


@dataclass
class _Fit:
    """One pending booster: float64 training rows and labels, its config,
    the (x, y) set that early stopping watches or None, and, for a
    watched fit, the rows whose raw score at the best round is
    returned."""
    x: np.ndarray
    y: np.ndarray
    cfg: GbtConfig
    eval_set: tuple = None
    test_x: np.ndarray = None


def _check_columns(x):
    if x.shape[1] == 0:
        raise ValueError("feature matrix has no columns")


def _check_fit_data(x, y):
    _check_columns(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains non-finite values")
    if np.unique(y).size < 2:
        raise ValueError("training labels contain a single class")


def _boost(fits):
    """Boost every fit in lockstep; one (model, test raw score, depth of
    the deepest leaf of any tree) per fit, in order."""
    out, wave = [], []
    for fit in fits:
        grown = wave + [fit]
        if wave and len(grown) * max(f.x.shape[1] for f in grown) \
                * max(f.x.shape[0] for f in grown) > _WAVE_ELEMENTS:
            out += _Wave(wave).run()
            grown = [fit]
        wave = grown
    return out + (_Wave(wave).run() if wave else [])


def _node_sums(gh, rows, node, k):
    """Gradient and hessian sums of each node over exactly its k rows.

    `rows` are the live training rows, ascending, and `node` their nodes.
    Laid out node by node in order of k, ascending within a node, the
    rows of the nodes of one k form a (nodes, k) block; summed along the
    last axis of a C-ordered `np.take`, each node's terms are grouped by
    numpy's pairwise summation as for the node alone.
    """
    order = np.argsort(k, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rows = rows[np.argsort(rank[node], kind="stable")]
    ks = k[order]
    edges = [0, *(np.flatnonzero(np.diff(ks)) + 1).tolist(), k.size]
    sums = np.empty((2, k.size))
    lo = 0
    for a, b in zip(edges, edges[1:]):
        hi = lo + (b - a) * int(ks[a])
        sums[:, order[a:b]] = np.take(
            gh, rows[lo:hi].reshape(b - a, -1), axis=1).sum(axis=2)
        lo = hi
    return sums


def _chunks(k, d):
    """(slice, width) pieces of nodes listed in descending k: each piece
    pads its nodes to its first node's k and holds about _CHUNK_ELEMENTS
    padded elements, at least one node."""
    out, a = [], 0
    while a < k.size:
        width = int(k[a])
        b = min(k.size, a + max(1, _CHUNK_ELEMENTS // (width * d)))
        out.append((slice(a, b), width))
        a = b
    return out


def _best_splits(wave, idx, g_sum, h_sum, lam, gamma, min_hess):
    """Exact greedy split search for a level of nodes at once.

    idx is (row position, node, feature): each node's rows presorted
    by every feature, padded at the end with the sentinel row m
    (gradient and hessian 0, features NaN). Prefix sums over the padding
    stay those of the node alone, and the first maximum in (feature,
    cut) order wins, as in a node-at-a-time search; the gain is the same
    expression, evaluated in place. A cut needs distinct values on its
    two sides, so none reaches into the padding, whose values are NaN.
    Returns each node's feature, threshold and gain; a gain <= 0 means
    no split.
    """
    gh, x = wave.gh, wave.x
    width, n, d = idx.shape
    g_sum, h_sum, lam = g_sum[:, None], h_sum[:, None], lam[:, None]
    gl, hl = sums = np.take(gh, idx[:-1], axis=1, mode="clip")
    for i in range(1, width - 1):   # cumsum's order, across all nodes
        sums[:, i] += sums[:, i - 1]
    gr = g_sum - gl
    hr = h_sum - hl
    xs = np.take(x, idx * d + np.arange(d))
    bad = ~(xs[1:] > xs[:-1])
    min_hess = min_hess[:, None]
    bad |= hl < min_hess
    bad |= hr < min_hess
    gain = np.square(gl, out=gl)
    hl += lam
    gain /= hl
    np.square(gr, out=gr)
    hr += lam
    gr /= hr
    gain += gr
    gain -= g_sum * g_sum / (h_sum + lam)
    gain *= 0.5
    gain -= gamma[:, None]
    np.copyto(gain, -np.inf, where=bad)
    # the first feature holding the node's maximum, then its first cut
    nodes = np.arange(n)
    feat = gain.max(axis=0).argmax(axis=1)
    column = gain[:, nodes, feat]
    cut = column.argmax(axis=0)
    thr = 0.5 * (x[idx[cut, nodes, feat], feat]
                 + x[idx[cut + 1, nodes, feat], feat])
    return feat, thr, column[cut, nodes]


def _partition(idx, fill, left):
    """Stable partition of each node's padded rows between its two
    children.

    idx and the `left` mask are (row position, node, feature). Returns
    (row position, child, feature) with children 2i and 2i + 1 of node
    i, padded with `fill`. A row moves to the count of its side's rows
    before it; padding goes right, where it lands in the right child's
    padding.
    """
    k, nodes, d = left.shape
    step = nodes * 2 * d
    shift = left.astype(np.intp)
    for i in range(1, k):
        shift[i] += shift[i - 1]
    shift *= step
    # flat (row position, node, side, feature) destination
    dest = (np.arange(k) * step + d)[:, None, None] - shift
    shift -= dest
    shift -= step
    shift *= left
    dest += shift
    dest += np.arange(nodes)[:, None] * 2 * d + np.arange(d)
    half = np.full((k, nodes * 2, d), fill)
    half.ravel()[dest] = idx
    return half


class _Wave:
    """Boosters grown in lockstep, each round one tree level per pass.

    All boosters' rows share one row space: the training rows, a
    sentinel row m with gradient and hessian 0 and NaN features, then
    the eval and test rows ("routed" rows). Every row follows its
    booster's tree down by `x[:, feature] <= threshold`, the comparison
    that splits training rows, until it reaches a leaf. A searched node
    holds its training rows presorted by each feature, padded with the
    sentinel, in arrays whose first axis is the row position, so each
    cumsum runs across all nodes at once; its children get a stable
    partition of them. No sum, split or tie-break differs from growing
    each booster alone.
    """

    def __init__(self, fits):
        self.fits = fits
        cfgs = [f.cfg for f in fits]
        ns = [f.x.shape[0] for f in fits]
        ds = [f.x.shape[1] for f in fits]
        # routed rows: every eval set, then every test set
        routed = [(b, f.eval_set[0]) for b, f in enumerate(fits)
                  if f.eval_set is not None] \
            + [(b, f.test_x) for b, f in enumerate(fits)
               if f.test_x is not None]
        sizes = [a.shape[0] for _, a in routed]
        blocks = [f.x for f in fits] + [np.full((1, 0), np.nan)] \
            + [a for _, a in routed]
        owner = list(range(len(fits))) + [-1] + [b for b, _ in routed]
        off = np.cumsum([0] + [a.shape[0] for a in blocks])
        m = int(off[len(fits)])
        self.m, self.n = m, np.array(ns)
        self.x = np.full((int(off[-1]), max(ds)), np.nan)
        for a, lo in zip(blocks, off):
            self.x[lo:lo + a.shape[0], :a.shape[1]] = a
        self.row_booster = np.repeat(owner, np.diff(off))
        self.eta_rows = np.array([c.eta for c in cfgs] + [0.0])[
            self.row_booster]
        width = max(ns)
        root_idx = np.full((width, len(fits), max(ds)), m)
        for b, f in enumerate(fits):
            root_idx[:ns[b], b, :ds[b]] = np.argsort(f.x, axis=0,
                                                     kind="stable") + off[b]
        self.root_idx = root_idx
        self.y = np.concatenate([f.y for f in fits], dtype=np.float64)
        self.lam = np.array([c.lambda_ for c in cfgs])
        self.gamma = np.array([c.gamma for c in cfgs])
        self.min_hess = np.array([c.min_child_hessian for c in cfgs])
        self.cap = np.array([c.max_depth for c in cfgs])
        # eval sets grouped by length, as (boosters, row index matrix)
        starts = off[len(fits) + 1:] - (m + 1)
        n_eval = sum(f.eval_set is not None for f in fits)
        self.eval_y = np.concatenate(
            [f.eval_set[1] for f in fits if f.eval_set is not None] + [[]],
            dtype=np.float64)
        self.eval_groups = []
        for size in sorted(set(sizes[:n_eval])):
            sel = [i for i in range(n_eval) if sizes[i] == size]
            self.eval_groups.append((
                [routed[i][0] for i in sel],
                starts[sel][:, None] + np.arange(size)))
        self.test_rows = {routed[i][0]: slice(starts[i], starts[i + 1])
                          for i in range(n_eval, len(routed))}
        self.gh = np.zeros((2, m + 1))

    def run(self):
        fits, nb, m = self.fits, len(self.fits), self.m
        trees = [[] for _ in range(nb)]
        hist = [[] for _ in range(nb)]
        best_eval, best_round = [math.inf] * nb, [0] * nb
        test_raw = [None] * nb
        depth = np.zeros(nb, dtype=int)
        rounds = np.array([f.cfg.n_rounds for f in fits])
        stopped = np.zeros(nb, dtype=bool)
        raw = np.zeros(self.x.shape[0])
        for rnd in range(int(rounds.max())):
            active = ~stopped & (rnd < rounds)
            if not active.any():
                break
            prob = _sigmoid(raw[:m])
            self.gh[0, :-1] = prob - self.y
            self.gh[1, :-1] = prob * (1.0 - prob)
            raw += self.eta_rows * self._grow(np.flatnonzero(active), trees,
                                              depth)
            raw_routed = raw[m + 1:]
            prob_routed = _sigmoid(raw_routed[:self.eval_y.size])
            for boosters, rows in self.eval_groups:
                losses = _logloss(self.eval_y[rows], prob_routed[rows])
                for b, ll in zip(boosters, losses.tolist()):
                    if not active[b]:
                        continue
                    hist[b].append(ll)
                    if ll < best_eval[b] - 1e-12:
                        best_eval[b] = ll
                        best_round[b] = rnd + 1
                    elif rnd + 1 - best_round[b] \
                            >= fits[b].cfg.early_stopping_rounds:
                        stopped[b] = True
                    if b in self.test_rows and (rnd == 0
                                                or best_round[b] == rnd + 1):
                        test_raw[b] = raw_routed[self.test_rows[b]].copy()
        out = []
        for b, f in enumerate(fits):
            best = len(trees[b]) if f.eval_set is None \
                else best_round[b] or 1
            model = GbtModel(trees=trees[b], config=f.cfg,
                             best_iteration=best, feature_names=None,
                             eval_logloss=hist[b], test_raw=test_raw[b])
            out.append((model, test_raw[b], int(depth[b])))
        return out

    def _grow(self, active, trees, depth):
        """One tree for each active booster; returns every row's leaf
        value (0 for rows of other boosters)."""
        m = self.m
        # a level lists its searched nodes first, by descending k; idx
        # holds their rows
        searched = (self.cap[active] > 0) & (self.n[active] >= 2)
        first = active[searched]
        booster = np.concatenate([
            first[np.argsort(-self.n[first], kind="stable")],
            active[~searched]])
        k = self.n[booster]
        n_search = int(searched.sum())
        idx = np.take(self.root_idx, booster[:n_search], axis=1, mode="clip")
        nodes = [TreeNode() for _ in booster]
        for b, node in zip(booster.tolist(), nodes):
            trees[b].append(node)
        level_of = np.full(len(self.fits) + 1, -1)
        level_of[booster] = np.arange(booster.size)
        node_of = level_of[self.row_booster]    # -1 once in a leaf
        leaf_value = np.zeros(node_of.size)
        level = 0
        while True:
            depth[booster] = np.maximum(depth[booster], level)
            live = np.flatnonzero(node_of >= 0)  # training rows come first
            at = node_of[live]
            train = int(k.sum())
            g_sum, h_sum = _node_sums(self.gh, live[:train], at[:train], k)
            lam = self.lam[booster]
            leaf = -g_sum / (h_sum + lam)
            split = np.zeros(booster.size, dtype=bool)
            if n_search:
                s = booster[:n_search]
                feat, thr, gain = (np.concatenate(part) for part in zip(*(
                    _best_splits(self, idx[:width, c], g_sum[c], h_sum[c],
                                 lam[c], self.gamma[s[c]],
                                 self.min_hess[s[c]])
                    for c, width in _chunks(k[:n_search], idx.shape[2]))))
                split[:n_search] = ~(gain <= 0.0)
            ends = ~split[at]
            leaf_value[live[ends]] = leaf[at[ends]]
            node_of[live[ends]] = -1
            done = np.flatnonzero(~split)
            for i, v in zip(done.tolist(), leaf[done].tolist()):
                nodes[i].leaf_value = v
            sp = np.flatnonzero(split)
            if not sp.size:
                return leaf_value
            # send each row left or right: child 2i or 2i + 1 of split i;
            # then list the children, searched ones first by descending k
            go, at = live[~ends], at[~ends]
            left = self.x[go, feat[at]] <= thr[at]
            child = 2 * (np.cumsum(split) - 1)[at] + ~left
            train = int(k[sp].sum())
            child_k = np.bincount(child[:train], minlength=2 * sp.size)
            child_booster = np.repeat(booster[sp], 2)
            child_searched = (level + 1 < self.cap[child_booster]) \
                & (child_k >= 2)
            searched = np.flatnonzero(child_searched)
            searched = searched[np.argsort(-child_k[searched], kind="stable")]
            order = np.concatenate([searched,
                                    np.flatnonzero(~child_searched)])
            slot = np.empty_like(order)
            slot[order] = np.arange(order.size)
            node_of[go] = slot[child]
            if searched.size:
                parents = np.flatnonzero(child_searched.reshape(-1, 2)
                                         .any(axis=1))
                goes_left = np.zeros(m + 1, dtype=bool)
                goes_left[go[:train]] = left[:train]
                d = idx.shape[2]
                new = np.full((int(child_k[searched[0]]), searched.size, d),
                              m)
                for c, width in _chunks(k[sp[parents]], d):
                    p_idx = np.take(idx[:width], sp[parents[c]], axis=1,
                                    mode="clip")
                    half = _partition(p_idx, m, np.take(goes_left, p_idx,
                                                        mode="clip"))
                    # column j of the piece is child 2p + j % 2 of its
                    # (j // 2)-th parent p
                    ids = (2 * parents[c][:, None] + [0, 1]).ravel()
                    keep = child_searched[ids]
                    width = min(width, new.shape[0])
                    new[:width, slot[ids[keep]]] = half[:width, keep]
                idx = new
            children = [TreeNode() for _ in order]
            for p, f, t, g, a, b in zip(
                    sp.tolist(), feat[sp].tolist(),
                    thr[sp].tolist(), gain[sp].tolist(),
                    slot[0::2].tolist(), slot[1::2].tolist()):
                node = nodes[p]
                node.feature, node.threshold, node.gain = f, t, g
                node.left, node.right = children[a], children[b]
            nodes = children
            booster, k = child_booster[order], child_k[order]
            n_search = searched.size
            level += 1


def gbt_train(x, y, cfg=GbtConfig(), eval_set=None, feature_names=None,
              test_x=None):
    """Boost depth-limited regression trees on the logistic objective.

    Split gain and leaf weights follow the second-order expansion; splits
    with non-positive gain are rejected. When an eval set is given,
    boosting stops once its logloss has not improved for
    early_stopping_rounds, and the best round is kept; the raw score of
    test_x's rows at that round is the model's test_raw (a fit without
    an eval set scores none). Features are named by `feature_names`, or
    f0, f1, ...
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_fit_data(x, y)
    if eval_set is not None:
        eval_set = tuple(np.asarray(a, dtype=np.float64) for a in eval_set)
    model = _boost([_Fit(x, y, cfg, eval_set, test_x)])[0][0]
    model.feature_names = list(feature_names) if feature_names is not None \
        else ["f%d" % i for i in range(x.shape[1])]
    return model


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
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    ones = train_y[nearest].sum(axis=1) * 2
    return np.where(ones > k, 1, np.where(ones < k, 0, train_y[nearest[:, 0]]))


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


def _rbf(a, b, gamma):
    d2 = (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.clip(d2, 0.0, None))


def svm_train(x, y, c=1.0, gamma_rbf="scale"):
    """Soft-margin RBF SVM fit by sequential minimal optimization.

    gamma_rbf="scale" resolves to 1 / (n_features * var(X)) on the
    z-scored training data. Deterministic: the partner index is chosen by
    the maximal |E_i - E_j| heuristic. KKT violations beyond 1e-3 are
    optimized for at most 200 passes.
    """
    tol = 1e-3
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
    while passes < 200:
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


def check_point(classifier, point):
    """Raise ValueError where an svm or knn grid point sets a value that
    no fit runs with: k must be an int >= 1, c > 0, and gamma_rbf
    "scale" or > 0. GbtConfig checks a gbt point."""
    def positive(v, kind=numbers.Real):
        return isinstance(v, kind) and not isinstance(v, bool) and v > 0
    if classifier == "knn" and not positive(point["k"], numbers.Integral):
        raise ValueError("k must be an int >= 1")
    if classifier == "svm" and not positive(point["c"]):
        raise ValueError("c must be > 0")
    if classifier == "svm" and point["gamma_rbf"] != "scale" \
            and not positive(point["gamma_rbf"]):
        raise ValueError('gamma_rbf must be "scale" or > 0')


def _fit_predict(kind, train_x, train_y, test_x, cfg):
    if kind == "svm":
        model = svm_train(train_x, train_y, c=cfg["c"],
                          gamma_rbf=cfg["gamma_rbf"])
        return model.predict(test_x)
    if kind == "knn":
        return knn_predict(train_x, train_y, test_x, cfg["k"])
    raise ValueError("unknown classifier %r" % kind)


def _gbt_predictions(folds, grid, seed, eval_on_test):
    """Each grid point's fold predictions, or the ValueError that one of
    its fits raised, from as few boosters as the grid allows.

    A model grown under cap D whose deepest leaf sits at depth s < D never
    met its cap, so every cap D' >= s grows it tree for tree. Grid points
    that differ only in max_depth form one chain per fold. One wave grows
    every chain's deepest cap, a second each cap below that fit's deepest
    leaf. A second-wave fit meets its cap, or it would equal the first,
    so none covers another.
    """
    fold_fits = []      # (x, y, eval_set) per fold, or its data error
    for fold, (tx, ty, sx, sy) in enumerate(folds):
        if eval_on_test:
            # laxer historical protocol: early stopping watches the CV
            # test fold itself
            fit = (tx, ty, (sx, sy))
        else:
            tr, ev = stratified_split(ty, 0.2, seed * 1000003 + fold)
            fit = (tx[tr], ty[tr], (tx[ev], ty[ev]))
        try:
            _check_fit_data(fit[0], fit[1])
        except ValueError as exc:
            fit = exc
        fold_fits.append(fit)
    data_error = next((f for f in fold_fits if isinstance(f, ValueError)),
                      None)
    points = []         # (chain keys, cap) per grid point, or its error
    chains = {}         # chain key -> {cap: config}
    for cfg in grid:
        try:
            full = GbtConfig(**cfg)
        except ValueError as exc:
            points.append(exc)
            continue
        if data_error is not None:
            points.append(data_error)
            continue
        keys = [(fold, replace(full, max_depth=0))
                for fold in range(N_FOLDS)]
        for key in keys:
            chains.setdefault(key, {})[full.max_depth] = full
        points.append((keys, full.max_depth))

    def grow(wave):     # (test predictions, depth of the deepest leaf)
        grown = _boost([_Fit(fold_fits[fold][0], fold_fits[fold][1], cfg,
                             fold_fits[fold][2], folds[fold][2])
                        for (fold, _), cfg in wave]) if wave else []
        return [((_sigmoid(raw) >= 0.5).astype(int), depth)
                for _, raw, depth in grown]

    preds = {}          # (chain key, cap) -> fold predictions
    wave = [(key, caps[max(caps)]) for key, caps in chains.items()]
    for (key, _), (pred, depth) in zip(wave, grow(wave)):
        preds.update(((key, cap), pred) for cap in chains[key]
                     if cap >= depth)
    wave = [(key, cfg) for key, caps in chains.items()
            for cap, cfg in caps.items() if (key, cap) not in preds]
    for (key, cfg), (pred, _) in zip(wave, grow(wave)):
        preds[key, cfg.max_depth] = pred
    return [p if isinstance(p, ValueError)
            else [preds[key, p[1]] for key in p[0]] for p in points]


def cross_validate(x, y, classifier, grid=None, seed=0, selector=None,
                   eval_on_test_fold=False, return_all=False):
    """Stratified 5-fold CV with a small grid search.

    For every grid point the mean fold accuracy is computed; the best
    configuration (ties broken by lexicographically smallest config) is
    reported with its per-fold accuracies. A GBT grid point is the one
    source of its booster's settings: it sets any GbtConfig field
    (n_rounds and early_stopping_rounds too), the others keep their
    defaults, and `best_config` names what the point set. GBT early
    stopping uses a 20% stratified carve-out of each training fold;
    eval_on_test_fold=True switches to the laxer protocol that watches
    the test fold instead.
    `selector(train_x, train_y) -> column indices` enables leakage-free
    in-fold feature selection; a fold that keeps no column keeps all.
    With return_all, one CvResult per grid point is returned instead of
    the best one.

    A grid point out of range (check_point, GbtConfig), or whose fit
    raises ValueError in any fold, is dropped with a UserWarning; with
    return_all its CvResult carries the error. When every point fails,
    the first point's error is raised.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    _check_columns(x)
    if grid is None:
        grid = DEFAULT_GRIDS[classifier]
    fold_of = stratified_folds(y, N_FOLDS, seed)

    folds = []          # (train x, train y, test x, test y)
    for fold in range(N_FOLDS):
        train_idx = np.nonzero(fold_of != fold)[0]
        tx, sx = x[train_idx], x[fold_of == fold]
        if selector is not None:
            cols = selector(tx, y[train_idx])
            if len(cols):   # no informative column: fall back to all
                tx, sx = tx[:, cols], sx[:, cols]
        folds.append((tx, y[train_idx], sx, y[fold_of == fold]))

    if classifier == "gbt":
        preds = _gbt_predictions(folds, grid, seed, eval_on_test_fold)
    else:
        preds = []
        for cfg in grid:
            try:
                check_point(classifier, cfg)
                preds.append([_fit_predict(classifier, tx, ty, sx, cfg)
                              for tx, ty, sx, _ in folds])
            except ValueError as exc:
                preds.append(exc)

    results = []
    for cfg, pred in zip(grid, preds):
        if isinstance(pred, ValueError):
            results.append(CvResult([], math.nan, math.nan, dict(cfg), [],
                                    error=pred))
            continue
        accs = []
        confusions = []
        for p, (_, _, _, truth) in zip(pred, folds):
            accs.append(float(np.mean(p == truth)))
            confusions.append(tuple(
                np.bincount(2 * truth + p, minlength=4).tolist()))
        results.append(CvResult(
            fold_accuracies=accs, mean_accuracy=float(np.mean(accs)),
            spread=float(np.std(accs, ddof=1)), best_config=dict(cfg),
            fold_confusions=confusions))

    valid = [r for r in results if r.error is None]
    if results and not valid:
        raise results[0].error
    for r in results:
        if r.error is not None:
            warnings.warn("grid point %s dropped: %s: %s" % (
                r.best_config, type(r.error).__name__, r.error))
    if return_all:
        return results
    best_mean = max(r.mean_accuracy for r in valid)
    return min((r for r in valid if r.mean_accuracy == best_mean),
               key=lambda r: _config_sort_key(r.best_config))


def train_final(x, y, cfg=GbtConfig(), split_seed=0, feature_names=None):
    """Stratified 80/20 holdout fit of the boosted-tree model.

    Early stopping runs on an internal carve-out of the training portion.
    The engine routes the holdout rows through every tree as it grows
    them and scores them at the best round, as it scores CV test folds.
    Returns (model, holdout_accuracy, ranked importance).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    train_idx, test_idx = stratified_split(y, 0.2, split_seed)
    tr_idx, ev_idx = stratified_split(y[train_idx], 0.2, split_seed + 1)
    tx, ty = x[train_idx], y[train_idx]
    model = gbt_train(tx[tr_idx], ty[tr_idx], cfg, (tx[ev_idx], ty[ev_idx]),
                      feature_names, x[test_idx])
    acc = float(np.mean((_sigmoid(model.test_raw) >= 0.5) == y[test_idx]))
    return model, acc, gbt_importance(model)
