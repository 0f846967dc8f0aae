"""Reference FastICA: fresh arrays in every iteration.

This is the whitening and symmetric FastICA loop that
`cleaning.ica_decompose` ran before it wrote each iteration into two
preallocated arrays, kept as the oracle that the in-place loop must match
byte for byte. It returns a `cleaning.IcaDecomposition`, so both sides
are compared in one form.
"""

import math
import warnings

import numpy as np

from eegsweep.cleaning import IcaDecomposition, IcaParams, _sym_decorrelate


def ica_decompose(rec, params=IcaParams()):
    x = rec.samples
    n_ch, n_t = x.shape
    min_t = int(math.ceil(20 * n_ch ** 2 / 0.95))
    if n_t < min_t:
        warnings.warn(
            "recording has %d samples; ICA is better conditioned with >= %d"
            % (n_t, min_t), stacklevel=2)

    cov = x @ x.T / n_t
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    total = float(evals.sum())
    if total <= 0.0:
        raise ValueError("cannot decompose an all-zero recording")
    cum = np.cumsum(evals) / total
    k = int(np.searchsorted(cum, params.variance_coverage) + 1)
    k = min(k, n_ch)
    whiten = evecs[:, :k].T / np.sqrt(evals[:k])[:, None]
    z = whiten @ x

    rng = np.random.default_rng(params.rng_seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    converged = False
    for _ in range(params.max_iter):
        y = w @ z
        g = np.tanh(y)
        g_prime = 1.0 - g ** 2
        w_new = (g @ z.T) / n_t - g_prime.mean(axis=1)[:, None] * w
        w_new = _sym_decorrelate(w_new)
        delta = float(np.max(np.abs(np.abs(np.einsum(
            "ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if delta < params.tol:
            converged = True
            break

    unmixing = w @ whiten
    mixing = np.linalg.pinv(unmixing)
    sources = unmixing @ x
    return IcaDecomposition(unmixing=unmixing, mixing=mixing,
                            sources=sources, converged=converged)
