"""Reference Higuchi curve lengths: one gather per (k, m) curve.

This is the loop that `features._curve_lengths` replaced, kept as the
oracle that the one-difference-per-k version must match byte for byte.
"""

import numpy as np


def curve_lengths(x, kmax):
    """L(k) for k = 1..kmax, each the mean over the curves x[m::k] of at
    least two samples of their normalized length."""
    n = x.size
    lk = np.empty(kmax)
    for k in range(1, kmax + 1):
        lengths = []
        for m in range(k):
            idx = np.arange(m, n, k)
            if idx.size < 2:
                continue
            lm = float(np.sum(np.abs(np.diff(x[idx]))))
            norm = (n - 1) / (k * (idx.size - 1))
            lengths.append(lm * norm / k)
        lk[k - 1] = np.mean(lengths)
    return lk
