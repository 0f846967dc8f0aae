"""Discrete wavelet transform with the Daubechies-4 filter pair.

The 8-tap orthogonal scaling filter was computed once from the Daubechies
vanishing-moment/orthogonality conditions (spectral factorization of the
half-band polynomial, minimum-phase root selection) and cross-checked
against the published coefficient table; it is frozen below. The
high-pass filter is its quadrature mirror.
"""

from __future__ import annotations

import numpy as np

#: Daubechies-4 scaling (low-pass) filter, sum = sqrt(2), unit energy.
DB4_LO = np.array([
    0.2303778133088964,
    0.7148465705529154,
    0.6308807679298587,
    -0.0279837694168599,
    -0.1870348117190931,
    0.0308413818355607,
    0.0328830116668852,
    -0.0105974017850690,
])

#: Quadrature-mirror high-pass filter: g[k] = (-1)^k h[L-1-k].
DB4_HI = (DB4_LO[::-1] * np.where(np.arange(DB4_LO.size) % 2 == 0, 1.0, -1.0))

_L = DB4_LO.size


def _analysis_step(x):
    """One analysis level: (approximation, detail) at half rate.

    The signal is extended by half-point symmetric reflection on both ends
    before filtering, so boundaries distort gracefully; output length is
    floor((n + L - 1) / 2) per subband. The reflection needs n >= L - 1:
    wavedec's minimum of 2**levels + L samples keeps every level's input
    at 9 samples or more.
    """
    pad = _L - 1
    ext = np.concatenate([x[pad - 1::-1], x, x[:-pad - 1:-1]])
    lo = np.convolve(ext, DB4_LO[::-1], mode="valid")[1::2]
    hi = np.convolve(ext, DB4_HI[::-1], mode="valid")[1::2]
    return lo, hi


def wavedec(x, levels=6):
    """Multi-level DWT; returns (approx, [d1, d2, ..., d_levels]).

    d1 is the finest (highest-frequency) detail band. Raises if the signal
    is too short for the requested depth.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2 ** levels + _L:
        raise ValueError(
            "signal of length %d too short for %d-level DWT "
            "(needs >= %d samples)" % (x.size, levels, 2 ** levels + _L))
    details = []
    approx = x
    for _ in range(levels):
        approx, det = _analysis_step(approx)
        details.append(det)
    return approx, details

