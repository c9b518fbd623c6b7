"""The lowpass pair of the operator's wavelet layers.

The layers only need the coarsest approximation of the periodic
orthonormal Mallat transform. Let A be the (m / 2^L, m) level-L
approximation analysis operator: row k is the level-L equivalent lowpass
filter h_L = h * (h up 2) * ... * (h up 2^(L-1)) starting at sample
2^L k + s (mod m). Its rows are orthonormal (A A^T = I), and A^T A is the
multiresolution projection onto V_L (Mallat 1989). Scaling the
approximation by a matrix R while every detail band passes through is
therefore v + A^T ((A v)(R - I)), with no detail coefficient ever formed.

s = round(mu), mu the centroid of h's taps, puts h_L's centroid at
2^L (k + mu) up to half a sample, so coefficient k sits at the same point
of the unit interval on n points at level L and on 2n points at level
L + 1. With s = 0 the db6 (mu = 9.6) coefficients of those two grids sat
0.3 of a block apart at n = 64.

`lowpass_pair` builds A from the taps in `LOWPASS_TAPS`, once per
(family, n, levels); it is the one place that decides how a grid's
boundary enters the pair. A length n that 2^L does not divide is
symmetric-padded at its end to the next multiple m; the pair folds that
padding in: analysis A P, synthesis the first n rows of A^T. The tests
check the taps (unit energy, sum sqrt(2), orthogonality at even lags) and
the pair against the full multilevel cascade (tests/wavelet_oracle.py).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Minimum-phase Daubechies scaling filters, spectral factorization carried
# out at 60 decimal digits and rounded once to float64.
LOWPASS_TAPS = {
    "db4": (
        -0.010597401785069032,
        0.0328830116668852,
        0.030841381835560764,
        -0.18703481171909309,
        -0.027983769416859854,
        0.6308807679298589,
        0.7148465705529157,
        0.2303778133088965,
    ),
    "db6": (
        -0.0010773010853084796,
        0.004777257510945511,
        0.0005538422011614961,
        -0.03158203931748603,
        0.027522865530305727,
        0.09750160558732304,
        -0.12976686756726194,
        -0.22626469396543983,
        0.31525035170919763,
        0.7511339080210954,
        0.49462389039845306,
        0.11154074335010947,
    ),
}


class DecompositionError(ValueError):
    """Signal length incompatible with the requested decomposition depth."""


@lru_cache(maxsize=None)
def lowpass_pair(name: str, n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-`levels` approximation analysis and synthesis on n samples.

    Returns read-only (analysis, synthesis) of shapes (n_a, n) and (n, n_a),
    n_a = ceil(n / 2^levels). The signal is symmetric-padded at its end to
    m = n_a 2^levels samples; analysis is A P and synthesis the first n
    rows of A^T. Without padding, synthesis is analysis^T and
    analysis @ synthesis = I.
    """
    if name not in LOWPASS_TAPS:
        raise ValueError(f"unknown wavelet family {name!r}; have {sorted(LOWPASS_TAPS)}")
    if levels < 1:
        raise DecompositionError(f"levels must be >= 1, got {levels}")
    block = 1 << levels
    pad = (-n) % block
    if pad > n:
        raise DecompositionError(f"length {n} too short to pad to a multiple of 2^{levels}")
    m = n + pad
    lo = np.array(LOWPASS_TAPS[name])
    start = round(float(np.arange(lo.size) @ lo / lo.sum()))
    taps = lo
    for j in range(1, levels):
        up = np.zeros((lo.size - 1) * (1 << j) + 1)
        up[:: 1 << j] = lo
        taps = np.convolve(taps, up)
    rows = np.arange(m // block)[:, None]
    cols = (block * rows + start + np.arange(taps.size)) % m
    a = np.zeros((m // block, m))
    np.add.at(a, (np.broadcast_to(rows, cols.shape), cols), taps)
    analysis = a[:, :n].copy()
    # padded sample n + i mirrors sample n - 1 - i
    analysis[:, n - pad :][:, ::-1] += a[:, n:]
    synthesis = a[:, :n].T.copy()
    analysis.setflags(write=False)
    synthesis.setflags(write=False)
    return analysis, synthesis
