"""Orthonormal discrete wavelet analysis/synthesis via Mallat filter banks.

All transforms use periodic (circular) boundary handling, which keeps the
coefficient count equal to the sample count and makes the multilevel
transform an exactly orthogonal map for any even length.

The operator layers only need the coarsest approximation. Let A be the
(m / 2^L, m) level-L approximation analysis operator: row k is the level-L
equivalent lowpass filter h * (h up 2) * ... * (h up 2^(L-1)) anchored at
sample 2^L k (mod m). Its rows are orthonormal (A A^T = I), and A^T A is
the multiresolution projection onto V_L (Mallat 1989). Scaling the
approximation by a matrix R while every detail band passes through is
therefore v + A^T ((A v)(R - I)), with no detail coefficient ever formed.
`lowpass_pair` builds A from the filter taps, once per (family, n, levels).
A length n that 2^L does not divide is symmetric-padded at its end to the
next multiple m; the pair folds that padding in: analysis A P, synthesis
the first n rows of A^T. The tests check the pair against the full
multilevel cascade (tests/wavelet_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Minimum-phase Daubechies scaling filters, spectral factorization carried
# out at 60 decimal digits and rounded once to float64. Verified at import:
# unit energy, sum sqrt(2), vanishing autocorrelation at even lags.
_DB4_LO = (
    -0.010597401785069032,
    0.0328830116668852,
    0.030841381835560764,
    -0.18703481171909309,
    -0.027983769416859854,
    0.6308807679298589,
    0.7148465705529157,
    0.2303778133088965,
)
_DB6_LO = (
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
)

_FAMILIES = {"db4": _DB4_LO, "db6": _DB6_LO}


class DecompositionError(ValueError):
    """Signal length incompatible with the requested decomposition depth."""


@dataclass(frozen=True)
class WaveletFilter:
    """Analysis/synthesis filter bank of an orthonormal wavelet family."""

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.dec_lo, dtype=np.float64)
        if abs(float(np.sum(lo * lo)) - 1.0) > 1e-10:
            raise ValueError(f"{self.name}: lowpass filter is not unit-energy")
        if abs(float(np.sum(lo)) - np.sqrt(2.0)) > 1e-10:
            raise ValueError(f"{self.name}: lowpass filter does not sum to sqrt(2)")
        if not np.array_equal(self.rec_lo, self.dec_lo[::-1]):
            raise ValueError(f"{self.name}: rec_lo must be time-reversed dec_lo")
        if not np.array_equal(self.rec_hi, self.dec_hi[::-1]):
            raise ValueError(f"{self.name}: rec_hi must be time-reversed dec_hi")

    @property
    def length(self) -> int:
        return len(self.dec_lo)


@lru_cache(maxsize=None)
def get_filter(name: str) -> WaveletFilter:
    if name not in _FAMILIES:
        raise ValueError(f"unknown wavelet family {name!r}; have {sorted(_FAMILIES)}")
    lo = np.array(_FAMILIES[name], dtype=np.float64)
    # quadrature mirror highpass: g[m] = (-1)^m h[L-1-m]
    signs = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
    hi = signs * lo[::-1]
    lo.setflags(write=False)
    hi.setflags(write=False)
    rlo = lo[::-1].copy()
    rhi = hi[::-1].copy()
    rlo.setflags(write=False)
    rhi.setflags(write=False)
    return WaveletFilter(name, lo, hi, rlo, rhi)


@lru_cache(maxsize=None)
def lowpass_pair(name: str, n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-`levels` approximation analysis and synthesis on n samples.

    Returns read-only (analysis, synthesis) of shapes (n_a, n) and (n, n_a),
    n_a = ceil(n / 2^levels). The signal is symmetric-padded at its end to
    m = n_a 2^levels samples; analysis is A P and synthesis the first n
    rows of A^T. Without padding, synthesis is analysis^T and
    analysis @ synthesis = I.
    """
    if levels < 1:
        raise DecompositionError(f"levels must be >= 1, got {levels}")
    block = 1 << levels
    pad = (-n) % block
    if pad > n:
        raise DecompositionError(f"length {n} too short to pad to a multiple of 2^{levels}")
    m = n + pad
    lo = get_filter(name).dec_lo
    taps = lo
    for j in range(1, levels):
        up = np.zeros((lo.size - 1) * (1 << j) + 1)
        up[:: 1 << j] = lo
        taps = np.convolve(taps, up)
    rows = np.arange(m // block)[:, None]
    cols = (block * rows + np.arange(taps.size)) % m
    a = np.zeros((m // block, m))
    np.add.at(a, (np.broadcast_to(rows, cols.shape), cols), taps)
    analysis = a[:, :n].copy()
    # padded sample n + i mirrors sample n - 1 - i
    analysis[:, n - pad :][:, ::-1] += a[:, n:]
    synthesis = a[:, :n].T.copy()
    analysis.setflags(write=False)
    synthesis.setflags(write=False)
    return analysis, synthesis
