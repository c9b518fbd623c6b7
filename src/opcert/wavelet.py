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
the first n rows of A^T.

The packed multilevel transforms below (`dwt_packed`, `dwt2d_packed` and
their inverses) compute every band by the full cascade. They are the
reference the lowpass pair is tested against; a multilevel transform
needs a length divisible by 2^levels.
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
def _step_matrix(name: str, n: int) -> np.ndarray:
    """Single-level orthogonal step as a dense (n, n) operator.

    Row k is the lowpass window anchored at sample 2k (mod n); row n/2+k
    the matching highpass window. The tap loop runs once per (family, n)
    and the hot path becomes one matmul per level.
    """
    filt = get_filter(name)
    m = np.zeros((n, n))
    for k in range(n // 2):
        for tap in range(filt.length):
            col = (2 * k + tap) % n
            m[k, col] += filt.dec_lo[tap]
            m[n // 2 + k, col] += filt.dec_hi[tap]
    m.setflags(write=False)
    return m


def _analysis_step(x: np.ndarray, filt: WaveletFilter):
    """One periodic decimating filter-bank step along the last axis."""
    n = x.shape[-1]
    if n % 2:
        raise DecompositionError(f"length {n} is odd; cannot halve")
    y = x @ _step_matrix(filt.name, n).T
    return y[..., : n // 2], y[..., n // 2 :]


def _synthesis_step(lo: np.ndarray, hi: np.ndarray, filt: WaveletFilter) -> np.ndarray:
    """Transpose of _analysis_step; exact inverse by orthogonality."""
    n = 2 * lo.shape[-1]
    return np.concatenate([lo, hi], axis=-1) @ _step_matrix(filt.name, n)


def _check_depth(n: int, levels: int, what: str):
    if levels < 1:
        raise DecompositionError(f"levels must be >= 1, got {levels}")
    if n % (1 << levels):
        raise DecompositionError(
            f"{what} length {n} not divisible by 2^{levels}; pad or reduce levels"
        )


def _analysis_step_2d(x: np.ndarray, filt: WaveletFilter):
    # separable: filter along the second axis, then the first;
    # dx = highpass along axis -2, dy = highpass along axis -1
    lo, hi = _analysis_step(x, filt)
    a, dx = (np.swapaxes(s, -1, -2) for s in _analysis_step(np.swapaxes(lo, -1, -2), filt))
    dy, dxy = (np.swapaxes(s, -1, -2) for s in _analysis_step(np.swapaxes(hi, -1, -2), filt))
    return a, (dx, dy, dxy)


def _synthesis_step_2d(a, dets, filt: WaveletFilter) -> np.ndarray:
    dx, dy, dxy = dets
    lo = np.swapaxes(_synthesis_step(np.swapaxes(a, -1, -2), np.swapaxes(dx, -1, -2), filt), -1, -2)
    hi = np.swapaxes(_synthesis_step(np.swapaxes(dy, -1, -2), np.swapaxes(dxy, -1, -2), filt), -1, -2)
    return _synthesis_step(lo, hi, filt)


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


# ---------------------------------------------------------------------------
# Packed in-place layouts used by the differentiable operator layers. These
# accept arbitrary leading batch axes and keep spatial size unchanged:
# 1D layout [a_m | d_m | ... | d_1]; 2D packs each level's quadrants into
# the top-left block of the previous one.
# ---------------------------------------------------------------------------


def dwt_packed(x: np.ndarray, filt: WaveletFilter, levels: int) -> np.ndarray:
    """Multilevel transform of (..., N) signals into the packed layout."""
    n = x.shape[-1]
    _check_depth(n, levels, "signal")
    out = np.empty_like(x, dtype=np.float64)
    cur = np.asarray(x, dtype=np.float64)
    hi_end = n
    for _ in range(levels):
        cur, hi = _analysis_step(cur, filt)
        out[..., hi_end // 2 : hi_end] = hi
        hi_end //= 2
    out[..., :hi_end] = cur
    return out


def idwt_packed(c: np.ndarray, filt: WaveletFilter, levels: int) -> np.ndarray:
    """Inverse of dwt_packed."""
    n = c.shape[-1]
    _check_depth(n, levels, "coefficient vector")
    half = n >> levels
    cur = np.asarray(c[..., :half], dtype=np.float64)
    for _ in range(levels):
        cur = _synthesis_step(cur, c[..., half : 2 * half], filt)
        half *= 2
    return cur


def dwt2d_packed(x: np.ndarray, filt: WaveletFilter, levels: int) -> np.ndarray:
    """Multilevel transform of (..., H, W) fields into quadrant packing."""
    h, w = x.shape[-2:]
    _check_depth(h, levels, "field rows")
    _check_depth(w, levels, "field columns")
    out = np.array(x, dtype=np.float64)
    ch, cw = h, w
    for _ in range(levels):
        a, (dx, dy, dxy) = _analysis_step_2d(out[..., :ch, :cw], filt)
        ch //= 2
        cw //= 2
        out[..., :ch, :cw] = a
        out[..., :ch, cw : 2 * cw] = dy
        out[..., ch : 2 * ch, :cw] = dx
        out[..., ch : 2 * ch, cw : 2 * cw] = dxy
    return out


def idwt2d_packed(c: np.ndarray, filt: WaveletFilter, levels: int) -> np.ndarray:
    """Inverse of dwt2d_packed."""
    h, w = c.shape[-2:]
    _check_depth(h, levels, "field rows")
    _check_depth(w, levels, "field columns")
    out = np.array(c, dtype=np.float64)
    ch, cw = h >> levels, w >> levels
    for _ in range(levels):
        a = out[..., :ch, :cw]
        dy = out[..., :ch, cw : 2 * cw]
        dx = out[..., ch : 2 * ch, :cw]
        dxy = out[..., ch : 2 * ch, cw : 2 * cw]
        rec = _synthesis_step_2d(a.copy(), (dx.copy(), dy.copy(), dxy.copy()), filt)
        ch *= 2
        cw *= 2
        out[..., :ch, :cw] = rec
    return out
