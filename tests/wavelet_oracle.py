"""Full multilevel wavelet cascade, the reference for the lowpass pair.

`bank` builds a family's filter bank from the package's lowpass taps,
with the quadrature-mirror highpass. `dwt_packed` and `dwt2d_packed`
compute every band of the periodic orthonormal transform by the Mallat
cascade, one dense single-level step matrix per level, and their inverses
undo it. The package's operator
layers only form the coarsest approximation (`wavelet.lowpass_pair`);
the tests check that pair, and the layers built on it, against these,
on the signal circularly shifted by the pair's row start `ROW_START`.

Layouts keep the spatial size and accept leading batch axes: 1D packs
[a_m | d_m | ... | d_1]; 2D packs each level's quadrants into the
top-left block of the previous one. A multilevel transform needs a length
divisible by 2^levels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from opcert.wavelet import LOWPASS_TAPS, DecompositionError

# sample at which row 0 of `wavelet.lowpass_pair` starts: the rounded
# centroid of each family's lowpass taps (5.99 for db4, 9.62 for db6)
ROW_START = {"db4": 6, "db6": 10}


@lru_cache(maxsize=None)
def bank(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (lowpass, highpass) analysis filters of a family.

    The highpass is the quadrature mirror g[m] = (-1)^m h[L-1-m].
    """
    lo = np.array(LOWPASS_TAPS[name])
    hi = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0) * lo[::-1]
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


@lru_cache(maxsize=None)
def step_matrix(name: str, n: int) -> np.ndarray:
    """Single-level orthogonal step as a dense (n, n) operator.

    Row k is the lowpass window anchored at sample 2k (mod n); row n/2+k
    the matching highpass window.
    """
    lo, hi = bank(name)
    m = np.zeros((n, n))
    for k in range(n // 2):
        for tap in range(lo.size):
            col = (2 * k + tap) % n
            m[k, col] += lo[tap]
            m[n // 2 + k, col] += hi[tap]
    m.setflags(write=False)
    return m


def analysis_step(x: np.ndarray, name: str):
    """One periodic decimating filter-bank step along the last axis."""
    n = x.shape[-1]
    if n % 2:
        raise DecompositionError(f"length {n} is odd; cannot halve")
    y = x @ step_matrix(name, n).T
    return y[..., : n // 2], y[..., n // 2 :]


def synthesis_step(lo: np.ndarray, hi: np.ndarray, name: str) -> np.ndarray:
    """Transpose of analysis_step; exact inverse by orthogonality."""
    n = 2 * lo.shape[-1]
    return np.concatenate([lo, hi], axis=-1) @ step_matrix(name, n)


def check_depth(n: int, levels: int, what: str):
    if levels < 1:
        raise DecompositionError(f"levels must be >= 1, got {levels}")
    if n % (1 << levels):
        raise DecompositionError(
            f"{what} length {n} not divisible by 2^{levels}; pad or reduce levels"
        )


def analysis_step_2d(x: np.ndarray, name: str):
    # separable: filter along the second axis, then the first;
    # dx = highpass along axis -2, dy = highpass along axis -1
    lo, hi = analysis_step(x, name)
    a, dx = (np.swapaxes(s, -1, -2) for s in analysis_step(np.swapaxes(lo, -1, -2), name))
    dy, dxy = (np.swapaxes(s, -1, -2) for s in analysis_step(np.swapaxes(hi, -1, -2), name))
    return a, (dx, dy, dxy)


def synthesis_step_2d(a, dets, name: str) -> np.ndarray:
    dx, dy, dxy = dets
    lo = np.swapaxes(synthesis_step(np.swapaxes(a, -1, -2), np.swapaxes(dx, -1, -2), name), -1, -2)
    hi = np.swapaxes(synthesis_step(np.swapaxes(dy, -1, -2), np.swapaxes(dxy, -1, -2), name), -1, -2)
    return synthesis_step(lo, hi, name)


def dwt_packed(x: np.ndarray, name: str, levels: int) -> np.ndarray:
    """Multilevel transform of (..., N) signals into the packed layout."""
    n = x.shape[-1]
    check_depth(n, levels, "signal")
    out = np.empty_like(x, dtype=np.float64)
    cur = np.asarray(x, dtype=np.float64)
    hi_end = n
    for _ in range(levels):
        cur, hi = analysis_step(cur, name)
        out[..., hi_end // 2 : hi_end] = hi
        hi_end //= 2
    out[..., :hi_end] = cur
    return out


def idwt_packed(c: np.ndarray, name: str, levels: int) -> np.ndarray:
    """Inverse of dwt_packed."""
    n = c.shape[-1]
    check_depth(n, levels, "coefficient vector")
    half = n >> levels
    cur = np.asarray(c[..., :half], dtype=np.float64)
    for _ in range(levels):
        cur = synthesis_step(cur, c[..., half : 2 * half], name)
        half *= 2
    return cur


def dwt2d_packed(x: np.ndarray, name: str, levels: int) -> np.ndarray:
    """Multilevel transform of (..., H, W) fields into quadrant packing."""
    h, w = x.shape[-2:]
    check_depth(h, levels, "field rows")
    check_depth(w, levels, "field columns")
    out = np.array(x, dtype=np.float64)
    ch, cw = h, w
    for _ in range(levels):
        a, (dx, dy, dxy) = analysis_step_2d(out[..., :ch, :cw], name)
        ch //= 2
        cw //= 2
        out[..., :ch, :cw] = a
        out[..., :ch, cw : 2 * cw] = dy
        out[..., ch : 2 * ch, :cw] = dx
        out[..., ch : 2 * ch, cw : 2 * cw] = dxy
    return out


def idwt2d_packed(c: np.ndarray, name: str, levels: int) -> np.ndarray:
    """Inverse of dwt2d_packed."""
    h, w = c.shape[-2:]
    check_depth(h, levels, "field rows")
    check_depth(w, levels, "field columns")
    out = np.array(c, dtype=np.float64)
    ch, cw = h >> levels, w >> levels
    for _ in range(levels):
        a = out[..., :ch, :cw]
        dy = out[..., :ch, cw : 2 * cw]
        dx = out[..., ch : 2 * ch, :cw]
        dxy = out[..., ch : 2 * ch, cw : 2 * cw]
        rec = synthesis_step_2d(a.copy(), (dx.copy(), dy.copy(), dxy.copy()), name)
        ch *= 2
        cw *= 2
        out[..., :ch, :cw] = rec
    return out
