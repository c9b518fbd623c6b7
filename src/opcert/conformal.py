"""Split conformal calibration per grid location, bands, and coverage.

Both predictor kinds give an interval (lower, upper, scale) per sample and
location, and share one normalized-interval score,

    s = max(lower - y, y - upper) / scale,

and one band, [lower - q*scale, upper + q*scale]. The randomized-prior
ensemble is the instance (mean, mean, spread), whose score is
|y - mean| / spread; the quantile pair is (lo, hi, 1), whose score is the
conformalized-quantile-regression score max(lo - y, y - hi).

Calibration turns held-out scores into one conformal parameter per grid
location: the ceil((1-alpha)(n+1))-th smallest score ("higher" order
statistic, no interpolation). When that index exceeds the calibration
size the parameter is +inf and the band degenerates to the whole line,
which is the regime where the finite-sample guarantee is vacuous. A tiny
uniform jitter breaks score ties reproducibly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import serialio as sio
from .core import Band, GridSpec, SeededRng, ShapeError


@dataclass
class QField:
    """Per-location conformal parameter on a solution grid."""

    values: np.ndarray
    grid: GridSpec
    alpha: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ShapeError(
                f"q values {self.values.shape} do not match grid {self.grid.shape}"
            )
        nan = np.count_nonzero(np.isnan(self.values))
        if nan:
            raise ValueError(f"{nan} of {self.values.size} conformal parameters are NaN")
        if np.any(self.values < 0):
            raise ValueError("conformal parameters must be non-negative")
        _check_alpha(self.alpha)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass
class CoverageReport:
    """Per-location empirical coverage against a target percentage."""

    per_location: np.ndarray
    target_percent: float

    def __post_init__(self):
        self.per_location = np.asarray(self.per_location, dtype=np.float64)

    def summary(self) -> dict:
        per, target = self.per_location, self.target_percent
        below = int(np.count_nonzero(per < target))
        return {
            "average": float(np.mean(per)),
            "min": float(np.min(per)),
            "max": float(np.max(per)),
            "below_target": below,
            "at_or_above_target": int(per.size - below),
            "target_percent": target,
        }


def score(truth: np.ndarray, lower: np.ndarray, upper: np.ndarray,
          scale: np.ndarray) -> np.ndarray:
    """Elementwise max(lower - truth, truth - upper) / scale; zero scale scores +inf."""
    truth = np.asarray(truth, dtype=np.float64)
    if any(np.shape(a) != truth.shape for a in (lower, upper, scale)):
        raise ShapeError(
            f"score shapes differ: {truth.shape}, {np.shape(lower)}, {np.shape(upper)}, "
            f"{np.shape(scale)}"
        )
    if np.any(scale < 0):
        raise ValueError("scale must be non-negative")
    err = np.maximum(lower - truth, truth - upper)
    degenerate = scale == 0
    if np.any(degenerate):
        warnings.warn(
            f"{int(np.count_nonzero(degenerate))} locations have zero spread; "
            "their scores are +inf",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(degenerate, np.inf, err / np.where(degenerate, 1.0, scale))
    return out


def quantile_index(n: int, alpha: float) -> int:
    """Order-statistic index k = ceil((1-alpha)(n+1)); k > n means +inf.

    alpha outside (0, 1) raises ValueError: it would give k <= 0, which
    names no order statistic.
    """
    _check_alpha(alpha)
    return math.ceil((1.0 - alpha) * (n + 1))


def conformal_quantile(scores, alpha: float):
    """The k-th smallest score along axis 0, k = ceil((1-alpha)(n+1)).

    Scores of shape (n, *grid) give one value per location; 1-D scores give
    a float. The value is +inf where k > n.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        raise ValueError("cannot take a quantile of an empty score set")
    k = quantile_index(n, alpha)
    if k > n:
        q = np.full(scores.shape[1:], np.inf)
    else:
        q = np.partition(scores, k - 1, axis=0)[k - 1]
    return float(q) if q.ndim == 0 else q


def calibrate(
    cal_targets: np.ndarray,
    interval,
    alpha: float,
    rng: SeededRng,
    grid: GridSpec,
    jitter: float = 1e-9,
) -> QField:
    """Per-location conformal parameters from a held-out calibration set.

    interval is the predictor's (lower, upper, scale) stacks on the
    calibration inputs, each matching the targets. The caller is
    responsible for keeping the calibration samples disjoint from
    training; nothing here can check that.
    """
    cal_targets = np.asarray(cal_targets, dtype=np.float64)
    if len(cal_targets) == 0:
        raise ValueError("calibration set is empty")
    if cal_targets.shape[1:] != grid.shape:
        raise ShapeError(
            f"calibration targets {cal_targets.shape[1:]} do not match grid {grid.shape}"
        )
    scores = score(cal_targets, *interval)
    if jitter > 0:
        scores = scores + rng.generator().uniform(0.0, jitter, size=scores.shape)
    # a pair's scores can be negative everywhere; a negative widening would
    # shrink the interval, so clamp at zero, which keeps the guarantee
    return QField(np.maximum(conformal_quantile(scores, alpha), 0.0), grid, alpha)


def band(lower: np.ndarray, upper: np.ndarray, scale: np.ndarray, q) -> Band:
    """Band [lower - q*scale, upper + q*scale].

    lower, upper and scale are one grid field or a (B, *grid) stack; q is a
    QField's values, shared by every sample of the stack, or a constant.
    """
    lower, upper, scale = (np.asarray(a, dtype=np.float64) for a in (lower, upper, scale))
    q = np.asarray(q, dtype=np.float64)
    shape = lower.shape
    if (upper.shape != shape or scale.shape != shape
            or shape[len(shape) - q.ndim:] != q.shape):
        raise ShapeError(f"band shapes differ: {shape}, {upper.shape}, {scale.shape}, {q.shape}")
    with np.errstate(invalid="ignore"):
        half = q * scale
        # inf * 0 scale: a degenerate location with infinite q covers everything
        half = np.where(np.isnan(half), np.inf, half)
    return Band(lower - half, upper + half)


def coverage_eval(band: Band, truths: np.ndarray, target_percent: float = 95.0) -> CoverageReport:
    """Percent of test samples whose truth falls in its closed band, per location.

    band holds one (B, *grid) stack of bounds, one per row of truths.
    """
    truths = np.asarray(truths, dtype=np.float64)
    if truths.ndim == 0 or len(truths) == 0 or band.lower.shape != truths.shape:
        raise ValueError(
            "need one band per test sample, at least one sample: "
            f"bands {band.lower.shape}, truths {truths.shape}"
        )
    per_location = 100.0 * band.contains(truths).mean(axis=0)
    return CoverageReport(per_location, target_percent)


def save_qfield(qfield: QField, path):
    with sio.replacing(path) as fh:
        sio.start_file(fh, sio.QFIELD_MAGIC)
        sio.write_grid(fh, qfield.grid)
        sio.write_f64(fh, qfield.alpha)
        sio.write_array(fh, qfield.values)


def load_qfield(path) -> QField:
    with sio.reading(path) as fh:
        sio.check_magic(fh, sio.QFIELD_MAGIC)
        grid = sio.read_grid(fh)
        alpha = sio.read_f64(fh)
        values = sio.read_array(fh)
        try:
            return QField(values, grid, alpha)
        except ValueError as exc:  # NaN, negative or off-grid values, or a bad alpha
            raise sio.FormatError(str(exc)) from exc
