"""Split conformal calibration per grid location, bands, and coverage.

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
        if np.any(self.values < 0):
            raise ValueError("conformal parameters must be non-negative")


@dataclass
class CoverageReport:
    """Per-location empirical coverage against a target percentage."""

    per_location: np.ndarray
    target_percent: float

    def __post_init__(self):
        self.per_location = np.asarray(self.per_location, dtype=np.float64)

    @property
    def average(self) -> float:
        return float(np.mean(self.per_location))

    @property
    def minimum(self) -> float:
        return float(np.min(self.per_location))

    @property
    def maximum(self) -> float:
        return float(np.max(self.per_location))

    @property
    def below_target(self) -> int:
        return int(np.count_nonzero(self.per_location < self.target_percent))

    @property
    def at_or_above_target(self) -> int:
        return int(self.per_location.size - self.below_target)

    def summary(self) -> dict:
        return {
            "average": self.average,
            "min": self.minimum,
            "max": self.maximum,
            "below_target": self.below_target,
            "at_or_above_target": self.at_or_above_target,
            "target_percent": self.target_percent,
        }


def score_rp(truth: np.ndarray, mean: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Elementwise |truth - mean| / spread; zero spread scores +inf."""
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != np.shape(mean) or truth.shape != np.shape(spread):
        raise ShapeError(
            f"score shapes differ: {truth.shape}, {np.shape(mean)}, {np.shape(spread)}"
        )
    if np.any(spread < 0):
        raise ValueError("spread must be non-negative")
    err = np.abs(truth - mean)
    degenerate = spread == 0
    if np.any(degenerate):
        warnings.warn(
            f"{int(np.count_nonzero(degenerate))} locations have zero spread; "
            "their scores are +inf",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(degenerate, np.inf, err / np.where(degenerate, 1.0, spread))
    return out


def quantile_index(n: int, alpha: float) -> int:
    """Order-statistic index k = ceil((1-alpha)(n+1)); k > n means +inf."""
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


def _jittered_quantile(scores, alpha, rng: SeededRng, jitter: float) -> np.ndarray:
    """Per-location quantile after a reproducible uniform tie-breaking jitter."""
    if jitter > 0:
        scores = scores + rng.generator().uniform(0.0, jitter, size=scores.shape)
    return conformal_quantile(scores, alpha)


def calibrate(
    cal_inputs: np.ndarray,
    cal_targets: np.ndarray,
    predictor,
    alpha: float,
    rng: SeededRng,
    grid: GridSpec,
    jitter: float = 1e-9,
) -> QField:
    """Per-location conformal parameters from a held-out calibration set.

    predictor(inputs) must return (mean, spread) stacks matching the
    targets. The caller is responsible for keeping the calibration samples
    disjoint from training; nothing here can check that.
    """
    cal_targets = np.asarray(cal_targets, dtype=np.float64)
    if len(cal_targets) == 0:
        raise ValueError("calibration set is empty")
    if cal_targets.shape[1:] != grid.shape:
        raise ShapeError(
            f"calibration targets {cal_targets.shape[1:]} do not match grid {grid.shape}"
        )
    mean, spread = predictor(cal_inputs)
    if np.shape(mean) != cal_targets.shape or np.shape(spread) != cal_targets.shape:
        raise ShapeError("predictor output does not match calibration targets")
    scores = score_rp(cal_targets, mean, spread)
    return QField(_jittered_quantile(scores, alpha, rng, jitter), grid, alpha)


def _check_stack(context: str, qfield: QField, *fields):
    """Fields are one grid field or a (B, *grid) stack of them, all alike."""
    shape = np.shape(fields[0])
    grid = qfield.values.shape
    if shape[len(shape) - len(grid):] != grid or any(np.shape(f) != shape for f in fields):
        raise ShapeError(f"{context} shapes differ: {[np.shape(f) for f in fields]}, {grid}")


def band(mean: np.ndarray, spread: np.ndarray, qfield: QField) -> Band:
    """Calibrated band [mean - q*spread, mean + q*spread].

    mean and spread are one grid field or a (B, *grid) stack; q is shared
    by every sample of the stack.
    """
    mean = np.asarray(mean, dtype=np.float64)
    spread = np.asarray(spread, dtype=np.float64)
    _check_stack("band", qfield, mean, spread)
    with np.errstate(invalid="ignore"):
        half = qfield.values * spread
        # inf * 0 spread: a degenerate location with infinite q covers everything
        half = np.where(np.isnan(half), np.inf, half)
    return Band(mean - half, mean + half)


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


def cq_score(truth: np.ndarray, lo_pred: np.ndarray, hi_pred: np.ndarray) -> np.ndarray:
    """Quantile-pair score max(lo - y, y - hi); negative inside the interval."""
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != np.shape(lo_pred) or truth.shape != np.shape(hi_pred):
        raise ShapeError("cq_score shapes differ")
    return np.maximum(lo_pred - truth, truth - hi_pred)


def cq_band(lo_pred: np.ndarray, hi_pred: np.ndarray, qfield: QField) -> Band:
    """Widen the quantile interval by q on each side (one field or a stack)."""
    lo_pred = np.asarray(lo_pred, dtype=np.float64)
    hi_pred = np.asarray(hi_pred, dtype=np.float64)
    _check_stack("cq_band", qfield, lo_pred, hi_pred)
    return Band(lo_pred - qfield.values, hi_pred + qfield.values)


def calibrate_cq(
    cal_targets: np.ndarray,
    lo_preds: np.ndarray,
    hi_preds: np.ndarray,
    alpha: float,
    rng: SeededRng,
    grid: GridSpec,
    jitter: float = 1e-9,
) -> QField:
    """Conformal parameters for a trained quantile-pair baseline."""
    cal_targets = np.asarray(cal_targets, dtype=np.float64)
    if len(cal_targets) == 0:
        raise ValueError("calibration set is empty")
    q = _jittered_quantile(cq_score(cal_targets, lo_preds, hi_preds), alpha, rng, jitter)
    # the pair score can be negative everywhere; a negative widening would
    # shrink the interval, so clamp at zero which keeps the guarantee
    return QField(np.maximum(q, 0.0), grid, alpha)


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
    return QField(values, grid, alpha)
