"""Gaussian-process regression of the conformal parameter field.

The model is y = mu + f + eps: a constant mean mu, a rational-quadratic
process f with variance v and correlation R(r) = (1 + r^2/(2*a*l^2))^-a,
and white noise eps with variance v*lam. A per-location `q` is noisy by
nature (each value is one order statistic), so the noise term is what
keeps the fit from chasing it. With A = R + lam*I, the mean and variance
that maximize the likelihood for fixed (l, a, lam) have closed forms,
mu = 1'A^-1 y / 1'A^-1 1 and v = r'A^-1 r / n with r = y - mu, so the fit
searches only log(l, a, lam) over this profiled likelihood.

The search is projected gradient descent from one start, `_START`. Each
first trial step is the Barzilai-Borwein step s'g/g'g, from the changes s
and g of parameters and gradient over the last step (1 at the start or
where s'g <= 0), halved until the NLL drops. The run stops when an
accepted step lowers the NLL by less than `_RTOL` relative. The box is
fixed: l runs from the smallest spacing between training points to
`_LENGTH_MAX`, a over `_SHAPE_BOX` and lam over `_NOISE_BOX`, whose floor
keeps A positive definite. A constant target needs no search (v = 0) and
gives the constant model. The fitted mean maps normalized grid
coordinates to conformal parameters, so bands calibrated on one grid can
be transported to a finer one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import GridSpec, normalized_coordinates
from .conformal import QField

_START = (0.2, 1.0, 1.0)  # length scale, shape, noise ratio
_LENGTH_MAX = 10.0
_SHAPE_BOX = (1e-2, 1e3)
_NOISE_BOX = (1e-8, 1e4)
_RTOL = 1e-10
_MAX_ITERS = 500
_MAX_FIT_POINTS = 4000


class GpFitError(RuntimeError):
    """Kernel matrix could not be factorized or inputs are degenerate."""


@dataclass(frozen=True)
class RqKernelParams:
    variance: float = 1.0
    length_scale: float = 0.2
    shape: float = 1.0

    def __post_init__(self):
        if self.variance < 0 or self.length_scale <= 0 or self.shape <= 0:
            raise ValueError(f"need variance >= 0, length scale and shape > 0, got {self}")


def _sqdist(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    d = x1[:, None, :] - x2[None, :, :]
    return np.sum(d * d, axis=2)


def rq_kernel(x1: np.ndarray, x2: np.ndarray, params: RqKernelParams) -> np.ndarray:
    """Rational-quadratic covariance between coordinate rows."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    u = _sqdist(x1, x2) / (2.0 * params.shape * params.length_scale**2)
    return params.variance * (1.0 + u) ** (-params.shape)


def _profiled(sq: np.ndarray, y: np.ndarray, theta: np.ndarray, grad: bool):
    """Profiled NLL at theta = log(l, a, lam), from squared distances `sq`.

    Returns (nll, gradient or None, (mu, v, A^-1 r)). mu and v sit at their
    optimum, so they add nothing to the gradient: d nll / d theta_j is
    0.5 * tr((A^-1 - b b'/v) dA/d theta_j) with b = A^-1 r.
    """
    l, a, lam = np.exp(theta)
    n = y.size
    u = sq / (2.0 * a * l * l)
    corr = (1.0 + u) ** (-a)
    try:
        factor = cho_factor(corr + lam * np.eye(n), lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise GpFitError(f"kernel not positive definite at (l, a, lam) = {(l, a, lam)}") from exc
    solved = cho_solve(factor, np.column_stack([np.ones(n), y]), check_finite=False)
    mu = float(solved[:, 1].sum() / solved[:, 0].sum())
    b = solved[:, 1] - mu * solved[:, 0]
    v = float((y - mu) @ b) / n
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    nll = 0.5 * (n * math.log(2.0 * math.pi * v) + logdet + n)
    if not grad:
        return nll, None, (mu, v, b)
    inner = cho_solve(factor, np.eye(n), check_finite=False) - np.outer(b, b) / v
    du = u / (1.0 + u)
    g = 0.5 * np.array([
        np.sum(inner * corr * (2.0 * a * du)),
        np.sum(inner * corr * (a * (du - np.log1p(u)))),
        lam * np.trace(inner),
    ])
    return nll, g, (mu, v, b)


@dataclass
class GpModel:
    x_train: np.ndarray
    params: RqKernelParams
    mean: float
    noise: float
    weights: np.ndarray  # (K + noise I)^-1 (y - mean)
    nll_trace: list  # NLL at the start and after every accepted step
    stride: int = 1


def gp_fit(x: np.ndarray, y: np.ndarray) -> GpModel:
    """Maximize the profiled likelihood over the fixed box (module docstring)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs vs {y.size} targets")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    sq = _sqdist(x, x)
    spacing = math.sqrt(float(np.min(sq + np.diag(np.full(y.size, np.inf)))))
    if spacing == 0.0:
        raise GpFitError("duplicate training inputs make the kernel singular")
    if np.all(y == y[0]):
        return GpModel(x, RqKernelParams(0.0, *_START[:2]), float(y[0]), 0.0, np.zeros(y.size),
                       [-math.inf])
    lo = np.log([spacing, _SHAPE_BOX[0], _NOISE_BOX[0]])
    hi = np.log([_LENGTH_MAX, _SHAPE_BOX[1], _NOISE_BOX[1]])
    theta = np.clip(np.log(_START), lo, hi)
    nll, grad, fit = _profiled(sq, y, theta, True)
    trace, step = [nll], 1.0
    for _ in range(_MAX_ITERS):
        for _ in range(30):
            cand = np.clip(theta - step * grad, lo, hi)
            if not np.array_equal(cand, theta) and _profiled(sq, y, cand, False)[0] < nll:
                break
            step *= 0.5
        else:
            break  # no descent step left
        nll, cand_grad, fit = _profiled(sq, y, cand, True)
        s, dg = cand - theta, cand_grad - grad
        step = float(s @ dg) / float(dg @ dg) if s @ dg > 0 else 1.0
        theta, grad = cand, cand_grad
        trace.append(nll)
        if trace[-2] - nll <= _RTOL * abs(nll):
            break
    mu, v, b = fit
    l, a, lam = np.exp(theta)
    return GpModel(x, RqKernelParams(v, float(l), float(a)), mu, v * float(lam), b / v, trace)


def gp_predict(model: GpModel, x_query: np.ndarray) -> np.ndarray:
    """Predictive mean at query coordinates."""
    xq = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
    return model.mean + rq_kernel(xq, model.x_train, model.params) @ model.weights


def superres_q(qfield: QField, target_grid: GridSpec) -> tuple[QField, GpModel]:
    """Transport a conformal parameter field to a new grid via the GP mean.

    Locations with infinite q are excluded from the fit (they carry no
    finite information); if none are finite the transport is impossible.
    Negative predictive means are clamped to zero so band widths stay
    non-negative. Very large source grids are fit on a tensor sub-grid that
    keeps every stride-th point along each axis.
    """
    finite = qfield.finite_mask
    if not np.any(finite):
        raise GpFitError("all conformal parameters are infinite; nothing to fit")
    dropped = int(finite.size - np.count_nonzero(finite))
    if dropped:
        warnings.warn(
            f"excluding {dropped} infinite conformal parameters from the fit",
            RuntimeWarning,
            stacklevel=2,
        )
    stride, sub = 1, (slice(None),) * finite.ndim
    while np.count_nonzero(finite[sub]) > _MAX_FIT_POINTS:
        stride += 1
        sub = (slice(None, None, stride),) * finite.ndim
    mask = finite[sub].ravel()
    coords = normalized_coordinates(qfield.grid).reshape(*finite.shape, -1)[sub]
    coords = coords.reshape(mask.size, -1)[mask]
    values = qfield.values[sub].ravel()[mask]
    model = gp_fit(coords, values)
    model.stride = stride
    mean = gp_predict(model, normalized_coordinates(target_grid))
    mean = np.maximum(mean, 0.0).reshape(target_grid.shape)
    return QField(mean, target_grid, qfield.alpha, qfield.z), model
