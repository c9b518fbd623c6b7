"""Zero-mean Gaussian-process regression of the conformal parameter field.

The kernel is rational-quadratic, k(r) = variance * (1 + r^2/(2*a*l^2))^-a,
optimized in log-space by gradient descent with a backtracking line search
on the negative log marginal likelihood, with random restarts. The fitted
model maps normalized grid coordinates to conformal parameters so bands
calibrated on one grid can be transported to a finer one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import GridSpec, SeededRng, normalized_coordinates
from .conformal import QField

_DEFAULT_THETA = (1.0, 0.2, 1.0)  # variance, length scale, shape exponent
_MAX_FIT_POINTS = 4000


class GpFitError(RuntimeError):
    """Kernel matrix could not be factorized or inputs are degenerate."""


@dataclass(frozen=True)
class RqKernelParams:
    variance: float = 1.0
    length_scale: float = 0.2
    shape: float = 1.0

    def __post_init__(self):
        if self.variance <= 0 or self.length_scale <= 0 or self.shape <= 0:
            raise ValueError(f"kernel parameters must be positive, got {self}")

    def to_log(self) -> np.ndarray:
        return np.log([self.variance, self.length_scale, self.shape])

    @staticmethod
    def from_log(theta: np.ndarray) -> "RqKernelParams":
        v, l, a = np.exp(theta)
        return RqKernelParams(float(v), float(l), float(a))


def _sqdist(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    d = x1[:, None, :] - x2[None, :, :]
    return np.sum(d * d, axis=2)


def rq_kernel(x1: np.ndarray, x2: np.ndarray, params: RqKernelParams) -> np.ndarray:
    """Rational-quadratic covariance between coordinate rows."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    u = _sqdist(x1, x2) / (2.0 * params.shape * params.length_scale**2)
    return params.variance * (1.0 + u) ** (-params.shape)


# keep line-search probes inside a numerically representable box
_LOG_BOUND = 12.0


def _kernel_and_grads(x: np.ndarray, theta: np.ndarray):
    """K and dK/d(log theta_j) for the three log-parameters."""
    v, l, a = np.exp(theta)
    with np.errstate(over="ignore"):
        u = _sqdist(x, x) / (2.0 * a * l * l)
        base = v * (1.0 + u) ** (-a)
        du = u / (1.0 + u)
        dv = base
        dl = base * (2.0 * a * du)
        da = base * a * (du - np.log1p(u))
    return base, (dv, dl, da)


def _nll_value_grad(x, y, theta, jitter):
    n = x.shape[0]
    k, grads = _kernel_and_grads(x, theta)
    k_j = k + jitter * np.eye(n)
    try:
        factor = cho_factor(k_j, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise GpFitError(f"kernel not positive definite at theta={np.exp(theta)}") from exc
    alpha = cho_solve(factor, y, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    nll = 0.5 * (logdet + float(y @ alpha))
    kinv = cho_solve(factor, np.eye(n), check_finite=False)
    inner = kinv - np.outer(alpha, alpha)
    grad = np.array([0.5 * float(np.sum(inner * dk)) for dk in grads])
    return nll, grad, factor, alpha


def _nll_only(x, y, theta, jitter):
    n = x.shape[0]
    k, _ = _kernel_and_grads(x, theta)
    try:
        factor = cho_factor(k + jitter * np.eye(n), lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return np.inf
    alpha = cho_solve(factor, y, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return 0.5 * (logdet + float(y @ alpha))


@dataclass
class GpModel:
    x_train: np.ndarray
    targets: np.ndarray
    params: RqKernelParams
    jitter: float
    stride: int = 1
    nll: float = math.inf
    nll_trace: list = field(default_factory=list)
    _factor: tuple = None
    _alpha: np.ndarray = None

    def refactor(self):
        n = self.x_train.shape[0]
        k = rq_kernel(self.x_train, self.x_train, self.params) + self.jitter * np.eye(n)
        self._factor = cho_factor(k, lower=True, check_finite=False)
        self._alpha = cho_solve(self._factor, self.targets, check_finite=False)


def gp_fit(
    x: np.ndarray,
    y: np.ndarray,
    theta0: RqKernelParams | None = None,
    eps_tol: float = 1e-9,
    max_iters: int = 150,
    jitter: float = 1e-10,
    restarts: int = 5,
    rng: SeededRng | None = None,
) -> GpModel:
    """Minimize the NLL over log-parameters; best of `restarts` starts.

    Gradient descent with a backtracking (halving) line search that only
    accepts descent steps; a run stops when the squared parameter change
    drops to eps_tol or at max_iters. The Cholesky jitter escalates from
    its initial value to 1e-6 before the fit is declared failed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs vs {y.size} targets")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    if np.unique(x, axis=0).shape[0] != x.shape[0]:
        raise GpFitError("duplicate training inputs make the kernel singular")
    theta0 = theta0 or RqKernelParams(*_DEFAULT_THETA)
    rng = rng or SeededRng(0, 0)
    gen = rng.generator()
    starts = [theta0.to_log()]
    for _ in range(max(0, restarts - 1)):
        starts.append(theta0.to_log() + gen.uniform(-1.5, 1.5, size=3))

    best = None
    jit = jitter
    while True:
        try:
            for start in starts:
                theta = start.copy()
                nll, grad, _, _ = _nll_value_grad(x, y, theta, jit)
                trace = [nll]
                for _ in range(max_iters):
                    step = 1.0
                    moved = False
                    for _ in range(30):
                        cand = np.clip(theta - step * grad, -_LOG_BOUND, _LOG_BOUND)
                        cand_nll = _nll_only(x, y, cand, jit)
                        if cand_nll < nll:
                            moved = True
                            break
                        step *= 0.5
                    if not moved:
                        break
                    delta = cand - theta
                    theta = cand
                    nll, grad, _, _ = _nll_value_grad(x, y, theta, jit)
                    trace.append(nll)
                    if float(delta @ delta) <= eps_tol:
                        break
                if best is None or nll < best[0]:
                    best = (nll, theta, trace)
            break
        except GpFitError:
            if jit >= 1e-6:
                raise
            jit = min(jit * 100.0, 1e-6)
            best = None
    nll, theta, trace = best
    model = GpModel(
        x_train=x,
        targets=y,
        params=RqKernelParams.from_log(theta),
        jitter=jit,
        nll=nll,
        nll_trace=trace,
    )
    model.refactor()
    return model


def gp_predict(model: GpModel, x_query: np.ndarray):
    """Predictive mean and variance at query coordinates."""
    if model._factor is None:
        model.refactor()
    xq = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
    k_cross = rq_kernel(model.x_train, xq, model.params)  # (n, m)
    mean = k_cross.T @ model._alpha
    solved = cho_solve(model._factor, k_cross, check_finite=False)
    var = model.params.variance - np.sum(k_cross * solved, axis=0)
    if np.any(var < -1e-10):
        warnings.warn("predictive variance clipped from below", RuntimeWarning, stacklevel=2)
    return mean, np.maximum(var, 0.0)


def superres_q(
    qfield: QField,
    target_grid: GridSpec,
    theta0: RqKernelParams | None = None,
    eps_tol: float = 1e-9,
    max_iters: int = 150,
    rng: SeededRng | None = None,
) -> tuple[QField, GpModel]:
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
    model = gp_fit(
        coords, values, theta0=theta0, eps_tol=eps_tol, max_iters=max_iters, rng=rng
    )
    model.stride = stride
    query = normalized_coordinates(target_grid)
    mean, _ = gp_predict(model, query)
    mean = np.maximum(mean, 0.0).reshape(target_grid.shape)
    return QField(mean, target_grid, qfield.alpha, qfield.z), model
