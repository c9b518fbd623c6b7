"""Gaussian-process regression of the conformal parameter field on its grid.

The model is y = mu + f + eps: a constant mean mu, a process f with
variance v and correlation R = R_1 (x) ... (x) R_D, one 1-D rational
quadratic factor (1 + r^2/(2*a*l^2))^-a per grid axis with shared (l, a),
and white noise eps with variance v*lam. A per-location `q` is noisy by
nature (each value is one order statistic), and the noise term keeps the
fit from chasing it. With A = R + lam*I, the mean and variance that
maximize the likelihood for fixed (l, a, lam) are mu = 1'A^-1 y / 1'A^-1 1
and v = r'A^-1 r / n with r = y - mu, so the fit searches only
log(l, a, lam) over this profiled likelihood.

The fit works in the eigenbasis of the grid (Saatci, PhD thesis, 2011;
Wilson et al., NeurIPS 2014): one `eigh` per factor, R_d = Q_d diag(e_d)
Q_d' with rounding-negative e_d clipped at 0, gives A the eigenvalues
E = e_1 (x) ... (x) e_D + lam >= lam, so likelihood, gradient and
prediction take a few n_d x n_d products per axis and no matrix over all
points. That needs a value at every grid point: an infinite q (a band over
the whole line) has nothing to transport, and `superres_q` rejects it. On
matrices this small OpenBLAS threads cost more than they save, so the fit
runs on one (`core.one_blas_thread`).

The search is projected gradient descent from `_START`. Each first trial
step is the Barzilai-Borwein step s'g/g'g from the last step's changes s
and g of parameters and gradient (1 at the start or where s'g <= 0),
halved until the NLL drops; each candidate comes with its gradient. The
run stops when an accepted step lowers the NLL by less than `_RTOL`
relative. The box is fixed: l from the smallest coordinate spacing to
`_LENGTH_MAX`, a over `_SHAPE_BOX`, lam over `_NOISE_BOX`, whose floor
keeps A positive definite. A constant target gives the constant model
(v = 0) without a search. The fitted mean maps normalized grid
coordinates to conformal parameters, so bands calibrated on one grid can
be transported to a finer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import GridSpec, coordinate_rows, normalized_axes, one_blas_thread
from .conformal import QField

_START = (0.2, 1.0, 1.0)  # length scale, shape, noise ratio
_LENGTH_MAX = 10.0
_SHAPE_BOX = (1e-2, 1e3)
_NOISE_BOX = (1e-8, 1e4)
_RTOL = 1e-10
_MAX_ITERS = 500


class GpFitError(RuntimeError):
    """The field cannot be fitted: duplicate coordinates or infinite values."""


@dataclass(frozen=True)
class RqKernelParams:
    variance: float = 1.0
    length_scale: float = 0.2
    shape: float = 1.0

    def __post_init__(self):
        if self.variance < 0 or self.length_scale <= 0 or self.shape <= 0:
            raise ValueError(f"need variance >= 0, length scale and shape > 0, got {self}")


def rq_kernel(x1: np.ndarray, x2: np.ndarray, params: RqKernelParams) -> np.ndarray:
    """Covariance between coordinate rows: the variance times one RQ factor per column."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    u = (x1[:, None, :] - x2[None, :, :]) ** 2 / (2.0 * params.shape * params.length_scale**2)
    return params.variance * np.prod((1.0 + u) ** (-params.shape), axis=2)


def _along(matrices, x: np.ndarray) -> np.ndarray:
    """x with matrices[d] applied along its axis d."""
    for d, m in enumerate(matrices):
        x = np.moveaxis(np.tensordot(m, x, axes=(1, d)), 0, d)
    return x


def _profiled(sqs, y: np.ndarray, theta: np.ndarray):
    """NLL, gradient and (mu, v, b = A^-1 r) at theta = log(l, a, lam), y on a grid.

    `sqs` holds each axis's squared coordinate differences. mu and v sit at
    their optimum, so d nll / d theta_j is 0.5 * (tr(A^-1 dA) - b'dA b / v).
    Axis d's share of dA is R_1 (x) .. dR_d .. (x) R_D: the trace weighs
    diag(Q_d' dR_d Q_d) by the other axes' eigenvalues over E, and b'(.)b
    applies each factor along its axis of b.
    """
    l, a, lam = np.exp(theta)
    corrs, eigs, vecs, derivs = [], [], [], []
    for sq in sqs:
        u = sq / (2.0 * a * l * l)
        corr = (1.0 + u) ** (-a)
        e, q = np.linalg.eigh(corr)
        du = u / (1.0 + u)
        corrs.append(corr)
        eigs.append(np.maximum(e, 0.0))
        vecs.append(q)
        derivs.append((corr * (2.0 * a * du), corr * (a * (du - np.log1p(u)))))
    eig = reduce(np.multiply.outer, eigs) + lam
    rot_y = _along([q.T for q in vecs], y)
    rot_1 = reduce(np.multiply.outer, [q.sum(axis=0) for q in vecs])
    mu = float(np.sum(rot_1 * rot_y / eig) / np.sum(rot_1 * rot_1 / eig))
    rot_r = rot_y - mu * rot_1
    rot_b = rot_r / eig
    v = float(np.sum(rot_r * rot_b)) / y.size
    nll = 0.5 * (y.size * math.log(2.0 * math.pi * v) + float(np.sum(np.log(eig))) + y.size)
    b = _along(vecs, rot_b)
    g = np.array([0.0, 0.0, lam * (np.sum(1.0 / eig) - np.sum(rot_b * rot_b) / v)])
    for d, (q, pair) in enumerate(zip(vecs, derivs)):
        for j, dr in enumerate(pair):
            diag = np.sum(q * (dr @ q), axis=0)
            trace = np.sum(reduce(np.multiply.outer, eigs[:d] + [diag] + eigs[d + 1 :]) / eig)
            g[j] += trace - np.sum(b * _along(corrs[:d] + [dr] + corrs[d + 1 :], b)) / v
    return nll, 0.5 * g, (mu, v, b)


@dataclass
class GpModel:
    axes: tuple  # coordinates along each axis of the training grid
    params: RqKernelParams
    mean: float
    noise: float
    weights: np.ndarray  # (R + lam I)^-1 (y - mean), in the training grid's shape
    nll_trace: list  # NLL at the start and after every accepted step

    @property
    def x_train(self) -> np.ndarray:
        """(N, dims) training coordinates, lexicographic rows."""
        return coordinate_rows(self.axes)


def gp_fit(axes, y) -> GpModel:
    """Maximize the profiled likelihood over the fixed box (module docstring).

    y holds one target per point of the grid over `axes`, one coordinate
    array per axis, in the grid's shape.
    """
    axes = tuple(np.asarray(x, dtype=np.float64).ravel() for x in axes)
    shape = tuple(x.size for x in axes)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != shape or min(shape) < 2:
        raise ValueError(f"need >= 2 points per axis and targets of the grid's shape, "
                         f"got grid {shape} and targets {y.shape}")
    spacing = min(float(np.min(np.diff(np.sort(x)))) for x in axes)
    if spacing == 0.0:
        raise GpFitError("duplicate training coordinates make the kernel singular")
    if np.all(y == y.flat[0]):
        return GpModel(axes, RqKernelParams(0.0, *_START[:2]), float(y.flat[0]), 0.0,
                       np.zeros(shape), [-math.inf])
    sqs = [np.subtract.outer(x, x) ** 2 for x in axes]
    lo = np.log([spacing, _SHAPE_BOX[0], _NOISE_BOX[0]])
    hi = np.log([_LENGTH_MAX, _SHAPE_BOX[1], _NOISE_BOX[1]])
    theta = np.clip(np.log(_START), lo, hi)
    with one_blas_thread():
        nll, grad, fit = _profiled(sqs, y, theta)
        trace, step = [nll], 1.0
        for _ in range(_MAX_ITERS):
            for _ in range(30):
                cand = np.clip(theta - step * grad, lo, hi)
                if not np.array_equal(cand, theta) and (new := _profiled(sqs, y, cand))[0] < nll:
                    break
                step *= 0.5
            else:
                break  # no descent step left
            s, dg = cand - theta, new[1] - grad
            step = float(s @ dg) / float(dg @ dg) if s @ dg > 0 else 1.0
            theta, (nll, grad, fit) = cand, new
            trace.append(nll)
            if trace[-2] - nll <= _RTOL * abs(nll):
                break
    mu, v, b = fit
    l, a, lam = np.exp(theta)
    return GpModel(axes, RqKernelParams(v, float(l), float(a)), mu, v * float(lam), b, trace)


def gp_predict(model: GpModel, axes) -> np.ndarray:
    """Predictive mean on the grid over query `axes`, in that grid's shape."""
    unit = RqKernelParams(1.0, model.params.length_scale, model.params.shape)
    cross = [rq_kernel(np.ravel(xq)[:, None], x[:, None], unit)
             for xq, x in zip(axes, model.axes, strict=True)]
    return model.mean + _along(cross, model.weights)


def superres_q(qfield: QField, target_grid: GridSpec) -> tuple[QField, GpModel]:
    """Transport a finite conformal parameter field to a new grid via the GP mean.

    Negative means are clamped to zero so band widths stay non-negative.
    """
    infinite = np.argwhere(~np.isfinite(qfield.values))
    if infinite.size:
        raise GpFitError(f"{len(infinite)} infinite conformal parameters, the first at location "
                         f"{tuple(map(int, infinite[0]))}; the grid fit needs every q finite")
    model = gp_fit(normalized_axes(qfield.grid), qfield.values)
    mean = np.maximum(gp_predict(model, normalized_axes(target_grid)), 0.0)
    return QField(mean, target_grid, qfield.alpha), model


def __getattr__(name):
    # No fit calls cho_factor, but bench/tracing.py still wraps `gp.cho_factor`.
    # Resolving it on first access keeps scipy.linalg (~6 MB resident) out of
    # every command. Delete this with that wrap (ROADMAP item 6).
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
