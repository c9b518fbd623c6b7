"""Central-difference check of the analytic gradients of `opcert.autodiff`."""

from __future__ import annotations

import numpy as np

from opcert.autodiff import backward


def grad_check(
    closure,
    parameters,
    eps: float = 1e-5,
    samples: int = 24,
    seed: int = 0,
    atol: float = 1e-8,
):
    """Max relative error between analytic gradients and central differences.

    closure() must rebuild the (deterministic) scalar loss graph from the
    parameters' current values. Returns {param name: max rel error} over
    up to `samples` randomly chosen coordinates per parameter; empty when
    there are no parameters. Coordinates where both magnitudes fall below
    atol are skipped: central differences at step eps cannot resolve
    gradients beneath roughly machine-eps/eps, so comparing there would
    only measure roundoff.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    parameters = list(parameters)
    if not parameters:
        return {}
    for p in parameters:
        p.zero_grad()
    backward(closure())
    analytic = {p.name: p.grad.copy() for p in parameters}
    rng = np.random.default_rng(seed)
    errors = {}
    for p in parameters:
        flat = p.value.reshape(-1)
        idxs = np.arange(flat.size)
        if flat.size > samples:
            idxs = rng.choice(flat.size, size=samples, replace=False)
        worst = 0.0
        ana = analytic[p.name].reshape(-1)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            up = float(closure().value)
            flat[i] = keep - eps
            dn = float(closure().value)
            flat[i] = keep
            fd = (up - dn) / (2.0 * eps)
            if abs(ana[i]) < atol and abs(fd) < atol:
                continue
            err = abs(ana[i] - fd) / (abs(ana[i]) + abs(fd) + 1e-12)
            worst = max(worst, err)
        errors[p.name] = worst
        p.grad[...] = analytic[p.name]
    return errors
