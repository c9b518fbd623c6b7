"""Minimal reverse-mode differentiation over the operator's op set.

A computation is a DAG of Node objects built eagerly; each op records its
inputs and a per-parent gradient closure. backward() traverses the graph
once in reverse topological order and accumulates into Parameter.grad.
Values are float64 ndarrays with an explicit batch-first layout where the
ops say so; there is no implicit broadcasting between two nodes.

backward() uses the graph up as it goes: a node drops its parents and
closures, then runs the closures last parent first and frees each once it
has run. What a closure kept is thus freed during the backward, even while
the caller still holds the loss or the output node; in `affine`, the
weight gradient frees the input it read before the input gradient
allocates an array of that size. A later backward that reaches a used
node raises GraphError, since its gradients would stop there.

A node's own value stays until release() drops it. Forward code releases
a node once its last consumer is built, so that a step holds only the
arrays some closure reads, each for as long as that closure lives.
Reading a released value raises GraphError; every other value stays
readable after the backward (in the operator: the output, the loss and
the spike gates). gelu's closure writes its gradient over the cdf it
keeps, so it runs once, and a second call raises GraphError.

The wavelet ops act on the coarsest approximation only. `dwt1d` returns
A v for the level-L approximation analysis A of `wavelet.lowpass_pair`
(its backward is A^T g), `idwt1d` is the matching synthesis, and
`wavelet_scale` gives a @ r - a. Because A^T A projects onto V_L and the
details pass through unchanged, the full transform-mix-inverse of a layer
equals v + idwt1d(wavelet_scale(dwt1d(v), r)). Symmetric padding of grids
that 2^L does not divide is folded into the pair; `dwt2d`/`idwt2d` apply
it separably along H and W.

gelu keeps only its cdf from the forward and forms the derivative inside
its gradient closure, so a forward that is never differentiated pays for
no exp and holds no derivative array. Its kernels work in place: the
forward fills new cdf and x * cdf arrays, the backward writes
g * (cdf + x * pdf) over cdf through a small per-block temporary. Each
element goes through the same ufuncs in the same order as the one-shot
formula, so the results are bitwise equal to it.

The per-sample work of a step runs on two cores through `core.halves`:
the gelu kernels over flat halves of their arrays, and the matmuls of
`affine`, `conv1x1` (forward and input gradient) and the wavelet
analysis and synthesis over halves of the batch axis. Each half makes
the same per-element ufunc or per-sample BLAS calls as the whole, so
the results do not depend on the split. Weight-gradient reductions, the
bias sums and the losses stay whole: splitting them would change their
summation order. Only private kernels run on the helper thread.

The spiking activation has two modes. In hard mode the forward emits exact
threshold spikes and the backward substitutes a logistic surrogate for the
threshold derivative (the values seen by the backward are the hard ones).
In smooth mode the logistic gate itself is used in the forward, making the
whole network differentiable; finite differences of the smooth forward
match the analytic gradients, which is how spiking models are checked.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, expit

from . import wavelet as wv
from .core import ShapeError, halves

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class GraphError(ValueError):
    """Ill-formed graph construction or backward request."""


class Node:
    """One value in the computation graph."""

    __slots__ = ("_value", "parents", "grad_fns", "_consumed")

    def __init__(self, value, parents=(), grad_fns=()):
        self._value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.grad_fns = tuple(grad_fns)
        self._consumed = False

    @property
    def value(self) -> np.ndarray:
        if self._value is None:
            raise GraphError("this node's value was released")
        return self._value

    @value.setter
    def value(self, value):
        self._value = value


class Parameter(Node):
    """Trainable leaf with a gradient accumulator of the same shape."""

    __slots__ = ("name", "grad")

    def __init__(self, value, name: str):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def constant(value) -> Node:
    return Node(value)


def release(*nodes):
    """Drop the nodes' values; reading one afterwards raises GraphError.

    A gradient closure holds its own reference to what it reads, so a
    released array lives only as long as the closures that read it.
    """
    for node in nodes:
        node._value = None


def _check_same(a: Node, b: Node, op: str):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Node, b: Node) -> Node:
    _check_same(a, b, "add")
    return Node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def sub(a: Node, b: Node) -> Node:
    _check_same(a, b, "sub")
    return Node(a.value - b.value, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Node, b: Node) -> Node:
    _check_same(a, b, "mul")
    av, bv = a.value, b.value
    return Node(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value * c, (a,), (lambda g: g * c,))


def _matmul(a: np.ndarray, m: np.ndarray, bias=None) -> np.ndarray:
    """a @ m (+ bias) for a (..., K) and m (K, M); (B, N, K) splits over B."""
    if a.ndim < 3:
        out = a @ m
        if bias is not None:
            out += bias
        return out
    out = np.empty(a.shape[:-1] + (m.shape[1],))

    def kernel(s):
        part = np.matmul(a[s], m, out=out[s])
        if bias is not None:
            part += bias

    halves(kernel, len(a), max(math.prod(a.shape[1:]), math.prod(out.shape[1:])))
    return out


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for x (..., C_in), w (C_in, C_out), b (C_out,)."""
    xv, wv_, bv = x.value, w.value, b.value
    if xv.shape[-1] != wv_.shape[0] or wv_.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"affine: x {xv.shape}, w {wv_.shape}, b {bv.shape} incompatible"
        )
    out = _matmul(xv, wv_, bv)
    lead = tuple(range(xv.ndim - 1))
    return Node(
        out,
        (x, w, b),
        (
            lambda g: _matmul(g, wv_.T),
            lambda g: np.tensordot(xv, g, axes=(lead, lead)),
            lambda g: g.sum(axis=lead),
        ),
    )


def conv1x1(x: Node, k: Node) -> Node:
    """Pointwise channel mixing x @ k, x (..., C_in), k (C_in, C_out)."""
    xv, kv = x.value, k.value
    if xv.shape[-1] != kv.shape[0]:
        raise ShapeError(f"conv1x1: x {xv.shape} and kernel {kv.shape} incompatible")
    lead = tuple(range(xv.ndim - 1))
    return Node(
        _matmul(xv, kv),
        (x, k),
        (lambda g: _matmul(g, kv.T), lambda g: np.tensordot(xv, g, axes=(lead, lead))),
    )


def layer_sum(a: Node, b: Node, bias: Node) -> Node:
    """(a + b) + bias, with a per-channel bias on the last axis, in one array."""
    _check_same(a, b, "layer_sum")
    if a.value.shape[-1] != bias.value.shape[0] or bias.value.ndim != 1:
        raise ShapeError(f"layer_sum: a {a.value.shape}, bias {bias.value.shape}")
    out = a.value + b.value
    out += bias.value
    lead = tuple(range(out.ndim - 1))
    return Node(out, (a, b, bias), (lambda g: g, lambda g: g, lambda g: g.sum(axis=lead)))


# The gelu kernels apply, in place and in this order, the one-shot formulas
#   cdf = 0.5 * (1 + erf(x / sqrt2)),   value = x * cdf,
#   g * (cdf + x * (c * exp((-0.5 * x) * x))),   c = 1 / sqrt(2 pi).
# Both run over flat halves of their arrays.
_GELU_BLOCK = 2**16  # elements of the slope kernel's per-block temporary


def _gelu_cdf_value(x: np.ndarray):
    """(cdf, x * cdf) of the erf-based gelu."""
    cdf, value = np.empty(x.shape), np.empty(x.shape)
    xf, cf, vf = np.ravel(x), cdf.reshape(-1), value.reshape(-1)

    def kernel(s):
        c = np.divide(xf[s], _SQRT2, out=cf[s])
        erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(xf[s], c, out=vf[s])

    halves(kernel, xf.size)
    return cdf, value


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, g=None) -> np.ndarray:
    """gelu'(x), times g when given, written over cdf and returned.

    The exp term goes through a temporary of at most _GELU_BLOCK elements.
    """
    xf, cf = np.ravel(x), cdf.reshape(-1)
    gf = None if g is None else np.ravel(g)

    def kernel(s):
        tmp = np.empty(min(_GELU_BLOCK, s.stop - s.start))
        for lo in range(s.start, s.stop, _GELU_BLOCK):
            b = slice(lo, min(lo + _GELU_BLOCK, s.stop))
            t = np.multiply(xf[b], -0.5, out=tmp[: b.stop - lo])
            t *= xf[b]
            np.exp(t, out=t)
            t *= _INV_SQRT_2PI
            t *= xf[b]
            cf[b] += t
            if gf is not None:
                cf[b] *= gf[b]

    halves(kernel, xf.size)
    return cdf


def gelu_value_grad(x: np.ndarray):
    """Exact (erf-based) gelu and its derivative."""
    x = np.asarray(x, dtype=np.float64)
    cdf, value = _gelu_cdf_value(x)
    return value, _gelu_slope(x, cdf)


def gelu(x: Node) -> Node:
    """gelu; the derivative is formed only if the backward runs.

    The gradient closure writes over the cdf it keeps, so it runs once; a
    second call raises GraphError.
    """
    xv = x.value
    cdf, value = _gelu_cdf_value(xv)

    def grad(g):
        nonlocal cdf
        if cdf is None:
            raise GraphError("gelu's gradient was already formed over its kept cdf")
        slope, cdf = _gelu_slope(xv, cdf, g), None
        return slope

    return Node(value, (x,), (grad,))


def sum_all(x: Node) -> Node:
    shape = x.value.shape
    return Node(np.sum(x.value), (x,), (lambda g: np.full(shape, float(g)),))


def mean_all(x: Node) -> Node:
    shape = x.value.shape
    n = x.value.size
    return Node(np.mean(x.value), (x,), (lambda g: np.full(shape, float(g) / n),))


def sum_per_sample(x: Node) -> Node:
    """Reduce (B, ...) to per-sample sums (B,)."""
    shape = x.value.shape
    if x.value.ndim < 2:
        raise GraphError("sum_per_sample needs a batch axis")
    axes = tuple(range(1, x.value.ndim))
    expand = (slice(None),) + (None,) * (x.value.ndim - 1)
    return Node(
        x.value.sum(axis=axes),
        (x,),
        (lambda g: np.broadcast_to(g[expand], shape).copy(),),
    )


def sqrt_vec(x: Node, floor: float = 1e-150) -> Node:
    """Elementwise square root with a gradient floor at zero."""
    r = np.sqrt(np.maximum(x.value, 0.0))
    return Node(r, (x,), (lambda g: g / (2.0 * np.maximum(r, floor)),))


def dot_const(x: Node, weights: np.ndarray) -> Node:
    """Scalar inner product with a constant weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != x.value.shape:
        raise ShapeError(f"dot_const: {x.value.shape} vs {w.shape}")
    return Node(np.dot(x.value, w), (x,), (lambda g: float(g) * w,))


# --- wavelet-domain ops ----------------------------------------------------


def _separable(v: np.ndarray, mats, shape) -> np.ndarray:
    """Apply mats[i] along grid axis i of (..., prod(shape), C) fields.

    The fields split over halves of their leading (batch) axes.
    """
    ch = v.shape[-1]
    stack = v.reshape((-1,) + v.shape[-2:])
    dims = [tuple(shape)]
    for i, m in enumerate(mats):
        dims.append(dims[i][:i] + (m.shape[0],) + dims[i][i + 1 :])
    out = np.empty((len(stack), math.prod(dims[-1]), ch))

    def blocks(a, i, grid):
        return a.reshape((len(a), math.prod(grid[:i]), grid[i], math.prod(grid[i + 1 :]) * ch))

    def kernel(s):
        cur = stack[s]
        for i, m in enumerate(mats):
            dst = blocks(out[s], i, dims[i + 1]) if i == len(mats) - 1 else None
            cur = np.matmul(m, blocks(cur, i, dims[i]), out=dst)

    halves(kernel, len(stack), max(math.prod(stack.shape[1:]), math.prod(out.shape[1:])))
    return out.reshape(v.shape[:-2] + out.shape[1:])


def _lowpass(x: Node, filt: wv.WaveletFilter, levels: int, shape, synthesis: bool) -> Node:
    """Analysis (grid -> coarse) or synthesis (coarse -> grid) of the lowpass pair."""
    pairs = [wv.lowpass_pair(filt.name, n, levels) for n in shape]
    coarse = tuple(a.shape[0] for a, _ in pairs)
    src, dst = (coarse, shape) if synthesis else (shape, coarse)
    if x.value.shape[-2] != math.prod(src):
        raise ShapeError(f"wavelet op: {x.value.shape} does not hold a {src} grid")
    mats = [s if synthesis else a for a, s in pairs]
    back = [m.T for m in mats]
    return Node(_separable(x.value, mats, src), (x,), (lambda g: _separable(g, back, dst),))


def dwt1d(x: Node, filt: wv.WaveletFilter, levels: int) -> Node:
    """Level-L approximation A x along axis -2 of (..., N, C) fields.

    Returns (..., ceil(N / 2^L), C); the backward is A^T g. A length that
    2^L does not divide is symmetric-padded, folded into A.
    """
    return _lowpass(x, filt, levels, x.value.shape[-2:-1], False)


def idwt1d(c: Node, filt: wv.WaveletFilter, levels: int, n: int) -> Node:
    """Synthesis of (..., n_a, C) approximation coefficients onto n samples."""
    return _lowpass(c, filt, levels, (n,), True)


def dwt2d(x: Node, filt: wv.WaveletFilter, levels: int, hw) -> Node:
    """Separable level-L approximation of (..., H*W, C) fields on an H-by-W grid.

    Returns (..., ha*wa, C), row-major over the coarse grid.
    """
    return _lowpass(x, filt, levels, tuple(hw), False)


def idwt2d(c: Node, filt: wv.WaveletFilter, levels: int, hw) -> Node:
    """Separable synthesis of (..., ha*wa, C) coefficients onto the H-by-W grid."""
    return _lowpass(c, filt, levels, tuple(hw), True)


def wavelet_scale(a: Node, r: Node) -> Node:
    """Change a @ r - a of approximation coefficients a (..., n_a, C).

    r is a single (C, C) mixing matrix shared across approximation
    positions. Sharing it keeps the operator consistent when the
    decomposition depth shifts with the grid resolution: it weights the
    lowpass subspace rather than individual phase-sensitive coefficients.
    """
    av, rv = a.value, r.value
    ch = av.shape[-1]
    if rv.shape != (ch, ch):
        raise ShapeError(f"wavelet_scale: weights {rv.shape}, expected ({ch}, {ch})")

    def back_r(g):
        return av.reshape(-1, ch).T @ g.reshape(-1, ch)

    return Node(av @ rv - av, (a, r), (lambda g: g @ rv.T - g, back_r))


# --- spiking activation -----------------------------------------------------


def vsn(x: Node, threshold: Node, slope: float = 10.0, smooth: bool = False):
    """Threshold-gated activation on (..., C) fields, single time step.

    Membrane starts at zero each call, so one step gives membrane = x; the
    gate fires where membrane >= threshold and the output is gelu(gate * x)
    (zero input stays zero). Returns (output, gate) nodes; the gate node
    carries the spike field for activity penalties and reporting.
    """
    xv = x.value
    th = threshold.value
    if th.ndim != 1 or th.shape[0] != xv.shape[-1]:
        raise ShapeError(f"vsn: x {xv.shape}, threshold {th.shape} incompatible")
    membrane = xv
    sig = expit(slope * (membrane - th))
    surr = slope * sig * (1.0 - sig)
    gate = sig if smooth else (membrane >= th).astype(np.float64)
    pre = gate * xv
    act, dact = gelu_value_grad(pre)
    lead = tuple(range(xv.ndim - 1))

    def out_dx(g):
        return g * dact * (gate + xv * surr)

    def out_dth(g):
        return (g * dact * xv * (-surr)).sum(axis=lead)

    out_node = Node(act, (x, threshold), (out_dx, out_dth))

    def gate_dx(g):
        return g * surr

    def gate_dth(g):
        return (g * (-surr)).sum(axis=lead)

    gate_node = Node(gate, (x, threshold), (gate_dx, gate_dth))
    return out_node, gate_node


# --- traversal ---------------------------------------------------------------


def _topological(loss: Node):
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._consumed:
            raise GraphError("backward already ran through this graph")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def backward(loss: Node):
    """Accumulate d(loss)/d(param) into every reachable Parameter.grad.

    Uses up the graph: every node it passes drops its parents and
    gradient closures, runs the closures last parent first and frees each
    once it has run. Its value stays unless it was released. A second
    backward through any of them raises GraphError. Leaves (parameters,
    constants) stay reusable.
    """
    if loss.value.shape not in ((), (1,)):
        raise GraphError(f"loss must be scalar, got shape {loss.value.shape}")
    order = _topological(loss)
    grads = {id(loss): np.ones_like(loss.value)}
    while order:
        node = order.pop()
        g = grads.pop(id(node))
        if isinstance(node, Parameter):
            node.grad += g
            continue
        parents, fns = node.parents, list(node.grad_fns)
        if parents:
            node.parents = node.grad_fns = ()
            node._consumed = True
        while fns:  # last parent first; each closure is freed once it has run
            contrib = fns.pop()(g)
            key = id(parents[len(fns)])
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
