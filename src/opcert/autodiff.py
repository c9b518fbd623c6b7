"""Minimal reverse-mode differentiation over the operator's op set.

A computation is a DAG of Node objects built eagerly; each op records its
inputs and a per-parent gradient closure. backward(outputs, cotangents)
seeds each output node with a cotangent of its shape, traverses the graph
once in reverse topological order and accumulates the vector-Jacobian
product into Parameter.grad. A loss needs no node of its own: the caller
forms its gradient with respect to the outputs in closed form and passes
that as the cotangents (`neuralop._cotangents`). An output may be a
Parameter, whose cotangent goes to its grad. Values are float64 ndarrays
with an explicit batch-first layout where the ops say so; there is no
implicit broadcasting between two nodes.

backward() uses the graph up as it goes: a node drops its parents and
closures, then runs the closures last parent first and frees each once it
has run. What a closure kept is thus freed during the backward, even while
the caller still holds the output nodes; in `affine`, the weight gradient
frees the input it read before the input gradient allocates an array of
that size. A later backward that reaches a used node raises GraphError,
since its gradients would stop there.

Inference records nothing. Inside `no_graph()` every op returns a Node
with no parents and no closures, and forms no array that only a backward
reads: gelu keeps no cdf, and `vsn` forms no surrogate (nor, in hard
mode, a logistic). The values are bitwise those of a recorded forward. A
backward that reaches such a node raises GraphError, since its gradients
would all be zero. The scope is thread-local: `core.member_map` may run
one model's inference on one pool thread while another model trains on
another.

A node's own value stays until release() drops it. Forward code releases
a node once its last consumer is built, so that a step holds only the
arrays some closure reads, each for as long as that closure lives.
Reading a released value raises GraphError; every other value stays
readable after the backward (in the operator: the last layer's output
and the spike gates). gelu's and vsn's closures write their gradients
over the cdf they keep, so each runs once, and a second call raises
GraphError.

The wavelet ops act on the coarsest approximation only and apply the
matrices they are given, the (analysis, synthesis) pair of
`wavelet.lowpass_pair` for each grid axis. `dwt1d` returns A v for the
level-L approximation analysis A (its backward is A^T g), `idwt1d` applies
the matching synthesis, and `wavelet_scale` gives a_p @ r_p - a_p with
one (C, C) matrix per approximation position p. Because
A^T A projects onto V_L and the details pass through unchanged, the full
transform-mix-inverse of a layer equals
v + idwt1d(wavelet_scale(dwt1d(v), r)). `dwt2d`/`idwt2d` apply one matrix
along H and one along W. How a grid's boundary enters the pair (symmetric
padding of a grid that 2^L does not divide) is decided in `wavelet` alone.

gelu keeps only its cdf from the forward and forms the derivative inside
its gradient closure, so a forward that is never differentiated pays for
no exp and holds no derivative array. Its kernels work in place: the
forward fills new cdf and x * cdf arrays, the backward writes
g * (cdf + x * pdf) over cdf through a small per-block temporary. Each
element goes through the same ufuncs in the same order as the one-shot
formula, so the results are bitwise equal to it. `vsn` runs gelu's
kernels on gate * x, so it too forms its derivative in the backward,
over the cdf it keeps.

`projection`, the operator's head affine -> gelu -> affine, is no op of
the graph. It returns arrays, and given a per-sample cotangent of its
output it differentiates itself as it runs: it forwards one sample's
rows in blocks with gelu's kernels, takes that sample's cotangent, and
runs the sample's backward before the next sample's forward. Its
gradients come back as (node, cotangent) seeds for `backward`. So it
keeps one sample's (N, H) cdf at most, and inference one block's. This
works because each loss gives a sample's output cotangent from that
sample alone (`neuralop._cotangents`).

Every op runs its kernels once over its whole arrays, on the calling
thread; `core.member_map` runs whole models one per core. The weight
gradients and bias sums reduce in one fixed order, and `projection` sums
one partial per block, in block order.

The spiking activation has two modes. In hard mode the forward emits exact
threshold spikes and the backward substitutes a logistic surrogate of
slope `SURROGATE_SLOPE` (10) for the threshold derivative (the values
seen by the backward are the hard ones). In smooth mode the logistic gate
itself is used in the forward, making the whole network differentiable;
finite differences of the smooth forward match the analytic gradients,
which is how spiking models are checked.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import erf, expit

from .core import ShapeError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
SURROGATE_SLOPE = 10.0  # steepness of vsn's logistic surrogate gate


class GraphError(ValueError):
    """Ill-formed graph construction or backward request."""


class Node:
    """One value in the computation graph.

    recorded is False for an op's output built inside `no_graph`: it has
    no parents and no closures, and a backward that reaches it raises.
    """

    __slots__ = ("_value", "parents", "grad_fns", "_consumed", "recorded")

    def __init__(self, value, parents=(), grad_fns=(), recorded=True):
        self._value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.grad_fns = tuple(grad_fns)
        self._consumed = False
        self.recorded = recorded

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


class _Recording(threading.local):
    on = True  # each thread starts recording


_recording = _Recording()


@contextmanager
def no_graph():
    """Within the block, this thread's ops record no graph.

    Each op returns a Node that has no parents and no gradient closures,
    and forms no array that only its backward reads. On exit the thread
    is back in the state it found, also on a raise.
    """
    was, _recording.on = _recording.on, False
    try:
        yield
    finally:
        _recording.on = was


def _node(value, parents, grad_fns) -> Node:
    """An op's output; inside `no_graph` it keeps neither parents nor closures."""
    if _recording.on:
        return Node(value, parents, grad_fns)
    return Node(value, recorded=False)


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
    return _node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def _matmul(a: np.ndarray, m: np.ndarray, bias=None) -> np.ndarray:
    """a @ m (+ bias) for a (..., K) and m (K, M)."""
    out = a @ m
    if bias is not None:
        out += bias
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
    return _node(
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
    return _node(
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
    return _node(out, (a, b, bias), (lambda g: g, lambda g: g, lambda g: g.sum(axis=lead)))


# The gelu kernels apply, in place and in this order, the one-shot formulas
#   cdf = 0.5 * (1 + erf(x / sqrt2)),   value = x * cdf,
#   g * (cdf + x * (c * exp((-0.5 * x) * x))),   c = 1 / sqrt(2 pi).
# `gelu` runs them over its whole arrays, `projection` per block.
_GELU_BLOCK = 2**16  # elements of the slope kernel's per-block temporary
_PROJECTION_ROWS = 512  # rows of one sample per block of `projection`


def _cdf_value_kernel(x, cdf, value):
    """Fill cdf and value (which may be x itself) with gelu's cdf and x * cdf."""
    c = np.divide(x, _SQRT2, out=cdf)
    erf(c, out=c)
    c += 1.0
    c *= 0.5
    np.multiply(x, c, out=value)


def _slope_kernel(x, cdf, tmp, g=None):
    """Write gelu'(x), times g when given, over cdf; tmp is scratch of x's shape."""
    t = np.multiply(x, -0.5, out=tmp)
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    cdf += t
    if g is not None:
        cdf *= g


def _gelu_cdf_value(x: np.ndarray):
    """(cdf, x * cdf) of the erf-based gelu."""
    cdf, value = np.empty(x.shape), np.empty(x.shape)
    _cdf_value_kernel(x, cdf, value)
    return cdf, value


def _gelu_value(x: np.ndarray) -> np.ndarray:
    """x * cdf of the erf-based gelu, with the cdf formed in the value's array."""
    value = np.empty(x.shape)
    _cdf_value_kernel(x, value, value)
    return value


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """gelu'(x) * g, written over cdf and returned.

    The exp term goes through a temporary of at most _GELU_BLOCK elements.
    """
    xf, cf, gf = np.ravel(x), cdf.reshape(-1), np.ravel(g)
    tmp = np.empty(min(_GELU_BLOCK, xf.size))
    for lo in range(0, xf.size, _GELU_BLOCK):
        b = slice(lo, min(lo + _GELU_BLOCK, xf.size))
        _slope_kernel(xf[b], cf[b], tmp[: b.stop - lo], gf[b])
    return cdf


def gelu(x: Node) -> Node:
    """gelu; the derivative is formed only if the backward runs.

    The gradient closure writes over the cdf it keeps, so it runs once; a
    second call raises GraphError. Inside `no_graph` no cdf is kept.
    """
    xv = x.value
    if not _recording.on:
        return Node(_gelu_value(xv), recorded=False)
    cdf, value = _gelu_cdf_value(xv)

    def grad(g):
        nonlocal cdf
        if cdf is None:
            raise GraphError("gelu's gradient was already formed over its kept cdf")
        slope, cdf = _gelu_slope(xv, cdf, g), None
        return slope

    return Node(value, (x,), (grad,))


def projection(x: Node, w1: Node, b1: Node, w2: Node, b2: Node, cotangent=None,
               gelu: bool = True):
    """The operator's head gelu(x @ w1 + b1) @ w2 + b2 on x (..., N, C), w1 (C, H), w2 (H, O).

    Returns (out, seeds): the (..., N, O) output array and, when
    cotangent is given, the head's gradients for x and the four weights
    as the (node, cotangent) pairs that `backward` takes (an empty list
    otherwise). Without gelu the head is affine -> affine.

    The head is no node of the graph: it differentiates itself while it
    runs. It goes one sample (N rows of x) at a time, over blocks of at
    most _PROJECTION_ROWS rows. After sample i's forward, cotangent(i,
    out_i) gives the gradient with respect to its (1, N, O) output out_i,
    and the sample's backward runs at once. So the head keeps one
    sample's (N, H) gelu cdf, and without cotangent one block's. The
    backward recomputes each block's x @ w1 + b1 and never erf. Blocks
    split a sample at multiples of _PROJECTION_ROWS, so OpenBLAS groups
    each row as in `affine`'s per-sample calls: the values and the input
    gradient are bitwise those of affine -> gelu -> affine. The weight and
    bias gradients are one partial per block, summed in block order.
    """
    xv, w1v, b1v, w2v, b2v = (n.value for n in (x, w1, b1, w2, b2))
    if xv.ndim < 2 or w1v.ndim != 2 or w2v.ndim != 2 or xv.shape[-1:] != w1v.shape[:1] or (
            b1v.shape != w1v.shape[1:] or w2v.shape[0] != w1v.shape[1]
            or b2v.shape != w2v.shape[1:]):
        raise ShapeError(
            f"projection: x {xv.shape}, w1 {w1v.shape}, b1 {b1v.shape}, w2 {w2v.shape}, "
            f"b2 {b2v.shape} incompatible"
        )
    hidden = w1v.shape[1]
    xs = xv.reshape((-1,) + xv.shape[-2:])
    rows = xs.shape[1]
    step = min(rows, _PROJECTION_ROWS)
    blocks = [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    train = cotangent is not None
    out, hbuf = np.empty(xs.shape[:2] + w2v.shape[1:]), np.empty((step, hidden))
    if gelu:
        cdf = np.empty((rows if train else step, hidden))
    if train:
        dx, tbuf = np.empty(xs.shape), np.empty((step, hidden))
        grads = [np.zeros(p.shape) for p in (w1v, b1v, w2v, b2v)]

    def hidden_in(xi, r):
        """x @ w1 + b1 on rows r of one sample, into hbuf."""
        h = np.matmul(xi[r], w1v, out=hbuf[: r.stop - r.start])
        h += b1v
        return h

    for i, xi in enumerate(xs):
        for r in blocks:
            h = hidden_in(xi, r)
            if gelu:
                _cdf_value_kernel(h, cdf[r] if train else cdf[: len(h)], h)
            np.matmul(h, w2v, out=out[i, r])
            out[i, r] += b2v
        if not train:
            continue
        g = cotangent(i, out[i : i + 1])[0]
        for r in blocks:
            h = hidden_in(xi, r)
            t = np.multiply(h, cdf[r], out=tbuf[: len(h)]) if gelu else h  # gelu's value
            grads[2] += t.T @ g[r]
            grads[3] += g[r].sum(axis=0)
            if gelu:
                c = cdf[r]
                _slope_kernel(h, c, t)
                c *= np.matmul(g[r], w2v.T, out=t)
            else:
                c = np.matmul(g[r], w2v.T, out=tbuf[: len(h)])
            np.matmul(c, w1v.T, out=dx[i, r])
            grads[0] += xi[r].T @ c
            grads[1] += c.sum(axis=0)
    value = out.reshape(xv.shape[:-1] + out.shape[-1:])
    if not train:
        return value, []
    return value, list(zip((x, w1, b1, w2, b2), [dx.reshape(xv.shape)] + grads))


# --- wavelet-domain ops ----------------------------------------------------


def _separable(v: np.ndarray, mats, shape) -> np.ndarray:
    """Apply mats[i] along grid axis i of (..., prod(shape), C) fields."""
    ch = v.shape[-1]
    cur, grid = v.reshape((-1,) + v.shape[-2:]), tuple(shape)
    for i, m in enumerate(mats):
        cur = m @ cur.reshape((len(cur), math.prod(grid[:i]), grid[i],
                               math.prod(grid[i + 1 :]) * ch))
        grid = grid[:i] + (m.shape[0],) + grid[i + 1 :]
    return cur.reshape(v.shape[:-2] + (math.prod(grid), ch))


def _lowpass(x: Node, mats) -> Node:
    """Apply mats[i] along grid axis i of x; the backward applies their transposes."""
    src, dst = tuple(m.shape[1] for m in mats), tuple(m.shape[0] for m in mats)
    if x.value.shape[-2] != math.prod(src):
        raise ShapeError(f"wavelet op: {x.value.shape} does not hold a {src} grid")
    back = [m.T for m in mats]
    return _node(_separable(x.value, mats, src), (x,), (lambda g: _separable(g, back, dst),))


def dwt1d(x: Node, analysis: np.ndarray) -> Node:
    """Level-L approximation A x along axis -2 of (..., N, C) fields.

    analysis is A, (n_a, N); returns (..., n_a, C), and the backward is A^T g.
    """
    return _lowpass(x, (analysis,))


def idwt1d(c: Node, synthesis: np.ndarray) -> Node:
    """Synthesis of (..., n_a, C) approximation coefficients; synthesis is (N, n_a)."""
    return _lowpass(c, (synthesis,))


def dwt2d(x: Node, analyses) -> Node:
    """Separable approximation of (..., H*W, C) fields by (A_H, A_W).

    Returns (..., ha*wa, C), row-major over the coarse grid.
    """
    return _lowpass(x, tuple(analyses))


def idwt2d(c: Node, syntheses) -> Node:
    """Separable synthesis of (..., ha*wa, C) coefficients onto the H-by-W grid."""
    return _lowpass(c, tuple(syntheses))


def wavelet_scale(a: Node, r: Node) -> Node:
    """Change a_p @ r_p - a_p of approximation coefficients a (..., n_a, C).

    r is (n_a, C, C), one mixing matrix per approximation position p. An
    einsum keeps each sample's value independent of the batch, which a
    matmul stacked over p does not (chunked predictions changed).
    """
    av, rv = a.value, r.value
    shape = av.shape[-2:] + av.shape[-1:]
    if rv.shape != shape:
        raise ShapeError(f"wavelet_scale: weights {rv.shape}, expected {shape}")

    def back_a(g):
        return np.einsum("...pd,pcd->...pc", g, rv) - g

    def back_r(g):
        lead = (-1,) + shape[:2]
        return np.einsum("bpc,bpd->pcd", av.reshape(lead), g.reshape(lead))

    return _node(np.einsum("...pc,pcd->...pd", av, rv) - av, (a, r), (back_a, back_r))


# --- spiking activation -----------------------------------------------------


def vsn(x: Node, threshold: Node, smooth: bool = False):
    """Threshold-gated activation on (..., C) fields, single time step.

    Membrane starts at zero each call, so one step gives membrane = x; the
    gate fires where membrane >= threshold and the output is gelu(gate * x)
    (zero input stays zero). The surrogate gate is the logistic
    expit(SURROGATE_SLOPE * (x - threshold)). Returns (output, gate) nodes;
    the gate node carries the spike field for activity penalties and reporting.
    Inside `no_graph` only the gate and the output are formed: no surrogate,
    and in hard mode no logistic at all.
    """
    xv = x.value
    th = threshold.value
    if th.ndim != 1 or th.shape[0] != xv.shape[-1]:
        raise ShapeError(f"vsn: x {xv.shape}, threshold {th.shape} incompatible")
    membrane = xv
    record = _recording.on
    sig = expit(SURROGATE_SLOPE * (membrane - th)) if record or smooth else None
    gate = sig if smooth else (membrane >= th).astype(np.float64)
    if not record:
        return Node(_gelu_value(gate * xv), recorded=False), Node(gate, recorded=False)
    surr = SURROGATE_SLOPE * sig * (1.0 - sig)
    cdf, act = _gelu_cdf_value(gate * xv)
    lead = tuple(range(xv.ndim - 1))
    formed = {}

    def g_dact(g, k):
        """g * gelu'(gate * x): the first closure to run forms it over cdf."""
        nonlocal cdf
        if cdf is not None:
            formed.update(dict.fromkeys((0, 1), _gelu_slope(gate * xv, cdf, g)))
            cdf = None
        if k not in formed:
            raise GraphError(f"vsn's gradient {k} was already taken")
        return formed.pop(k)

    def out_dx(g):
        return g_dact(g, 0) * (gate + xv * surr)

    def out_dth(g):
        return (g_dact(g, 1) * xv * (-surr)).sum(axis=lead)

    out_node = Node(act, (x, threshold), (out_dx, out_dth))

    def gate_dx(g):
        return g * surr

    def gate_dth(g):
        return (g * (-surr)).sum(axis=lead)

    gate_node = Node(gate, (x, threshold), (gate_dx, gate_dth))
    return out_node, gate_node


# --- traversal ---------------------------------------------------------------


def _topological(outputs):
    order, seen, stack = [], set(), [(node, False) for node in outputs]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if not node.recorded:
            raise GraphError("backward reached a node built without recording "
                             "(inside autodiff.no_graph): it has no graph to differentiate")
        if node._consumed:
            raise GraphError("backward already ran through this graph")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def backward(outputs, cotangents):
    """Accumulate the cotangents pulled back to every reachable Parameter.grad.

    outputs are nodes and cotangents one array per output, of its shape;
    each Parameter.grad gains sum_k <cotangents[k], d outputs[k] / d param>.
    A loss L of the outputs is thus differentiated by passing dL/d output
    as each cotangent. A cotangent of the wrong shape raises GraphError.

    Uses up the graph: every node it passes drops its parents and
    gradient closures, runs the closures last parent first and frees each
    once it has run. Its value stays unless it was released. A second
    backward through any of them raises GraphError, and so does one that
    reaches a node built inside `no_graph`. Leaves (parameters, constants)
    stay reusable.
    """
    outputs, cotangents = list(outputs), list(cotangents)
    if len(outputs) != len(cotangents):
        raise GraphError(f"{len(outputs)} outputs but {len(cotangents)} cotangents")
    grads = {}
    for node, g in zip(outputs, cotangents):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != node.value.shape:
            raise GraphError(f"cotangent shape {g.shape} is not its output's {node.value.shape}")
        key = id(node)
        grads[key] = grads[key] + g if key in grads else g
    order = _topological(outputs)
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
