"""Wavelet-kernel neural operator with spiking or continuous activations.

The model is uplift -> L iterative layers -> projection. Each iterative
layer mixes channels on the coarsest wavelet approximation with a learned
(C, C) matrix R_p per approximation position p, as WNO does (Tripura &
Chakraborty, arXiv:2205.02191), while every detail band passes through,
adds a pointwise 1x1 convolution and a channel bias, and applies the
activation. Normalized grid coordinates are appended to the input
function as extra channels.

With the orthonormal transform W = [A; D], where A is the level-L
approximation analysis, the wavelet part of a layer is
W^T [(A v) R; D v] = v + A^T ((A v)(R - I)), since A^T A + D^T D = I,
with R applied position by position. The layer computes the right-hand
side, so no detail coefficient is ever formed. A grid that 2^L does not
divide is symmetric-padded at its end and cropped after the inverse; both
are folded into the cached (analysis, synthesis) pair of
`wavelet.lowpass_pair`, per axis in 2D.

The grid sets the depth: an axis of n points is decomposed to `depth(n)`,
the largest L with n >= 4 * 2^L, which leaves an approximation block of
`ceil(n / 2^L)`: 4 to 8 coefficients once n >= 8. A model accepts a grid
when each axis is a dyadic refinement or coarsening of the training grid's,
that is when n / 2^depth(n) equals the training axis' n0 / 2^depth(n0).
Such a grid keeps the trained block, its R_p and the share of the domain
that padding adds; this is what makes zero-shot resolution transfer work.

The variable-spiking activation runs for a single time step: the membrane
starts at zero, so it equals the layer's pre-activation, and a site fires
where that reaches its learned threshold. A leak factor has no effect on
one step, so the model has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import serialio as sio
from . import wavelet as wv
from .core import GridError, GridSpec, SeededRng, normalized_coordinates, one_blas_thread

ACTIVATIONS = ("gelu", "vsn", "identity")

# the forward of `predict` and each training step's forward and backward
# run on chunks of max(1, CHUNK_POINTS // grid points) samples
CHUNK_POINTS = 4096


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message carries epoch/batch indices."""


class NonSpikingModelError(ValueError):
    """Spiking-only operation requested on a continuous-activation model."""


@dataclass(frozen=True)
class WnoConfig:
    """Architecture hyperparameters tied to a training grid."""

    grid: GridSpec
    width: int = 16
    layers: int = 3
    wavelet: str = "db6"
    activation: str = "gelu"
    proj_hidden: int = 128
    normalize: bool = False

    def __post_init__(self):
        for key in ("width", "layers", "proj_hidden"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key!r} must be >= 1, got {getattr(self, key)}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"'activation' must be one of {ACTIVATIONS}")
        if self.wavelet not in wv.LOWPASS_TAPS:
            raise ValueError(f"unsupported 'wavelet' {self.wavelet!r}")


@dataclass
class NormStats:
    in_mean: float = 0.0
    in_std: float = 1.0
    out_mean: float = 0.0
    out_std: float = 1.0


class WnoModel:
    """Parameter container plus the differentiable forward pass."""

    def __init__(self, config: WnoConfig, params: dict, norm: NormStats | None = None):
        self.config = config
        self.params = params
        self.norm = norm

    # -- construction ---------------------------------------------------

    @classmethod
    def initialize(cls, config: WnoConfig, rng: SeededRng) -> "WnoModel":
        gen = rng.generator()
        params = {name: ad.Parameter(init(gen), name)
                  for name, (_, init) in _parameter_layout(config).items()}
        return cls(config, params)

    def parameters(self) -> list:
        return list(self.params.values())

    def zero_grads(self):
        for par in self.params.values():
            par.zero_grad()

    def set_normalization(self, inputs: np.ndarray, targets: np.ndarray):
        self.norm = NormStats(
            float(np.mean(inputs)),
            float(np.std(inputs)) or 1.0,
            float(np.mean(targets)),
            float(np.std(targets)) or 1.0,
        )

    # -- forward ----------------------------------------------------------

    def forward_nodes(self, inputs: np.ndarray, on_gate=None) -> ad.Node:
        """Differentiable forward of a batch up to the head.

        inputs: (B, N) for 1D or (B, H, W) for 2D, in physical units.
        Returns the last layer's (B, N, width) output node, which `head`
        projects. A vsn model passes each layer's spike gate node to
        on_gate as it is formed, and drops it without one. Interior values
        that no gradient closure reads are released as soon as their
        consumers are built (`ad.release`): each layer's synthesis,
        skip-sum and 1x1-conv outputs. Inference runs this same forward
        inside `ad.no_graph` (`_forward_chunks`), where nothing is kept for
        a backward.
        """
        cfg = self.config
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 1 + cfg.grid.dims:
            raise GridError(f"expected batched {cfg.grid.dims}D input, got {x.shape}")
        spatial, res = x.shape[1:], cfg.grid.resolution
        # n / 2^depth(n) == n0 / 2^depth(n0) on each axis: a dyadic relative
        if any(n << depth(n0) != n0 << depth(n) for n, n0 in zip(spatial, res)):
            raise GridError(f"grid {spatial} (approximation blocks {blocks(spatial)}) is not "
                            f"a dyadic refinement or coarsening of the model's training grid "
                            f"{res} (blocks {blocks(res)})")
        batch = x.shape[0]
        n_pts = int(np.prod(spatial))
        coords = normalized_coordinates(GridSpec(spatial))
        if self.norm is not None:
            x = (x - self.norm.in_mean) / self.norm.in_std
        feats = np.concatenate(
            [x.reshape(batch, n_pts, 1), np.broadcast_to(coords, (batch,) + coords.shape)],
            axis=2,
        )
        pairs = [wv.lowpass_pair(cfg.wavelet, n, depth(n)) for n in spatial]
        v = ad.affine(ad.constant(feats), self.params["uplift.w"], self.params["uplift.b"])
        for i in range(cfg.layers):
            k = _wavelet_kernel(v, self.params[f"layer{i}.r"], pairs)
            w = ad.conv1x1(v, self.params[f"layer{i}.k"])
            v = ad.layer_sum(k, w, self.params[f"layer{i}.b"])
            ad.release(k, w)
            if cfg.activation == "gelu":
                v = ad.gelu(v)
            elif cfg.activation == "vsn":
                v, gate = ad.vsn(v, self.params[f"layer{i}.th"])
                if on_gate is not None:
                    on_gate(gate)
                del gate  # no gate outlives its layer here
        return v

    def head(self, features: ad.Node, cotangent=None):
        """The projection of `forward_nodes`' output, through `ad.projection`.

        Returns (out, seeds): the (B, N, 1) output array in normalized
        units and, with cotangent, the backward's seeds for the features
        and the four head weights. An identity model's head has no gelu.
        """
        head = [self.params[name] for name in ("proj1.w", "proj1.b", "proj2.w", "proj2.b")]
        return ad.projection(features, *head, cotangent=cotangent,
                             gelu=self.config.activation != "identity")

    def _forward_chunks(self, inputs: np.ndarray, run) -> list:
        """[run(chunk) for each chunk of the batch], inside `ad.no_graph`.

        The inference path: chunks hold `_chunk_size` samples, and run
        calls `forward_nodes` (and `head`) on its chunk. Their nodes have
        no parents or closures, and no op forms an array that only a
        backward reads (gelu's cdf, vsn's surrogate), so one chunk holds a
        few (chunk, N, width) arrays and one block of the head. run must
        return arrays, not nodes: each chunk's nodes are then freed before
        the next chunk's forward starts. Samples do not interact in the
        forward, so the chunks' results are bitwise those of one forward
        over the batch.
        """
        x = np.asarray(inputs, dtype=np.float64)
        step = _chunk_size(x)
        # an empty batch runs one empty chunk, so results keep their shapes
        with ad.no_graph():
            return [run(x[start : start + step]) for start in range(0, max(len(x), 1), step)]

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Batched inference in physical units; inputs (B, *grid).

        Runs through `_forward_chunks`, so it equals one forward over the
        whole batch while recording no graph and holding one chunk's
        arrays at a time. No spike gate outlives its layer.
        """
        x = np.asarray(inputs, dtype=np.float64)
        y = np.concatenate(self._forward_chunks(
            x, lambda chunk: self.head(self.forward_nodes(chunk))[0][..., 0]))
        y = y.reshape(x.shape)
        if self.norm is not None:
            y = y * self.norm.out_std + self.norm.out_mean
        return y

    def normalize_targets(self, targets: np.ndarray) -> np.ndarray:
        if self.norm is None:
            return np.asarray(targets, dtype=np.float64)
        return (targets - self.norm.out_mean) / self.norm.out_std


def depth(n: int) -> int:
    """Wavelet depth of an axis of n points: the largest L with n >= 4 * 2^L, at least 1."""
    return max(1, (n // 4).bit_length() - 1)


def blocks(shape) -> tuple[int, ...]:
    """Approximation block per axis, ceil(n / 2^depth(n))."""
    return tuple(-(-n >> depth(n)) for n in shape)


def _chunk_size(x: np.ndarray) -> int:
    """Samples per chunk of a (B, *grid) batch: max(1, CHUNK_POINTS // grid points)."""
    return max(1, CHUNK_POINTS // math.prod(x.shape[1:]))


def _parameter_layout(config: WnoConfig) -> dict:
    """name -> (shape, init(gen)) of every parameter, in `initialize`'s draw order."""
    width = config.width

    def glorot(*shape):
        std = math.sqrt(2.0 / (shape[0] + shape[-1]))
        return shape, lambda gen: gen.normal(0.0, std, size=shape)

    def full(value, *shape):
        return shape, lambda gen: np.full(shape, value)

    # the function value plus one coordinate channel per dimension
    layout = {"uplift.w": glorot(1 + config.grid.dims, width), "uplift.b": full(0.0, width)}
    r_scale = 1.0 / (width * width)
    r_shape = (math.prod(blocks(config.grid.resolution)), width, width)
    for i in range(config.layers):
        layout[f"layer{i}.r"] = (r_shape, lambda gen: gen.uniform(0.0, r_scale, size=r_shape))
        layout[f"layer{i}.k"] = glorot(width, width)
        layout[f"layer{i}.b"] = full(0.0, width)
        if config.activation == "vsn":
            layout[f"layer{i}.th"] = full(0.5, width)
    layout["proj1.w"] = glorot(width, config.proj_hidden)
    layout["proj1.b"] = full(0.0, config.proj_hidden)
    layout["proj2.w"] = glorot(config.proj_hidden, 1)
    layout["proj2.b"] = full(0.0, 1)
    return layout


def _wavelet_kernel(v: ad.Node, r: ad.Node, pairs):
    """Wavelet part of a layer on (B, N, C): v + A^T ((A v)(r - I)).

    pairs holds the (analysis, synthesis) pair of each grid axis; r holds
    one (C, C) matrix per approximation position, row-major in 2D.
    """
    analyses, syntheses = zip(*pairs)
    if len(pairs) == 1:
        a = ad.wavelet_scale(ad.dwt1d(v, *analyses), r)
        synthesis = ad.idwt1d(a, *syntheses)
    else:
        a = ad.wavelet_scale(ad.dwt2d(v, analyses), r)
        synthesis = ad.idwt2d(a, syntheses)
    k = ad.add(v, synthesis)
    ad.release(synthesis)
    return k


# --------------------------------------------------------------------------
# spiking activity
# --------------------------------------------------------------------------


def spiking_activity(model: WnoModel, inputs: np.ndarray) -> np.ndarray:
    """Percent of emitted spikes per activation site over a dataset.

    100 x spikes / (neurons x samples) for each of the L spiking sites,
    evaluated at the model's current parameters. The layers run through
    `WnoModel._forward_chunks`, so they record no graph, and the head does
    not run: each gate is summed as it is formed. Spikes are 0 or 1, so the
    per-chunk counts sum exactly and the result equals one forward over
    the whole dataset.
    """
    if model.config.activation != "vsn":
        raise NonSpikingModelError("model has no spiking activation sites")
    x = np.asarray(inputs, dtype=np.float64)

    def gate_sums(chunk):
        sums = []
        model.forward_nodes(chunk, lambda gate: sums.append(gate.value.sum()))
        return sums

    counts = model._forward_chunks(x, gate_sums)
    return 100.0 * (np.sum(counts, axis=0) / (x.size * model.config.width))


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LossConfig:
    kind: str = "l2"  # l2 | pinball | slf
    eta: float = 0.5
    alpha_w: float = 1.0
    beta_w: float = 0.0

    def __post_init__(self):
        if self.kind not in ("l2", "pinball", "slf"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"pinball quantile must lie in (0,1), got {self.eta}")
        if self.alpha_w < 0 or self.beta_w < 0:
            raise ValueError("loss weights must be non-negative")


def _pinball_terms(pred: np.ndarray, target: np.ndarray, eta: float, batch: int):
    """(d, ||d_b||, w_b) of k samples' predictions (k, N, 1) against their targets.

    d = pred - target, and w_b = eta where ||target_b|| >= ||pred_b||, 1 - eta
    otherwise, over the chunk's sample count. Every norm reduces along
    axis 1, so one sample's terms are bitwise its terms in the chunk.
    """
    d = pred - target.reshape(pred.shape)
    k = pred.shape[0]
    norms = np.sqrt((d * d).sum(axis=tuple(range(1, d.ndim))))
    t_norms = np.linalg.norm(target.reshape(k, -1), axis=1)
    p_norms = np.linalg.norm(pred.reshape(k, -1), axis=1)
    return d, norms, np.where(t_norms >= p_norms, eta, 1.0 - eta) / batch


def _loss(pred: np.ndarray, gates, target: np.ndarray, cfg: LossConfig, share: float):
    """A chunk's loss times its share of the batch, and the spike gates' seeds.

    pred is the chunk's (B, N, 1) prediction array. Returns (value, seeds):
    for slf, seeds pairs each spike gate node with the value's gradient
    with respect to it, the (node, cotangent) pairs that `ad.backward`
    takes; other losses read no gate and have none. The gradient with
    respect to pred comes a sample at a time from `_cotangents`.
    """
    if cfg.kind == "pinball":
        # sum_b w_b ||d_b||
        _, norms, weights = _pinball_terms(pred, target, cfg.eta, len(pred))
        return np.dot(norms, weights) * share, []
    d = pred - target.reshape(pred.shape)
    mse = np.mean(d * d)
    if cfg.kind == "l2":
        return mse * share, []
    if not gates:
        raise NonSpikingModelError("slf loss requires spiking activation sites")
    count = sum(gate.value.size for gate in gates)
    rate = sum(np.sum(gate.value) for gate in gates) * (1.0 / count)
    rate_g = share * cfg.beta_w * (1.0 / count)
    seeds = [(gate, np.full(gate.value.shape, rate_g)) for gate in gates]
    return (mse * cfg.alpha_w + rate * cfg.beta_w) * share, seeds


def _cotangents(target: np.ndarray, cfg: LossConfig, share: float):
    """cotangent(i, p): `_loss`'s gradient with respect to sample i's prediction p.

    target holds the chunk's (B, *grid) targets and p is the (1, N, 1)
    prediction of sample i. Each loss gives a sample's cotangent from
    that sample alone: l2 and slf elementwise, as 2 d / d.size over the
    chunk's d, and pinball through the sample's own norms. This is what
    lets `ad.projection` run the head's backward sample by sample.
    """
    batch = len(target)
    weight = cfg.alpha_w if cfg.kind == "slf" else 1.0

    def cotangent(i, p):
        if cfg.kind == "pinball":
            # w_b d_b / ||d_b||, kept finite at d_b = 0
            d, norms, weights = _pinball_terms(p, target[i : i + 1], cfg.eta, batch)
            per_sample = share * weights / (2.0 * np.maximum(norms, 1e-150))
            g = per_sample[:, None, None] * d
        else:
            g = share * weight / target.size * (p - target[i : i + 1].reshape(p.shape))
        return g + g

    return cotangent


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

_WAVELET_IDS = {"db4": 0, "db6": 1}
_ACTIVATION_IDS = {"gelu": 0, "vsn": 1, "identity": 2}
_WAVELET_NAMES = {v: k for k, v in _WAVELET_IDS.items()}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_IDS.items()}


def save_model(model: WnoModel, path):
    """Write a bit-exact model checkpoint."""
    cfg = model.config
    with sio.replacing(path) as fh:
        sio.start_file(fh, sio.CHECKPOINT_MAGIC)
        sio.write_u32(
            fh,
            cfg.width,
            cfg.layers,
            _WAVELET_IDS[cfg.wavelet],
            _ACTIVATION_IDS[cfg.activation],
            cfg.proj_hidden,
        )
        sio.write_grid(fh, cfg.grid)
        norm = model.norm
        sio.write_u32(fh, 0 if norm is None else 1)
        if norm is not None:
            sio.write_f64(fh, norm.in_mean, norm.in_std, norm.out_mean, norm.out_std)
        names = sorted(model.params)
        sio.write_u32(fh, len(names))
        for name in names:
            sio.write_named_array(fh, name, model.params[name].value)


def load_model(path) -> WnoModel:
    """Read a checkpoint; a stored config value that `WnoConfig` rejects, or
    a parameter missing, extra or off the shape its stored config implies,
    raises FormatError naming it and the file."""
    with sio.reading(path) as fh:
        sio.check_magic(fh, sio.CHECKPOINT_MAGIC)
        width, layers, wid, aid, proj_hidden = sio.read_u32(fh, 5)
        grid = sio.read_grid(fh)
        norm = NormStats(*sio.read_f64(fh, 4)) if sio.read_u32(fh) else None
        wavelet = sio.lookup_id(_WAVELET_NAMES, wid, "wavelet")
        activation = sio.lookup_id(_ACTIVATION_NAMES, aid, "activation")
        try:
            cfg = WnoConfig(
                grid=grid,
                width=width,
                layers=layers,
                wavelet=wavelet,
                activation=activation,
                proj_hidden=proj_hidden,
                normalize=norm is not None,
            )
        except ValueError as exc:  # a stored value the config rejects
            raise sio.FormatError(f"bad stored config: {exc}") from exc
        layout = _parameter_layout(cfg)
        params = {}
        for _ in range(sio.read_u32(fh)):
            name, arr = sio.read_named_array(fh)
            if name not in layout or name in params:
                raise sio.FormatError(f"unexpected or repeated parameter {name!r}")
            if arr.shape != layout[name][0]:
                raise sio.FormatError(
                    f"parameter {name!r} has shape {arr.shape}, the config implies "
                    f"{layout[name][0]}"
                )
            params[name] = ad.Parameter(arr, name)
        missing = [name for name in layout if name not in params]
        if missing:
            raise sio.FormatError(f"missing parameters {missing}")
    return WnoModel(cfg, params, norm)


# --------------------------------------------------------------------------
# optimizer and training loop
# --------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(
    params,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """First/second-moment update with bias correction, in place."""
    state.t += 1
    t = state.t
    for p in params:
        g = p.grad
        m = state.m.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.value)
        v = state.v.get(p.name)
        if v is None:
            v = state.v[p.name] = np.zeros_like(p.value)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def train(
    model: WnoModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss_config: LossConfig,
    epochs: int,
    batch_size: int,
    rng: SeededRng,
    lr: float = 1e-3,
) -> list[float]:
    """Mini-batch training; returns the per-epoch mean loss trace.

    Each step runs its forward and backward on chunks of `_chunk_size`
    samples of the mini-batch, as `predict` does, and `ad.backward`
    accumulates every chunk's gradients into `Parameter.grad` before the
    Adam step. The loss and the head need no graph: `_cotangents` gives
    the loss's gradient for each sample's prediction from that sample
    alone, so the head (`ad.projection`) differentiates itself while it
    runs, one sample at a time, and keeps one sample's (N, proj_hidden)
    gelu cdf. The backward starts from the head's cotangents for the last
    layer's output and the head weights, plus, for slf, `_loss`'s for the
    spike gates. Every loss is a per-sample mean, so each chunk's value
    and cotangents are scaled by the chunk's share of the batch: the
    summed gradients and the logged loss are the batch's, up to the order
    of the sums (a batch of one chunk keeps every bit). `ad.backward`
    frees a chunk's graph as it goes, so one chunk's graph is live at a
    time, and a step's peak does not grow with the batch. Within a chunk,
    `forward_nodes` keeps only what the backward reads: width-sized arrays.

    The model trains on the calling thread; ensembles and the quantile
    pair train one model per core through `core.member_map`. Every
    OpenBLAS runs at one thread for the whole loop
    (`core.one_blas_thread`), which changes no result.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) == 0 or len(inputs) != len(targets):
        raise ValueError("dataset must be non-empty with matched inputs/targets")
    n = len(inputs)
    batch_size = max(1, min(batch_size, n))
    step = _chunk_size(inputs)
    y_norm = model.normalize_targets(targets)
    gen = rng.generator()
    state = AdamState()
    trace = []
    with one_blas_thread():
        for epoch in range(epochs):
            perm = gen.permutation(n)
            total, seen = 0.0, 0
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                model.zero_grads()
                val = 0.0
                for part in (idx[c : c + step] for c in range(0, len(idx), step)):
                    target, share = y_norm[part], len(part) / len(idx)
                    gates = []
                    features = model.forward_nodes(inputs[part], gates.append)
                    pred, seeds = model.head(features, _cotangents(target, loss_config, share))
                    loss, gate_seeds = _loss(pred, gates, target, loss_config, share)
                    if not np.isfinite(loss):
                        raise TrainingDiverged(
                            f"non-finite loss at epoch {epoch}, batch {start // batch_size}"
                        )
                    ad.backward(*zip(*seeds, *gate_seeds))
                    val += float(loss)
                adam_step(model.parameters(), state, lr=lr)
                total += val * len(idx)
                seen += len(idx)
            trace.append(total / seen)
    return trace
