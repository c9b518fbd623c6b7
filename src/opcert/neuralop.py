"""Wavelet-kernel neural operator with spiking or continuous activations.

The model is uplift -> L iterative layers -> projection. Each iterative
layer mixes channels on the coarsest wavelet approximation with a learned
(C, C) matrix R while every detail band passes through, adds a pointwise
1x1 convolution and a channel bias, and applies the activation. Normalized
grid coordinates are appended to the input function as extra channels.

With the orthonormal transform W = [A; D], where A is the level-L
approximation analysis, the wavelet part of a layer is
W^T [(A v) R; D v] = v + A^T ((A v)(R - I)), since A^T A + D^T D = I.
The layer computes the right-hand side, so no detail coefficient is ever
formed. A grid that 2^L does not divide is symmetric-padded at its end
and cropped after the inverse; both are folded into the cached
(analysis, synthesis) pair of `wavelet.lowpass_pair`, per axis in 2D.

The variable-spiking activation runs for a single time step: the membrane
starts at zero, so it equals the layer's pre-activation, and a site fires
where that reaches its learned threshold. A leak factor has no effect on
one step, so the model has none.

Evaluating a trained model on a dyadically refined (or coarsened) grid
adjusts the decomposition depth so the approximation block keeps its
trained shape; this is what makes zero-shot resolution transfer work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import serialio as sio
from . import wavelet as wv
from .core import GridError, GridSpec, SeededRng, normalized_coordinates, one_blas_thread

ACTIVATIONS = ("gelu", "vsn", "identity")

# `predict` runs the forward on chunks of about this many grid points
PREDICT_CHUNK_POINTS = 4096


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
    levels: int = 3
    wavelet: str = "db6"
    activation: str = "gelu"
    proj_hidden: int = 128
    in_channels: int = 0  # 0 -> function value + one coordinate channel per dim
    normalize: bool = False
    surrogate_slope: float = 10.0

    def __post_init__(self):
        if self.width < 1 or self.layers < 1 or self.levels < 1:
            raise ValueError("width, layers and levels must all be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.wavelet not in ("db4", "db6"):
            raise ValueError(f"unsupported wavelet {self.wavelet!r}")
        if self.surrogate_slope <= 0:
            raise ValueError("surrogate slope must be positive")
        if self.in_channels == 0:
            object.__setattr__(self, "in_channels", 1 + self.grid.dims)


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
        width = config.width
        p: dict[str, ad.Parameter] = {}

        def glorot(name, shape):
            std = math.sqrt(2.0 / (shape[0] + shape[-1]))
            p[name] = ad.Parameter(gen.normal(0.0, std, size=shape), name)

        def zeros(name, shape):
            p[name] = ad.Parameter(np.zeros(shape), name)

        glorot("uplift.w", (config.in_channels, width))
        zeros("uplift.b", (width,))
        r_scale = 1.0 / (width * width)
        for i in range(config.layers):
            p[f"layer{i}.r"] = ad.Parameter(
                gen.uniform(0.0, r_scale, size=(width, width)), f"layer{i}.r"
            )
            glorot(f"layer{i}.k", (width, width))
            zeros(f"layer{i}.b", (width,))
            if config.activation == "vsn":
                p[f"layer{i}.th"] = ad.Parameter(np.full(width, 0.5), f"layer{i}.th")
        glorot("proj1.w", (width, config.proj_hidden))
        zeros("proj1.b", (config.proj_hidden,))
        glorot("proj2.w", (config.proj_hidden, 1))
        zeros("proj2.b", (1,))
        return cls(config, p)

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

    # -- geometry ---------------------------------------------------------

    def _effective_levels(self, shape: tuple[int, ...]) -> int:
        """Decomposition depth for the given spatial shape.

        The input grid must relate to the training grid by one dyadic
        factor shared across dimensions; the depth shifts by its log2 so
        the approximation block keeps the trained shape.
        """
        cfg = self.config
        base = cfg.grid.resolution
        if len(shape) != len(base):
            raise GridError(f"expected {len(base)}D field, got shape {shape}")
        ratios = set()
        for n, n0 in zip(shape, base):
            if n >= n0:
                if n % n0:
                    raise GridError(f"resolution {n} not a multiple of trained {n0}")
                ratios.add(n // n0)
            else:
                if n0 % n:
                    raise GridError(f"resolution {n} not a divisor of trained {n0}")
                ratios.add(-(n0 // n))
        if len(ratios) != 1:
            raise GridError(f"anisotropic refinement {shape} of {base} unsupported")
        r = ratios.pop()
        j = int(math.log2(abs(r)))
        if (1 << j) != abs(r):
            raise GridError(f"refinement factor {abs(r)} is not a power of two")
        eff = cfg.levels + (j if r > 0 else -j)
        if eff < 1:
            raise GridError(f"grid {shape} too coarse for {cfg.levels} levels")
        return eff

    # -- forward ----------------------------------------------------------

    def forward_nodes(self, inputs: np.ndarray):
        """Differentiable forward of a batch.

        inputs: (B, N) for 1D or (B, H, W) for 2D, in physical units.
        Returns (output node (B, N, 1) in normalized units, spike gate
        nodes per layer; empty for continuous activations). Interior
        values that no gradient closure reads are released as soon as
        their consumers are built (`ad.release`): each layer's synthesis,
        skip-sum and 1x1-conv outputs, and the projection's hidden values.
        """
        cfg = self.config
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 1 + cfg.grid.dims:
            raise GridError(f"expected batched {cfg.grid.dims}D input, got {x.shape}")
        spatial = x.shape[1:]
        levels = self._effective_levels(spatial)
        batch = x.shape[0]
        n_pts = int(np.prod(spatial))
        grid_now = GridSpec(spatial, self.config.grid.extent)
        coords = normalized_coordinates(grid_now)
        if self.norm is not None:
            x = (x - self.norm.in_mean) / self.norm.in_std
        feats = np.concatenate(
            [x.reshape(batch, n_pts, 1), np.broadcast_to(coords, (batch,) + coords.shape)],
            axis=2,
        )
        filt = wv.get_filter(cfg.wavelet)
        v = ad.affine(ad.constant(feats), self.params["uplift.w"], self.params["uplift.b"])
        gates = []
        for i in range(cfg.layers):
            k = _wavelet_kernel(v, self.params[f"layer{i}.r"], filt, levels, spatial)
            w = ad.conv1x1(v, self.params[f"layer{i}.k"])
            z = ad.layer_sum(k, w, self.params[f"layer{i}.b"])
            ad.release(k, w)
            if cfg.activation == "gelu":
                v = ad.gelu(z)
            elif cfg.activation == "identity":
                v = z
            else:
                v, gate = ad.vsn(z, self.params[f"layer{i}.th"], slope=cfg.surrogate_slope)
                gates.append(gate)
        h1 = ad.affine(v, self.params["proj1.w"], self.params["proj1.b"])
        h = h1 if cfg.activation == "identity" else ad.gelu(h1)
        out = ad.affine(h, self.params["proj2.w"], self.params["proj2.b"])
        ad.release(h1, h)
        return out, gates

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Batched inference in physical units; inputs (B, *grid).

        The forward runs on chunks of max(1, PREDICT_CHUNK_POINTS // grid
        points) samples, and each chunk's graph is freed before the next
        one is built, so the live activations stay at a few (chunk, grid,
        channels) arrays whatever B is. Samples do not interact in the
        forward, so the result equals one forward over the whole batch.
        """
        x = np.asarray(inputs, dtype=np.float64)
        n_pts = math.prod(x.shape[1:])
        step = max(1, PREDICT_CHUNK_POINTS // n_pts)
        y = np.empty(x.shape)
        rows = y.reshape(len(x), n_pts)
        for start in range(0, len(x), step):
            out, _ = self.forward_nodes(x[start : start + step])
            rows[start : start + step] = out.value[..., 0]
            del out
        if self.norm is not None:
            y = y * self.norm.out_std + self.norm.out_mean
        return y

    def normalize_targets(self, targets: np.ndarray) -> np.ndarray:
        if self.norm is None:
            return np.asarray(targets, dtype=np.float64)
        return (targets - self.norm.out_mean) / self.norm.out_std


def _wavelet_kernel(v: ad.Node, r: ad.Node, filt: wv.WaveletFilter, levels: int, spatial):
    """Wavelet part of a layer on (B, prod(spatial), C): v + A^T ((A v)(r - I))."""
    if len(spatial) == 1:
        a = ad.wavelet_scale(ad.dwt1d(v, filt, levels), r)
        synthesis = ad.idwt1d(a, filt, levels, spatial[0])
    else:
        a = ad.wavelet_scale(ad.dwt2d(v, filt, levels, spatial), r)
        synthesis = ad.idwt2d(a, filt, levels, spatial)
    k = ad.add(v, synthesis)
    ad.release(synthesis)
    return k


# --------------------------------------------------------------------------
# spiking activity
# --------------------------------------------------------------------------


def spiking_activity(model: WnoModel, inputs: np.ndarray) -> np.ndarray:
    """Percent of emitted spikes per activation site over a dataset.

    100 x spikes / (neurons x samples) for each of the L spiking sites,
    evaluated at the model's current parameters.
    """
    if model.config.activation != "vsn":
        raise NonSpikingModelError("model has no spiking activation sites")
    _, gates = model.forward_nodes(np.asarray(inputs, dtype=np.float64))
    return np.array([100.0 * float(np.mean(g.value)) for g in gates])


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


def _loss_node(pred: ad.Node, gates, target: np.ndarray, cfg: LossConfig) -> ad.Node:
    t = ad.constant(target.reshape(pred.value.shape))
    if cfg.kind == "pinball":
        d = ad.sub(pred, t)
        sq = ad.sum_per_sample(ad.mul(d, d))
        norms = ad.sqrt_vec(sq)
        b = pred.value.shape[0]
        t_norms = np.linalg.norm(target.reshape(b, -1), axis=1)
        p_norms = np.linalg.norm(pred.value.reshape(b, -1), axis=1)
        weights = np.where(t_norms >= p_norms, cfg.eta, 1.0 - cfg.eta) / b
        return ad.dot_const(norms, weights)
    d = ad.sub(pred, t)
    base = ad.mean_all(ad.mul(d, d))
    if cfg.kind == "l2":
        return base
    total = None
    count = 0
    for g in gates:
        s = ad.sum_all(g)
        total = s if total is None else ad.add(total, s)
        count += g.value.size
    if total is None:
        raise NonSpikingModelError("slf loss requires spiking activation sites")
    ratio = ad.scale(total, 1.0 / count)
    return ad.add(ad.scale(base, cfg.alpha_w), ad.scale(ratio, cfg.beta_w))


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
            cfg.levels,
            _WAVELET_IDS[cfg.wavelet],
            _ACTIVATION_IDS[cfg.activation],
            cfg.proj_hidden,
            cfg.in_channels,
        )
        sio.write_f64(fh, cfg.surrogate_slope)
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
    with sio.reading(path) as fh:
        sio.check_magic(fh, sio.CHECKPOINT_MAGIC)
        width, layers, levels, wid, aid, proj_hidden, in_ch = sio.read_u32(fh, 7)
        slope = sio.read_f64(fh)
        grid = sio.read_grid(fh)
        cfg = WnoConfig(
            grid=grid,
            width=width,
            layers=layers,
            levels=levels,
            wavelet=sio.lookup_id(_WAVELET_NAMES, wid, "wavelet"),
            activation=sio.lookup_id(_ACTIVATION_NAMES, aid, "activation"),
            proj_hidden=proj_hidden,
            in_channels=in_ch,
            surrogate_slope=slope,
        )
        norm = None
        if sio.read_u32(fh):
            vals = sio.read_f64(fh, 4)
            norm = NormStats(*vals)
        count = sio.read_u32(fh)
        params = {}
        for _ in range(count):
            name, arr = sio.read_named_array(fh)
            params[name] = ad.Parameter(arr, name)
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

    Each step runs on both cores: the forward and backward split their
    per-sample work over `core.halves`, with every OpenBLAS at one thread
    for the whole loop (`core.one_blas_thread`). The split does not
    change any result. One step's graph is live at a time: `ad.backward`
    frees a step's graph as it goes, before the next forward builds one.
    A step keeps only what its backward reads (`forward_nodes` releases
    the rest), so at its peak, the projection's gelu backward, it holds
    three (B, N, proj_hidden) arrays: that gelu's input, the cdf its
    gradient is written over and the incoming gradient.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) == 0 or len(inputs) != len(targets):
        raise ValueError("dataset must be non-empty with matched inputs/targets")
    n = len(inputs)
    batch_size = max(1, min(batch_size, n))
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
                pred, gates = model.forward_nodes(inputs[idx])
                loss = _loss_node(pred, gates, y_norm[idx], loss_config)
                val = float(loss.value)
                if not np.isfinite(val):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {start // batch_size}"
                    )
                ad.backward(loss)
                adam_step(model.parameters(), state, lr=lr)
                total += val * len(idx)
                seen += len(idx)
            trace.append(total / seen)
    return trace
