"""Randomized-prior ensembles over the neural operator.

Each member pairs a trainable model with a frozen, randomly initialized
prior model; the member's prediction is trainable(u) + weight * prior(u).
Training a member against the data is equivalent to fitting the residual
left by its prior, which is how the prior injects output diversity where
the data does not pin the ensemble down. Members are fully independent:
each derives its own random streams from (seed, member index), so
training one in isolation reproduces its in-ensemble parameters bitwise.

Members train and predict one per core (`core.member_map`): `rp_train`
and `rp_predict` map the members over the pool. Each training step runs
on chunks of a few thousand grid points (`neuralop.train`), so a member's
live graph does not grow with the batch, and the head differentiates
itself one sample at a time (`autodiff.projection`), so a chunk keeps no
(chunk, N, proj_hidden) array. The darcy-32 train command (20 samples, 4
members, 2 epochs) peaks at about 78 MB with members pooled, against
82-83 MB when the head kept the chunk's gelu cdf, 110 MB for whole-batch
steps one member at a time and 160-170 MB for whole-batch steps pooled.
Inference records no graph (`neuralop.WnoModel.predict`), so on the bench
workloads the calibrate, evaluate and superres commands peak at 61-64
MB, where a recording forward peaked at 75-81 MB, and training sets
every command's maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import conformal as cf
from . import neuralop as no
from . import serialio as sio
from .core import Band, SeededRng, member_map

# stream offsets inside a member's block of the seed space
_MEMBER_BLOCK = 16
_INIT_OFF, _PRIOR_OFF, _BATCH_OFF = 0, 1, 2


class EnsembleTrainingError(RuntimeError):
    """A member aborted; message names the member."""


@dataclass
class RpMember:
    """A trainable model and its frozen prior; the prior's weight is the ensemble's."""

    trainable: no.WnoModel
    prior: no.WnoModel

    def predict(self, inputs: np.ndarray, prior_weight: float) -> np.ndarray:
        out = self.trainable.predict(inputs)
        if prior_weight != 0.0:
            out = out + self._prior_share(inputs, prior_weight)
        return out

    def residual_targets(self, inputs: np.ndarray, targets: np.ndarray,
                         prior_weight: float) -> np.ndarray:
        """Targets for the trainable model once the prior's share is removed."""
        if prior_weight == 0.0:
            return np.asarray(targets, dtype=np.float64)
        return targets - self._prior_share(inputs, prior_weight)

    def _prior_share(self, inputs: np.ndarray, prior_weight: float) -> np.ndarray:
        """weight * (prior(u) - prior output mean), the prior's part of a prediction."""
        prior_mean = 0.0 if self.prior.norm is None else self.prior.norm.out_mean
        return prior_weight * (self.prior.predict(inputs) - prior_mean)


@dataclass
class RpEnsemble:
    members: list
    prior_weight: float

    @property
    def size(self) -> int:
        return len(self.members)


def prior_config(config: no.WnoConfig) -> no.WnoConfig:
    """Prior architecture: two iterative layers, continuous activation."""
    return replace(config, layers=min(2, config.layers), activation="gelu")


def build_member(config: no.WnoConfig, rng: SeededRng, k: int) -> RpMember:
    base = rng.substream(_MEMBER_BLOCK * k)
    trainable = no.WnoModel.initialize(config, base.substream(_INIT_OFF))
    prior = no.WnoModel.initialize(prior_config(config), base.substream(_PRIOR_OFF))
    return RpMember(trainable, prior)


def rp_train(
    inputs: np.ndarray,
    targets: np.ndarray,
    config: no.WnoConfig,
    n_c: int,
    prior_weight: float,
    rng: SeededRng,
    loss_config: no.LossConfig | None = None,
    epochs: int = 100,
    batch_size: int = 20,
    lr: float = 1e-3,
) -> tuple[RpEnsemble, list]:
    """Train n_c independent members on the same dataset.

    Members train one per core (`core.member_map`), each member's prior
    residual targets computed on its own pool thread. Returns the ensemble
    and per-member loss traces. A member whose loss diverges aborts the
    whole training; the error names the lowest-index diverged member.
    """
    if n_c < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n_c}")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) == 0:
        raise ValueError("training dataset is empty")
    loss_config = loss_config or no.LossConfig("l2")
    members = [build_member(config, rng, k) for k in range(n_c)]
    if config.normalize:
        for member in members:
            member.trainable.set_normalization(inputs, targets)
            member.prior.norm = member.trainable.norm

    def train_member(k):
        member = members[k]
        try:
            return no.train(
                member.trainable,
                inputs,
                member.residual_targets(inputs, targets, prior_weight),
                loss_config,
                epochs,
                batch_size,
                rng.substream(_MEMBER_BLOCK * k + _BATCH_OFF),
                lr=lr,
            )
        except no.TrainingDiverged as exc:
            raise EnsembleTrainingError(f"member {k} diverged: {exc}") from exc

    traces = member_map(train_member, range(n_c))
    return RpEnsemble(members, prior_weight), traces


def rp_predict(ensemble: RpEnsemble, inputs: np.ndarray):
    """Elementwise ensemble mean and population standard deviation."""
    preds = np.stack(member_map(lambda m: m.predict(inputs, ensemble.prior_weight),
                                ensemble.members))
    mean = preds.mean(axis=0)
    spread = np.sqrt(np.mean((preds - mean) ** 2, axis=0))
    return mean, spread


def initial_band(mean: np.ndarray, spread: np.ndarray, z: float = 1.96) -> Band:
    """Heuristic band [mean - z*spread, mean + z*spread] (one field or a stack)."""
    spread = np.asarray(spread, dtype=np.float64)
    if np.any(spread < 0):
        raise ValueError("spread must be non-negative")
    return cf.band(mean, mean, spread, z)


# --------------------------------------------------------------------------
# persistence: a directory of member checkpoints plus a manifest
# --------------------------------------------------------------------------


def save_ensemble(ensemble: RpEnsemble, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, member in enumerate(ensemble.members):
        no.save_model(member.trainable, directory / f"member_{i:03d}.ckpt")
        no.save_model(member.prior, directory / f"member_{i:03d}_prior.ckpt")
    sio.write_manifest(
        directory / "manifest.txt",
        {
            "kind": "rp",
            "n_c": ensemble.size,
            "prior_weight": repr(ensemble.prior_weight),
        },
    )


def load_ensemble(directory) -> RpEnsemble:
    directory = Path(directory)
    path = directory / "manifest.txt"
    manifest = sio.read_manifest(path)
    if manifest.get("kind") != "rp":
        raise sio.FormatError(f"not an ensemble checkpoint: {directory}")

    def entry(key, parse):
        try:
            return parse(manifest[key])
        except (KeyError, ValueError) as exc:
            raise sio.FormatError(f"missing or bad {key!r} in {path}") from exc

    n_c = entry("n_c", int)
    if n_c < 1:
        raise sio.FormatError(f"'n_c' must be >= 1, got {n_c} in {path}")
    weight = entry("prior_weight", float)
    if not math.isfinite(weight):
        raise sio.FormatError(f"non-finite 'prior_weight' {weight} in {path}")
    members = [
        RpMember(no.load_model(directory / f"member_{i:03d}.ckpt"),
                 no.load_model(directory / f"member_{i:03d}_prior.ckpt"))
        for i in range(n_c)
    ]
    return RpEnsemble(members, weight)
