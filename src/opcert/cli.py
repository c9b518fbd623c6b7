"""End-to-end command line: data generation, training, calibration,
evaluation, resolution transfer, and spike activity reporting.

Configuration is plain `key = value` text with a default for every key and
rejection of unknown keys; the fully resolved configuration is echoed into
the run manifest next to each artifact. Exit codes: 2 configuration,
3 I/O, 4 diverged training, 5 grid/shape mismatch, 6 a q field with an
infinite value (no transport), 7 spiking report on a non-spiking
checkpoint, 8 a failed data-generation solve (no dataset file written).

Each command runs in a process of its own, so `main` first tells the C
allocator to keep freed memory: it raises glibc's mmap threshold to its
32 MiB ceiling and its trim threshold to 1 GiB. Model ops allocate and
free arrays of up to tens of MB per call; with glibc's defaults they are
handed back to the kernel and faulted in again on the next call. Both
settings are needed, because fixing only the trim threshold also turns
off glibc's dynamic mmap threshold, so every large array is mmap'd anew.
It also limits glibc to one malloc arena: inference runs one ensemble
member per core on a thread pool (`core.member_map`), and each pool thread
would otherwise get an arena of its own, whose freed arrays the other
threads and later stages cannot reuse. `mallopt` is glibc's, so where the
C library lacks it (musl, macOS) this step does nothing. Importing the
package changes no allocator setting.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import conformal as cf
from . import datagen as dg
from . import ensemble as ens
from . import gp as gpm
from . import neuralop as no
from . import serialio as sio
from .core import GridError, GridSpec, SeededRng, ShapeError, member_map, normalized_coordinates

# dedicated stream bases, disjoint from the per-sample data streams
CALIBRATION_JITTER_STREAM = 4 << 20
TRAIN_STREAM = 5 << 20

MODEL_KINDS = ("rp-wno", "rp-vswno", "q-wno")


class ConfigError(ValueError):
    """Bad run configuration."""


@dataclass
class RunConfig:
    experiment: str = "burgers"
    model: str = "rp-wno"
    n_c: int = 10
    alpha: float = 0.05
    width: int = 16
    layers: int = 3
    levels: int = 3
    wavelet: str = "db6"
    proj_hidden: int = 128
    epochs: int = 200
    lr: float = 1e-3
    batch: int = 20
    slf_alpha: float = 1.0
    slf_beta: float = 0.0
    prior_weight: float = 1.0
    seed: int = 0
    n_train: int = 200
    n_calibration: int = 50
    n_test: int = 100
    resolution: int = 128
    solver_resolution: int = 512

    def validate(self):
        if self.experiment not in ("burgers", "darcy"):
            raise ConfigError(f"experiment must be burgers or darcy, got {self.experiment!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.n_c < 1 or self.epochs < 0 or self.batch < 1:
            raise ConfigError("n_c >= 1, epochs >= 0 and batch >= 1 required")
        return self

    def as_manifest(self) -> dict:
        return {f.name: repr(getattr(self, f.name)) for f in fields(self)}


def load_config(path) -> RunConfig:
    entries = sio.read_manifest(path)
    cfg = RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    for key, raw in entries.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")
        current = getattr(cfg, key)
        try:
            value = type(current)(raw) if not isinstance(current, str) else raw
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        setattr(cfg, key, value)
    return cfg.validate()


def _wno_config(run: RunConfig, grid: GridSpec) -> no.WnoConfig:
    return no.WnoConfig(
        grid=grid,
        width=run.width,
        layers=run.layers,
        levels=run.levels,
        wavelet=run.wavelet,
        activation="vsn" if run.model == "rp-vswno" else "gelu",
        proj_hidden=run.proj_hidden,
        normalize=grid.dims == 2,
    )


def _load_split(data_dir, split: str):
    path = Path(data_dir) / f"{split}.opdata"
    if not path.exists():
        raise FileNotFoundError(f"missing dataset split {path}")
    return dg.read_dataset(path)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_generate_data(args) -> int:
    run = load_config(args.config)
    if args.seed is not None:
        run.seed = args.seed
    rng = SeededRng(run.seed, 0)
    counts = {
        "train": run.n_train,
        "calibration": run.n_calibration,
        "test": run.n_test,
    }
    out = Path(args.out)
    if run.experiment == "burgers":
        cfg = dg.BurgersConfig(
            solver_resolution=run.solver_resolution, output_resolution=run.resolution
        )
        dg.make_dataset("burgers", counts, rng, out, burgers=cfg)
    else:
        dg.make_dataset("darcy", counts, rng, out, darcy=dg.DarcyConfig(resolution=run.resolution))
    sio.write_manifest(out / "run_manifest.txt", run.as_manifest())
    print(f"wrote {run.experiment} splits {counts} to {out}")
    return 0


def _write_csv(path, rows):
    """Write rows as UTF-8 CSV through `sio.replacing`."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    with sio.replacing(path) as fh:
        fh.write(text.getvalue().encode("utf-8"))


def _write_traces(path, traces):
    _write_csv(path, [["member", "epoch", "loss"]] + [
        [m, e, repr(value)] for m, trace in enumerate(traces) for e, value in enumerate(trace)
    ])


def cmd_train(args) -> int:
    run = load_config(args.config)
    if args.seed is not None:
        run.seed = args.seed
    kind, grid, train_in, train_out = _load_split(args.data, "train")
    if kind != run.experiment:
        raise ShapeError(f"dataset is {kind!r} but config says {run.experiment!r}")
    cfg = _wno_config(run, grid)
    rng = SeededRng(run.seed, TRAIN_STREAM)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if run.model == "q-wno":
        loss_lo = no.LossConfig("pinball", eta=run.alpha / 2.0)
        loss_hi = no.LossConfig("pinball", eta=1.0 - run.alpha / 2.0)
        traces = []
        for tag, loss, offset in (("lo", loss_lo, 0), ("hi", loss_hi, 64)):
            model = no.WnoModel.initialize(cfg, rng.substream(offset))
            if cfg.normalize:
                model.set_normalization(train_in, train_out)
            trace = no.train(
                model, train_in, train_out, loss, run.epochs, run.batch,
                rng.substream(offset + 1), lr=run.lr,
            )
            no.save_model(model, out / f"{tag}.ckpt")
            traces.append(trace)
        sio.write_manifest(
            out / "manifest.txt",
            {"kind": "qwno", "eta_lo": repr(run.alpha / 2.0), "eta_hi": repr(1.0 - run.alpha / 2.0)},
        )
    else:
        loss = no.LossConfig("l2")
        if run.model == "rp-vswno" and run.slf_beta > 0:
            loss = no.LossConfig("slf", alpha_w=run.slf_alpha, beta_w=run.slf_beta)
        ensemble, traces = ens.rp_train(
            train_in, train_out, cfg, run.n_c, run.prior_weight, rng, loss,
            run.epochs, run.batch, run.lr,
        )
        ens.save_ensemble(ensemble, out)
    _write_traces(out / "loss_traces.csv", traces)
    sio.write_manifest(out / "run_manifest.txt", run.as_manifest())
    print(f"trained {run.model} on {len(train_in)} samples -> {out}")
    return 0


def _load_checkpoint(path):
    """The checkpoint's kind, its model, and its interval(inputs) -> (lower, upper, scale)."""
    manifest = sio.read_manifest(Path(path) / "manifest.txt")
    if manifest.get("kind") == "qwno":
        pair = [no.load_model(Path(path) / f"{tag}.ckpt") for tag in ("lo", "hi")]

        def interval(inputs):
            lo, hi = member_map(lambda m: m.predict(inputs), pair)
            return lo, hi, np.ones_like(lo)

        return "qwno", pair, interval
    ensemble = ens.load_ensemble(path)

    def interval(inputs):
        mean, spread = ens.rp_predict(ensemble, inputs)
        return mean, mean, spread

    return "rp", ensemble, interval


def cmd_calibrate(args) -> int:
    _, _, interval = _load_checkpoint(args.ckpt)
    data_kind, grid, cal_in, cal_out = _load_split(args.data, "calibration")
    jitter_rng = SeededRng(args.seed or 0, CALIBRATION_JITTER_STREAM)
    qf = cf.calibrate(cal_out, interval(cal_in), args.alpha, jitter_rng, grid)
    cf.save_qfield(qf, args.out)
    finite = qf.values[np.isfinite(qf.values)]
    if finite.size:
        print(
            f"calibrated {finite.size}/{qf.values.size} locations: "
            f"q min {finite.min():.4g} median {np.median(finite):.4g} max {finite.max():.4g}"
        )
    else:
        print("calibration produced infinite parameters everywhere")
    return 0


def _coverage_csv(path, grid, calibrated, uncalibrated, nmse):
    coords = normalized_coordinates(grid)
    target = calibrated.target_percent
    coord_cols = [f"coord_{i}" for i in range(grid.dims)]
    rows = [["row_type", "location", *coord_cols, "coverage_calibrated",
             "coverage_uncalibrated", "below_target"]]
    cal = calibrated.per_location.ravel()
    unc = uncalibrated.per_location.ravel()
    for i in range(cal.size):
        xy = [repr(float(c)) for c in coords[i]]
        rows.append(
            ["location", i, *xy, repr(float(cal[i])), repr(float(unc[i])), int(cal[i] < target)]
        )
    for name, rep in (("calibrated", calibrated), ("uncalibrated", uncalibrated)):
        s = rep.summary()
        rows.append(
            ["summary", name, repr(s["average"]), repr(s["min"]), repr(s["max"]),
             s["below_target"], s["at_or_above_target"]]
        )
    rows.append(["nmse_percent", repr(nmse)])
    _write_csv(path, rows)


def nmse_percent(truths: np.ndarray, preds: np.ndarray) -> float:
    """100 * sum ||y - p||^2 / sum ||y||^2 over a test set."""
    truths = np.asarray(truths, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    return 100.0 * float(np.sum((truths - preds) ** 2) / np.sum(truths**2))


def _evaluate(kind, interval, qf, test_in, test_out, z_uncal):
    """Calibrated and uncalibrated coverage reports, and the nMSE of the midpoint."""
    lower, upper, scale = interval(test_in)
    target = (1.0 - qf.alpha) * 100.0
    # the pair's own interval is its uncalibrated band: crossed quantiles
    # stay crossed and cover nothing, and hiding that would overstate the baseline
    q_uncal = z_uncal if kind == "rp" else 0.0
    return (
        cf.coverage_eval(cf.band(lower, upper, scale, qf.values), test_out, target),
        cf.coverage_eval(cf.band(lower, upper, scale, q_uncal), test_out, target),
        nmse_percent(test_out, 0.5 * (lower + upper)),
    )


def cmd_evaluate(args) -> int:
    kind, _, interval = _load_checkpoint(args.ckpt)
    qf = cf.load_qfield(args.qfield)
    data_kind, grid, test_in, test_out = _load_split(args.data, args.split)
    if grid.shape != qf.grid.shape:
        raise ShapeError(f"data grid {grid.shape} != calibration grid {qf.grid.shape}")
    cal_rep, unc_rep, nmse = _evaluate(kind, interval, qf, test_in, test_out, args.z)
    _coverage_csv(args.out, grid, cal_rep, unc_rep, nmse)
    s = cal_rep.summary()
    print(
        f"coverage avg {s['average']:.2f} min {s['min']:.2f} max {s['max']:.2f} "
        f"(below target: {s['below_target']}/{cal_rep.per_location.size}); "
        f"nmse {nmse:.3f}%"
    )
    return 0


def cmd_superres(args) -> int:
    kind, _, interval = _load_checkpoint(args.ckpt)
    if kind != "rp":
        raise ConfigError("resolution transfer needs an ensemble checkpoint")
    qf = cf.load_qfield(args.qfield)
    data_kind, grid_hi, test_in, test_out = _load_split(args.data_hi, "test")
    qf_hi, gp_model = gpm.superres_q(qf, grid_hi)
    k = gp_model.params
    cal_rep, unc_rep, nmse = _evaluate(kind, interval, qf_hi, test_in, test_out, args.z)
    _coverage_csv(args.out, grid_hi, cal_rep, unc_rep, nmse)
    print(
        f"transferred q {qf.grid.shape} -> {grid_hi.shape} "
        f"(GP mean {gp_model.mean:.4g}, noise variance {gp_model.noise:.4g}, "
        f"kernel variance {k.variance:.4g}, length {k.length_scale:.4g}, shape {k.shape:.4g}; "
        f"{len(gp_model.nll_trace) - 1} iterations); "
        f"calibrated avg {cal_rep.average:.2f} "
        f"vs uncalibrated {unc_rep.average:.2f}; nmse {nmse:.3f}%"
    )
    return 0


def cmd_spiking_report(args) -> int:
    kind, model, _ = _load_checkpoint(args.ckpt)
    if kind != "rp":
        raise no.NonSpikingModelError("spiking report needs an ensemble checkpoint")
    data_kind, grid, test_in, _ = _load_split(args.data, "test")
    per_member = []
    for member in model.members:
        per_member.append(no.spiking_activity(member.trainable, test_in))
    activity = np.mean(per_member, axis=0)
    _write_csv(args.out, [["site", "activity_percent"]] + [
        [i, repr(float(pct))] for i, pct in enumerate(activity)
    ])
    print("spiking activity per site:", ", ".join(f"{p:.2f}%" for p in activity))
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write dataset splits")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train a model or ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="compute per-location conformal parameters")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="coverage and error report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--qfield", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=("test", "calibration"))
    p.add_argument("--z", type=float, default=1.96, help="uncalibrated band width")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("superres", help="transfer calibration to a finer grid")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--qfield", required=True)
    p.add_argument("--data-hi", dest="data_hi", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z", type=float, default=1.96)
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for a uniform command line; the transport draws no random numbers")
    p.set_defaults(func=cmd_superres)

    p = sub.add_parser("spiking-report", help="per-site spike activity")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spiking_report)
    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _retain_heap():
    """Keep freed arrays in the one process heap instead of returning them (glibc)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _retain_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map known failures to stable exit codes
        for types, code in (
            (ConfigError, 2),
            ((FileNotFoundError, OSError, sio.FormatError), 3),
            ((no.TrainingDiverged, ens.EnsembleTrainingError), 4),
            ((ShapeError, GridError), 5),
            (gpm.GpFitError, 6),
            (no.NonSpikingModelError, 7),
            (dg.SolverError, 8),
            (ValueError, 2),
        ):
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
