"""Tracing must not change what the pipeline computes, and must clean up.

A tiny Burgers pipeline (16-point grid, 1 epoch, 2 members) runs once
untraced and once traced in this process; the checkpoints and the q-field
must be bit-identical, and every attribute the tracer replaced must be the
original object again afterwards.

Run with: PYTHONPATH=src python3 -m pytest -q bench/test_tracing.py
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from opcert import autodiff, cli, conformal, datagen, ensemble, gp, neuralop  # noqa: E402

import stage  # noqa: E402
from tracing import Tracer  # noqa: E402

TRACED_NAMESPACES = (autodiff, conformal, datagen, ensemble, gp, neuralop,
                     neuralop.WnoModel, ensemble.RpMember)


def tiny_pipeline(tmp: Path) -> str:
    """Generate, train and calibrate; return a digest of checkpoints and q."""
    for sub in ("data", "ckpt"):
        (tmp / sub).mkdir(parents=True)
    datasets = [{"out": str(tmp / "data"), "kind": "burgers",
                 "config": {"solver_resolution": 64, "output_resolution": 16},
                 "splits": {"train": 8, "calibration": 20, "test": 4}}]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stage.generate(datasets, 0, {})
    cfg = tmp / "run.cfg"
    cfg.write_text("n_c = 2\nepochs = 1\nresolution = 16\nsolver_resolution = 64\n")
    assert cli.main(["train", "--config", str(cfg), "--data", str(tmp / "data"),
                     "--out", str(tmp / "ckpt")]) == 0
    assert cli.main(["calibrate", "--ckpt", str(tmp / "ckpt"), "--data", str(tmp / "data"),
                     "--out", str(tmp / "q.qfield")]) == 0
    h = hashlib.sha256()
    for path in sorted((tmp / "ckpt").glob("*.ckpt")) + [tmp / "q.qfield"]:
        h.update(path.read_bytes())
    return h.hexdigest()


def test_tracing_changes_no_result_and_unwinds(tmp_path):
    before = [dict(vars(ns)) for ns in TRACED_NAMESPACES]
    plain = tiny_pipeline(tmp_path / "plain")

    tracer = Tracer()
    tracer.install()
    try:
        assert autodiff.dwt1d is not before[0]["dwt1d"]
        traced = tiny_pipeline(tmp_path / "traced")
    finally:
        tracer.uninstall()

    assert traced == plain
    for ns, snapshot in zip(TRACED_NAMESPACES, before):
        now = vars(ns)
        changed = [k for k in snapshot if now.get(k) is not snapshot[k]]
        assert not changed, f"{ns.__name__}: still wrapped {changed}"
    layers = tracer.summary()
    assert layers["autodiff.dwt1d.fwd"]["calls"] > 0
    assert layers["autodiff.dwt1d.bwd"]["calls"] > 0
    assert layers["neuralop.train"]["calls"] == 2
    assert layers["serialio.save"]["calls"] > 0
    assert "autodiff.gelu_value_grad.fwd" not in layers  # returns arrays: not an op
