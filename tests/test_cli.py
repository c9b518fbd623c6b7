"""End-to-end runs of the `opcert` command line on tiny problems.

A 16-point Burgers dataset is drawn from a 64-point solver, and every model
trains for one epoch (ensembles with two members), so the module runs in
seconds. Each subcommand is checked for its exit code and artifacts, and
each failure path for its documented exit code. One Darcy run takes the
whole pipeline from a 16 x 16 grid to a 32 x 32 one.
"""

import ctypes
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opcert import cli
from opcert import conformal as cf
from opcert import datagen as dg
from opcert import ensemble as ens
from opcert import neuralop as no
from opcert import serialio as sio
from opcert.core import GridSpec, SeededRng

TINY = {"n_c": 2, "epochs": 1, "seed": 1, "n_train": 8, "n_calibration": 20,
        "n_test": 4, "resolution": 16, "solver_resolution": 64}
SLF_BETA = 0.1  # rp-vswno trains on the spike-penalized loss


def write_config(path, **entries):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


def opcert(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """Data at 16 and 32 points, and a trained, calibrated run per model kind."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "run.cfg", **TINY)
    assert opcert("generate-data", "--config", cfg, "--out", root / "data") == 0
    hi = write_config(root / "hi.cfg", **{**TINY, "resolution": 32})
    assert opcert("generate-data", "--config", hi, "--out", root / "data_hi") == 0
    for model in cli.MODEL_KINDS:
        extra = {"slf_beta": SLF_BETA} if model == "rp-vswno" else {}
        mcfg = write_config(root / f"{model}.cfg", **TINY, model=model, **extra)
        assert opcert("train", "--config", mcfg, "--data", root / "data",
                      "--out", root / model) == 0
        assert opcert("calibrate", "--ckpt", root / model, "--data", root / "data",
                      "--out", root / model / "q.qfield") == 0
    return root


def test_generate_data_writes_splits(root):
    for split, count in (("train", 8), ("calibration", 20), ("test", 4)):
        kind, grid, inputs, outputs = dg.read_dataset(root / "data" / f"{split}.opdata")
        assert (kind, grid.shape, inputs.shape) == ("burgers", (16,), (count, 16))
        assert outputs.shape == inputs.shape
    assert (root / "data" / "manifest.txt").is_file()
    assert (root / "data" / "run_manifest.txt").is_file()
    assert dg.read_dataset(root / "data_hi" / "test.opdata")[1].shape == (32,)


@pytest.mark.parametrize("model", cli.MODEL_KINDS)
def test_train_and_calibrate_artifacts(root, model):
    out = root / model
    if model == "q-wno":
        names = ["lo.ckpt", "hi.ckpt"]
    else:
        names = [f"member_{i:03d}{tag}.ckpt" for i in range(2) for tag in ("", "_prior")]
    for name in names + ["manifest.txt", "run_manifest.txt"]:
        assert (out / name).is_file(), name
    traces = (out / "loss_traces.csv").read_text().splitlines()
    assert traces[0] == "member,epoch,loss" and len(traces) == 3  # two models, one epoch
    qf = cf.load_qfield(out / "q.qfield")
    assert qf.values.shape == (16,) and np.all(np.isfinite(qf.values))


@pytest.mark.parametrize("model", cli.MODEL_KINDS)
def test_evaluate_writes_coverage(root, model, tmp_path):
    out = tmp_path / "coverage.csv"
    assert opcert("evaluate", "--ckpt", root / model, "--qfield", root / model / "q.qfield",
                  "--data", root / "data", "--out", out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert sum(row[0] == "location" for row in rows) == 16
    assert [row[1] for row in rows if row[0] == "summary"] == ["calibrated", "uncalibrated"]
    assert rows[-1][0] == "nmse_percent"


def test_failed_coverage_write_keeps_the_previous_file(root, tmp_path, monkeypatch):
    out = tmp_path / "coverage.csv"
    argv = ("evaluate", "--ckpt", root / "rp-wno", "--qfield", root / "rp-wno" / "q.qfield",
            "--data", root / "data", "--out", out)
    assert opcert(*argv) == 0
    before = out.read_bytes()
    # too few coordinate rows: the CSV fails after its header row
    monkeypatch.setattr(cli, "normalized_coordinates", lambda grid: np.zeros((3, grid.dims)))
    with pytest.raises(IndexError):
        opcert(*argv)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["coverage.csv"]


def test_uncalibrated_quantile_band_keeps_crossed_pairs():
    # the pair's uncalibrated band is its own interval, whatever --z says:
    # lo > hi covers nothing, not even truths that lie between the two
    lo, hi = np.full((4, 16), 1.0), np.full((4, 16), -1.0)
    truths = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
    qf = cf.QField(np.full(16, 3.0), GridSpec((16,)), 0.05)
    cal, unc, nmse = cli._evaluate("qwno", lambda u: (lo, hi, np.ones_like(lo)), qf, None,
                                   truths, 1.96)
    assert cal.average == 100.0 and unc.average == 0.0
    assert nmse == 100.0  # the midpoint of (1, -1) is 0


def test_superres_transfers_to_finer_grid(root, tmp_path):
    out = tmp_path / "coverage_hi.csv"
    assert opcert("superres", "--ckpt", root / "rp-wno", "--qfield", root / "rp-wno" / "q.qfield",
                  "--data-hi", root / "data_hi", "--out", out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert sum(row[0] == "location" for row in rows) == 32


def test_darcy_pipeline_transfers_to_finer_grid(tmp_path):
    darcy = {**TINY, "experiment": "darcy", "n_train": 4, "n_test": 2}
    cfg = write_config(tmp_path / "run.cfg", **darcy)
    hi = write_config(tmp_path / "hi.cfg", **{**darcy, "resolution": 32})
    for argv in (
        ("generate-data", "--config", cfg, "--out", tmp_path / "data"),
        ("generate-data", "--config", hi, "--out", tmp_path / "data_hi"),
        ("train", "--config", cfg, "--data", tmp_path / "data", "--out", tmp_path / "ckpt"),
        ("calibrate", "--ckpt", tmp_path / "ckpt", "--data", tmp_path / "data",
         "--out", tmp_path / "q.qfield"),
        ("evaluate", "--ckpt", tmp_path / "ckpt", "--qfield", tmp_path / "q.qfield",
         "--data", tmp_path / "data", "--out", tmp_path / "coverage.csv"),
        ("superres", "--ckpt", tmp_path / "ckpt", "--qfield", tmp_path / "q.qfield",
         "--data-hi", tmp_path / "data_hi", "--out", tmp_path / "coverage_hi.csv"),
    ):
        assert opcert(*argv) == 0, argv[0]
    assert cf.load_qfield(tmp_path / "q.qfield").values.shape == (16, 16)
    for name, points in (("coverage.csv", 16 * 16), ("coverage_hi.csv", 32 * 32)):
        rows = [line.split(",") for line in (tmp_path / name).read_text().splitlines()]
        assert sum(row[0] == "location" for row in rows) == points, name
        assert rows[-1][0] == "nmse_percent"


def test_spiking_report(root, tmp_path):
    out = tmp_path / "spikes.csv"
    assert opcert("spiking-report", "--ckpt", root / "rp-vswno", "--data", root / "data",
                  "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "site,activity_percent"
    assert len(rows) == 1 + cli.RunConfig().layers
    assert all(0.0 <= float(row.split(",")[1]) <= 100.0 for row in rows[1:])


@pytest.mark.parametrize("model", ["rp-wno", "rp-vswno"])
def test_train_matches_library_bytes(root, model, tmp_path):
    run = cli.load_config(root / f"{model}.cfg")
    _, grid, inputs, targets = dg.read_dataset(root / "data" / "train.opdata")
    loss = no.LossConfig("l2")
    if model == "rp-vswno":
        loss = no.LossConfig("slf", alpha_w=run.slf_alpha, beta_w=SLF_BETA)
    ensemble, _ = ens.rp_train(
        inputs, targets, cli._wno_config(run, grid), run.n_c, run.prior_weight,
        SeededRng(run.seed, cli.TRAIN_STREAM), loss, run.epochs, run.batch, run.lr,
    )
    ens.save_ensemble(ensemble, tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == sorted(p.name for p in (root / model).glob("*.ckpt"))
    for name in names:
        assert (tmp_path / name).read_bytes() == (root / model / name).read_bytes(), name


# --------------------------------------------------------------------------
# failure paths and their exit codes
# --------------------------------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", **TINY, bogus=1)
    assert opcert("generate-data", "--config", cfg, "--out", tmp_path / "data") == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["z", "jitter"])
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    # nothing read these keys, so a config that sets them is rejected
    cfg = write_config(tmp_path / "old.cfg", **TINY, **{key: 1.0})
    assert opcert("generate-data", "--config", cfg, "--out", tmp_path / "data") == 2
    assert repr(key) in capsys.readouterr().err


def test_missing_split_exits_3(root, tmp_path):
    (tmp_path / "empty").mkdir()
    assert opcert("train", "--config", root / "run.cfg", "--data", tmp_path / "empty",
                  "--out", tmp_path / "ckpt") == 3


def test_superres_on_quantile_checkpoint_exits_2(root, tmp_path):
    assert opcert("superres", "--ckpt", root / "q-wno", "--qfield", root / "q-wno" / "q.qfield",
                  "--data-hi", root / "data_hi", "--out", tmp_path / "cov.csv") == 2


def test_spiking_report_on_continuous_model_exits_7(root, tmp_path):
    assert opcert("spiking-report", "--ckpt", root / "rp-wno", "--data", root / "data",
                  "--out", tmp_path / "spikes.csv") == 7


def test_old_checkpoint_format_exits_3(root, tmp_path, capsys):
    # an OPCERT01 header, then a stored name length that reads past the
    # name (into float bytes that are not UTF-8) or past the end of the file
    original = (root / "rp-wno" / "member_000.ckpt").read_bytes()
    field = original.index(struct.pack("<I", 8) + b"layer0.b")
    corrupt = [b"OPCERT01" + original[8:]]
    corrupt += [original[:field] + struct.pack("<I", n) + original[field + 4:]
                for n in (5000, len(original))]
    for case, data in enumerate(corrupt):
        ckpt = tmp_path / f"ckpt{case}"
        shutil.copytree(root / "rp-wno", ckpt)
        (ckpt / "member_000.ckpt").write_bytes(data)
        assert opcert("calibrate", "--ckpt", ckpt, "--data", root / "data",
                      "--out", tmp_path / "q.qfield") == 3
        assert str(ckpt / "member_000.ckpt") in capsys.readouterr().err


@pytest.mark.parametrize("field", ["wavelet", "activation"])
def test_unknown_model_id_exits_3(root, tmp_path, capsys, field):
    # the header's u32s after the magic and the version: width, layers,
    # levels, then the wavelet and the activation ids
    ckpt = tmp_path / "ckpt"
    shutil.copytree(root / "rp-wno", ckpt)
    path = ckpt / "member_000.ckpt"
    raw = path.read_bytes()
    at = 24 if field == "wavelet" else 28
    path.write_bytes(raw[:at] + struct.pack("<I", 99) + raw[at + 4:])
    assert opcert("calibrate", "--ckpt", ckpt, "--data", root / "data",
                  "--out", tmp_path / "q.qfield") == 3
    err = capsys.readouterr().err
    assert f"unknown {field} id 99" in err and str(path) in err


@pytest.mark.parametrize("case", ["kind", "empty"])
def test_bad_dataset_contents_exit_3(root, tmp_path, capsys, case):
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    path = data / "calibration.opdata"
    if case == "kind":  # the kind id follows the magic and the version
        raw = path.read_bytes()
        path.write_bytes(raw[:12] + struct.pack("<I", 99) + raw[16:])
    else:
        with sio.replacing(path) as fh:
            sio.start_file(fh, sio.DATASET_MAGIC)
            sio.write_u32(fh, dg.DATASET_KINDS["burgers"])
            sio.write_grid(fh, GridSpec((16,)))
            sio.write_u32(fh, 0)
    assert opcert("calibrate", "--ckpt", root / "rp-wno", "--data", data,
                  "--out", tmp_path / "q.qfield") == 3
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "q.qfield").exists()


@pytest.mark.parametrize("key, value", [
    ("n_c", None), ("prior_weight", None), ("seed_streams", None),
    ("n_c", "two"), ("prior_weight", "heavy"), ("seed_streams", "1,x"),
    ("seed_streams", "7"),  # one stream for two members
    ("n_c", "0"),
])
def test_bad_ensemble_manifest_exits_3(root, tmp_path, capsys, key, value):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(root / "rp-wno", ckpt)
    manifest = sio.read_manifest(ckpt / "manifest.txt")
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    sio.write_manifest(ckpt / "manifest.txt", manifest)
    assert opcert("calibrate", "--ckpt", ckpt, "--data", root / "data",
                  "--out", tmp_path / "q.qfield") == 3
    err = capsys.readouterr().err
    assert repr(key) in err and str(ckpt / "manifest.txt") in err


def test_old_qfield_format_exits_3(root, tmp_path):
    # OPQFLD01 files carried a band multiplier z that the format dropped
    old = tmp_path / "q.qfield"
    old.write_bytes(b"OPQFLD01" + (root / "rp-wno" / "q.qfield").read_bytes()[8:])
    assert opcert("evaluate", "--ckpt", root / "rp-wno", "--qfield", old,
                  "--data", root / "data", "--out", tmp_path / "coverage.csv") == 3
    assert not (tmp_path / "coverage.csv").exists()


def test_superres_with_infinite_q_exits_6(root, tmp_path, capsys):
    qf = cf.load_qfield(root / "rp-wno" / "q.qfield")
    qf.values[5] = np.inf
    cf.save_qfield(qf, tmp_path / "q.qfield")
    assert opcert("superres", "--ckpt", root / "rp-wno", "--qfield", tmp_path / "q.qfield",
                  "--data-hi", root / "data_hi", "--out", tmp_path / "cov.csv") == 6
    assert "1 infinite conformal parameters, the first at location (5,)" in capsys.readouterr().err
    assert not (tmp_path / "cov.csv").exists()


def test_failed_solve_exits_8_and_writes_no_data(tmp_path, capsys, monkeypatch):
    # a NaN initial condition for calibration sample 6 only, drawn after the
    # train split; the solver's own blow-up check rejects it
    failing = SeededRng(0).substream(dg.SPLIT_STREAM_BASE["calibration"] + 6)
    draw = dg.grf_coefficients

    def coefficients(spec, rng):
        coeff = draw(spec, rng)
        return np.full_like(coeff, np.nan) if rng == failing else coeff

    monkeypatch.setattr(dg, "grf_coefficients", coefficients)
    cfg = write_config(tmp_path / "run.cfg", seed=0, n_train=1, n_calibration=7, n_test=1)
    assert opcert("generate-data", "--config", cfg, "--out", tmp_path / "data") == 8
    assert "calibration[6]" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.opdata"))


def test_default_physics_solves_every_draw(tmp_path):
    # calibration[6] at seed 0 blew up under the Crank-Nicolson/AB2 step
    cfg = write_config(tmp_path / "run.cfg", seed=0, n_train=1, n_calibration=7, n_test=1)
    assert opcert("generate-data", "--config", cfg, "--out", tmp_path / "data") == 0
    _, _, inputs, outputs = dg.read_dataset(tmp_path / "data" / "calibration.opdata")
    assert inputs.shape == outputs.shape == (7, 128)
    assert np.all(np.isfinite(outputs))


# --------------------------------------------------------------------------
# process setup: freed arrays stay in the heap of a command's process
# --------------------------------------------------------------------------


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# Twenty times, a (20, 1024, 128) array and its product are allocated and
# freed, as a model op's forward does; prints the minor faults they cost.
HEAP_PROBE = """
import resource, sys
import numpy as np
from opcert import cli
if sys.argv[1] == "main":
    cli.main(["generate-data", "--config", "missing.cfg", "--out", "unused"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    a = np.ones((20, 1024, 128))
    b = a * 2.0
    del a, b
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_main_keeps_freed_arrays_in_the_heap(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    faults = {}
    for mode in ("main", "import"):
        proc = subprocess.run([sys.executable, "-c", HEAP_PROBE, mode], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        faults[mode] = int(proc.stdout.split()[-1])
    assert faults["main"] * 3 < faults["import"], faults


# An array is freed on a worker thread, then one of the same size is made
# on the main thread; prints the minor faults of each. With one malloc
# arena the main thread reuses the worker's pages.
ARENA_PROBE = """
import resource, threading
import numpy as np
from opcert import cli
cli._retain_heap()
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
def work():
    a = np.ones(1 << 20)
    del a
start = faults()
worker = threading.Thread(target=work)
worker.start()
worker.join()
middle = faults()
b = np.ones(1 << 20)
print(middle - start, faults() - middle)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_main_thread_reuses_arrays_freed_in_a_worker(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", ARENA_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    worker, main = map(int, proc.stdout.split())
    assert main * 3 < worker, (worker, main)


def test_outputs_do_not_depend_on_blas_threads(root, tmp_path):
    """train, calibrate and evaluate write the same bytes with 1 and 2 BLAS threads."""
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / threads
        for argv in (
            ["train", "--config", root / "rp-wno.cfg", "--data", root / "data", "--out", out],
            ["calibrate", "--ckpt", out, "--data", root / "data", "--out", out / "q.qfield"],
            ["evaluate", "--ckpt", out, "--qfield", out / "q.qfield", "--data", root / "data",
             "--out", out / "coverage.csv"],
        ):
            subprocess.run([sys.executable, "-m", "opcert.cli", *map(str, argv)], env=env,
                           cwd=tmp_path, capture_output=True, check=True, timeout=300)
        names = sorted(p.name for p in out.glob("*.ckpt")) + ["q.qfield", "coverage.csv"]
        outputs[threads] = {name: (out / name).read_bytes() for name in names}
    assert len(outputs["1"]) == 6  # two members, each with a prior
    assert outputs["1"] == outputs["2"]


def fresh_python(tmp_path, probe):
    """stdout of `probe` run in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout


def test_import_starts_no_thread(tmp_path):
    probe = ("import threading, opcert.cli, opcert.core as c; "
             "print(threading.active_count(), c._helper)")
    assert fresh_python(tmp_path, probe).split() == ["1", "None"]


def test_model_commands_import_no_sparse_or_linalg(tmp_path):
    # only the Darcy solve needs scipy.sparse (and, through it,
    # scipy.linalg); the other commands must not carry them
    probe = ("import sys, numpy as np, opcert.cli, opcert.gp as gp, opcert.datagen as dg; "
             "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules)); "
             "u = dg.solve_darcy_fd(np.full((5, 5), 2.0), dg.DarcyConfig(resolution=5)); "
             "print(callable(gp.cho_factor), bool(u[2, 2] > 0), 'scipy.sparse' in sys.modules)")
    assert fresh_python(tmp_path, probe).splitlines() == ["[]", "True True True"]


def test_main_runs_without_mallopt(monkeypatch, tmp_path):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    cfg = write_config(tmp_path / "run.cfg", **{**TINY, "n_train": 1, "n_calibration": 1,
                                                "n_test": 1})
    assert opcert("generate-data", "--config", cfg, "--out", tmp_path / "data") == 0
    assert sorted(p.name for p in (tmp_path / "data").glob("*.opdata")) == [
        "calibration.opdata", "test.opdata", "train.opdata"]
