"""Every writer replaces its destination whole or leaves it as it was, and
every reader rejects a stored size larger than the file before reading it."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from opcert import conformal as cf
from opcert import datagen as dg
from opcert import neuralop as no
from opcert import serialio as sio
from opcert.core import GridSpec, SeededRng

OLD_BYTES = b"previous contents"


class DiskFull(OSError):
    pass


def fail_on_array(monkeypatch):
    """Make the binary writers fail after their header reached the file."""

    def write_array(fh, arr):
        fh.write(b"partial")
        raise DiskFull("no space left")

    monkeypatch.setattr(sio, "write_array", write_array)


def write_dataset(path, monkeypatch):
    fail_on_array(monkeypatch)
    dg.write_dataset(path, "burgers", GridSpec((8,)), np.ones((2, 8)), np.zeros((2, 8)))


def tiny_model():
    return no.WnoModel.initialize(no.WnoConfig(grid=GridSpec((16,)), width=4, layers=1,
                                               levels=1), SeededRng(0))


def save_model(path, monkeypatch):
    model = tiny_model()
    fail_on_array(monkeypatch)
    no.save_model(model, path)


def save_qfield(path, monkeypatch):
    fail_on_array(monkeypatch)
    cf.save_qfield(cf.QField(np.ones(4), GridSpec((4,)), 0.05), path)


def write_manifest(path, monkeypatch):
    # a lone surrogate cannot be encoded, which fails after the first entry
    sio.write_manifest(path, {"kind": "burgers", "note": "\ud800"})


WRITERS = (write_dataset, save_model, save_qfield, write_manifest)


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_failed_write_leaves_no_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    with pytest.raises((DiskFull, UnicodeEncodeError)):
        writer(path, monkeypatch)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_failed_write_keeps_previous_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(OLD_BYTES)
    with pytest.raises((DiskFull, UnicodeEncodeError)):
        writer(path, monkeypatch)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == OLD_BYTES


def test_successful_write_replaces_previous_file(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(OLD_BYTES)
    sio.write_manifest(path, {"kind": "darcy", "resolution": 8})
    assert list(tmp_path.iterdir()) == [path]
    assert sio.read_manifest(path) == {"kind": "darcy", "resolution": "8"}


@pytest.mark.parametrize("offset, value", [
    (16, 1 << 24),  # the first dimension of layer0.b: a 128 MB payload
    (0, (1 << 32) - 1),  # the name length of layer0.b
])
def test_corrupt_size_raises_before_reading(tmp_path, offset, value):
    path = tmp_path / "member_000.ckpt"
    no.save_model(tiny_model(), path)
    data = bytearray(path.read_bytes())
    # layout: u32 name length, name, u32 ndim, u32 dims
    at = data.index(struct.pack("<I", 8) + b"layer0.b") + offset
    data[at:at + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(sio.FormatError, match=re.escape(str(path))):
            no.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
