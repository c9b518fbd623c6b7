"""Binary containers and the key-value manifest format.

All payloads are little-endian float64 in C order so containers round-trip
bit-exactly. Each file starts with an 8-byte magic and a u32 version.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import GridSpec

# OPCERT02: the model header dropped the spike-train length of OPCERT01
CHECKPOINT_MAGIC = b"OPCERT02"
DATASET_MAGIC = b"OPDATA01"
QFIELD_MAGIC = b"OPQFLD01"
VERSION = 1


class FormatError(ValueError):
    """File does not match the expected container layout."""


def write_u32(fh, *values):
    fh.write(struct.pack("<" + "I" * len(values), *values))


def read_u32(fh, count=1):
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise FormatError("truncated file while reading integers")
    vals = struct.unpack("<" + "I" * count, raw)
    return vals[0] if count == 1 else vals


def write_f64(fh, *values):
    fh.write(struct.pack("<" + "d" * len(values), *values))


def read_f64(fh, count=1):
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise FormatError("truncated file while reading floats")
    vals = struct.unpack("<" + "d" * count, raw)
    return vals[0] if count == 1 else vals


def write_array(fh, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    write_u32(fh, arr.ndim, *arr.shape)
    fh.write(arr.tobytes())


def read_array(fh) -> np.ndarray:
    ndim = read_u32(fh)
    if ndim == 0:
        shape = ()
    elif ndim == 1:
        shape = (read_u32(fh),)
    else:
        shape = tuple(read_u32(fh, ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise FormatError("truncated array payload")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def write_named_array(fh, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    write_u32(fh, len(encoded))
    fh.write(encoded)
    write_array(fh, arr)


def read_named_array(fh):
    name_len = read_u32(fh)
    name = fh.read(name_len).decode("utf-8")
    return name, read_array(fh)


def write_grid(fh, grid: GridSpec):
    write_u32(fh, grid.dims, *grid.resolution)
    for lo, hi in grid.extent:
        write_f64(fh, lo, hi)


def read_grid(fh) -> GridSpec:
    dims = read_u32(fh)
    res = read_u32(fh, dims)
    res = (res,) if dims == 1 else tuple(res)
    extent = tuple((read_f64(fh), read_f64(fh)) for _ in range(dims))
    return GridSpec(res, extent)


def check_magic(fh, magic: bytes):
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    version = read_u32(fh)
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")


def start_file(fh, magic: bytes):
    fh.write(magic)
    write_u32(fh, VERSION)


# --- manifests: plain `key = value` text ------------------------------------


def write_manifest(path, entries: dict):
    lines = [f"{k} = {entries[k]}" for k in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    entries = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"manifest line without '=': {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries
