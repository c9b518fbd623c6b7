"""Binary containers and the key-value manifest format.

All payloads are little-endian float64 in C order so containers round-trip
bit-exactly. Each file starts with an 8-byte magic and a u32 version.
Writers go through `replacing`, so a failed write leaves any previous file
in place and no partial one behind. Readers go through `reading`, so a
format error names the file it was found in. A reader checks every
stored size against the bytes left in the file before it reads, so a
corrupt size raises FormatError instead of allocating its buffer.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .core import GridSpec

# OPCERT02: the model header dropped the spike-train length of OPCERT01
CHECKPOINT_MAGIC = b"OPCERT02"
DATASET_MAGIC = b"OPDATA01"
# OPQFLD02: the q-field header dropped the band multiplier z of OPQFLD01
QFIELD_MAGIC = b"OPQFLD02"
VERSION = 1


class FormatError(ValueError):
    """File does not match the expected container layout."""


@contextlib.contextmanager
def replacing(path):
    """Binary handle on a sibling temp file that replaces `path` on success.

    If the block raises, the temp file is removed and `path` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def reading(path):
    """Binary read handle on `path`; a FormatError raised in the block names the file."""
    with open(path, "rb") as fh:
        try:
            yield fh
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def _read_exact(fh, size: int, what: str) -> bytes:
    """size bytes from fh; raises before reading if the file holds fewer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise FormatError(f"truncated {what}: needs {size} bytes, {left} left in the file")
    return fh.read(size)


def write_u32(fh, *values):
    fh.write(struct.pack("<" + "I" * len(values), *values))


def read_u32(fh, count=1):
    raw = _read_exact(fh, 4 * count, "integers")
    vals = struct.unpack("<" + "I" * count, raw)
    return vals[0] if count == 1 else vals


def lookup_id(names: dict, stored: int, what: str):
    """names[stored]; an id the format does not define raises FormatError."""
    try:
        return names[stored]
    except KeyError:
        raise FormatError(f"unknown {what} id {stored}") from None


def write_f64(fh, *values):
    fh.write(struct.pack("<" + "d" * len(values), *values))


def read_f64(fh, count=1):
    raw = _read_exact(fh, 8 * count, "floats")
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
    raw = _read_exact(fh, 8 * math.prod(shape), f"array payload of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def write_named_array(fh, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    write_u32(fh, len(encoded))
    fh.write(encoded)
    write_array(fh, arr)


def read_named_array(fh):
    name_len = read_u32(fh)
    raw = _read_exact(fh, name_len, "array name")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"array name of {name_len} bytes is not UTF-8") from exc
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
    with replacing(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


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
