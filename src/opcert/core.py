"""Grids, deterministic random streams, and shared array contracts.

Every field in this package is a dense float64 ndarray whose shape is the
grid shape (plus leading batch axes where noted). Elementwise combination
of two fields requires identical shapes; the only implicit broadcast
allowed is a python scalar. Randomness is counter-based (Philox) so that a
(seed, stream) pair yields the same draws regardless of how many other
streams were consumed, serially or in parallel.

The package has one parallelism policy and one tool for it. `member_map`
runs independent models (ensemble members, a quantile pair) one per core
on a thread pool, while every loaded OpenBLAS runs on one thread
(`one_blas_thread`), so its workers do not spin on the cores the models
need. Training, inference and the spiking report all use it; a single
model runs whole on the calling thread. numpy's ufuncs and matmuls
release the GIL, so the threads overlap; each model makes the same ufunc
and BLAS calls as in a serial run, so results are bit-identical to it.
"""

from __future__ import annotations

import ctypes
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF


class GridError(ValueError):
    """Invalid grid description."""


class ShapeError(ValueError):
    """Mismatched field shapes in an elementwise operation."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit box, endpoints included.

    resolution: number of points per dimension (>= 2 for coordinate use).
    """

    resolution: tuple[int, ...]

    def __post_init__(self):
        res = tuple(int(r) for r in self.resolution)
        if len(res) not in (1, 2):
            raise GridError(f"grid must be 1D or 2D, got {len(res)} dims")
        if any(r < 1 for r in res):
            raise GridError(f"resolutions must be positive, got {res}")
        object.__setattr__(self, "resolution", res)

    @property
    def dims(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution


def normalized_axes(grid: GridSpec) -> list[np.ndarray]:
    """Per-dimension coordinates i/(resolution-1) in [0,1]; needs resolution >= 2."""
    if any(r < 2 for r in grid.resolution):
        raise GridError(
            f"normalized coordinates need >= 2 points per dim, got {grid.resolution}"
        )
    return [np.linspace(0.0, 1.0, r) for r in grid.resolution]


def coordinate_rows(axes) -> np.ndarray:
    """(N, dims) coordinates of the tensor grid over `axes`, lexicographic rows."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def normalized_coordinates(grid: GridSpec) -> np.ndarray:
    """Coordinates of all grid points in [0,1]^dims (`normalized_axes`), lexicographic rows."""
    return coordinate_rows(normalized_axes(grid))


@dataclass(frozen=True)
class SeededRng:
    """Counter-based random stream addressed by (seed, stream).

    Streams with distinct ids are statistically independent; the same
    (seed, stream) reproduces the same sequence on any machine and under
    any interleaving with other streams.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = [np.uint64(self.seed & _U64), np.uint64(self.stream & _U64)]
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "SeededRng":
        return SeededRng(self.seed, (self.stream + offset) & _U64)


def require_same_shape(a: np.ndarray, b, context: str = "elementwise op"):
    """Enforce the no-broadcast contract (scalars exempt)."""
    if np.isscalar(b) or getattr(b, "shape", None) == ():
        return
    if a.shape != b.shape:
        raise ShapeError(f"{context}: shapes {a.shape} and {b.shape} differ")


@dataclass
class Band:
    """Closed interval field [lower, upper] on a grid."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        require_same_shape(self.lower, self.upper, "band")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values inside the closed interval."""
        require_same_shape(self.lower, values, "band containment")
        return (values >= self.lower) & (values <= self.upper)


# --------------------------------------------------------------------------
# one model per core
# --------------------------------------------------------------------------

# thread-count setters of the OpenBLAS builds that numpy and scipy load
# (each wheel bundles its own copy); the getter has the same name with "get"
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _scan_blas_thread_controls() -> list:
    """(get, set) thread-count functions, one pair per loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                parts[5].strip()
                for parts in (line.split(None, 5) for line in fh)
                if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
            }
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                controls.append((getter, setter))
                break
    return controls


# (len(sys.modules) at the last scan, the controls it found); replaced
# whole, so a thread reads either the old pair or the new one
_blas_scan = (-1, [])


def _blas_thread_controls() -> list:
    """The last scan's controls; a change in sys.modules' size rescans."""
    global _blas_scan
    count = len(sys.modules)
    if _blas_scan[0] != count:
        _blas_scan = (count, _scan_blas_thread_controls())
    return _blas_scan[1]


@contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS at one thread inside the block.

    Yields whether any thread setter was found. Each old count is
    restored on exit, also when the block raises. The (get, set) pairs
    are cached, so an entry costs a few microseconds: the process maps
    are read and each OpenBLAS opened again only when sys.modules has
    changed size since the last scan, since an OpenBLAS only arrives
    with an extension import. A caller imports what it will run before
    it enters, so that library is pinned too.
    """
    saved = [(setter, getter()) for getter, setter in _blas_thread_controls()]
    try:
        for setter, _ in saved:
            setter(1)
        yield bool(saved)
    finally:
        for setter, count in saved:
            setter(count)


def member_map(fn, items) -> list:
    """[fn(item) for item in items], one item per core where that pays.

    Items must be independent models: fn(item) may not touch another
    item's state. The pool has min(available CPUs, len(items)) threads
    and runs inside `one_blas_thread`. Where no thread setter is found,
    or one worker is all there is, fn runs serially on the calling thread.
    """
    items = list(items)
    workers = min(_available_cpus(), len(items))
    if workers > 1:
        with one_blas_thread() as pinned:
            if pinned:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(fn, items))
    return [fn(item) for item in items]
