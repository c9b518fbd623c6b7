"""Grids, deterministic random streams, and shared array contracts.

Every field in this package is a dense float64 ndarray whose shape is the
grid shape (plus leading batch axes where noted). Elementwise combination
of two fields requires identical shapes; the only implicit broadcast
allowed is a python scalar. Randomness is counter-based (Philox) so that a
(seed, stream) pair yields the same draws regardless of how many other
streams were consumed, serially or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF


class GridError(ValueError):
    """Invalid grid description."""


class ShapeError(ValueError):
    """Mismatched field shapes in an elementwise operation."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on a rectangular domain, endpoints included.

    resolution: number of points per dimension (>= 2 for coordinate use).
    extent: (low, high) physical bounds per dimension, default unit box.
    """

    resolution: tuple[int, ...]
    extent: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        res = tuple(int(r) for r in self.resolution)
        if len(res) not in (1, 2):
            raise GridError(f"grid must be 1D or 2D, got {len(res)} dims")
        if any(r < 1 for r in res):
            raise GridError(f"resolutions must be positive, got {res}")
        object.__setattr__(self, "resolution", res)
        ext = self.extent or tuple((0.0, 1.0) for _ in res)
        ext = tuple((float(a), float(b)) for a, b in ext)
        if len(ext) != len(res):
            raise GridError("extent must give one (low, high) pair per dim")
        if any(b <= a for a, b in ext):
            raise GridError(f"degenerate extent {ext}")
        object.__setattr__(self, "extent", ext)

    @property
    def dims(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def num_points(self) -> int:
        return int(np.prod(self.resolution))


def normalized_coordinates(grid: GridSpec) -> np.ndarray:
    """Coordinates of all grid points in [0,1]^dims, lexicographic rows.

    Returns an (N, dims) array; along each dimension the coordinate of
    point i is i/(resolution-1). Resolutions below 2 are rejected because
    a single point has no well-defined normalized position.
    """
    if any(r < 2 for r in grid.resolution):
        raise GridError(
            f"normalized coordinates need >= 2 points per dim, got {grid.resolution}"
        )
    axes = [np.linspace(0.0, 1.0, r) for r in grid.resolution]
    if grid.dims == 1:
        return axes[0][:, None].copy()
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


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
