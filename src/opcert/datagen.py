"""Synthetic datasets: random fields, a viscous transport solver, and a
steady diffusion solver, with binary persistence.

Random fields are synthesized spectrally from a fixed number of modes, so
the same draw evaluated at two resolutions gives samples of one underlying
function; that is what makes resolution-transfer experiments meaningful.
Per-sample random streams are derived from (seed, split base + index),
which keeps splits disjoint and regeneration bit-identical. The 1D field
basis is cached per point set. The transport solver integrates diffusion
exactly (an integrating factor), so its step has no stability bound on
the viscous term, and a time step costs two transform calls: one inverse
transform of the stacked spectra of u and u_x, whose u also serves the
blow-up check, and one forward transform of the product.

Only the Darcy solve loads `scipy.sparse`, inside `solve_darcy_fd`. Every
command imports this module for its dataset reader, and a module-level
import would put the sparse stack (with `scipy.linalg`, ~10 MB resident)
into the train, calibrate, evaluate and superres processes, which never
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import serialio as sio
from .core import GridSpec, SeededRng

DATASET_KINDS = {"burgers": 1, "darcy": 2}
_KIND_NAMES = {v: k for k, v in DATASET_KINDS.items()}

# stream bases reserving disjoint per-sample id ranges per split
SPLIT_STREAM_BASE = {"train": 1 << 20, "calibration": 2 << 20, "test": 3 << 20}


class SolverError(RuntimeError):
    """Numerical solve failed; message carries the failing step/iteration."""


# --------------------------------------------------------------------------
# Gaussian random fields
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrfSpec:
    """Spectral law: mode k has variance scale * (4 pi^2 |k|^2 + shift)^-2.

    1D fields use the periodic Fourier basis (constant, cos, sin pairs);
    2D fields use the even cosine basis so no flux is forced through the
    boundary. mode_count bounds the synthesis; the eigenvalues decay like
    |k|^-4 so a few dozen modes carry all the variance.
    """

    shift: float
    scale: float
    dims: int
    mode_count: int = 32

    def __post_init__(self):
        if self.shift <= 0 or self.scale < 0:
            raise ValueError("need shift > 0 and scale >= 0")
        if self.dims not in (1, 2):
            raise ValueError("fields are 1D or 2D")

    def eigenvalue(self, k) -> np.ndarray:
        ksq = np.sum(np.square(np.atleast_2d(k).astype(np.float64)), axis=-1)
        return self.scale * (4.0 * np.pi**2 * ksq + self.shift) ** (-2.0)


BURGERS_GRF = GrfSpec(shift=25.0, scale=625.0, dims=1)
DARCY_GRF = GrfSpec(shift=9.0, scale=1.0, dims=2)


def grf_coefficients(spec: GrfSpec, rng: SeededRng) -> np.ndarray:
    """Standard-normal coefficient draw defining one field."""
    gen = rng.generator()
    if spec.dims == 1:
        return gen.standard_normal(2 * spec.mode_count - 1)  # const + (cos, sin) pairs
    return gen.standard_normal((spec.mode_count, spec.mode_count))


@lru_cache(maxsize=16)
def _grf_basis_1d(spec: GrfSpec, point_bytes: bytes):
    """(sqrt(lambda_0), mode amplitudes, cos and sin of the phase matrix).

    Keyed by the spec and the raw float64 bytes of the point set, so each
    grid pays for its (mode_count - 1, n) trigonometric tables once. The
    arrays are read-only because every caller shares them.
    """
    x = np.frombuffer(point_bytes, dtype=np.float64)
    kk = np.arange(1, spec.mode_count)
    lam0 = float(spec.eigenvalue([[0.0]])[0])
    lam = spec.eigenvalue(kk[:, None])
    phase = 2.0 * np.pi * np.outer(kk, x)
    basis = (np.sqrt(2.0 * lam), np.cos(phase), np.sin(phase))
    for arr in basis:
        arr.flags.writeable = False
    return (np.sqrt(lam0),) + basis


def grf_evaluate(spec: GrfSpec, coeff: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the field defined by coeff at 1D points or a 2D point grid."""
    if spec.dims == 1:
        x = np.ascontiguousarray(points, dtype=np.float64)
        root_lam0, amps, cos_phase, sin_phase = _grf_basis_1d(spec, x.tobytes())
        out = root_lam0 * coeff[0] * np.ones_like(x)
        cos_c = coeff[1 : spec.mode_count]
        sin_c = coeff[spec.mode_count :]
        out += (amps * cos_c) @ cos_phase + (amps * sin_c) @ sin_phase
        return out
    x = np.asarray(points, dtype=np.float64)
    kk = np.arange(spec.mode_count)
    lam = spec.eigenvalue(
        np.stack(np.meshgrid(kk, kk, indexing="ij"), axis=-1).reshape(-1, 2)
    ).reshape(spec.mode_count, spec.mode_count)
    # orthonormal cosine basis: phi_0 = 1, phi_k = sqrt(2) cos(pi k x)
    basis = np.cos(np.pi * np.outer(kk, x))
    basis[1:] *= np.sqrt(2.0)
    weighted = np.sqrt(lam) * coeff
    return basis.T @ weighted @ basis


def sample_grf(spec: GrfSpec, rng: SeededRng, grid: GridSpec) -> np.ndarray:
    """One field sample on the given grid.

    1D grids are treated as periodic (points j/N); 2D grids include both
    endpoints (points j/(N-1)) to line up with Dirichlet boundaries.
    """
    coeff = grf_coefficients(spec, rng)
    if spec.dims == 1:
        n = grid.resolution[0]
        return grf_evaluate(spec, coeff, np.arange(n) / n)
    if grid.dims != 2:
        raise ValueError("2D law needs a 2D grid")
    pts = np.linspace(0.0, 1.0, grid.resolution[0])
    if grid.resolution[0] != grid.resolution[1]:
        raise ValueError("2D sampling expects square grids")
    return grf_evaluate(spec, coeff, pts)


# --------------------------------------------------------------------------
# viscous transport (periodic, spectral in space)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BurgersConfig:
    viscosity: float = 0.1
    dt: float = 1.0 / 200.0
    solver_resolution: int = 512
    output_resolution: int = 128
    t_final: float = 1.0

    def __post_init__(self):
        if self.solver_resolution < self.output_resolution:
            raise ValueError("solver resolution must be >= output resolution")
        if self.solver_resolution % self.output_resolution:
            raise ValueError("output resolution must divide solver resolution")
        if self.viscosity <= 0 or self.dt <= 0:
            raise ValueError("viscosity and dt must be positive")


def solve_burgers(u0: np.ndarray, config: BurgersConfig) -> np.ndarray:
    """March u_t + u u_x = nu u_xx to t_final on the periodic unit interval.

    Integrating-factor Adams-Bashforth (Cox & Matthews, J. Comput. Phys.
    2002) with 2/3-rule dealiasing: diffusion is integrated exactly by
    decay = exp(-dt nu (2 pi k)^2), and the advection term, carried along
    by the same factor, is explicit (Euler on the first step, AB2 after).
    The viscous term sets no step bound: a stiff mode decays by its exact
    factor, where Crank-Nicolson's factor tends to -1 and leaves it
    undamped. Each step makes two transform calls: one inverse transform
    of the stacked spectra [u_hat, ik u_hat] gives u and u_x, the same u
    feeds the blow-up check, and one forward transform of u u_x gives the
    advection term.
    Returns the solution subsampled to the output resolution.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    n = config.solver_resolution
    if u0.shape != (n,):
        raise ValueError(f"initial condition must live on the solver grid ({n},)")
    nu, dt = config.viscosity, config.dt
    steps = int(round(config.t_final / dt))
    k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers
    ik = 2j * np.pi * k
    dealias = k <= n / 3.0
    decay = np.exp(-dt * nu * (2.0 * np.pi * k) ** 2)
    u_hat = np.fft.rfft(u0)
    spectra = np.empty((2, k.size), dtype=np.complex128)  # [u_hat, ik u_hat]
    prev = None
    for step in range(steps):
        spectra[0] = u_hat
        np.multiply(ik, u_hat, out=spectra[1])
        u, ux = np.fft.irfft(spectra, n=n)
        umax = float(np.abs(u).max())
        if not math.isfinite(umax) or umax > 1e6:
            raise SolverError(f"blow-up at step {step} (|u| = {umax:.3g})")
        cur = np.fft.rfft(u * ux) * dealias
        # the previous advection term is carried one step by the factor
        adv = cur if step == 0 else 1.5 * cur - 0.5 * decay * prev
        u_hat = decay * (u_hat - dt * adv)
        prev = cur
    u_final = np.fft.irfft(u_hat, n=n)
    if not np.all(np.isfinite(u_final)):
        raise SolverError(f"non-finite solution after {steps} steps")
    return u_final[:: n // config.output_resolution]


# --------------------------------------------------------------------------
# steady diffusion with heterogeneous conductivity (Dirichlet box)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DarcyConfig:
    resolution: int = 32
    perm_low: float = 3.0
    perm_high: float = 12.0
    forcing: float = 1.0

    def __post_init__(self):
        if self.resolution < 3:
            raise ValueError("need at least one interior node")
        if self.perm_low <= 0 or self.perm_high <= 0:
            raise ValueError("permeability levels must be positive")


def permeability_from_grf(field: np.ndarray, config: DarcyConfig) -> np.ndarray:
    """Two-level conductivity: low where the latent field is negative."""
    return np.where(field < 0.0, config.perm_low, config.perm_high)


def _edge_coefficients(a: np.ndarray):
    harm = lambda p, q: 2.0 * p * q / (p + q)
    ax = harm(a[:-1, :], a[1:, :])  # between rows i and i+1
    ay = harm(a[:, :-1], a[:, 1:])  # between columns j and j+1
    return ax, ay


def solve_darcy_fd(a: np.ndarray, config: DarcyConfig) -> np.ndarray:
    """Solve -div(a grad u) = forcing with zero Dirichlet boundary.

    Harmonic edge averaging keeps the 5-point system on the interior nodes
    symmetric positive definite for positive a; it is assembled sparse and
    solved directly.
    """
    from scipy.sparse import diags_array
    from scipy.sparse.linalg import spsolve

    a = np.asarray(a, dtype=np.float64)
    r = config.resolution
    if a.shape != (r, r):
        raise ValueError(f"conductivity must be ({r}, {r}), got {a.shape}")
    if np.any(a <= 0):
        raise ValueError("conductivity must be strictly positive")
    m = r - 2
    ax, ay = _edge_coefficients(a)
    # edge weights from interior node (i, j) to (i+1, j), (i-1, j), (i, j+1)
    # and (i, j-1); unknowns are numbered row-major
    down, up = ax[1:, 1:-1], ax[:-1, 1:-1]
    right, left = ay[1:-1, 1:], ay[1:-1, :-1]
    vertical = down[:-1].ravel()
    horizontal = right.copy()
    horizontal[:, -1] = 0.0  # no coupling across the end of a row
    horizontal = horizontal.ravel()[:-1]
    h = 1.0 / (r - 1)
    h2 = h * h
    diagonals = [(down + up + right + left).ravel(), -horizontal, -horizontal, -vertical, -vertical]
    offsets = [0, 1, -1, m, -m]
    if m == 1:  # a single unknown has no neighbours
        diagonals, offsets = diagonals[:1], offsets[:1]
    operator = diags_array(diagonals, offsets=offsets, format="csc") / h2
    u = spsolve(operator, np.full(m * m, config.forcing))
    if not np.all(np.isfinite(u)):
        raise SolverError("sparse solve returned a non-finite pressure field")
    out = np.zeros((r, r))
    out[1:-1, 1:-1] = u.reshape(m, m)
    return out


# --------------------------------------------------------------------------
# dataset generation and persistence
# --------------------------------------------------------------------------


def generate_burgers_sample(rng: SeededRng, config: BurgersConfig):
    """(initial condition, solution) pair at the output resolution."""
    n = config.solver_resolution
    u0 = sample_grf(BURGERS_GRF, rng, GridSpec((n,)))
    return u0[:: n // config.output_resolution], solve_burgers(u0, config)


def generate_darcy_sample(rng: SeededRng, config: DarcyConfig):
    """(conductivity, pressure) pair on the endpoint-inclusive grid."""
    grid = GridSpec((config.resolution, config.resolution))
    latent = sample_grf(DARCY_GRF, rng, grid)
    a = permeability_from_grf(latent, config)
    return a, solve_darcy_fd(a, config)


def write_dataset(path, kind: str, grid: GridSpec, inputs: np.ndarray, outputs: np.ndarray):
    inputs = np.asarray(inputs, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    if inputs.shape != outputs.shape or inputs.shape[1:] != grid.shape:
        raise ValueError("dataset arrays must be (n, *grid) and aligned")
    with sio.replacing(path) as fh:
        sio.start_file(fh, sio.DATASET_MAGIC)
        sio.write_u32(fh, DATASET_KINDS[kind])
        sio.write_grid(fh, grid)
        sio.write_u32(fh, len(inputs))
        for u, y in zip(inputs, outputs):
            sio.write_array(fh, u)
            sio.write_array(fh, y)


def read_dataset(path):
    with sio.reading(path) as fh:
        sio.check_magic(fh, sio.DATASET_MAGIC)
        kind = sio.lookup_id(_KIND_NAMES, sio.read_u32(fh), "dataset kind")
        grid = sio.read_grid(fh)
        count = sio.read_u32(fh)
        if count < 1:
            raise sio.FormatError("dataset holds no samples")
        inputs, outputs = [], []
        for _ in range(count):
            inputs.append(sio.read_array(fh))
            outputs.append(sio.read_array(fh))
    return kind, grid, np.stack(inputs), np.stack(outputs)


def make_dataset(
    kind: str,
    counts: dict,
    rng: SeededRng,
    out_dir,
    burgers: BurgersConfig | None = None,
    darcy: DarcyConfig | None = None,
) -> dict:
    """Generate and persist train/calibration/test splits plus a manifest.

    Every sample is drawn from its own stream (split base + index), so
    regenerating any split, in any order, is bit-identical, and no two
    splits can share a sample. A SolverError names the failing sample.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    for split in ("train", "calibration", "test"):
        if counts.get(split, 0) < 1:
            raise ValueError(f"need at least one {split} sample")
    if kind == "burgers":
        config = burgers or BurgersConfig()
        grid = GridSpec((config.output_resolution,))
        sampler = lambda r: generate_burgers_sample(r, config)
    else:
        config = darcy or DarcyConfig()
        grid = GridSpec((config.resolution, config.resolution))
        sampler = lambda r: generate_darcy_sample(r, config)
    drawn = {}
    for split in ("train", "calibration", "test"):
        base = SPLIT_STREAM_BASE[split]
        pairs = []
        for i in range(counts[split]):
            try:
                pairs.append(sampler(rng.substream(base + i)))
            except SolverError as exc:
                raise SolverError(f"{split}[{i}]: {exc}") from exc
        drawn[split] = pairs
    # every split is drawn before any file is written, so a failed solve
    # leaves no partial dataset behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, pairs in drawn.items():
        paths[split] = out_dir / f"{split}.opdata"
        ins, outs = zip(*pairs)
        write_dataset(paths[split], kind, grid, np.stack(ins), np.stack(outs))
    manifest = {
        "kind": kind,
        "seed": rng.seed,
        "base_stream": rng.stream,
        "n_train": counts["train"],
        "n_calibration": counts["calibration"],
        "n_test": counts["test"],
    }
    if kind == "burgers":
        manifest.update(
            {
                "viscosity": repr(config.viscosity),
                "dt": repr(config.dt),
                "solver_resolution": config.solver_resolution,
                "output_resolution": config.output_resolution,
                "reference_protocol": "1000/50/100 samples at resolution 1024",
            }
        )
    else:
        manifest.update(
            {
                "resolution": config.resolution,
                "perm_low": repr(config.perm_low),
                "perm_high": repr(config.perm_high),
                "forcing": repr(config.forcing),
                "reference_protocol": "800/100/100 samples at resolution 85x85",
            }
        )
    sio.write_manifest(out_dir / "manifest.txt", manifest)
    return paths
