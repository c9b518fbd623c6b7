"""Synthetic datasets: random fields, a viscous transport solver, and a
steady diffusion solver, with binary persistence.

Random fields are synthesized spectrally from a fixed number of modes, so
the same draw evaluated at two resolutions gives samples of one underlying
function; that is what makes resolution-transfer experiments meaningful.
Per-sample random streams are derived from (seed, split base + index),
which keeps the splits' streams disjoint and regeneration bit-identical.
The 1D field basis is cached per point set. Viscous Burgers is solved
exactly, with no time steps, through the Cole-Hopf transform (Hopf, CPAM
1950; Cole, Q. Appl. Math. 1951): in the frame that moves with the
conserved mean, u is -2 nu d/dx log phi for a phi that solves the heat
equation, and on the periodic grid that is four transform calls per
solve. The solve keeps eps e^R relative precision, R growing like
1/viscosity, so it refuses a draw whose R would cost more than 1e-6; no
default draw comes near that (see `solve_burgers`).

Only the Darcy solve loads `scipy.linalg`, inside `solve_darcy_fd`. Every
command imports this module for its dataset reader, and a module-level
import would put `scipy.linalg` (~6 MB resident) into the train,
calibrate, evaluate and superres processes, which never solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import serialio as sio
from .core import GridSpec, SeededRng, one_blas_thread

DATASET_KINDS = {"burgers": 1, "darcy": 2}
_KIND_NAMES = {v: k for k, v in DATASET_KINDS.items()}

# stream bases reserving disjoint per-sample id ranges per split
SPLIT_STREAM_BASE = {"train": 1 << 20, "calibration": 2 << 20, "test": 3 << 20}


class SolverError(RuntimeError):
    """Numerical solve failed or was refused; the message says why."""


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
    solver_resolution: int = 512
    output_resolution: int = 128
    t_final: float = 1.0

    def __post_init__(self):
        if self.solver_resolution < self.output_resolution:
            raise ValueError("solver resolution must be >= output resolution")
        if self.solver_resolution % self.output_resolution:
            raise ValueError("output resolution must divide solver resolution")
        if not 0 < self.viscosity < math.inf:
            raise ValueError(f"viscosity must be positive and finite, got {self.viscosity!r}")
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")


# the largest range R = max - min of log(phi_0) that `solve_burgers` accepts:
# eps e^R <= 1e-6, so R up to ~22.2
_PHI_RANGE_MAX = math.log(1e-6 / np.finfo(np.float64).eps)


def solve_burgers(u0: np.ndarray, config: BurgersConfig) -> np.ndarray:
    """Solve u_t + u u_x = nu u_xx at t_final on the periodic unit interval.

    Exact, with no time steps, through the Cole-Hopf transform (Hopf, CPAM
    1950; Cole, Q. Appl. Math. 1951). The mean c of u0 is conserved, and
    u(x, t) = c + w(x - ct, t), where w = -2 nu d/dx log phi and phi solves
    the heat equation phi_t = nu phi_xx from phi_0 = exp(-W / (2 nu)), W the
    periodic antiderivative of u0 - c. On the grid of n points that is:

        W_hat_k = u_hat_k / (2 pi i k), with the k = 0 and Nyquist entries 0
        phi_0 = exp(-W / (2 nu) - max)
        phi_hat(T) = rfft(phi_0) exp(-nu (2 pi k)^2 T - 2 pi i k c T)
        [phi, phi_x] = irfft([phi_hat, 2 pi i k phi_hat])
        u = c - 2 nu phi_x / phi

    The one factor applies the heat decay and the shift by cT. A solve
    makes four transform calls and no time steps, so its only error is the
    grid's representation of phi. Over the 350 seed-0 default draws it is
    within 1.2e-9 relative L2 of an IF-AB3 solve at dt = 1/8000, which is
    that solve's own time error; IF-AB3 at dt = 1/100 was 1.6e-4 off.

    phi_0 spans e^-R..1, where R is the range max - min of W / (2 nu), and
    phi_x / phi keeps only eps e^R of relative precision where phi is
    small. R grows like 1/nu, so a draw with R above ~22.2 (eps e^R >
    1e-6) is refused with a SolverError before phi_0 is formed, as is a
    non-finite u0. On the default 200/50/100 splits at 512 points no draw
    is refused at nu = 0.1 (7000 draws, seeds 0-19, R at most 3.9) or at
    nu = 0.02 (700 draws, seeds 0-1, R at most 16.4); at 1024 points none
    of 1050 (seeds 0-2) is. At nu = 0.01 R reaches 32.8 and 34 of those
    700 draws are refused, so nu = 0.02 is the low end of the range served.
    Returns the solution subsampled to the output resolution.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    n = config.solver_resolution
    if u0.shape != (n,):
        raise ValueError(f"initial condition must live on the solver grid ({n},)")
    if not np.all(np.isfinite(u0)):
        raise SolverError("non-finite initial condition")
    nu, t = config.viscosity, config.t_final
    k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers
    ik = 2j * np.pi * k
    if n % 2 == 0:
        ik[-1] = 0.0  # the Nyquist mode has no derivative on the grid
    with np.errstate(over="ignore", invalid="ignore"):  # |u0| near the float limit
        u_hat = np.fft.rfft(u0)
        w_hat = np.divide(u_hat, ik, out=np.zeros_like(u_hat), where=ik != 0)
        exponent = np.fft.irfft(w_hat, n=n) * (-0.5 / nu)
        top = exponent.max()
        spread = float(top - exponent.min())
    if not spread <= _PHI_RANGE_MAX:  # NaN or inf once the transforms overflow
        raise SolverError(
            f"viscosity {nu!r}: the Cole-Hopf exponent range R = {spread:.3g} exceeds "
            f"{_PHI_RANGE_MAX:.3g}, where eps e^R passes 1e-6"
        )
    c = u_hat[0].real / n
    phi_hat = np.fft.rfft(np.exp(exponent - top))
    phi_hat *= np.exp(-nu * t * (2.0 * np.pi * k) ** 2 - ik * (c * t))
    phi, phi_x = np.fft.irfft(np.stack([phi_hat, ik * phi_hat]), n=n)
    u = c - (2.0 * nu) * (phi_x / phi)
    return u[:: n // config.output_resolution]


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

    Harmonic edge averaging keeps the 5-point system on the m = r - 2
    interior nodes per side symmetric positive definite for positive a.
    Numbered row-major, an unknown couples only to the unknowns 1 and m
    away, so the operator is a band of m superdiagonals. It is written
    straight into LAPACK's upper band storage, an (m + 1, m^2) array:
    row m holds the diagonal, row m - 1 the first superdiagonal (zero
    across each row end) and row 0 the m-th. A banded Cholesky
    (`scipy.linalg.solveh_banded`, LAPACK pbsv) solves it in O(m^4).

    pbsv runs on one BLAS thread (`core.one_blas_thread`): its updates
    are too small to share, and at two OpenBLAS threads a solve took
    about three times as long at 32^2. Over 20 draws per grid, the
    pressures match those of the SuperLU solve this replaced to within
    1.2e-14 relative in the max norm at 32^2 and 3.1e-14 at 85^2.

    A conductivity that passes the positivity check but whose harmonic
    edge means underflow (all 5e-324, say) leaves the operator singular;
    the failed factorization is raised as a SolverError. One whose means
    overflow gives a non-finite pressure, also a SolverError.
    """
    from scipy.linalg import LinAlgError, solveh_banded

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
    h = 1.0 / (r - 1)
    h2 = h * h
    # rows counted from the diagonal at the bottom; a single unknown gets
    # one spare row, because scipy hands a band of one superdiagonal to
    # its tridiagonal solver (ptsv), which rejects a system of size one
    band = np.zeros((max(m, 2) + 1, m * m))
    band[-1] = (down + up + right + left).ravel() / h2
    horizontal = -right / h2
    horizontal[:, -1] = 0.0  # no coupling across the end of a row
    band[-2, 1:] = horizontal.ravel()[:-1]
    band[-1 - m, m:] = (-down[:-1] / h2).ravel()
    with one_blas_thread():
        try:
            u = solveh_banded(band, np.full(m * m, config.forcing), overwrite_ab=True,
                              overwrite_b=True, check_finite=False)
        except LinAlgError as exc:
            raise SolverError(
                f"the 5-point operator is not positive definite ({exc}): the harmonic "
                "edge means of this conductivity underflow to zero"
            ) from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("banded Cholesky solve returned a non-finite pressure field")
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
        sio.write_array(fh, inputs)
        sio.write_array(fh, outputs)


def read_dataset(path):
    """(kind, grid, inputs, outputs) of a dataset file; each array is (n, *grid), n >= 1."""
    with sio.reading(path) as fh:
        sio.check_magic(fh, sio.DATASET_MAGIC)
        kind = sio.lookup_id(_KIND_NAMES, sio.read_u32(fh), "dataset kind")
        grid = sio.read_grid(fh)
        inputs, outputs = sio.read_array(fh), sio.read_array(fh)
        for name, arr in (("inputs", inputs), ("outputs", outputs)):
            if arr.shape[1:] != grid.shape:
                raise sio.FormatError(f"{name} have shape {arr.shape}, the grid {grid.shape}")
        if len(inputs) != len(outputs) or len(inputs) < 1:
            raise sio.FormatError(f"dataset holds {len(inputs)} inputs and {len(outputs)} outputs")
    return kind, grid, inputs, outputs


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
    samples share a stream. Distinct streams do not make distinct samples:
    Darcy draws that threshold to a constant conductivity repeat across
    splits (ROADMAP item 1). A SolverError names the failing sample.
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
