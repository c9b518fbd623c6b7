import hashlib

import numpy as np
import pytest

from opcert import datagen as dg
from opcert.core import GridSpec, SeededRng


class TestGrfLaw:
    def test_mode_zero_eigenvalue(self):
        assert dg.BURGERS_GRF.eigenvalue([[0.0]])[0] == pytest.approx(1.0)
        assert dg.DARCY_GRF.eigenvalue([[0.0]])[0] == pytest.approx(1.0 / 81.0)

    def test_zero_scale_zero_field(self):
        spec = dg.GrfSpec(shift=25.0, scale=0.0, dims=1)
        field = dg.sample_grf(spec, SeededRng(0), GridSpec((64,)))
        assert np.array_equal(field, np.zeros(64))

    def test_pointwise_variance_monte_carlo(self):
        spec = dg.BURGERS_GRF
        n_samples = 10000
        fields = np.stack(
            [
                dg.grf_evaluate(spec, dg.grf_coefficients(spec, SeededRng(1, i)),
                                np.arange(64) / 64)
                for i in range(n_samples)
            ]
        )
        mc = float(fields.var(axis=0).mean())
        # independent spectral sum: lam_0 + 2 sum_k lam_k
        lam = lambda k: 625.0 * (4 * np.pi**2 * k**2 + 25.0) ** (-2.0)
        expected = lam(0) + 2 * sum(lam(k) for k in range(1, spec.mode_count))
        assert abs(mc - expected) / expected < 0.05

    def test_two_point_covariance_matches_spectral_sum(self):
        spec = dg.BURGERS_GRF
        xa, xb = 0.125, 0.5
        n_samples = 10000
        vals = np.stack(
            [
                dg.grf_evaluate(spec, dg.grf_coefficients(spec, SeededRng(2, i)),
                                np.array([xa, xb]))
                for i in range(n_samples)
            ]
        )
        mc = float(np.mean(vals[:, 0] * vals[:, 1]))
        lam = lambda k: 625.0 * (4 * np.pi**2 * k**2 + 25.0) ** (-2.0)
        expected = lam(0) + 2 * sum(
            lam(k) * np.cos(2 * np.pi * k * (xa - xb))
            for k in range(1, spec.mode_count)
        )
        variance = lam(0) + 2 * sum(lam(k) for k in range(1, spec.mode_count))
        assert abs(mc - expected) < 0.05 * variance

    def test_resolution_consistent_sampling(self):
        # the same draw evaluated at nested grids agrees on shared points
        coeff = dg.grf_coefficients(dg.BURGERS_GRF, SeededRng(3))
        coarse = dg.grf_evaluate(dg.BURGERS_GRF, coeff, np.arange(64) / 64)
        fine = dg.grf_evaluate(dg.BURGERS_GRF, coeff, np.arange(128) / 128)
        assert np.allclose(fine[::2], coarse, atol=1e-12)


class TestBurgersSolver:
    def test_zero_initial_condition_fixed_point(self):
        cfg = dg.BurgersConfig(solver_resolution=128, output_resolution=128)
        out = dg.solve_burgers(np.zeros(128), cfg)
        assert np.array_equal(out, np.zeros(128))

    def test_small_mode_decays_exactly(self):
        # at amplitude 1e-6 advection feeds back into mode 1 only at O(1e-12),
        # so the mode decays by the heat equation's factor exp(-4 pi^2 nu t)
        cfg = dg.BurgersConfig(solver_resolution=256, output_resolution=256)
        u0 = 1e-6 * np.sin(2 * np.pi * np.arange(256) / 256)
        ratio = np.fft.rfft(dg.solve_burgers(u0, cfg))[1] / np.fft.rfft(u0)[1]
        exact = np.exp(-4 * np.pi**2 * cfg.viscosity * cfg.t_final)
        assert abs(ratio - exact) / exact < 1e-10

    def test_energy_dissipation(self):
        cfg = dg.BurgersConfig(solver_resolution=256, output_resolution=256)
        for i in range(5):
            u0 = dg.grf_evaluate(dg.BURGERS_GRF,
                                 dg.grf_coefficients(dg.BURGERS_GRF, SeededRng(4, i)),
                                 np.arange(256) / 256)
            u1 = dg.solve_burgers(u0, cfg)
            assert np.linalg.norm(u1) <= np.linalg.norm(u0)

    def test_constant_field_is_a_steady_state(self):
        # u = c solves Burgers exactly, however large c is
        cfg = dg.BurgersConfig(solver_resolution=64, output_resolution=64)
        assert np.array_equal(dg.solve_burgers(np.full(64, 1e7), cfg), np.full(64, 1e7))

    @pytest.mark.parametrize("viscosity, scale", [(1e-6, 0.0), (0.1, 1e307)])
    def test_precision_guard_refuses_tiny_viscosity(self, viscosity, scale):
        # R = max - min of W / (2 nu) grows like |u0| / nu, and the guard
        # refuses the draw before exp(R) or the transforms can warn; a square
        # wave of height 1e307 overflows the first transform
        cfg = dg.BurgersConfig(viscosity=viscosity, solver_resolution=64, output_resolution=64)
        u0 = split_draw("train", 0, 64) + np.where(np.arange(64) < 32, scale, -scale)
        with pytest.raises(dg.SolverError, match=rf"viscosity {viscosity!r}: .*R = .* exceeds 22\.2"):
            dg.solve_burgers(u0, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        u0 = split_draw("train", 0, 64)
        u0[7] = bad
        cfg = dg.BurgersConfig(solver_resolution=64, output_resolution=64)
        with pytest.raises(dg.SolverError, match="non-finite"):
            dg.solve_burgers(u0, cfg)

    def test_wrong_grid_rejected(self):
        with pytest.raises(ValueError):
            dg.solve_burgers(np.zeros(100), dg.BurgersConfig(solver_resolution=128,
                                                             output_resolution=64))

    @pytest.mark.parametrize("kwargs", [
        {"t_final": -1.0}, {"t_final": 0.0}, {"t_final": float("inf")},
        {"t_final": float("nan")}, {"t_final": -float("inf")}, {"t_final": -1e-300},
    ])
    def test_time_grid_must_reach_t_final(self, kwargs):
        # t_final = -1 used to return u0
        with pytest.raises(ValueError, match="t_final"):
            dg.BurgersConfig(**kwargs)

    @pytest.mark.parametrize("viscosity", [0.0, -0.1, float("nan"), float("inf")])
    def test_viscosity_must_be_positive_and_finite(self, viscosity):
        with pytest.raises(ValueError, match="viscosity"):
            dg.BurgersConfig(viscosity=viscosity)

    def test_galilean_translation(self):
        # u0 + c evolves as u0's solution shifted by c T, plus c; c T = 1/4
        # is 16 points of the 64-point grid
        cfg = dg.BurgersConfig(solver_resolution=256, output_resolution=64)
        u0 = split_draw("test", 3, 256)
        base = dg.solve_burgers(u0, cfg)
        moved = dg.solve_burgers(u0 + 0.25, cfg)
        expected = np.roll(base, 16) + 0.25
        assert np.linalg.norm(moved - expected) / np.linalg.norm(expected) <= 1e-12

    def test_solver_resolutions_agree(self):
        # the same draw solved on 256 and 512 points, read on the 256 shared ones
        u512 = split_draw("train", 18, 512, seed=1)
        coarse = dg.solve_burgers(u512[::2], dg.BurgersConfig(
            viscosity=0.02, solver_resolution=256, output_resolution=256))
        fine = dg.solve_burgers(u512, dg.BurgersConfig(
            viscosity=0.02, solver_resolution=512, output_resolution=256))
        assert np.linalg.norm(fine - coarse) / np.linalg.norm(fine) <= 1e-12

    def test_low_viscosity_draw_solves(self):
        # seed-1 train[18] at nu = 0.02: its mean 1.50 set the advection
        # step's CFL limit, and IF-AB3 at dt = 1/100 blew up at step 42; the
        # oracle itself is 1.2e-8 off at dt = 1/4000 here, and 1.6e-9 at 1/8000
        cfg = dg.BurgersConfig(viscosity=0.02)
        u0 = split_draw("train", 18, cfg.solver_resolution, seed=1)
        got = dg.solve_burgers(u0, cfg)
        ref = plain_solve_burgers(u0, cfg, dt=1 / 8000)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-8


def plain_solve_burgers(u0, config, dt):
    """IF-AB3 time stepping with a Lawson RK4 start, at step dt, as an oracle.

    u0 may stack several draws on its first axis; each row steps on its own.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    n = config.solver_resolution
    steps = round(config.t_final / dt)
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 2j * np.pi * k
    dealias = k <= n / 3.0
    diffusion = -config.viscosity * (2.0 * np.pi * k) ** 2
    half, decay = np.exp(0.5 * dt * diffusion), np.exp(dt * diffusion)

    def advection(v_hat):
        u = np.fft.irfft(v_hat, n=n)
        ux = np.fft.irfft(ik * v_hat, n=n)
        return -np.fft.rfft(u * ux) * dealias

    u_hat = np.fft.rfft(u0)
    history = []
    for step in range(steps):
        now = advection(u_hat)
        if step < 2:  # integrating-factor (Lawson) RK4
            b = advection(half * (u_hat + 0.5 * dt * now))
            c = advection(half * u_hat + 0.5 * dt * b)
            d = advection(decay * u_hat + dt * half * c)
            u_hat = decay * u_hat + dt / 6 * (decay * now + 2 * half * (b + c) + d)
        else:  # integrating-factor AB3
            u_hat = (decay * u_hat + (dt * 23 / 12) * decay * now
                     + (-dt * 16 / 12) * decay**2 * history[-1]
                     + (dt * 5 / 12) * decay**3 * history[-2])
        history.append(now)
    u_final = np.fft.irfft(u_hat, n=n)
    assert np.all(np.isfinite(u_final)), "the oracle's step is too long for this draw"
    return u_final[..., :: n // config.output_resolution]


def uncached_grf_evaluate(spec, coeff, points):
    """The 1D field synthesis before the basis cache, as an oracle."""
    x = np.asarray(points, dtype=np.float64)
    kk = np.arange(1, spec.mode_count)
    lam0 = float(spec.eigenvalue([[0.0]])[0])
    lam = spec.eigenvalue(kk[:, None])
    out = np.sqrt(lam0) * coeff[0] * np.ones_like(x)
    phase = 2.0 * np.pi * np.outer(kk, x)
    amps = np.sqrt(2.0 * lam)
    cos_c = coeff[1 : spec.mode_count]
    sin_c = coeff[spec.mode_count :]
    out += (amps * cos_c) @ np.cos(phase) + (amps * sin_c) @ np.sin(phase)
    return out


def split_draw(split, i, n, seed=0):
    """Initial condition of sample split[i] on n periodic points j/n."""
    rng = SeededRng(seed).substream(dg.SPLIT_STREAM_BASE[split] + i)
    coeff = dg.grf_coefficients(dg.BURGERS_GRF, rng)
    return dg.grf_evaluate(dg.BURGERS_GRF, coeff, np.arange(n) / n)


class TestTwoCallStep:
    """The Cole-Hopf solve against IF-AB3 time stepping at dt = 1/4000."""

    @pytest.mark.parametrize("n, out", [(64, 16), (128, 128), (512, 128), (1024, 1024)])
    def test_grf_draws_match_oracle(self, n, out):
        cfg = dg.BurgersConfig(solver_resolution=n, output_resolution=out)
        u0 = np.stack([split_draw("calibration", i, n) for i in range(3)])
        refs = plain_solve_burgers(u0, cfg, dt=1 / 4000)  # the oracle steps rows together
        for row, ref in zip(u0, refs):
            got = dg.solve_burgers(row, cfg)
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-8

    def test_transform_calls_per_default_solve(self, monkeypatch):
        # rfft(u0), irfft(W_hat), rfft(phi_0) and one irfft of [phi_hat, ik phi_hat]
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        cfg = dg.BurgersConfig()
        dg.solve_burgers(split_draw("train", 0, cfg.solver_resolution), cfg)
        assert calls == ["rfft", "irfft", "rfft", "irfft"]


class TestDefaultDraws:
    # the draws on which the Crank-Nicolson/AB2 step blew up at the default
    # 200/50/100 sizes, seeds 0-9
    @pytest.mark.parametrize("seed, split, i", [
        (0, "calibration", 6), (3, "test", 92), (4, "train", 112), (7, "train", 105),
    ])
    def test_default_config_draw_solves(self, seed, split, i):
        cfg = dg.BurgersConfig()
        u0 = split_draw(split, i, cfg.solver_resolution, seed)
        got = dg.solve_burgers(u0, cfg)
        ref = plain_solve_burgers(u0, cfg, dt=1 / 4000)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-8


class TestGrfBasisCache:
    @pytest.mark.parametrize("points", [np.arange(512) / 512, np.array([0.125, 0.5])])
    def test_matches_uncached_oracle(self, points):
        for i in range(3):
            coeff = dg.grf_coefficients(dg.BURGERS_GRF, SeededRng(20, i))
            assert np.array_equal(dg.grf_evaluate(dg.BURGERS_GRF, coeff, points),
                                  uncached_grf_evaluate(dg.BURGERS_GRF, coeff, points))

    def test_cached_arrays_are_read_only(self):
        x = np.arange(64) / 64
        dg.grf_evaluate(dg.BURGERS_GRF, np.ones(63), x)
        for arr in dg._grf_basis_1d(dg.BURGERS_GRF, x.tobytes())[1:]:
            assert not arr.flags.writeable

    def test_returned_field_is_fresh(self):
        x = np.arange(64) / 64
        coeff = dg.grf_coefficients(dg.BURGERS_GRF, SeededRng(21))
        first = dg.grf_evaluate(dg.BURGERS_GRF, coeff, x)
        assert first.flags.writeable
        first[:] = 0.0
        again = dg.grf_evaluate(dg.BURGERS_GRF, coeff, x)
        assert np.array_equal(again, uncached_grf_evaluate(dg.BURGERS_GRF, coeff, x))


class TestDarcySolver:
    @staticmethod
    def dense_matrix(a, r):
        h2 = (1.0 / (r - 1)) ** 2
        harm = lambda p, q: 2 * p * q / (p + q)
        n = (r - 2) ** 2
        mat = np.zeros((n, n))
        idx = lambda i, j: (i - 1) * (r - 2) + (j - 1)
        for i in range(1, r - 1):
            for j in range(1, r - 1):
                row, diag = idx(i, j), 0.0
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    edge = harm(a[i, j], a[ni, nj])
                    diag += edge
                    if 1 <= ni <= r - 2 and 1 <= nj <= r - 2:
                        mat[row, idx(ni, nj)] = -edge / h2
                mat[row, row] = diag / h2
        return mat

    # r = 3 is one unknown with no neighbours; r = 32 is the benchmark's grid
    @pytest.mark.parametrize("r", [3, 8, 32])
    def test_matches_dense_oracle(self, r):
        cfg = dg.DarcyConfig(resolution=r)
        latent = dg.sample_grf(dg.DARCY_GRF, SeededRng(6), GridSpec((r, r)))
        a = dg.permeability_from_grf(latent, cfg)
        u = dg.solve_darcy_fd(a, cfg)
        mat = self.dense_matrix(a, r)
        u_dense = np.linalg.solve(mat, np.ones((r - 2) ** 2)).reshape(r - 2, r - 2)
        assert np.max(np.abs(u[1:-1, 1:-1] - u_dense)) <= 1e-12 * np.max(np.abs(u_dense))

    def test_constant_conductivity_scaling(self):
        cfg = dg.DarcyConfig(resolution=10)
        u3 = dg.solve_darcy_fd(np.full((10, 10), 3.0), cfg)
        u12 = dg.solve_darcy_fd(np.full((10, 10), 12.0), cfg)
        assert np.max(np.abs(u12 - u3 * (3.0 / 12.0))) < 1e-8

    def test_interior_positive(self):
        cfg = dg.DarcyConfig(resolution=16)
        latent = dg.sample_grf(dg.DARCY_GRF, SeededRng(7), GridSpec((16, 16)))
        u = dg.solve_darcy_fd(dg.permeability_from_grf(latent, cfg), cfg)
        assert np.all(u[1:-1, 1:-1] > 0)
        assert np.all(u[0] == 0) and np.all(u[-1] == 0)
        assert np.all(u[:, 0] == 0) and np.all(u[:, -1] == 0)

    def test_matrix_symmetric_diagonally_dominant(self):
        cfg = dg.DarcyConfig(resolution=8)
        latent = dg.sample_grf(dg.DARCY_GRF, SeededRng(8), GridSpec((8, 8)))
        a = dg.permeability_from_grf(latent, cfg)
        mat = self.dense_matrix(a, 8)
        assert np.max(np.abs(mat - mat.T)) < 1e-12
        off = np.sum(np.abs(mat), axis=1) - np.abs(np.diag(mat))
        assert np.all(np.diag(mat) >= off - 1e-12)

    def test_nonpositive_conductivity_rejected(self):
        cfg = dg.DarcyConfig(resolution=8)
        bad = np.ones((8, 8))
        bad[3, 3] = 0.0
        with pytest.raises(ValueError):
            dg.solve_darcy_fd(bad, cfg)

    def test_underflowing_conductivity_is_a_solver_error(self):
        # positive, but every harmonic edge mean underflows to zero
        cfg = dg.DarcyConfig(resolution=8)
        with pytest.raises(dg.SolverError, match="not positive definite"):
            dg.solve_darcy_fd(np.full((8, 8), 5e-324), cfg)

    def test_permeability_levels(self):
        cfg = dg.DarcyConfig(resolution=8)
        field = np.array([[-1.0, 0.5], [0.0, -2.0]])
        out = dg.permeability_from_grf(field, cfg)
        assert np.array_equal(out, np.array([[3.0, 12.0], [12.0, 3.0]]))


class TestDatasets:
    def file_hash(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_roundtrip(self, tmp_path):
        grid = GridSpec((16,))
        gen = SeededRng(9).generator()
        ins = gen.standard_normal((3, 16))
        outs = gen.standard_normal((3, 16))
        path = tmp_path / "x.opdata"
        dg.write_dataset(path, "burgers", grid, ins, outs)
        kind, grid2, ins2, outs2 = dg.read_dataset(path)
        assert kind == "burgers" and grid2.shape == (16,)
        assert np.array_equal(ins, ins2) and np.array_equal(outs, outs2)

    def test_burgers_sample_draws_the_periodic_field(self):
        cfg = dg.BurgersConfig(solver_resolution=256, output_resolution=64)
        for i in range(3):
            rng = SeededRng(0).substream(dg.SPLIT_STREAM_BASE["train"] + i)
            u0, y = dg.generate_burgers_sample(rng, cfg)
            full = split_draw("train", i, 256)
            assert np.array_equal(u0, full[::4])
            assert np.array_equal(y, dg.solve_burgers(full, cfg))

    def test_make_dataset_deterministic(self, tmp_path):
        counts = {"train": 2, "calibration": 2, "test": 2}
        cfg = dg.BurgersConfig(solver_resolution=128, output_resolution=32)
        paths1 = dg.make_dataset("burgers", counts, SeededRng(10), tmp_path / "a",
                                 burgers=cfg)
        paths2 = dg.make_dataset("burgers", counts, SeededRng(10), tmp_path / "b",
                                 burgers=cfg)
        for split in counts:
            assert self.file_hash(paths1[split]) == self.file_hash(paths2[split])

    def test_splits_disjoint_by_stream(self, tmp_path):
        counts = {"train": 3, "calibration": 3, "test": 3}
        cfg = dg.BurgersConfig(solver_resolution=128, output_resolution=32)
        paths = dg.make_dataset("burgers", counts, SeededRng(11), tmp_path / "d",
                                burgers=cfg)
        loaded = {s: dg.read_dataset(p)[2] for s, p in paths.items()}
        for sa in counts:
            for sb in counts:
                if sa >= sb:
                    continue
                for u in loaded[sa]:
                    for v in loaded[sb]:
                        assert not np.array_equal(u, v)
        # stream id ranges cannot collide
        bases = sorted(dg.SPLIT_STREAM_BASE.values())
        assert all(b2 - b1 >= 1 << 20 for b1, b2 in zip(bases, bases[1:]))

    def test_hi_res_split_extends_low_res(self, tmp_path):
        # same seed and solver resolution, doubled output resolution:
        # sample i is the same function sampled more finely
        counts = {"train": 1, "calibration": 1, "test": 2}
        low = dg.make_dataset(
            "burgers", counts, SeededRng(12), tmp_path / "lo",
            burgers=dg.BurgersConfig(solver_resolution=128, output_resolution=32),
        )
        high = dg.make_dataset(
            "burgers", counts, SeededRng(12), tmp_path / "hi",
            burgers=dg.BurgersConfig(solver_resolution=128, output_resolution=64),
        )
        _, _, lo_in, lo_out = dg.read_dataset(low["test"])
        _, _, hi_in, hi_out = dg.read_dataset(high["test"])
        assert np.allclose(hi_in[:, ::2], lo_in, atol=1e-12)
        assert np.allclose(hi_out[:, ::2], lo_out, atol=1e-12)

    def test_manifest_written(self, tmp_path):
        counts = {"train": 1, "calibration": 1, "test": 1}
        dg.make_dataset("darcy", counts, SeededRng(13), tmp_path / "m",
                        darcy=dg.DarcyConfig(resolution=8))
        from opcert.serialio import read_manifest

        manifest = read_manifest(tmp_path / "m" / "manifest.txt")
        assert manifest["kind"] == "darcy"
        assert manifest["resolution"] == "8"
        assert "reference_protocol" in manifest

    def test_bad_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dg.make_dataset("burgers", {"train": 1, "calibration": 0, "test": 1},
                            SeededRng(14), tmp_path / "bad")
