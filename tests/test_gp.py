import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from opcert import gp as gpm
from opcert.conformal import QField
from opcert.core import GridSpec, SeededRng


class TestKernel:
    def test_diagonal_is_variance(self):
        p = gpm.RqKernelParams(2.5, 0.3, 1.2)
        assert gpm.rq_kernel([[0.4]], [[0.4]], p)[0, 0] == pytest.approx(2.5)

    def test_symmetry(self):
        p = gpm.RqKernelParams(1.0, 0.2, 0.7)
        a = gpm.rq_kernel([[0.1, 0.3]], [[0.9, 0.2]], p)[0, 0]
        b = gpm.rq_kernel([[0.9, 0.2]], [[0.1, 0.3]], p)[0, 0]
        assert a == pytest.approx(b, rel=1e-15)

    def test_closed_form(self):
        p = gpm.RqKernelParams(1.5, 0.25, 2.0)
        d2 = 0.3**2
        expected = 1.5 * (1 + d2 / (2 * 2.0 * 0.25**2)) ** (-2.0)
        assert gpm.rq_kernel([[0.0]], [[0.3]], p)[0, 0] == pytest.approx(expected)

    def test_large_shape_approaches_squared_exponential(self):
        p = gpm.RqKernelParams(1.0, 0.2, 1e6)
        for d in (0.05, 0.2, 0.5):
            got = gpm.rq_kernel([[0.0]], [[d]], p)[0, 0]
            ref = np.exp(-(d**2) / (2 * 0.2**2))
            assert abs(got - ref) / ref < 1e-4

    def test_positive_parameters_enforced(self):
        with pytest.raises(ValueError):
            gpm.RqKernelParams(-1.0, 0.2, 1.0)


class TestFit:
    def test_two_point_nll_matches_hand_formula(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, -2.0])
        theta = gpm.RqKernelParams(1.3, 0.4, 1.1)
        jitter = 1e-10
        k = gpm.rq_kernel(x, x, theta) + jitter * np.eye(2)
        # explicit 2x2 inverse
        det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
        kinv = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]]) / det
        expected = 0.5 * (np.log(det) + y @ kinv @ y)
        got = gpm._nll_only(x, y, theta.to_log(), jitter)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(gpm.GpFitError):
            gpm.gp_fit(np.array([[0.1], [0.1], [0.5]]), np.array([1.0, 2.0, 3.0]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gpm.gp_fit(np.array([[0.1]]), np.array([1.0]))

    def test_nll_never_worse_than_start(self):
        gen = SeededRng(0).generator()
        x = gen.uniform(0, 1, (20, 1))
        y = np.sin(4 * x[:, 0]) + 0.1 * gen.standard_normal(20)
        theta0 = gpm.RqKernelParams(1.0, 0.2, 1.0)
        model = gpm.gp_fit(x, y, theta0=theta0, rng=SeededRng(1))
        start_nll = gpm._nll_only(model.x_train, model.targets, theta0.to_log(), model.jitter)
        assert model.nll <= start_nll + 1e-12

    def test_trace_non_increasing(self):
        gen = SeededRng(2).generator()
        x = gen.uniform(0, 1, (15, 1))
        y = np.zeros(15)
        model = gpm.gp_fit(x, y, rng=SeededRng(3))
        trace = np.array(model.nll_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        # all-zero targets want vanishing process variance
        assert model.params.variance < 0.1


class TestPredict:
    def test_three_point_dense_oracle(self):
        x = np.array([[0.0], [0.35], [0.9]])
        y = np.array([0.5, -1.0, 2.0])
        model = gpm.gp_fit(x, y, rng=SeededRng(4))
        xq = np.linspace(0, 1, 7)[:, None]
        mean, var = gpm.gp_predict(model, xq)
        k = gpm.rq_kernel(x, x, model.params) + model.jitter * np.eye(3)
        kinv = np.linalg.inv(k)
        ks = gpm.rq_kernel(x, xq, model.params)
        mean_o = ks.T @ kinv @ y
        var_o = model.params.variance - np.sum(ks * (kinv @ ks), axis=0)
        assert np.max(np.abs(mean - mean_o)) < 1e-8
        assert np.max(np.abs(var - np.maximum(var_o, 0))) < 1e-8

    def test_noise_free_interpolation(self):
        x = np.array([[0.0], [0.5], [1.0]])
        y = np.array([1.0, 3.0, -0.5])
        model = gpm.gp_fit(x, y, rng=SeededRng(5))
        mean, var = gpm.gp_predict(model, x)
        assert np.max(np.abs(mean - y)) < 1e-6
        assert np.all(var < 1e-6 * model.params.variance)

    def test_prior_reversion_far_away(self):
        # fixed kernel hyperparameters: far from the data the posterior
        # reverts to the zero-mean prior
        x = np.array([[0.0], [0.1], [0.2]])
        y = np.array([1.0, 1.1, 0.9])
        model = gpm.GpModel(x, y, gpm.RqKernelParams(1.0, 0.2, 1.0), jitter=1e-10)
        model.refactor()
        mean, var = gpm.gp_predict(model, [[1000.0]])
        assert abs(mean[0]) < 1e-3
        assert var[0] == pytest.approx(model.params.variance, rel=1e-3)

    def test_variance_information_ordering(self):
        gen = SeededRng(7).generator()
        x = gen.uniform(0, 1, (12, 1))
        y = np.cos(3 * x[:, 0])
        model = gpm.gp_fit(x, y, rng=SeededRng(8))
        _, var_train = gpm.gp_predict(model, x)
        _, var_far = gpm.gp_predict(model, [[25.0]])
        assert np.max(var_train) <= var_far[0] + 1e-12


class TestSuperresTransport:
    def test_identity_grid(self):
        grid = GridSpec((48,))
        xs = np.linspace(0, 1, 48)
        q = 1.2 + 0.4 * np.sin(2 * np.pi * xs)
        qf = QField(q, grid, 0.05)
        out, _ = gpm.superres_q(qf, grid, rng=SeededRng(9))
        rel = np.abs(out.values - q) / np.abs(q)
        assert rel.max() < 1e-4

    def test_constant_field(self):
        grid = GridSpec((32,))
        qf = QField(np.full(32, 2.0), grid, 0.05)
        out, _ = gpm.superres_q(qf, GridSpec((64,)), rng=SeededRng(10))
        assert np.max(np.abs(out.values - 2.0)) / 2.0 < 1e-3

    def test_upsampling_matches_cubic_reference(self):
        grid64, grid128 = GridSpec((64,)), GridSpec((128,))
        xs = np.linspace(0, 1, 64)
        q = 1.5 + 0.5 * np.sin(2 * np.pi * xs) + 0.2 * xs
        qf = QField(q, grid64, 0.05)
        out, _ = gpm.superres_q(qf, grid128, rng=SeededRng(11))
        ref = CubicSpline(xs, q)(np.linspace(0, 1, 128))
        dev = np.abs(out.values - ref).max()
        assert dev < 0.05 * (q.max() - q.min())

    def test_infinite_locations_excluded(self):
        grid = GridSpec((16,))
        q = np.full(16, 1.5)
        q[3] = np.inf
        qf = QField(q, grid, 0.05)
        with pytest.warns(RuntimeWarning, match="excluding 1"):
            out, model = gpm.superres_q(qf, grid, rng=SeededRng(12))
        assert np.all(np.isfinite(out.values))
        assert model.x_train.shape[0] == 15

    def test_all_infinite_rejected(self):
        qf = QField(np.full(8, np.inf), GridSpec((8,)), 0.05)
        with pytest.raises(gpm.GpFitError):
            gpm.superres_q(qf, GridSpec((16,)), rng=SeededRng(13))

    def test_negative_means_clamped(self):
        # wildly oscillating targets can push the posterior mean negative
        grid = GridSpec((12,))
        gen = SeededRng(14).generator()
        q = np.abs(gen.standard_normal(12)) * 0.01
        q[::2] += 3.0
        qf = QField(q, grid, 0.05)
        out, _ = gpm.superres_q(qf, GridSpec((48,)), rng=SeededRng(15))
        assert np.all(out.values >= 0.0)

    def test_large_grid_strided(self, monkeypatch):
        # exercise the striding logic with a lowered cap so the test stays
        # cheap; production keeps the 4000-point bound
        monkeypatch.setattr(gpm, "_MAX_FIT_POINTS", 300)
        grid = GridSpec((96, 96))
        qf = QField(np.ones((96, 96)), grid, 0.05)
        out, model = gpm.superres_q(qf, GridSpec((96, 96)), max_iters=3, rng=SeededRng(16))
        assert model.stride > 1
        assert model.x_train.shape[0] <= 300
        assert out.values.shape == (96, 96)

    def test_strided_fit_points_form_a_tensor_sub_grid(self, monkeypatch):
        # 85 x 85 is the Darcy protocol grid; a flat stride over its
        # row-major points would give a checkerboard, not a sub-grid
        monkeypatch.setattr(gpm, "_MAX_FIT_POINTS", 300)
        grid = GridSpec((85, 85))
        xs = np.linspace(0, 1, 85)
        q = 1.0 + 0.1 * np.add.outer(np.sin(2 * np.pi * xs), xs)
        _, model = gpm.superres_q(QField(q, grid, 0.05), GridSpec((17, 17)), max_iters=1,
                                  rng=SeededRng(17))
        n_x, n_y = (np.unique(model.x_train[:, d]).size for d in range(2))
        assert model.stride > 1
        assert n_x * n_y == model.x_train.shape[0] <= 300
        sub = xs[:: model.stride]
        assert np.array_equal(np.unique(model.x_train[:, 0]), sub)
        assert np.array_equal(np.unique(model.x_train[:, 1]), sub)

    def test_strided_fit_drops_infinite_sub_grid_points(self, monkeypatch):
        monkeypatch.setattr(gpm, "_MAX_FIT_POINTS", 300)
        q = np.ones((85, 85))
        q[0, 5] = q[1, 1] = np.inf  # on and off the stride-5 sub-grid
        with pytest.warns(RuntimeWarning, match="excluding 2"):
            _, model = gpm.superres_q(QField(q, GridSpec((85, 85)), 0.05), GridSpec((17, 17)),
                                      max_iters=1, rng=SeededRng(18))
        assert model.stride == 5
        assert model.x_train.shape[0] == 17 * 17 - 1
        assert not np.any(np.all(model.x_train == [0.0, 5 / 84], axis=1))
