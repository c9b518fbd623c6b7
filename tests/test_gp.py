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
        length, shape, lam = 0.4, 1.1, 0.3
        a = gpm.rq_kernel(x, x, gpm.RqKernelParams(1.0, length, shape)) + lam * np.eye(2)
        # explicit 2x2 inverse, then the closed-form mean and variance
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        ainv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
        one = np.ones(2)
        mu = (one @ ainv @ y) / (one @ ainv @ one)
        v = (y - mu) @ ainv @ (y - mu) / 2
        expected = 0.5 * (2 * np.log(2 * np.pi * v) + np.log(det) + 2)
        got, _, (got_mu, got_v, _) = gpm._profiled(
            gpm._sqdist(x, x), y, np.log([length, shape, lam]), False
        )
        assert got == pytest.approx(expected, rel=1e-12)
        assert (got_mu, got_v) == pytest.approx((mu, v), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        gen = SeededRng(19).generator()
        x = gen.uniform(0, 1, (30, 2))
        y = np.sin(3 * x[:, 0]) + 0.3 * gen.standard_normal(30) + 5.0
        sq = gpm._sqdist(x, x)
        for theta in (np.log([0.2, 1.0, 1.0]), np.log([0.05, 3.0, 0.01])):
            _, grad, _ = gpm._profiled(sq, y, theta, True)
            fd = [
                (gpm._profiled(sq, y, theta + e, False)[0]
                 - gpm._profiled(sq, y, theta - e, False)[0]) / 2e-6
                for e in 1e-6 * np.eye(3)
            ]
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

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
        model = gpm.gp_fit(x, y)
        start_nll, _, _ = gpm._profiled(gpm._sqdist(x, x), y, np.log(gpm._START), False)
        assert model.nll_trace[0] == start_nll
        assert model.nll_trace[-1] < start_nll

    def test_trace_non_increasing(self):
        gen = SeededRng(2).generator()
        x = gen.uniform(0, 1, (15, 1))
        y = np.cos(5 * x[:, 0]) + 0.2 * gen.standard_normal(15)
        trace = np.array(gpm.gp_fit(x, y).nll_trace)
        assert trace.size > 1 and np.all(np.diff(trace) < 0)
        # all-zero targets give the constant model without a search
        model = gpm.gp_fit(x, np.zeros(15))
        assert model.nll_trace == [-np.inf]
        assert model.params.variance == 0.0 and model.mean == 0.0
        assert np.all(gpm.gp_predict(model, gen.uniform(0, 1, (5, 1))) == 0.0)


class TestPredict:
    def test_three_point_dense_oracle(self):
        x = np.array([[0.0], [0.35], [0.9]])
        y = np.array([0.5, -1.0, 2.0])
        model = gpm.gp_fit(x, y)
        xq = np.linspace(0, 1, 7)[:, None]
        mean = gpm.gp_predict(model, xq)
        kinv = np.linalg.inv(gpm.rq_kernel(x, x, model.params) + model.noise * np.eye(3))
        ks = gpm.rq_kernel(x, xq, model.params)
        mean_o = model.mean + ks.T @ kinv @ (y - model.mean)
        assert np.max(np.abs(mean - mean_o)) < 1e-8

    def test_prior_reversion_far_away(self):
        # far from the data the posterior mean reverts to the fitted constant
        x = np.array([[0.0], [0.1], [0.2]])
        y = np.array([1.0, 1.1, 0.9])
        model = gpm.gp_fit(x, y)
        mean = gpm.gp_predict(model, [[1e6]])
        assert mean[0] == pytest.approx(model.mean, abs=1e-3)


class TestSuperresTransport:
    def test_identity_grid(self):
        grid = GridSpec((48,))
        xs = np.linspace(0, 1, 48)
        q = 1.2 + 0.4 * np.sin(2 * np.pi * xs)
        qf = QField(q, grid, 0.05)
        out, _ = gpm.superres_q(qf, grid)
        rel = np.abs(out.values - q) / np.abs(q)
        assert rel.max() < 1e-4

    def test_constant_field(self):
        grid = GridSpec((32,))
        qf = QField(np.full(32, 2.0), grid, 0.05)
        out, _ = gpm.superres_q(qf, GridSpec((64,)))
        assert np.max(np.abs(out.values - 2.0)) / 2.0 < 1e-3

    def test_upsampling_matches_cubic_reference(self):
        grid64, grid128 = GridSpec((64,)), GridSpec((128,))
        xs = np.linspace(0, 1, 64)
        q = 1.5 + 0.5 * np.sin(2 * np.pi * xs) + 0.2 * xs
        qf = QField(q, grid64, 0.05)
        out, _ = gpm.superres_q(qf, grid128)
        ref = CubicSpline(xs, q)(np.linspace(0, 1, 128))
        dev = np.abs(out.values - ref).max()
        assert dev < 0.05 * (q.max() - q.min())

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_field_transport_tracks_the_smooth_truth(self, seed):
        # each calibrated q is one order statistic, so the field is noisy; a
        # fit without a noise term chases it and transports mostly zeros
        def truth(x):
            return 60.0 + 25.0 * np.sin(2 * np.pi * x)

        xs = np.linspace(0, 1, 128)
        q = truth(xs) * np.exp(0.25 * SeededRng(seed).generator().standard_normal(128))
        out, model = gpm.superres_q(QField(q, GridSpec((128,)), 0.05), GridSpec((256,)))
        assert np.all(out.values > 0.0)
        dev = np.abs(out.values - truth(np.linspace(0, 1, 256))).max()
        assert dev <= 0.3 * 50.0
        assert model.params.length_scale >= xs[1]

    def test_infinite_locations_excluded(self):
        grid = GridSpec((16,))
        q = np.full(16, 1.5)
        q[3] = np.inf
        qf = QField(q, grid, 0.05)
        with pytest.warns(RuntimeWarning, match="excluding 1"):
            out, model = gpm.superres_q(qf, grid)
        assert np.all(np.isfinite(out.values))
        assert model.x_train.shape[0] == 15

    def test_all_infinite_rejected(self):
        qf = QField(np.full(8, np.inf), GridSpec((8,)), 0.05)
        with pytest.raises(gpm.GpFitError):
            gpm.superres_q(qf, GridSpec((16,)))

    def test_negative_means_clamped(self):
        # wildly oscillating targets can push the posterior mean negative
        grid = GridSpec((12,))
        gen = SeededRng(14).generator()
        q = np.abs(gen.standard_normal(12)) * 0.01
        q[::2] += 3.0
        qf = QField(q, grid, 0.05)
        out, _ = gpm.superres_q(qf, GridSpec((48,)))
        assert np.all(out.values >= 0.0)

    def test_large_grid_strided(self, monkeypatch):
        # exercise the striding logic with a lowered cap so the test stays
        # cheap; production keeps the 4000-point bound
        monkeypatch.setattr(gpm, "_MAX_FIT_POINTS", 300)
        grid = GridSpec((96, 96))
        qf = QField(np.ones((96, 96)), grid, 0.05)
        out, model = gpm.superres_q(qf, GridSpec((96, 96)))
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
        _, model = gpm.superres_q(QField(q, grid, 0.05), GridSpec((17, 17)))
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
            _, model = gpm.superres_q(QField(q, GridSpec((85, 85)), 0.05),
                                      GridSpec((17, 17)))
        assert model.stride == 5
        assert model.x_train.shape[0] == 17 * 17 - 1
        assert not np.any(np.all(model.x_train == [0.0, 5 / 84], axis=1))
