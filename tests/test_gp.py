import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from opcert import gp as gpm
from opcert.conformal import QField
from opcert.core import GridSpec, SeededRng, coordinate_rows


def _sqs(axes):
    return [np.subtract.outer(x, x) ** 2 for x in axes]


def _dense_kron_nll(axes, y, theta):
    """Profiled NLL with the whole n x n kernel, R_1 (x) R_2 built by np.kron."""
    length, shape, lam = np.exp(theta)
    factors = [(1 + sq / (2 * shape * length**2)) ** (-shape) for sq in _sqs(axes)]
    a = np.kron(*factors) + lam * np.eye(y.size)
    ainv, one, y = np.linalg.inv(a), np.ones(y.size), y.ravel()
    mu = (one @ ainv @ y) / (one @ ainv @ one)
    v = (y - mu) @ ainv @ (y - mu) / y.size
    return 0.5 * (y.size * np.log(2 * np.pi * v) + np.linalg.slogdet(a)[1] + y.size)


def _grid_target(seed):
    gen = SeededRng(seed).generator()
    axes = [np.linspace(0, 1, 12), np.sort(gen.uniform(0, 1, 10))]
    y = (np.sin(3 * axes[0])[:, None] + np.cos(2 * axes[1])[None, :] + 5.0
         + 0.3 * gen.standard_normal((12, 10)))
    return axes, y


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
        got, _, (got_mu, got_v, _) = gpm._profiled(_sqs([x[:, 0]]), y, np.log([length, shape, lam]))
        assert got == pytest.approx(expected, rel=1e-12)
        assert (got_mu, got_v) == pytest.approx((mu, v), rel=1e-12)

    def test_grid_nll_matches_dense_kron_oracle(self):
        # a 12 x 10 grid with one uneven axis, against the 120 x 120 kernel
        axes, y = _grid_target(19)
        for theta in (np.log([0.2, 1.0, 1.0]), np.log([0.05, 3.0, 0.01])):
            nll, _, _ = gpm._profiled(_sqs(axes), y, theta)
            assert nll == pytest.approx(_dense_kron_nll(axes, y, theta), rel=1e-13)

    def test_gradient_matches_finite_differences(self):
        axes, y = _grid_target(19)
        sqs = _sqs(axes)
        for theta in (np.log([0.2, 1.0, 1.0]), np.log([0.05, 3.0, 0.01])):
            _, grad, _ = gpm._profiled(sqs, y, theta)
            fd = [
                (gpm._profiled(sqs, y, theta + e)[0] - gpm._profiled(sqs, y, theta - e)[0]) / 2e-6
                for e in 1e-6 * np.eye(3)
            ]
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(gpm.GpFitError):
            gpm.gp_fit([[0.1, 0.1, 0.5]], np.array([1.0, 2.0, 3.0]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gpm.gp_fit([[0.1]], np.array([1.0]))
        with pytest.raises(ValueError):
            gpm.gp_fit([[0.1, 0.5]], np.array([1.0, 2.0, 3.0]))

    def test_nll_never_worse_than_start(self):
        gen = SeededRng(0).generator()
        x = gen.uniform(0, 1, 20)
        y = np.sin(4 * x) + 0.1 * gen.standard_normal(20)
        model = gpm.gp_fit([x], y)
        start_nll, _, _ = gpm._profiled(_sqs([x]), y, np.log(gpm._START))
        assert model.nll_trace[0] == start_nll
        assert model.nll_trace[-1] < start_nll

    def test_trace_non_increasing(self):
        gen = SeededRng(2).generator()
        x = gen.uniform(0, 1, 15)
        y = np.cos(5 * x) + 0.2 * gen.standard_normal(15)
        trace = np.array(gpm.gp_fit([x], y).nll_trace)
        assert trace.size > 1 and np.all(np.diff(trace) < 0)
        # all-zero targets give the constant model without a search
        model = gpm.gp_fit([x], np.zeros(15))
        assert model.nll_trace == [-np.inf]
        assert model.params.variance == 0.0 and model.mean == 0.0
        assert np.all(gpm.gp_predict(model, [gen.uniform(0, 1, 5)]) == 0.0)


class TestPredict:
    def test_three_point_dense_oracle(self):
        x = np.array([[0.0], [0.35], [0.9]])
        y = np.array([0.5, -1.0, 2.0])
        model = gpm.gp_fit([x[:, 0]], y)
        xq = np.linspace(0, 1, 7)[:, None]
        mean = gpm.gp_predict(model, [xq[:, 0]])
        kinv = np.linalg.inv(gpm.rq_kernel(x, x, model.params) + model.noise * np.eye(3))
        ks = gpm.rq_kernel(x, xq, model.params)
        mean_o = model.mean + ks.T @ kinv @ (y - model.mean)
        assert np.max(np.abs(mean - mean_o)) < 1e-8

    def test_grid_prediction_matches_dense_oracle(self):
        # K1* B K2*' along the axes equals the all-points formula with the
        # product kernel over coordinate rows
        axes, y = _grid_target(23)
        model = gpm.gp_fit(axes, y)
        assert len(model.nll_trace) > 1
        query = [np.linspace(0, 1, 7), np.linspace(-0.2, 1.1, 5)]
        mean = gpm.gp_predict(model, query)
        x, xq = model.x_train, coordinate_rows(query)
        k = gpm.rq_kernel(x, x, model.params) + model.noise * np.eye(y.size)
        mean_o = model.mean + gpm.rq_kernel(xq, x, model.params) @ np.linalg.solve(
            k, y.ravel() - model.mean)
        assert mean.shape == (7, 5)
        assert np.max(np.abs(mean.ravel() - mean_o)) < 1e-8

    def test_prior_reversion_far_away(self):
        # far from the data the posterior mean reverts to the fitted constant
        x = np.array([0.0, 0.1, 0.2])
        y = np.array([1.0, 1.1, 0.9])
        model = gpm.gp_fit([x], y)
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

    def test_infinite_location_rejected(self):
        # the grid fit needs every value; the error names the count and the
        # first location
        q = np.full((6, 5), 1.5)
        q[4, 1] = q[2, 3] = np.inf
        qf = QField(q, GridSpec((6, 5)), 0.05)
        with pytest.raises(gpm.GpFitError,
                           match=r"2 infinite conformal parameters, the first at location \(2, 3\)"):
            gpm.superres_q(qf, GridSpec((12, 10)))

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

    def test_large_grid_fits_every_point(self):
        # 64 x 64 = 4096 points: one exact fit over the whole grid, no sub-grid
        xs = np.linspace(0, 1, 64)
        gen = SeededRng(5).generator()
        q = (1.0 + 0.3 * np.add.outer(np.sin(2 * np.pi * xs), xs)
             + 0.05 * gen.standard_normal((64, 64)))
        out, model = gpm.superres_q(QField(q, GridSpec((64, 64)), 0.05), GridSpec((96, 96)))
        assert model.x_train.shape == (4096, 2)
        assert len(model.nll_trace) > 1
        assert out.values.shape == (96, 96) and np.all(np.isfinite(out.values))
        # both grids share the four corners
        assert np.abs(out.values[::95, ::95] - q[::63, ::63]).max() < 0.2
