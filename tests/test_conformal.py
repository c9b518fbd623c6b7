import numpy as np
import pytest

from opcert import conformal as cf
from opcert.core import Band, GridSpec, SeededRng, ShapeError


def rp_score(y, mean, spread):
    """The ensemble's instance of the interval score: (mean, mean, spread)."""
    return cf.score(y, mean, mean, spread)


class TestScore:
    def test_basic_arithmetic(self):
        got = rp_score(np.array([2.0]), np.array([1.0]), np.array([0.5]))
        assert got[0] == pytest.approx(2.0)

    def test_zero_at_mean(self):
        y = np.array([1.5, -2.0])
        assert np.array_equal(rp_score(y, y, np.ones(2)), np.zeros(2))

    def test_matches_scalar_loop(self):
        gen = SeededRng(0).generator()
        y = gen.standard_normal((4, 8))
        mu = gen.standard_normal((4, 8))
        s = np.abs(gen.standard_normal((4, 8))) + 0.1
        got = rp_score(y, mu, s)
        for i in range(4):
            for j in range(8):
                assert got[i, j] == pytest.approx(abs(y[i, j] - mu[i, j]) / s[i, j], rel=1e-12)

    def test_zero_spread_infinite_with_warning(self):
        with pytest.warns(RuntimeWarning, match="zero spread"):
            got = rp_score(np.array([1.0, 2.0]), np.zeros(2), np.array([0.0, 1.0]))
        assert np.isinf(got[0]) and got[1] == 2.0

    def test_scale_equivariance(self):
        gen = SeededRng(1).generator()
        y, mu = gen.standard_normal(16), gen.standard_normal(16)
        s = np.abs(gen.standard_normal(16)) + 0.1
        base = rp_score(y, mu, s)
        scaled = rp_score(3.7 * y, 3.7 * mu, 3.7 * s)
        assert np.allclose(base, scaled, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cf.score(np.zeros(3), np.zeros(3), np.zeros(3), np.ones(4))


class TestQuantile:
    def test_n19_forces_max(self):
        gen = SeededRng(2).generator()
        scores = gen.standard_normal(19)
        assert cf.conformal_quantile(scores, 0.05) == scores.max()

    def test_all_equal(self):
        assert cf.conformal_quantile(np.full(10, 3.25), 0.1) == 3.25

    def test_n50_is_49th_smallest(self):
        gen = SeededRng(3).generator()
        scores = gen.standard_normal(50)
        assert cf.quantile_index(50, 0.05) == 49
        assert cf.conformal_quantile(scores, 0.05) == np.sort(scores)[48]

    def test_small_n_infinite(self):
        assert np.isinf(cf.conformal_quantile(np.arange(5.0), 0.05))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cf.conformal_quantile([], 0.05)

    def test_matches_sort_oracle_randomized(self):
        gen = SeededRng(4).generator()
        for _ in range(500):
            n = int(gen.integers(1, 200))
            alpha = float(gen.choice([0.5, 0.1, 0.05, 0.01]))
            scores = gen.standard_normal(n)
            k = int(np.ceil((1 - alpha) * (n + 1)))
            expected = np.inf if k > n else np.sort(scores)[k - 1]
            assert cf.conformal_quantile(scores, alpha) == expected

    def test_monotone_in_alpha(self):
        gen = SeededRng(5).generator()
        scores = gen.standard_normal(80)
        alphas = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
        qs = [cf.conformal_quantile(scores, a) for a in alphas]
        assert all(q2 >= q1 for q1, q2 in zip(qs, qs[1:]))


class TestCalibrate:
    def test_single_location_forced_max(self):
        grid = GridSpec((2,))
        targets = np.tile(np.arange(1.0, 20.0)[:, None], (1, 2))  # scores 1..19

        interval = (np.zeros((19, 2)), np.zeros((19, 2)), np.ones((19, 2)))
        qf = cf.calibrate(targets, interval, 0.05, SeededRng(6), grid, jitter=0.0)
        assert np.allclose(qf.values, 19.0)

    def test_matches_per_location_sort_oracle(self):
        gen = SeededRng(7).generator()
        grid = GridSpec((6,))
        n = 40
        targets = gen.standard_normal((n, 6))
        mean = gen.standard_normal((n, 6))
        spread = np.abs(gen.standard_normal((n, 6))) + 0.2

        qf = cf.calibrate(targets, (mean, mean, spread), 0.1, SeededRng(8), grid, jitter=0.0)
        scores = np.abs(targets - mean) / spread
        k = cf.quantile_index(n, 0.1)
        for j in range(6):
            assert qf.values[j] == np.sort(scores[:, j])[k - 1]

    def test_jitter_reproducible(self):
        gen = SeededRng(9).generator()
        grid = GridSpec((4,))
        targets = gen.standard_normal((30, 4))
        interval = (np.zeros((30, 4)), np.zeros((30, 4)), np.ones((30, 4)))
        q1 = cf.calibrate(targets, interval, 0.05, SeededRng(10), grid)
        q2 = cf.calibrate(targets, interval, 0.05, SeededRng(10), grid)
        assert np.array_equal(q1.values, q2.values)

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError):
            cf.calibrate(np.zeros((0, 4)), (np.zeros((0, 4)),) * 3, 0.05,
                         SeededRng(11), GridSpec((4,)))

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cf.calibrate(np.zeros((5, 3)), (np.zeros((5, 3)), np.zeros((5, 3)), np.ones((5, 3))),
                         0.05, SeededRng(12), GridSpec((4,)))


class TestBand:
    def test_basic(self):
        grid = GridSpec((3,))
        qf = cf.QField(np.full(3, 2.0), grid, 0.05)
        band = cf.band(np.zeros(3), np.zeros(3), np.ones(3), qf.values)
        assert np.allclose(band.lower, -2.0)
        assert np.allclose(band.upper, 2.0)

    def test_infinite_q_gives_full_line(self):
        grid = GridSpec((2,))
        qf = cf.QField(np.array([1.0, np.inf]), grid, 0.05)
        band = cf.band(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), qf.values)
        assert band.lower[1] == -np.inf and band.upper[1] == np.inf
        assert band.contains(np.array([0.0, 1e300])).all()

    def test_matches_scalar_oracle(self):
        gen = SeededRng(13).generator()
        grid = GridSpec((8,))
        mu = gen.standard_normal(8)
        s = np.abs(gen.standard_normal(8))
        q = np.abs(gen.standard_normal(8))
        band = cf.band(mu, mu, s, cf.QField(q, grid, 0.05).values)
        for j in range(8):
            assert band.lower[j] == pytest.approx(mu[j] - q[j] * s[j], rel=1e-12)
            assert band.upper[j] == pytest.approx(mu[j] + q[j] * s[j], rel=1e-12)

    def test_shape_mismatch(self):
        qf = cf.QField(np.ones(3), GridSpec((3,)), 0.05)
        with pytest.raises(ShapeError):
            cf.band(np.zeros(4), np.zeros(4), np.ones(4), qf.values)

    def test_stack_equals_per_sample_bands(self):
        # one (B, *grid) band is the per-sample bands stacked, bit for bit
        gen = SeededRng(18).generator()
        grid = GridSpec((3, 4))
        mu = gen.standard_normal((5, 3, 4))
        s = np.abs(gen.standard_normal((5, 3, 4)))
        s[1, 2, 3] = 0.0
        q = np.abs(gen.standard_normal((3, 4)))
        q[2, 3] = np.inf
        q = cf.QField(q, grid, 0.05).values
        band = cf.band(mu, mu, s, q)
        ones = np.ones_like(mu)
        cq = cf.band(mu, mu + s, ones, q)
        for i in range(5):
            one = cf.band(mu[i], mu[i], s[i], q)
            assert np.array_equal(band.lower[i], one.lower)
            assert np.array_equal(band.upper[i], one.upper)
            one = cf.band(mu[i], mu[i] + s[i], ones[i], q)
            assert np.array_equal(cq.lower[i], one.lower)
            assert np.array_equal(cq.upper[i], one.upper)

    def test_stack_with_wrong_grid_rejected(self):
        qf = cf.QField(np.ones(3), GridSpec((3,)), 0.05)
        with pytest.raises(ShapeError):
            cf.band(np.zeros((2, 4)), np.zeros((2, 4)), np.ones((2, 4)), qf.values)
        with pytest.raises(ShapeError):
            cf.band(np.zeros((2, 3)), np.ones((3, 3)), np.ones((2, 3)), qf.values)


class TestCoverage:
    def test_truth_at_mean_full_coverage(self):
        band = Band(-np.ones((5, 4)), np.ones((5, 4)))
        truths = np.zeros((5, 4))
        report = cf.coverage_eval(band, truths)
        assert report.average == 100.0
        assert report.below_target == 0
        assert report.at_or_above_target == 4

    def test_zero_width_offset_zero_coverage(self):
        band = Band(np.zeros((4, 3)), np.zeros((4, 3)))
        report = cf.coverage_eval(band, np.ones((4, 3)))
        assert report.average == 0.0
        assert report.below_target == 3

    def test_matches_counting_oracle(self):
        gen = SeededRng(14).generator()
        lows = gen.standard_normal((10, 6)) - 1.0
        highs = lows + np.abs(gen.standard_normal((10, 6))) * 2
        truths = gen.standard_normal((10, 6))
        report = cf.coverage_eval(Band(lows, highs), truths)
        for j in range(6):
            count = sum(lows[i, j] <= truths[i, j] <= highs[i, j] for i in range(10))
            assert report.per_location[j] == pytest.approx(100.0 * count / 10)

    def test_average_is_mean(self):
        gen = SeededRng(15).generator()
        report = cf.CoverageReport(gen.uniform(0, 100, 50), 95.0)
        assert report.average == pytest.approx(report.per_location.mean(), abs=1e-9)
        assert report.below_target + report.at_or_above_target == 50

    def test_band_must_match_truths(self):
        with pytest.raises(ValueError):
            cf.coverage_eval(Band(np.zeros((3, 2)), np.ones((3, 2))), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            cf.coverage_eval(Band(np.zeros((0, 2)), np.ones((0, 2))), np.zeros((0, 2)))

    def test_boundary_counts_as_covered(self):
        band = Band(np.zeros((1, 1)), np.ones((1, 1)))
        assert cf.coverage_eval(band, np.array([[1.0]])).average == 100.0


def pair_score(y, lo, hi):
    """The quantile pair's instance of the interval score: (lo, hi, 1)."""
    return cf.score(y, lo, hi, np.ones_like(lo))


class TestQuantilePairPath:
    def test_inside_interval_negative_score(self):
        e = pair_score(np.array([0.5]), np.array([0.0]), np.array([1.0]))
        assert e[0] == pytest.approx(-0.5)

    def test_above_interval(self):
        e = pair_score(np.array([2.0]), np.array([0.0]), np.array([1.0]))
        assert e[0] == pytest.approx(1.0)

    def test_band_widens_each_side_by_q(self):
        gen = SeededRng(16).generator()
        grid = GridSpec((5,))
        lo = gen.standard_normal(5)
        hi = lo + 1.0
        q = np.abs(gen.standard_normal(5))
        band = cf.band(lo, hi, np.ones(5), cf.QField(q, grid, 0.05).values)
        assert np.allclose(band.lower, lo - q)
        assert np.allclose(band.upper, hi + q)

    def test_calibrate_cq_clamps_at_zero(self):
        grid = GridSpec((2,))
        targets = np.zeros((30, 2))
        lo = np.full((30, 2), -5.0)  # interval [-5, 5] always covers by far
        hi = np.full((30, 2), 5.0)
        qf = cf.calibrate(targets, (lo, hi, np.ones((30, 2))), 0.05, SeededRng(17), grid,
                          jitter=0.0)
        assert np.all(qf.values == 0.0)



def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.filterwarnings("ignore:.*zero spread:RuntimeWarning")
class TestOneIntervalPathOracle:
    """score, band and calibrate reproduce the former per-kind formulas bit for bit.

    The ensemble is the interval (mean, mean, spread), scored |y - mean| / spread
    and banded mean -/+ q*spread; the quantile pair is (lo, hi, 1), scored
    max(lo - y, y - hi) and banded [lo - q, hi + q]. Draws are normal, so no
    value is a signed zero, where max(-a, a) and |a| could differ in sign.
    """

    @pytest.fixture(params=[31, 32, 33])
    def draws(self, request):
        gen = SeededRng(request.param).generator()
        shape = (40, 3, 5)
        y, mean, lo = (gen.standard_normal(shape) for _ in range(3))
        hi = lo + gen.standard_normal(shape)  # about half of the pairs cross
        spread = np.abs(gen.standard_normal(shape))
        spread[gen.random(shape) < 0.1] = 0.0
        q = np.abs(gen.standard_normal(shape[1:]))
        q[0, :2] = np.inf
        return y, mean, spread, lo, hi, q

    @staticmethod
    def former_rp_score(y, mean, spread):
        zero = spread == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(zero, np.inf, np.abs(y - mean) / np.where(zero, 1.0, spread))

    def test_scores(self, draws):
        y, mean, spread, lo, hi, _ = draws
        rp = self.former_rp_score(y, mean, spread)
        assert same_bits(cf.score(y, mean, mean, spread), rp)
        assert same_bits(cf.score(y, lo, hi, np.ones_like(y)), np.maximum(lo - y, y - hi))

    def test_bands(self, draws):
        _, mean, spread, lo, hi, q = draws
        with np.errstate(invalid="ignore"):
            half = q * spread
        half = np.where(np.isnan(half), np.inf, half)
        band = cf.band(mean, mean, spread, q)
        assert same_bits(band.lower, mean - half) and same_bits(band.upper, mean + half)
        assert np.isinf(band.lower[:, 0, :2]).all() and np.isinf(band.upper[:, 0, :2]).all()
        ones = np.ones_like(lo)
        band = cf.band(lo, hi, ones, q)
        assert same_bits(band.lower, lo - q) and same_bits(band.upper, hi + q)
        band = cf.band(mean, mean, spread, 1.96)
        assert same_bits(band.lower, mean - 1.96 * spread)
        assert same_bits(band.upper, mean + 1.96 * spread)
        band = cf.band(lo, hi, ones, 0.0)
        assert same_bits(band.lower, lo) and same_bits(band.upper, hi)
        assert same_bits(0.5 * (mean + mean), mean)

    def test_calibrate(self, draws):
        y, mean, spread, lo, hi, _ = draws
        grid = GridSpec(y.shape[1:])
        jitter = SeededRng(34).generator().uniform(0.0, 1e-9, size=y.shape)
        rp = self.former_rp_score(y, mean, spread)
        pair = np.maximum(lo - y, y - hi)
        got = cf.calibrate(y, (mean, mean, spread), 0.1, SeededRng(34), grid)
        assert same_bits(got.values, cf.conformal_quantile(rp + jitter, 0.1))
        assert np.isinf(got.values).any() and np.isfinite(got.values).any()
        got = cf.calibrate(y, (lo, hi, np.ones_like(y)), 0.1, SeededRng(34), grid)
        assert same_bits(got.values, np.maximum(cf.conformal_quantile(pair + jitter, 0.1), 0.0))


class TestQFieldContainer:
    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            cf.QField(np.ones(3), GridSpec((4,)), 0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cf.QField(np.array([-0.1, 1.0]), GridSpec((2,)), 0.05)

    def test_serialization_roundtrip(self, tmp_path):
        grid = GridSpec((4, 4))
        values = np.abs(SeededRng(18).generator().standard_normal((4, 4)))
        values[0, 0] = np.inf
        qf = cf.QField(values, grid, 0.05)
        path = tmp_path / "field.opq"
        cf.save_qfield(qf, path)
        loaded = cf.load_qfield(path)
        assert loaded.alpha == 0.05
        assert loaded.grid.shape == (4, 4)
        assert np.array_equal(loaded.values, values)


class TestExchangeabilityGuarantee:
    def test_marginal_coverage_small_montecarlo(self):
        # reduced version of the full acceptance check
        gen = SeededRng(19).generator()
        trials = 20000
        draws = gen.standard_normal((trials, 20))
        hits = 0
        for row in draws:
            q = cf.conformal_quantile(row[:19], 0.05)
            hits += row[19] <= q
        coverage = hits / trials
        assert abs(coverage - 0.95) < 0.01

    def test_resplit_coverage_is_k_over_n_plus_1(self):
        # Each location keeps one fixed pool of distinct scores. A uniform
        # calibration/test re-split makes a test score's rank among itself
        # and the n calibration scores uniform, so the band [0, q] covers it
        # with probability exactly k/(n+1), k = ceil((1-alpha)(n+1)).
        n, m, alpha, locations, splits = 20, 20, 0.05, 10, 2000
        gen = SeededRng(24).generator()
        pool = np.abs(gen.standard_normal((locations, n + m)))
        order = np.argsort(gen.random((splits, locations, n + m)), axis=-1)
        shuffled = np.take_along_axis(np.broadcast_to(pool, order.shape), order, axis=-1)
        q = cf.conformal_quantile(np.moveaxis(shuffled[..., :n], -1, 0), alpha)
        per_split = np.mean(shuffled[..., n:] <= q[..., None], axis=-1)
        p = 20 / 21  # k = ceil(0.95 * 21) = 20
        # split-locations are independent and each mean over m test points
        # varies at most as one Bernoulli(p) draw: 4 binomial standard errors
        tol = 4.0 * np.sqrt(p * (1.0 - p) / per_split.size)
        assert abs(per_split.mean() - p) < tol, (per_split.mean(), p, tol)
