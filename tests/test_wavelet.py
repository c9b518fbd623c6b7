import numpy as np
import pytest

from opcert import wavelet as wv

import wavelet_oracle as wo


def analysis_matrix(name, n):
    """Dense single-level transform matrix built tap by tap (oracle)."""
    lo, hi = wo.bank(name)
    m = np.zeros((n, n))
    for k in range(n // 2):
        for tap in range(lo.size):
            col = (2 * k + tap) % n
            m[k, col] += lo[tap]
            m[n // 2 + k, col] += hi[tap]
    return m


def multilevel_matrix(name, n, levels):
    """Compose per-level matrices acting on the leading lowpass block."""
    total = np.eye(n)
    size = n
    for _ in range(levels):
        step = np.eye(n)
        step[:size, :size] = analysis_matrix(name, size)
        total = step @ total
        size //= 2
    return total


class TestFilters:
    """The lowpass taps, through the oracle's filter bank."""

    @pytest.mark.parametrize("name,taps", [("db4", 8), ("db6", 12)])
    def test_lengths(self, name, taps):
        assert len(wv.LOWPASS_TAPS[name]) == taps

    @pytest.mark.parametrize("name", ["db4", "db6"])
    def test_orthonormality(self, name):
        lo, hi = wo.bank(name)
        assert abs(np.sum(lo**2) - 1.0) < 1e-10
        assert abs(np.sum(lo) - np.sqrt(2.0)) < 1e-12
        # vanishing cross/auto correlation at even lags
        for g in (lo, hi):
            for lag in range(2, lo.size, 2):
                assert abs(np.dot(g[:-lag], g[lag:])) < 1e-12
        assert abs(np.dot(lo, hi)) < 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            wv.lowpass_pair("haar", 64, 1)


class TestDwt1d:
    def test_constant_annihilated(self):
        c = wo.dwt_packed(np.ones(64), "db4", 2)
        assert np.max(np.abs(c[16:])) < 1e-10  # every detail coefficient

    def test_energy_preserved(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(256)
        c = wo.dwt_packed(x, "db6", 3)
        assert abs(np.sum(c**2) - np.sum(x**2)) < 1e-10 * np.sum(x**2)

    def test_total_count_equals_length(self):
        # leading batch axes pass through, the transformed axis keeps its length
        x = np.random.default_rng(1).standard_normal((2, 3, 128))
        c = wo.dwt_packed(x, "db4", 4)
        assert c.shape == x.shape
        single = wo.dwt_packed(x[1, 2], "db4", 4)
        assert np.max(np.abs(c[1, 2] - single)) < 1e-12

    def test_matches_matrix_oracle(self):
        f = "db6"
        x = np.random.default_rng(2).standard_normal(64)
        mat = multilevel_matrix(f, 64, 3)
        oracle = mat @ x
        assert np.max(np.abs(wo.dwt_packed(x, f, 3) - oracle)) < 1e-12
        # the oracle matrix must itself be orthogonal
        assert np.max(np.abs(mat @ mat.T - np.eye(64))) < 1e-12

    def test_impulse_inverse_matches_matrix_column(self):
        f = "db4"
        n, levels = 32, 2
        mat_inv = multilevel_matrix(f, n, levels).T  # orthogonal inverse
        impulse = np.zeros(n)
        impulse[3] = 1.0  # inside the approximation block
        rec = wo.idwt_packed(impulse, f, levels)
        assert np.max(np.abs(rec - mat_inv[:, 3])) < 1e-12

    @pytest.mark.parametrize("name", ["db4", "db6"])
    def test_roundtrip(self, name):
        x = np.random.default_rng(3).standard_normal(128)
        back = wo.idwt_packed(wo.dwt_packed(x, name, 3), name, 3)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_linearity(self):
        f = "db6"
        gen = np.random.default_rng(4)
        x, y = gen.standard_normal(64), gen.standard_normal(64)
        a, b = 2.5, -1.25
        lhs = wo.dwt_packed(a * x + b * y, f, 2)
        rhs = a * wo.dwt_packed(x, f, 2) + b * wo.dwt_packed(y, f, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_adjoint_identity(self):
        f = "db4"
        gen = np.random.default_rng(5)
        x, c = gen.standard_normal(128), gen.standard_normal(128)
        lhs = np.dot(wo.dwt_packed(x, f, 3), c)
        rhs = np.dot(x, wo.idwt_packed(c, f, 3))
        assert abs(lhs - rhs) < 1e-10

    def test_indivisible_length_rejected(self):
        with pytest.raises(wv.DecompositionError):
            wo.dwt_packed(np.ones(60), "db4", 3)
        with pytest.raises(wv.DecompositionError):
            wo.dwt_packed(np.ones(64), "db4", 0)


    def test_padding_records_and_roundtrips(self):
        # a non-dyadic 1D grid is symmetric-padded to the next multiple of
        # 2^levels; the lowpass pair folds that padding and the crop in
        f = "db4"
        analysis, synthesis = wv.lowpass_pair("db4", 85, 2)
        assert analysis.shape == (22, 85) and synthesis.shape == (85, 22)
        x = np.random.default_rng(6).standard_normal((2, 85))
        padded = np.pad(x, [(0, 0), (0, 3)], mode="symmetric")
        shift = wo.ROW_START[f]
        packed = wo.dwt_packed(np.roll(padded, -shift, axis=-1), f, 2)
        assert np.max(np.abs(x @ analysis.T - packed[:, :22])) < 1e-12

        def inverse(c):
            return np.roll(wo.idwt_packed(c, f, 2), shift, axis=-1)[:, :85]

        # the full cascade round trips through the padding ...
        assert np.max(np.abs(inverse(packed) - x)) < 1e-12
        # ... and its approximation part is the folded synthesis
        packed[:, 22:] = 0.0
        lowpass = inverse(packed)
        assert np.max(np.abs(lowpass - (x @ analysis.T) @ synthesis.T)) < 1e-12

    def test_lowpass_pair_from_taps(self):
        # rows of the unpadded analysis are orthonormal, A^T A is a projection,
        # and the pair is built once per (family, n, levels)
        analysis, synthesis = wv.lowpass_pair("db6", 256, 4)
        assert np.array_equal(synthesis, analysis.T)
        assert np.max(np.abs(analysis @ analysis.T - np.eye(16))) < 1e-12
        proj = synthesis @ analysis
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        assert wv.lowpass_pair("db6", 256, 4)[0] is analysis
        assert not analysis.flags.writeable

    @pytest.mark.parametrize("name", ["db4", "db6"])
    def test_coefficients_agree_across_a_dyadic_refinement(self, name):
        # a smooth field's level-L coefficients on n points and its
        # level-(L + 1) ones on 2n points, scaled by 1/sqrt(2), sit at the
        # same points; rows starting at sample 2^L k put them 0.3 of a block
        # apart and differed by 47% at db6, level 4
        for n, levels in ((32, 3), (64, 4), (128, 5)):
            fields = [np.sin(2 * np.pi * np.arange(m) / m + 0.3) for m in (n, 2 * n)]
            coarse = wv.lowpass_pair(name, n, levels)[0] @ fields[0]
            fine = wv.lowpass_pair(name, 2 * n, levels + 1)[0] @ fields[1] / np.sqrt(2.0)
            assert np.linalg.norm(fine - coarse) < 0.05 * np.linalg.norm(coarse) * 32 / n

    def test_lowpass_pair_rejects_bad_depth(self):
        with pytest.raises(wv.DecompositionError):
            wv.lowpass_pair("db4", 64, 0)
        with pytest.raises(wv.DecompositionError):
            wv.lowpass_pair("db4", 3, 3)  # 5 samples of padding on 3


class TestDwt2d:
    def test_constant_field(self):
        c = wo.dwt2d_packed(np.ones((32, 32)), "db4", 2)
        c[:8, :8] = 0.0  # drop the approximation block, keep every detail
        assert np.max(np.abs(c)) < 1e-10

    def test_roundtrip_and_energy(self):
        f = "db4"
        x = np.random.default_rng(7).standard_normal((64, 64))
        c = wo.dwt2d_packed(x, f, 2)
        back = wo.idwt2d_packed(c, f, 2)
        assert np.max(np.abs(back - x)) < 1e-9
        assert abs(np.sum(c**2) - np.sum(x**2)) < 1e-9 * np.sum(x**2)

    def test_count_preserved(self):
        # a non-square field keeps its shape and round-trips
        f = "db4"
        x = np.random.default_rng(8).standard_normal((32, 16))
        c = wo.dwt2d_packed(x, f, 2)
        assert c.shape == (32, 16)
        assert np.max(np.abs(wo.idwt2d_packed(c, f, 2) - x)) < 1e-9

    def test_matches_separable_matrix_oracle(self):
        f = "db4"
        n = 16
        x = np.random.default_rng(9).standard_normal((n, n))
        m = analysis_matrix(f, n)
        oracle = m @ x @ m.T  # rows then columns, one level
        packed = wo.dwt2d_packed(x, f, 1)
        assert np.max(np.abs(packed - oracle)) < 1e-12
