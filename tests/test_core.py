import numpy as np
import pytest

from opcert.core import (
    Band,
    GridError,
    GridSpec,
    SeededRng,
    ShapeError,
    normalized_coordinates,
    require_same_shape,
)


def gaussian_draws(rng, n):
    return rng.generator().standard_normal(n)


class TestGridSpec:
    def test_defaults_unit_extent(self):
        g = GridSpec((16,))
        assert g.dims == 1
        assert g.extent == ((0.0, 1.0),)
        assert g.num_points == 16

    def test_rejects_bad_dims(self):
        with pytest.raises(GridError):
            GridSpec((4, 4, 4))
        with pytest.raises(GridError):
            GridSpec((0,))

    def test_rejects_degenerate_extent(self):
        with pytest.raises(GridError):
            GridSpec((4,), ((1.0, 1.0),))


class TestNormalizedCoordinates:
    def test_three_point_line(self):
        got = normalized_coordinates(GridSpec((3,)))
        assert np.array_equal(got, np.array([[0.0], [0.5], [1.0]]))

    def test_two_by_two_corners(self):
        got = normalized_coordinates(GridSpec((2, 2)))
        expected = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        assert np.array_equal(got, expected)

    def test_large_grid_matches_linspace(self):
        got = normalized_coordinates(GridSpec((1024,)))
        assert got.shape == (1024, 1)
        assert np.array_equal(got[:, 0], np.linspace(0.0, 1.0, 1024))
        spacing = np.diff(got[:, 0])
        assert np.allclose(spacing, 1.0 / 1023.0)

    def test_monotone_and_reproducible(self):
        a = normalized_coordinates(GridSpec((37,)))
        b = normalized_coordinates(GridSpec((37,)))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a[:, 0]) > 0)

    def test_rejects_single_point(self):
        with pytest.raises(GridError):
            normalized_coordinates(GridSpec((1,)))


class TestSeededRng:
    def test_moments(self):
        draws = gaussian_draws(SeededRng(7), 10**5)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_determinism(self):
        a = gaussian_draws(SeededRng(123, 4), 64)
        b = gaussian_draws(SeededRng(123, 4), 64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = gaussian_draws(SeededRng(123, 0), 16)
        b = gaussian_draws(SeededRng(123, 1), 16)
        assert not np.any(a == b)

    def test_substream_arithmetic(self):
        assert SeededRng(5, 10).substream(7) == SeededRng(5, 17)


class TestElementwiseContract:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            require_same_shape(np.zeros((3, 3)), np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            require_same_shape(np.zeros(4), np.zeros(5))

    def test_scalar_broadcast_allowed(self):
        require_same_shape(np.ones(3), 2.0)
        require_same_shape(np.ones(3), np.float64(2.0))
        require_same_shape(np.ones(3), np.array(2.0))


class TestBand:
    def test_containment_closed(self):
        band = Band(np.zeros(3), np.ones(3))
        inside = band.contains(np.array([0.0, 0.5, 1.0]))
        assert inside.all()

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            Band(np.zeros(3), np.zeros(4))

    def test_width(self):
        band = Band(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
        assert np.array_equal(band.width, np.array([2.0, 3.0]))
