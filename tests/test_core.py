import sys
import threading
import time
import types

import numpy as np
import pytest

from opcert import core
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
        # every grid spans the unit box, endpoints included
        g = GridSpec((16, 5))
        assert g.dims == 2 and g.shape == (16, 5)
        coords = normalized_coordinates(g)
        assert np.array_equal(coords[0], [0.0, 0.0]) and np.array_equal(coords[-1], [1.0, 1.0])

    def test_rejects_bad_dims(self):
        with pytest.raises(GridError):
            GridSpec((4, 4, 4))
        with pytest.raises(GridError):
            GridSpec((0,))


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


class TestMemberMap:
    """One model per core, with every OpenBLAS pinned to one thread meanwhile."""

    def test_keeps_input_order(self, two_cpus):
        def slow_first(i):
            time.sleep(0.05 if i == 0 else 0.0)
            return i * i

        assert core.member_map(slow_first, range(5)) == [0, 1, 4, 9, 16]

    def test_pins_blas_and_restores_it(self, two_cpus, blas_at_two):
        controls, before = blas_at_two
        seen = core.member_map(lambda _: [get() for get, _ in controls], range(2))
        assert seen == [[1] * len(controls)] * 2
        assert [get() for get, _ in controls] == before

    def test_restores_blas_when_a_member_raises(self, two_cpus, blas_at_two):
        controls, before = blas_at_two

        def fail_second(i):
            if i == 1:
                raise RuntimeError("member 1 broke")
            return i

        with pytest.raises(RuntimeError, match="member 1 broke"):
            core.member_map(fail_second, range(3))
        assert [get() for get, _ in controls] == before

    def test_runs_on_worker_threads(self, two_cpus):
        if not core._blas_thread_controls():
            pytest.skip("no OpenBLAS thread setter in this process")
        barrier = threading.Barrier(2, timeout=10)
        # both members must be running at once to pass the barrier
        idents = core.member_map(lambda _: (barrier.wait(), threading.get_ident())[1], range(2))
        assert len(set(idents)) == 2 and threading.get_ident() not in idents

    def test_serial_without_a_blas_setter(self, two_cpus, monkeypatch):
        monkeypatch.setattr(core, "_blas_thread_controls", lambda: [])
        idents = core.member_map(lambda _: threading.get_ident(), range(4))
        assert idents == [threading.get_ident()] * 4

    def test_serial_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(core, "_available_cpus", lambda: 1)
        idents = core.member_map(lambda _: threading.get_ident(), range(3))
        assert idents == [threading.get_ident()] * 3


class TestOneBlasThread:
    def test_pins_inside_and_restores_after(self, blas_at_two):
        controls, before = blas_at_two
        with core.one_blas_thread() as pinned:
            assert pinned
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before

    def test_restores_after_a_raise(self, blas_at_two):
        controls, before = blas_at_two
        with pytest.raises(KeyError):
            with core.one_blas_thread():
                raise KeyError("inside")
        assert [get() for get, _ in controls] == before

    def test_yields_false_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(core, "_blas_thread_controls", lambda: [])
        with core.one_blas_thread() as pinned:
            assert not pinned

    def test_second_entry_opens_no_library(self, blas_at_two, monkeypatch):
        controls, before = blas_at_two
        with core.one_blas_thread():
            pass
        opened = []
        cdll = core.ctypes.CDLL
        monkeypatch.setattr(core.ctypes, "CDLL", lambda *args: opened.append(args) or cdll(*args))
        with core.one_blas_thread() as pinned:
            assert pinned
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before
        assert opened == []

    def test_new_module_makes_the_next_entry_rescan(self, monkeypatch):
        scans = []
        scan = core._scan_blas_thread_controls
        monkeypatch.setattr(core, "_scan_blas_thread_controls", lambda: scans.append(1) or scan())
        with core.one_blas_thread():
            pass
        scans.clear()
        with core.one_blas_thread():
            pass
        assert scans == []
        monkeypatch.setitem(sys.modules, "opcert_test_new_module", types.ModuleType("new"))
        with core.one_blas_thread():
            pass
        assert scans == [1]
