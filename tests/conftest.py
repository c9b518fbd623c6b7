from concurrent.futures import ThreadPoolExecutor

import pytest

from opcert import core


class CountingExecutor(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(core, "_available_cpus", lambda: 2)


@pytest.fixture
def on_cpus(monkeypatch):
    """on_cpus(cpus, fn) -> (fn(), number of core.halves calls that split)."""
    helper = CountingExecutor()
    monkeypatch.setattr(core, "_helper", helper)

    def run(cpus, fn):
        monkeypatch.setattr(core, "_available_cpus", lambda: cpus)
        helper.submitted = 0
        return fn(), helper.submitted

    yield run
    helper.shutdown()


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS set to (at most) two threads, put back afterwards.

    Yields the (get, set) controls and the counts they read after setting.
    """
    controls = core._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread setter in this process")
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls, [get() for get, _ in controls]
    for (_, set_), count in zip(controls, saved):
        set_(count)
