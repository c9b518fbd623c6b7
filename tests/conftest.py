import pytest

from opcert import core


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(core, "_available_cpus", lambda: 2)


@pytest.fixture
def on_cpus(monkeypatch):
    """on_cpus(cpus, fn) -> fn(), run with `cpus` CPUs available."""

    def run(cpus, fn):
        monkeypatch.setattr(core, "_available_cpus", lambda: cpus)
        return fn()

    return run


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
