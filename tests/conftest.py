"""Shared fixtures; the brute-force oracles live in oracles.py."""

import pytest


@pytest.fixture(params=["c", "py"])
def backend(request):
    from stepplace.stepfield import HAVE_C_CORE

    if request.param == "c" and not HAVE_C_CORE:
        pytest.skip("C field core not built")
    return request.param


@pytest.fixture
def on_core(monkeypatch):
    """A switch that puts the runs after it on one core: ``on_core("py")``
    makes every layer Python's (``stepfield.core`` is ``_pycore``), as in a
    run without the C core; ``on_core("c")`` makes it the loaded core."""
    from stepplace import _pycore, placer, stepfield

    def switch(backend):
        core = _pycore if backend == "py" else stepfield.c_core
        monkeypatch.setattr(stepfield, "core", core)
        # the round's hook, as placer holds it for the benchmark's tracer
        monkeypatch.setattr(placer, "candidate_score", core.candidate_score)

    return switch
