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
    """A switch that puts the runs after it on one core.  ``on_core("py")``
    makes the field and the store with its proposals and its round, the
    round's scoring hook, the legalizer's search and the file formatter
    Python's, as in a run without the C core; ``on_core("c")`` makes them
    the loaded core's."""
    from stepplace import io_cli, placer, stepfield

    references = [
        (placer, "candidate_score", placer.py_candidate_score),
        (placer, "FreeSpace", placer.PyFreeSpace),
        (io_cli, "repr_line", io_cli.py_repr_line),
    ]
    loaded = [getattr(owner, name) for owner, name, _ in references]

    def switch(backend):
        # the field picks its core by HAVE_C_CORE, and the store follows it
        monkeypatch.setattr(stepfield, "HAVE_C_CORE", backend == "c")
        for (owner, name, reference), own in zip(references, loaded):
            monkeypatch.setattr(owner, name, reference if backend == "py" else own)

    return switch
