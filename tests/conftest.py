"""Shared fixtures; the brute-force oracles live in oracles.py."""

import functools
import os
import shutil
import subprocess
import sys
import warnings

import pytest

# the field core loads here, once; the terminal summary names it, with the
# loader's warning where the Python core stands in
with warnings.catch_warnings(record=True) as _LOADER_WARNINGS:
    warnings.simplefilter("always")
    from stepplace import stepfield


@pytest.fixture(params=["c", "py"])
def backend(request):
    from stepplace.stepfield import HAVE_C_CORE

    if request.param == "c" and not HAVE_C_CORE:
        pytest.skip("C field core not built")
    return request.param


def use_core(patch, backend):
    """Put the runs after it on one core through ``patch`` (a
    ``pytest.MonkeyPatch``): ``"py"`` makes every layer Python's
    (``stepfield.core`` is ``_pycore``), as in a run without the C core;
    ``"c"`` makes it the loaded core.  The round's hook, as placer holds it
    for the benchmark's tracer, is that core's ``PlacementStore.score``."""
    from stepplace import _pycore, placer, stepfield

    core = _pycore if backend == "py" else stepfield.c_core
    patch.setattr(stepfield, "core", core)
    patch.setattr(placer, "candidate_score", core.PlacementStore.score)


def round_beta(rnd, max_rounds):
    """The net-model sharpness of the 1-based round ``rnd`` of a run of
    ``max_rounds``, as the round computes it (``_pycore.schedules``)."""
    from stepplace._pycore import schedules
    from stepplace.placer import PlacerConfig

    return schedules(rnd, PlacerConfig(max_rounds=max_rounds)._schedule)[1]


@pytest.fixture
def on_core(monkeypatch):
    """A switch that puts the rest of the test on one core (see
    :func:`use_core`): ``on_core("py")`` or ``on_core("c")``."""
    return functools.partial(use_core, monkeypatch)


#: Where the ``interpreters`` fixture leaves what it found and skipped,
#: for the terminal summary.
_INTERPRETERS = pytest.StashKey[dict]()


def _executable(name):
    """The executable ``name`` runs, as it reports it, or None.  A pyenv
    shim with no version selected exits non-zero; it is then run with
    ``PYENV_VERSION`` set to each version ``pyenv whence`` names for it."""
    path = shutil.which(name)
    if path is None:
        return None
    envs = [None]
    pyenv = shutil.which("pyenv")
    if pyenv:
        whence = subprocess.run([pyenv, "whence", name], capture_output=True, text=True)
        envs += [dict(os.environ, PYENV_VERSION=v) for v in whence.stdout.split()]
    for env in envs:
        out = subprocess.run([path, "-c", "import sys; print(sys.executable)"],
                             capture_output=True, text=True, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    return None


@pytest.fixture(scope="session")
def interpreters(request):
    """This interpreter, then each of ``python3.10`` .. ``python3.13`` that
    runs (see :func:`_executable`), each once, by the executable it
    reports; the terminal summary lists those found and the names skipped."""
    found = {os.path.realpath(sys.executable): sys.executable}
    skipped = []
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        exe = _executable(name)
        if exe is None:
            skipped.append(name)
        else:
            found.setdefault(os.path.realpath(exe), exe)
    request.config.stash[_INTERPRETERS] = {"found": list(found.values()), "skipped": skipped}
    return list(found.values())


def pytest_terminal_summary(terminalreporter, config):
    said = [str(w.message) for w in _LOADER_WARNINGS if issubclass(w.category, RuntimeWarning)]
    terminalreporter.write_line("field core: " + ("c" if stepfield.HAVE_C_CORE else
                                                  f"py ({'; '.join(said) or 'no warning'})"))
    got = config.stash.get(_INTERPRETERS, None)
    if got:
        terminalreporter.write_line(f"interpreters: found {', '.join(got['found'])}; "
                                    f"skipped {', '.join(got['skipped']) or 'none'}")
