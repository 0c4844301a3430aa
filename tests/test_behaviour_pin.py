"""Behaviour pin: ``place`` writes the same result and stats bytes as before.

The ``blocked`` SHA-256 values were recorded from the code before the
bucket-grid geometry kernel replaced the overlap scans; the ``undecayed``
pins from the code before the field cores lost their separate path for a
field that never decayed; the ``coarse`` pins from the first legalizer that
retries on a finer lattice.  The ``dense`` and ``mixed`` pins were recorded
from the first field cores that store every coefficient over one global
scale instead of applying a pending decay per coefficient on each read: a
field read rounds differently once the field has decayed, so these two runs
take other moves from round 321 and 254 on.  The ``undecayed`` run never
decays (``--rho 1.0``), so its scale stays exactly 1 and its bytes did not
move then.  The result pins of ``blocked``, ``coarse``, ``dense`` and
``undecayed``, whose legalizer moves macros, were recorded again from the
first legalizer that takes the nearest free center, off any lattice; no
stats pin moved.  The Python field core does the C core's float operations
in the C core's order, so each instance has one pair for both backends.  A
change that alters these bytes changes placer behaviour and must say so and
re-pin them.
"""

import hashlib
import os
import subprocess

import pytest

import stepplace

from stepplace.io_cli import GenSpec, generate_instance, main, save_instance
from stepplace.netmodel import PlacementArea, Rect

# (GenSpec, blockages as fractions of the area, rounds, extra place flags)
INSTANCES = {
    # mixed sizes (1 to 9 units): the overlap schedule drives overlap to 0
    "mixed": (
        GenSpec(macros=40, nets=60, size_min=1.0, size_max=9.0,
                utilization=0.55, seed=11),
        (),
        1200,
        (),
    ),
    # two keep-outs and a short run: the legalizer has overlaps to remove
    "blocked": (
        GenSpec(macros=30, nets=45, utilization=0.5, seed=12),
        ((0.1, 0.2, 0.3, 0.45), (0.6, 0.55, 0.8, 0.7)),
        200,
        (),
    ),
    # no decay: the field only ever grows, with a keep-out seeded before
    # round 1
    "undecayed": (
        GenSpec(macros=30, nets=45, utilization=0.5, seed=13),
        ((0.35, 0.35, 0.6, 0.55),),
        300,
        ("--rho", "1.0"),
    ),
    # a 4x4 grid: the lattice search failed here on it (exit 2), and a
    # retry placed the last macros on a finer lattice
    "coarse": (
        GenSpec(macros=15, nets=20, utilization=0.5, seed=21),
        (),
        40,
        ("--grid-p", "2", "--grid-q", "2"),
    ),
    # 300 macros: the footprint index holds a few macros per cell and prunes
    # most of them, where the pins above have at most 40 macros
    "dense": (
        GenSpec(macros=300, nets=450, utilization=0.5, seed=14),
        (),
        400,
        (),
    ),
}

# instance -> (result sha256, stats sha256), the same on both field backends
PINS = {
    "dense": (
        "fabcd97b01a73702f7b35ccbedfdde48667454ca23d4e78aeead9e5a43c9f2a1",
        "d029f99850997770f99a90ec22f8f16d61cabde1c08696156fccd7fc809c8872",
    ),
    "coarse": (
        "70b06021ea41a16f6010cd1bd87949f2d9276f01fe894ab3912889531195b664",
        "994deecb4f1d4677474d09c5b27f9e95c970faade65593122b800f1260ca5c93",
    ),
    "blocked": (
        "da4207553ba2f19d3b4fc35d3930acf7ebc09716a5a30ab3ab53cd77b6929671",
        "f93c5b1c673b213d7b40af1cbcbd68334cc13a7aa349a151b0da79bfc10aff9f",
    ),
    "mixed": (
        "bae73c0256f056f2e4647e4c3a275f01fad6c430be241b3117daf3720da1ffe6",
        "699894acd0d29a50de18ee133054cb3f886e1167e472176a82a31041846e3b32",
    ),
    "undecayed": (
        "f2b2ca082cb24da31b99c0c6a6c8ee60fa69de8ef8485ed1467f05885a395844",
        "b6c96236944189137ffa5416606f447d9f041fa3753203e828fc6dc9cf0b327b",
    ),
}


def _digest(path):
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def place_argv(name, directory):
    """The ``place`` arguments of pin ``name``, on its instance written to
    ``directory``, writing ``res.txt`` and ``stats.csv`` there."""
    spec, blockages, rounds, flags = INSTANCES[name]
    netlist, area = generate_instance(spec)
    w, h = area.width, area.height
    area = PlacementArea(
        w, h, tuple(Rect(x1 * w, y1 * h, x2 * w, y2 * h) for x1, y1, x2, y2 in blockages)
    )
    inst = str(directory / "inst.txt")
    save_instance(inst, netlist, area)
    return ["place", "--in", inst, "--out", str(directory / "res.txt"),
            "--stats", str(directory / "stats.csv"), "--rounds", str(rounds),
            "--seed", "3", *flags]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_place_bytes_are_pinned(tmp_path, on_core, backend, name):
    argv = place_argv(name, tmp_path)
    # the py run places, legalizes and formats its files in Python, as a
    # run without a C compiler does
    on_core(backend)
    assert main(argv) == 0
    assert (_digest(tmp_path / "res.txt"), _digest(tmp_path / "stats.csv")) == PINS[name]


def test_place_bytes_are_pinned_on_every_interpreter(tmp_path, interpreters):
    """Each interpreter found writes the pinned bytes from ``python -m
    stepplace place`` in a fresh process: on its own C build in a private
    cache, and on the Python core with the cache blocked by a file."""
    pythons = interpreters
    if len(pythons) < 2:
        pytest.skip("no Python interpreter but this one runs")
    runs = {}
    for name in sorted(INSTANCES):
        (tmp_path / name).mkdir()
        runs[name] = place_argv(name, tmp_path / name)
    blocked = tmp_path / "cache-blocked"
    blocked.write_text("")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepplace.__file__)))
    for k, python in enumerate(pythons):
        for cache in (tmp_path / f"cache-{k}", blocked):
            env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(cache)}
            for name, argv in runs.items():
                proc = subprocess.run([python, "-m", "stepplace", *argv], env=env,
                                      capture_output=True, text=True)
                where = (python, name, cache.name)
                assert proc.returncode == 0, (where, proc.stderr)
                # the fallback warns exactly where the cache is blocked
                assert ("C field core unavailable" in proc.stderr) == (cache == blocked)
                got = (_digest(tmp_path / name / "res.txt"),
                       _digest(tmp_path / name / "stats.csv"))
                assert got == PINS[name], where
