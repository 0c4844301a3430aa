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
move.  The Python field core does the C core's float operations in the C
core's order, so each instance has one pair for both backends.  A change that
alters these bytes changes placer behaviour and must say so and re-pin them.
"""

import hashlib

import pytest

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
    # a 4x4 lattice too coarse for the last macros: the legalizer places
    # them on a finer one (the plain search failed here, exit 2)
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
        "074a4025bbc4eed0edb2be6331da8df925b6ffd7d21c036ed0109577adb8c926",
        "d029f99850997770f99a90ec22f8f16d61cabde1c08696156fccd7fc809c8872",
    ),
    "coarse": (
        "de33f1025604fe5dc73ea673d35d96ab4e2b0b912703a916250e32abbe537704",
        "994deecb4f1d4677474d09c5b27f9e95c970faade65593122b800f1260ca5c93",
    ),
    "blocked": (
        "5fa11213cf36f2247e80f10cf9990951314f131412c3f659f39686b038b71708",
        "f93c5b1c673b213d7b40af1cbcbd68334cc13a7aa349a151b0da79bfc10aff9f",
    ),
    "mixed": (
        "bae73c0256f056f2e4647e4c3a275f01fad6c430be241b3117daf3720da1ffe6",
        "699894acd0d29a50de18ee133054cb3f886e1167e472176a82a31041846e3b32",
    ),
    "undecayed": (
        "726f9c63a484faf897a56efaa41c3efd2e1ce00dfedc04938aaba9ac9b82e367",
        "b6c96236944189137ffa5416606f447d9f041fa3753203e828fc6dc9cf0b327b",
    ),
}


def _digest(path):
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_place_bytes_are_pinned(tmp_path, on_core, backend, name):
    spec, blockages, rounds, flags = INSTANCES[name]
    netlist, area = generate_instance(spec)
    w, h = area.width, area.height
    area = PlacementArea(
        w, h, tuple(Rect(x1 * w, y1 * h, x2 * w, y2 * h) for x1, y1, x2, y2 in blockages)
    )
    inst = str(tmp_path / "inst.txt")
    res = str(tmp_path / "res.txt")
    stats = str(tmp_path / "stats.csv")
    save_instance(inst, netlist, area)
    # the py run places, legalizes and formats its files in Python, as a
    # run without a C compiler does
    on_core(backend)
    code = main(["place", "--in", inst, "--out", res, "--stats", stats,
                 "--rounds", str(rounds), "--seed", "3", *flags])
    assert code == 0
    assert (_digest(res), _digest(stats)) == PINS[name]
