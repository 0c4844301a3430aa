"""Behaviour pin: ``place`` writes the same result and stats bytes as before.

The SHA-256 values were recorded from the code before the bucket-grid
geometry kernel replaced the overlap scans; the ``undecayed`` pins from the
code before the field cores lost their separate path for a field that never
decayed.  The Python field core does the C core's float operations in the C
core's order, so each instance has one pair for both backends.  A change that
alters these bytes changes placer behaviour and must say so and re-pin them.
"""

import hashlib

import pytest

import stepplace.stepfield as stepfield
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
}

# instance -> (result sha256, stats sha256), the same on both field backends
PINS = {
    "blocked": (
        "5fa11213cf36f2247e80f10cf9990951314f131412c3f659f39686b038b71708",
        "f93c5b1c673b213d7b40af1cbcbd68334cc13a7aa349a151b0da79bfc10aff9f",
    ),
    "mixed": (
        "3ee2fbd51d6c8f3651b16e7099703ff2a8e72ec589944a76afeef45650e5647a",
        "1546594433a616cbf178b2d29ea1eb8ecbe6bb4d824827e868f5c2e94a165af1",
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
def test_place_bytes_are_pinned(tmp_path, monkeypatch, backend, name):
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
    # the placer's field picks its backend through HAVE_C_CORE, and the
    # placer scores with that backend's path
    monkeypatch.setattr(stepfield, "HAVE_C_CORE", backend == "c")
    code = main(["place", "--in", inst, "--out", res, "--stats", stats,
                 "--rounds", str(rounds), "--seed", "3", *flags])
    assert code == 0
    assert (_digest(res), _digest(stats)) == PINS[name]
