"""The benchmark's workloads: each turns a seed into instance files.

Every placement of a run gets its own instance, generated with
``generate_instance(GenSpec(...))`` from ``seed * 1000 + rep`` and the
default degree mix; the placer's ``--seed`` is the same number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from stepplace.io_cli import GenSpec, generate_instance, save_instance
from stepplace.netmodel import PlacementArea, Rect


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    macros: int
    nets: int
    utilization: float
    grid_p: int
    rounds: int
    # nominal seconds of one placement; an untraced run makes
    # round(--seconds / rep_s) placements
    rep_s: float
    blockages: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-long",
            "20 macros, round loop only: field reads and the net model dominate, "
            "penalty and legalizer are tiny, most stats rows written",
            macros=20, nets=30, utilization=0.5, grid_p=6, rounds=1000, rep_s=1.25,
        ),
        Workload(
            "large-dense",
            "600 macros: the O(N*K) penalty/overlap scan, the O(N^2) new_state "
            "and summary, and naive_legalize dominate; the field is a small share",
            macros=600, nets=900, utilization=0.5, grid_p=6, rounds=1600, rep_s=25.0,
        ),
        Workload(
            "fine-blocked",
            "60 macros on a 256x256 grid with 3 keep-outs: 289-coefficient "
            "field ops, live blockage term and field writes, blocked legalizer",
            macros=60, nets=90, utilization=0.6, grid_p=8, rounds=2000, rep_s=5.0,
            blockages=3,
        ),
    )
}


def instance_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def make_instance(w: Workload, seed: int):
    """Netlist and area of one placement; the keep-outs of ``fine-blocked``
    are 10-15% of each axis, at uniform positions."""
    netlist, area = generate_instance(
        GenSpec(
            macros=w.macros, nets=w.nets, utilization=w.utilization, seed=seed
        )
    )
    if w.blockages:
        rng = random.Random(f"{w.name}:{seed}")
        blocks = []
        for _ in range(w.blockages):
            bw = area.width * rng.uniform(0.10, 0.15)
            bh = area.height * rng.uniform(0.10, 0.15)
            x = rng.uniform(0.0, area.width - bw)
            y = rng.uniform(0.0, area.height - bh)
            blocks.append(Rect(x, y, x + bw, y + bh))
        area = PlacementArea(area.width, area.height, tuple(blocks))
    return netlist, area


def write_instance(w: Workload, seed: int, path: str) -> float:
    """Write the instance file; returns the total macro area."""
    netlist, area = make_instance(w, seed)
    save_instance(path, netlist, area)
    return netlist.total_macro_area
