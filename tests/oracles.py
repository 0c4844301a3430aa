"""Brute-force oracles shared by the test suite.

Everything here is built directly from definitions (dense vectors and
matrices updated by slicing, rectangle corners compared one by one),
independent of the library's coefficient and geometry-kernel arithmetic, so
tests compare two unrelated computation paths.  The exceptions are
:func:`oracle_legalize`, the legalizer's lattice search as it was before
it found the nearest free center, which shares the bucket grid and
``compute_bounds``, :func:`oracle_nearest_legalize`, the legalizer by brute
force over every candidate pair, which shares ``compute_bounds``, and
:func:`oracle_is_legal` and :func:`oracle_summarize`, the legality check and
the result summary as they were before both read a placement store: a
:func:`footprint_grid` of the placement and its pairs.
:func:`oracle_free_candidate` is the legalizer's search alone, tested pair
by pair, :func:`oracle_check_result` the result checker that tests every
pair, and
:func:`oracle_nets` the instance generator's nets as it first drew them,
sorting the macros under the degree cap anew for every net.
:func:`build_parser` is the ``stepplace`` command line as argparse read it,
before ``io_cli.parse_args`` read it from one flag table.
:func:`oracle_bounds` and :func:`oracle_placement_store` are the bounds and
the store inputs as every caller built them anew before a netlist kept
them, and :func:`oracle_legalize_refusal` and :func:`oracle_state_refusal`
the refusals of ``naive_legalize`` and ``new_state`` as each checked its
macros one by one.
"""

from __future__ import annotations

import argparse
import math
import random
import struct
from array import array
from bisect import bisect_left

import numpy as np

from stepplace import io_cli, stepfield
from stepplace.netmodel import (
    BucketGrid,
    LegalityReport,
    bb_netlength,
    check_placeable,
    footprint_box,
    meet,
    ordered_sum,
    overlaps,
)
from stepplace.placer import LegalizationError, compute_bounds
from stepplace.stepfield import GridRect


def brute_basis_1d(p: int) -> dict[tuple[int, int], np.ndarray]:
    """All 1D basis vectors of length 2**p keyed by (level, block), built
    literally: +1 on the first half-block, -1 on the second, all-ones last."""
    n = 1 << p
    vecs: dict[tuple[int, int], np.ndarray] = {}
    for a in range(p):
        for k in range(1, (n >> (a + 1)) + 1):
            v = np.zeros(n)
            lo = (2 * k - 2) << a
            mid = (2 * k - 1) << a
            hi = (2 * k) << a
            v[lo:mid] = 1.0
            v[mid:hi] = -1.0
            vecs[(a, k)] = v
    vecs[(p, 1)] = np.ones(n)
    return vecs


def brute_basis_2d(p: int, q: int) -> dict[tuple[int, int, int, int], np.ndarray]:
    """Dense product-basis matrices keyed by (a, k, b, l)."""
    vx = brute_basis_1d(p)
    vy = brute_basis_1d(q)
    return {
        (a, k, b, l): np.outer(xv, yv)
        for (a, k), xv in vx.items()
        for (b, l), yv in vy.items()
    }


def indicator_1d(s: int, t: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[s:t] = 1.0
    return v


class NaiveField:
    """Dense-matrix mirror of CostField semantics, straight from definitions."""

    def __init__(self, p: int, q: int) -> None:
        self.arr = np.zeros((1 << p, 1 << q))

    def increase(self, r: GridRect, value: float) -> None:
        self.arr[r.a1 : r.a2, r.b1 : r.b2] += value

    def inflate(self, rho: float) -> None:
        mean = self.arr.mean()
        self.arr = rho * self.arr + (1.0 - rho) * mean

    def cost(self, r: GridRect) -> float:
        return float(self.arr[r.a1 : r.a2, r.b1 : r.b2].sum())


def coefficients(field):
    """The bits of every coefficient of ``field`` (times its scale)."""
    coefficient = field.core.coefficient
    return [coefficient(fx, fy).hex() for fx in range(field.n) for fy in range(field.m)]


def intersection(a, b):
    """Corners of the intersection of two half-open ``(x1, y1, x2, y2)``
    rectangles, or None when it is empty (boundary contact is empty)."""
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[2], b[2]), min(a[3], b[3])
    return (x1, y1, x2, y2) if x1 < x2 and y1 < y2 else None


def random_grid_rect(rng, n: int, m: int) -> GridRect:
    a1 = rng.randrange(n)
    a2 = rng.randrange(a1 + 1, n + 1)
    b1 = rng.randrange(m)
    b2 = rng.randrange(b1 + 1, m + 1)
    return GridRect(a1, b1, a2, b2)


def ring_walk(xs, ys, pos):
    """Every lattice point ``(xs[i], ys[j])`` in the legalizer's probe order:
    Manhattan rings of index distance around the point nearest ``pos`` (ties
    to the lower index), each ring by ascending ``i``, ``+dj`` before
    ``-dj``."""

    def nearest(vals, v):
        i = min(bisect_left(vals, v), len(vals) - 1)
        if i > 0 and abs(vals[i - 1] - v) <= abs(vals[i] - v):
            i -= 1
        return i

    ci, cj = nearest(xs, pos[0]), nearest(ys, pos[1])
    for r in range(len(xs) + len(ys) + 1):
        for di in range(-r, r + 1):
            i = ci + di
            rem = r - abs(di)
            for dj in (rem, -rem) if rem else (0,):
                j = cj + dj
                if 0 <= i < len(xs) and 0 <= j < len(ys):
                    yield xs[i], ys[j]


def oracle_free_candidate(xs, ys, pos, half, boxes):
    """``(d, x, y)`` of the first pair of ``xs`` by ``ys`` whose footprint,
    ``half`` the sides around it, meets none of ``boxes``, every pair sorted
    by ``d = |x - x0| + |y - y0|``, then x, then y, and tested in turn."""
    hx, hy = half
    pairs = sorted((abs(x - pos[0]) + abs(y - pos[1]), x, y) for x in xs for y in ys)
    return next(
        ((d, x, y) for d, x, y in pairs
         if not any(intersection((x - hx, y - hy, x + hx, y + hy), b) for b in boxes)),
        None,
    )


def footprint_grid(netlist, placement) -> BucketGrid:
    """Bucket grid of the footprints of every placed macro of the netlist,
    keyed by id, with cells as large as the netlist's largest macro width
    and height."""
    grid = BucketGrid(
        max((m.size_x for m in netlist.macros), default=1.0),
        max((m.size_y for m in netlist.macros), default=1.0),
    )
    for m in netlist.macros:
        if m.id in placement:
            grid.put(m.id, footprint_box(m, placement[m.id]))
    return grid


def oracle_is_legal(placement, netlist, area) -> LegalityReport:
    """``netmodel.is_legal`` as it was before it read a placement store: the
    pairs of a :func:`footprint_grid` of the placement, by one ``hits``
    query per macro in id order."""
    for m in netlist.macros:
        if m.id not in placement:
            raise ValueError(f"macro {m.id!r} has no position")
    grid = footprint_grid(netlist, placement)
    boxes = grid.boxes
    out_of_area = [
        mid
        for mid, (x1, y1, x2, y2) in boxes.items()
        if not (x1 >= 0 and x2 <= area.width and y1 >= 0 and y2 <= area.height)
    ]
    blockage_overlaps = [
        (mid, bi)
        for mid in sorted(boxes)
        for bi, b in enumerate(area.blockages)
        if overlaps(boxes[mid], b)
    ]
    pairs = [(a, b) for a in sorted(boxes) for b in grid.hits(*boxes[a]) if b > a]
    return LegalityReport(out_of_area, pairs, blockage_overlaps)


def oracle_summarize(placement, netlist, area):
    """``io_cli._summarize`` as it was before it read a placement store:
    ``bb_netlength`` of each net added in net order, and the meet of each
    pair of :func:`oracle_is_legal` added from ``0.0``."""
    total_bb = ordered_sum([
        bb_netlength([placement[mid] for mid in net.members]) for net in netlist.nets
    ])
    report = oracle_is_legal(placement, netlist, area)
    overlap = 0.0
    for a, b in report.overlaps:
        ix1, iy1, ix2, iy2 = meet(
            footprint_box(netlist.by_id[a], placement[a]),
            footprint_box(netlist.by_id[b], placement[b]),
        )
        overlap += (ix2 - ix1) * (iy2 - iy1)
    return total_bb, overlap, report.legal


def abut_below(edge, half):
    """The greatest float ``c`` whose footprint edge ``c + half`` rounds to
    at most ``edge``, by bisecting every float from -inf to inf in order
    (``c + half`` is monotone in ``c``); ``-abut_below(-edge, half)`` is the
    least center whose ``c - half`` is at least ``edge``."""
    def float_at(i):  # the i-th float above 0.0, or -i-th below it
        return struct.unpack("<d", struct.pack("<q", i if i >= 0 else -i - 2**63))[0]

    lo, hi = -0x7FF0000000000000, 0x7FF0000000000000  # -inf, inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float_at(mid) + half <= edge:
            lo = mid
        else:
            hi = mid
    return float_at(lo)


def oracle_nearest_legalize(placement, netlist, area):
    """The greedy legalizer by brute force: each macro, by area, then id,
    keeps its clamped start where its footprint meets no placed footprint
    and no keep-out; otherwise it takes the first free pair of every ``(x,
    y)`` candidate pair, sorted by ``|x - x0| + |y - y0|``, then x, then y.
    A candidate coordinate is the start's, a bound, or the center abutting
    an edge of any placed footprint or keep-out (:func:`abut_below`), within
    the bounds.  Each probe tests every box.  Raises
    :class:`LegalizationError` when no pair is free."""
    placed, out = [], {}
    for m in sorted(netlist.macros, key=lambda m: (-m.area, m.id)):
        b = compute_bounds(m, area)
        hx, hy = m.size_x / 2, m.size_y / 2
        x0 = min(max(placement[m.id][0], b.x_min), b.x_max)
        y0 = min(max(placement[m.id][1], b.y_min), b.y_max)
        boxes = placed + list(area.blockages)

        def free(pos):
            fp = footprint_box(m, pos)
            return not any(intersection(fp, o) for o in boxes)

        found = (x0, y0) if free((x0, y0)) else None
        if found is None:
            xs = {x0, b.x_min, b.x_max}
            ys = {y0, b.y_min, b.y_max}
            for o in boxes:
                xs |= {abut_below(o[0], hx), -abut_below(-o[2], hx)}
                ys |= {abut_below(o[1], hy), -abut_below(-o[3], hy)}
            pairs = sorted((abs(x - x0) + abs(y - y0), x, y) for x in xs for y in ys
                           if b.x_min <= x <= b.x_max and b.y_min <= y <= b.y_max)
            found = next(((x, y) for _, x, y in pairs if free((x, y))), None)
        if found is None:
            raise LegalizationError(m.id)
        out[m.id] = found
        placed.append(footprint_box(m, found))
    return out


def oracle_legalize(placement, netlist, area, grid_p, grid_q):
    """The greedy legalizer as it was before its probes skipped anything:
    every probe queries the bucket grid and scans every keep-out, and the
    search covers only the ``2**grid_p`` by ``2**grid_q`` lattice.  Raises
    :class:`LegalizationError` when a macro finds no free lattice point."""
    gx = area.width / (1 << grid_p)
    gy = area.height / (1 << grid_q)
    placed = footprint_grid(netlist, {})

    def lattice(lo, hi, step):
        vals = []
        i = 0
        while lo + i * step < hi:
            vals.append(lo + i * step)
            i += 1
        return vals + [hi]

    def conflict_free(m, pos, b):
        if not (b.x_min <= pos[0] <= b.x_max and b.y_min <= pos[1] <= b.y_max):
            return False
        box = footprint_box(m, pos)
        return not placed.hits(*box) and not any(
            overlaps(box, blk) for blk in area.blockages
        )

    out = {}
    for m in sorted(netlist.macros, key=lambda m: (-m.area, m.id)):
        b = compute_bounds(m, area)
        x, y = placement[m.id]
        x = min(max(x, b.x_min), b.x_max)
        y = min(max(y, b.y_min), b.y_max)
        found = (x, y) if conflict_free(m, (x, y), b) else None
        if found is None:
            xs = lattice(b.x_min, b.x_max, gx)
            ys = lattice(b.y_min, b.y_max, gy)
            found = next(
                (p for p in ring_walk(xs, ys, (x, y)) if conflict_free(m, p, b)),
                None,
            )
        if found is None:
            raise LegalizationError(m.id)
        out[m.id] = found
        placed.put(m.id, footprint_box(m, found))
    return out


def oracle_check_result(netlist, area, result):
    """``io_cli.check_result`` as it was before its sweep: every pair of
    macros tested in ascending id order."""
    lines = []
    inst_ids = sorted(netlist.by_id)
    res_ids = sorted(result.positions)
    if inst_ids != res_ids:
        missing = sorted(set(inst_ids) - set(res_ids))
        extra = sorted(set(res_ids) - set(inst_ids))
        if missing:
            lines.append(f"macros missing from result: {', '.join(missing)}")
        if extra:
            lines.append(f"macros not in instance: {', '.join(extra)}")
        return False, lines

    spans = {}
    for mid in inst_ids:
        m = netlist.by_id[mid]
        x, y = result.positions[mid]
        spans[mid] = (
            x - m.size_x / 2.0,
            x + m.size_x / 2.0,
            y - m.size_y / 2.0,
            y + m.size_y / 2.0,
        )
    legal = True
    for mid, (x1, x2, y1, y2) in spans.items():
        if x1 < 0 or x2 > area.width or y1 < 0 or y2 > area.height:
            lines.append(f"macro {mid} leaves the placement area")
            legal = False
    overlap = 0.0
    for i, mi in enumerate(inst_ids):
        a = spans[mi]
        for mj in inst_ids[i + 1 :]:
            b = spans[mj]
            if (
                max(a[0], b[0]) < min(a[1], b[1])
                and max(a[2], b[2]) < min(a[3], b[3])
            ):
                lines.append(f"macros {mi} and {mj} overlap")
                overlap += (min(a[1], b[1]) - max(a[0], b[0])) * (
                    min(a[3], b[3]) - max(a[2], b[2])
                )
                legal = False
    for mid, a in spans.items():
        for bi, blk in enumerate(area.blockages):
            if (
                max(a[0], blk.x1) < min(a[1], blk.x2)
                and max(a[2], blk.y1) < min(a[3], blk.y2)
            ):
                lines.append(f"macro {mid} overlaps blockage {bi}")
                legal = False

    total = 0.0
    for net in netlist.nets:
        xs = [result.positions[mid][0] for mid in net.members]
        ys = [result.positions[mid][1] for mid in net.members]
        total += max(xs) - min(xs) + max(ys) - min(ys)
    disagreements = []
    if total.hex() != result.netlength_bb.hex():
        disagreements.append(
            f"summary netlength_bb {result.netlength_bb!r} disagrees with "
            f"the recomputed {total!r}"
        )
    if overlap.hex() != result.overlap_area.hex():
        disagreements.append(
            f"summary overlap_area {result.overlap_area!r} disagrees with "
            f"the recomputed {overlap!r}"
        )
    if legal != result.legal:
        disagreements.append(
            f"summary legal {'true' if result.legal else 'false'} disagrees "
            f"with the recomputed {'true' if legal else 'false'}"
        )
    lines += disagreements
    lines.append(f"total bounding-box netlength: {total!r}")
    lines.append(f"legal: {'true' if legal else 'false'}")
    return legal and not disagreements, lines


def oracle_nets(spec, macro_ids):
    """The members of each net ``generate_instance(spec)`` draws over the
    macros ``macro_ids``, the ids under the degree cap sorted anew for every
    net (quadratic); the rng first replays the two size draws per macro.
    Raises the generator's ``ValueError`` where the cap leaves fewer than 2
    macros."""
    rng = random.Random(spec.seed)
    for _ in range(2 * len(macro_ids)):
        rng.uniform(spec.size_min, spec.size_max)
    degrees = [d for d, _ in spec.degree_weights]
    weights = [w for _, w in spec.degree_weights]
    wsum = ordered_sum(weights)
    load = dict.fromkeys(macro_ids, 0)
    nets = []
    for _ in range(spec.nets):
        r = rng.random() * wsum
        acc = 0.0
        deg = degrees[-1]
        for d, w in zip(degrees, weights):
            acc += w
            if r < acc:
                deg = d
                break
        candidates = sorted(mid for mid, c in load.items() if c < spec.degree_cap)
        if len(candidates) < 2:
            raise ValueError(
                "infeasible spec: degree cap leaves fewer than 2 macros available"
            )
        members = sorted(rng.sample(candidates, min(deg, len(candidates))))
        for mid in members:
            load[mid] += 1
        nets.append(tuple(members))
    return nets


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """One flag per :class:`PlacerConfig` field, stored under its name."""
    sub.add_argument("--rounds", dest="max_rounds", metavar="ROUNDS", type=int,
                     help="number of rounds (max_rounds)")
    sub.add_argument("--candidates", dest="candidates_per_round",
                     metavar="CANDIDATES", type=int,
                     help="candidate positions per round")
    sub.add_argument("--grid-p", dest="grid_p", type=int, help="x grid exponent")
    sub.add_argument("--grid-q", dest="grid_q", type=int, help="y grid exponent")
    sub.add_argument("--penalty-c", dest="penalty_c", type=float)
    sub.add_argument("--delta0", dest="delta0", type=float,
                     help="penalty multiplier base")
    sub.add_argument("--delta-growth", dest="delta_growth", type=float)
    sub.add_argument("--w0", dest="w0", type=float, help="field increment base")
    sub.add_argument("--w-growth", dest="w_growth", type=float)
    sub.add_argument("--rho", dest="inflation_rho", metavar="RHO", type=float,
                     help="field inflation factor per round")
    sub.add_argument("--blockage-weight", dest="blockage_weight", type=float)
    sub.add_argument("--seed", dest="seed", type=int)
    sub.add_argument("--model-switch-round", dest="model_switch_round", type=int)
    sub.add_argument(
        "--config", help="JSON file with PlacerConfig fields (flags take precedence)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser ``io_cli.main`` built before its flag table: its
    ``parse_args`` exits 2 on a usage error and 0 after printing help."""
    parser = argparse.ArgumentParser(
        prog="stepplace",
        description="Macro placement on a fast 2D step-function cost field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_place = sub.add_parser("place", help="run the placer on an instance")
    p_place.add_argument("--in", dest="infile", required=True, help="instance file")
    p_place.add_argument("--out", required=True, help="result file")
    p_place.add_argument("--stats", help="write per-round statistics CSV here")
    p_place.add_argument(
        "--skip-legalize",
        action="store_true",
        help="keep the raw global placement (may contain overlaps)",
    )
    _add_config_flags(p_place)
    p_place.set_defaults(func=io_cli._cmd_place)

    p_check = sub.add_parser("check", help="independently verify a result file")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--result", required=True)
    p_check.set_defaults(func=io_cli._cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--macros", type=int, required=True)
    p_gen.add_argument("--nets", type=int, required=True)
    p_gen.add_argument("--size-min", dest="size_min", type=float, default=2.0)
    p_gen.add_argument("--size-max", dest="size_max", type=float, default=5.0)
    p_gen.add_argument("--utilization", type=float, default=0.5)
    p_gen.add_argument(
        "--degree-weights",
        dest="degree_weights",
        default="2:0.75,3:0.2,4:0.05",
        help="comma-separated degree:weight pairs",
    )
    p_gen.add_argument("--degree-cap", dest="degree_cap", type=int, default=10)
    p_gen.add_argument("--aspect", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=io_cli._cmd_gen)

    p_render = sub.add_parser("render", help="draw an instance/result as SVG")
    p_render.add_argument("--instance", required=True)
    p_render.add_argument("--result", help="take positions from this result file")
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=io_cli._cmd_render)

    return parser


def _safe_upper(span, half):
    hi = span - half
    while hi + half > span:
        hi = math.nextafter(hi, -math.inf)
    return hi


def oracle_bounds(netlist, area):
    """``Netlist.bounds`` as ``compute_bounds`` found each macro's bounds
    before the one pass: every call checks each macro in id order by
    ``check_placeable``, which takes the ulp anew, and keeps nothing."""
    out = array("d")
    for mid in sorted(netlist.by_id):
        m = netlist.by_id[mid]
        check_placeable(m, area)
        hx, hy = m.size_x / 2.0, m.size_y / 2.0
        out.extend((hx, max(_safe_upper(area.width, hx), hx),
                    hy, max(_safe_upper(area.height, hy), hy)))
    return out


def oracle_placement_store(netlist, area, centers, field=None, bounds=None,
                           blockage_weight=0.0):
    """``netmodel.placement_store`` as it was before the netlist kept the
    store inputs: each call sorts the ids and builds the half-sizes, the
    largest sizes and the nets' index lists anew."""
    ids = sorted(netlist.by_id)
    key = {mid: k for k, mid in enumerate(ids)}
    macros = [netlist.by_id[mid] for mid in ids]
    return stepfield.core.PlacementStore(
        stepfield.CostField(0, 0) if field is None else field, area.width, area.height,
        max((m.size_x for m in macros), default=1.0),
        max((m.size_y for m in macros), default=1.0),
        array("d", [v for m in macros for v in (m.size_x / 2.0, m.size_y / 2.0)]),
        centers, array("d", bytes(32 * len(ids))) if bounds is None else bounds,
        [[key[mid] for mid in net.members] for net in netlist.nets],
        array("d", [v for b in area.blockages for v in b]), blockage_weight,
    )


def _nan_message(mid, pos):
    x, y = pos
    return f"macro {mid!r} has a NaN position ({x!r}, {y!r})" if x != x or y != y else None


def oracle_legalize_refusal(placement, netlist, area):
    """The message of the ``ValueError`` ``naive_legalize`` raises, or None:
    the first macro, by area (largest first), then id, without a position,
    that ``check_placeable`` refuses, or with a NaN position, in that order
    per macro."""
    for m in sorted(netlist.macros, key=lambda m: (-m.area, m.id)):
        if m.id not in placement:
            return f"macro {m.id!r} has no position"
        try:
            check_placeable(m, area)
        except ValueError as e:
            return str(e)
        if nan := _nan_message(m.id, placement[m.id]):
            return nan
    return None


def oracle_state_refusal(netlist, area, initial):
    """The message of the ``ValueError`` ``new_state`` raises, or None: the
    first macro in id order that ``check_placeable`` refuses, else an
    initial position for an unknown macro, else the first NaN initial
    position in id order."""
    for mid in sorted(netlist.by_id):
        try:
            check_placeable(netlist.by_id[mid], area)
        except ValueError as e:
            return str(e)
    for mid in initial:
        if mid not in netlist.by_id:
            return f"initial position for unknown macro {mid!r}"
    return next((_nan_message(mid, initial[mid]) for mid in sorted(netlist.by_id)
                 if mid in initial and _nan_message(mid, initial[mid])), None)
