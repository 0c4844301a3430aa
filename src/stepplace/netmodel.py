"""Netlists, placements, geometry, legality, and net-length models.

Coordinates are real placement-area units with the origin at the lower-left
corner of the area.  Every macro's pins sit at its center, so net models
operate on macro centers.  Occupied regions are half-open rectangles
``(x1, x2] x (y1, y2]``: two macros may share a boundary without overlapping.

All functions here are pure but for what they keep (``Netlist.bounds``,
a :class:`KeptPlacement`'s store), which a concurrent call at worst builds
again; a placement passed in is treated as an immutable snapshot.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

Point = tuple[float, float]
Placement = dict[str, Point]

#: Largest accepted grid exponent per axis (resource guard: the field's
#: coefficients are one dense array, so an axis pair (p, q) allocates
#: 2**(p+q) doubles at construction, 32 MiB at the cap).
MAX_GRID_EXPONENT = 11


def ordered_sum(values: Iterable) -> float | int:
    """Builtin ``sum(values)`` as Python 3.11 adds floats: left to right
    (3.12 compensates), ``0`` when there is nothing to sum."""
    return functools.reduce(operator.add, values, 0)


class Rect(NamedTuple):
    """Axis-parallel rectangle ``(x1, x2] x (y1, y2]``: a :data:`Box` with
    named fields, for parsed input such as blockages."""

    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True)
class Macro:
    """Rigid rectangular block; its position is the position of its center."""

    id: str
    size_x: float
    size_y: float

    def __post_init__(self) -> None:
        # U+0020 is the one printable whitespace character
        if not self.id or not self.id.isprintable() or " " in self.id:
            raise ValueError(
                f"macro id must be non-empty and printable without whitespace: "
                f"{self.id!r}"
            )
        if not (self.size_x > 0 and self.size_y > 0):
            raise ValueError(f"macro {self.id}: sizes must be positive")

    @property
    def area(self) -> float:
        return self.size_x * self.size_y


@dataclass(frozen=True)
class Net:
    """Hyperedge over at least two distinct macros."""

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(f"net {self.members!r} needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"net {self.members!r} has duplicate members")


@dataclass
class Netlist:
    """Macros plus the hypergraph of nets connecting them, read as immutable
    once built.  Construction builds what every :func:`placement_store` of it
    reads: ``ids`` (sorted: a macro's index is its place), ``halves`` (``hx,
    hy`` per macro, as :func:`footprint_box` halves the sizes), ``largest``
    (the largest sides, 1.0 without macros), ``net_keys`` (member indices)."""

    macros: list[Macro]
    nets: list[Net]
    by_id: dict[str, Macro] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_id = self.by_id = {}
        for m in self.macros:
            if m.id in by_id:
                raise ValueError(f"duplicate macro id {m.id!r}")
            by_id[m.id] = m
        self.ids = sorted(by_id)
        index = {mid: k for k, mid in enumerate(self.ids)}
        try:  # the members' walk, which finds an unknown one
            self.net_keys = [operator.itemgetter(*net.members)(index) for net in self.nets]
        except KeyError as e:
            net = next(n for n in self.nets if e.args[0] in n.members)
            raise ValueError(
                f"net {net.members!r} references unknown macro {e.args[0]!r}") from None
        sizes = array("d", [v for m in map(by_id.get, self.ids) for v in (m.size_x, m.size_y)])
        self.halves = array("d", [v / 2.0 for v in sizes])
        self.largest = max(sizes[0::2], default=1.0), max(sizes[1::2], default=1.0)
        self._bounds: dict[tuple[float, float], array] = {}

    @property
    def total_macro_area(self) -> float:
        return ordered_sum([m.area for m in self.macros])

    def bounds(self, area: PlacementArea) -> array:
        """Each macro's center bounds ``x_min, x_max, y_min, y_max`` in the
        area, by index: one pass that checks each by :func:`check_placeable`
        (one ``math.ulp``) and bounds it, kept per area size, so that the
        parser, ``new_state`` and ``naive_legalize`` share it."""
        w, h = area.width, area.height
        got = self._bounds.get((w, h))
        if got is None:
            ulp = math.ulp(max(w, h))
            for mid in self.ids:
                check_placeable(self.by_id[mid], area, ulp)
            it = iter(self.halves)  # the lower bound is exact: hx - hx == 0
            got = self._bounds[w, h] = array("d", [v for hx, hy in zip(it, it) for v in (
                hx, w - hx if (w - hx) + hx <= w else _upper(w, hx),
                hy, h - hy if (h - hy) + hy <= h else _upper(h, hy))])
        return got


#: Smallest side of a placement area: a grid cell is the side over up to
#: ``2**MAX_GRID_EXPONENT``, which is exact (a normal float) from here up, so
#: grid snapping never leaves the grid.
MIN_AREA_SIDE = math.ldexp(sys.float_info.min, MAX_GRID_EXPONENT)


@dataclass(frozen=True)
class PlacementArea:
    """Placement rectangle ``[0, width] x [0, height]`` with keep-out blockages;
    each side must be finite and at least :data:`MIN_AREA_SIDE`, and each
    blockage a non-empty rectangle inside the area."""

    width: float
    height: float
    blockages: tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        for name, side in (("width", self.width), ("height", self.height)):
            if not math.isfinite(side):
                raise ValueError(f"placement area {name} must be finite: {side!r}")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("placement area must have positive size")
        if not (self.width >= MIN_AREA_SIDE and self.height >= MIN_AREA_SIDE):
            raise ValueError(
                f"placement area {self.width!r} x {self.height!r} is too small: "
                f"each side must be at least {MIN_AREA_SIDE!r}"
            )
        for x1, y1, x2, y2 in self.blockages:
            if not (0 <= x1 < x2 <= self.width and 0 <= y1 < y2 <= self.height):
                raise ValueError(
                    f"blockage {x1!r} {y1!r} {x2!r} {y2!r} is empty or outside "
                    f"the placement area [0, {self.width!r}] x [0, {self.height!r}]"
                )


def check_placeable(macro: Macro, area: PlacementArea, ulp: float | None = None) -> None:
    """Raise ``ValueError`` naming the macro unless it fits the area and its
    half sides exceed one ulp of the area's larger side (``ulp``, computed
    here if None), so that its footprint has distinct edges wherever its
    center lies in the area."""
    w, h = area.width, area.height
    sx, sy = macro.size_x, macro.size_y
    if sx > w or sy > h:
        raise ValueError(f"macro {macro.id} ({sx!r} x {sy!r}) does not fit the "
                         f"{w!r} x {h!r} area")
    if ulp is None:
        ulp = math.ulp(max(w, h))
    if not min(sx, sy) / 2.0 > ulp:
        raise ValueError(f"macro {macro.id} is too small for a {w!r} x {h!r} area: "
                         f"its half-size must exceed {ulp!r}")


def _upper(span: float, half: float) -> float:
    """Largest center, but at least ``half``, whose footprint edge stays at or
    below ``span``: ``(span - half) + half`` can round one ulp past ``span``;
    addition is monotone, so nudging it down fixes every smaller center too."""
    hi = span - half
    while hi + half > span:
        hi = math.nextafter(hi, -math.inf)
    return max(hi, half)


Box = tuple[float, float, float, float]  # (x1, y1, x2, y2), as a Rect


def footprint_box(macro: Macro, pos: Point) -> Box:
    """Corners of the region occupied by a macro centered at ``pos``."""
    x, y = pos
    hx = macro.size_x / 2.0
    hy = macro.size_y / 2.0
    return (x - hx, y - hy, x + hx, y + hy)


def meet(a: Box, b: Box) -> Box:
    """Intersection corners of two boxes; positive-area only if they overlap.
    Half-open semantics make boundary contact empty."""
    return (max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3]))


def overlaps(a: Box, b: Box) -> bool:
    """Whether two boxes share an interior point (positive-area meet)."""
    x1, y1, x2, y2 = meet(a, b)
    return x1 < x2 and y1 < y2


class BucketGrid:
    """Spatial hash of macro footprints answering "which macros overlap this
    rectangle".

    Each footprint is stored, keyed by macro id (or by any ordered key, such
    as the placer's macro index), under every cell
    ``(floor(x / cell_x), floor(y / cell_y))`` its closed extent touches.  Two
    boxes sharing an interior point share the cell of that point, so the
    buckets yield a superset of the overlapping boxes and an exact half-open
    test (the one of :func:`overlaps`) filters it: the cell size affects
    speed only, never results.  With cells as large as the largest macro, a
    footprint query visits at most 2x2 cells.  ``grid[key]`` is the box
    stored under ``key``.  It indexes ``_pycore``'s placement store and the
    footprints its ``legalize`` places, the reference of the C core's,
    whose C index of the same design finds the same keys in the same order;
    so a run on the C core, legality and the result summary included
    (:func:`store_and_report`), builds none.
    """

    def __init__(self, cell_x: float, cell_y: float) -> None:
        self.cell_x = cell_x
        self.cell_y = cell_y
        self.boxes: dict = {}
        self.cells: dict[tuple[int, int], set] = {}

    def __getitem__(self, key) -> Box:
        return self.boxes[key]

    def put(self, key, box: Box) -> None:
        """Insert ``key`` with footprint ``box``, or move it there."""
        cells = self.cells
        cx, cy = self.cell_x, self.cell_y
        old = self.boxes.get(key)
        if old is not None:
            x1, y1, x2, y2 = old
            ys = range(math.floor(y1 / cy), math.floor(y2 / cy) + 1)
            for i in range(math.floor(x1 / cx), math.floor(x2 / cx) + 1):
                for j in ys:
                    cells[i, j].discard(key)
        self.boxes[key] = box
        x1, y1, x2, y2 = box
        ys = range(math.floor(y1 / cy), math.floor(y2 / cy) + 1)
        for i in range(math.floor(x1 / cx), math.floor(x2 / cx) + 1):
            for j in ys:
                bucket = cells.get((i, j))
                if bucket is None:
                    cells[i, j] = {key}
                else:
                    bucket.add(key)

    def hits(self, x1: float, y1: float, x2: float, y2: float) -> list:
        """Keys whose box meets the query with positive area, ascending."""
        cells = self.cells
        cx, cy = self.cell_x, self.cell_y
        ys = range(math.floor(y1 / cy), math.floor(y2 / cy) + 1)
        cand: set = set()
        for i in range(math.floor(x1 / cx), math.floor(x2 / cx) + 1):
            for j in ys:
                bucket = cells.get((i, j))
                if bucket:
                    cand |= bucket
        boxes = self.boxes
        out = []
        for key in cand:
            bx1, by1, bx2, by2 = boxes[key]
            # max(..) < min(..) per axis, written out to skip the calls
            if (bx1 if bx1 > x1 else x1) < (bx2 if bx2 < x2 else x2) and (
                by1 if by1 > y1 else y1
            ) < (by2 if by2 < y2 else y2):
                out.append(key)
        out.sort()
        return out


@dataclass
class LegalityReport:
    """All legality violations of a total placement."""

    out_of_area: list[str]
    overlaps: list[tuple[str, str]]
    blockage_overlaps: list[tuple[str, int]]

    @property
    def legal(self) -> bool:
        return not (self.out_of_area or self.overlaps or self.blockage_overlaps)


def placement_store(netlist: Netlist, area: PlacementArea, centers: array, field=None,
                    bounds: array | None = None, blockage_weight: float = 0.0):
    """``stepfield.core``'s ``PlacementStore`` of the netlist in the area,
    keyed by index in sorted ids, with ``centers`` (``bounds``) holding ``x,
    y`` (``x_min, x_max, y_min, y_max``) per macro, the area's keep-outs and
    footprint cells as large as the largest macro (a footprint touches at
    most 2x2).  By default its field is a ``CostField(0, 0)`` and its bounds
    and keep-out weight zero: a store to read footprints, pairs and totals
    from, which runs no round.  Every call reads the store inputs the
    netlist built once (see :class:`Netlist`)."""
    from stepplace import stepfield  # not at the top: stepfield imports this module

    return stepfield.core.PlacementStore(
        stepfield.CostField(0, 0) if field is None else field, area.width, area.height,
        *netlist.largest, netlist.halves, centers,
        array("d", bytes(32 * len(netlist.ids))) if bounds is None else bounds,
        netlist.net_keys, array("d", [v for b in area.blockages for v in b]), blockage_weight,
    )


class KeptPlacement(dict):
    """A placement that keeps the store and report :func:`store_and_report`
    built of it, with the netlist, the area and a copy of the dict they were
    built for (``kept``): a later call for that netlist and area gets them
    back while the dict still equals that copy, and builds anew once not."""


def store_and_report(placement: Placement, netlist: Netlist, area: PlacementArea):
    """The :func:`placement_store` of a total placement and its
    :func:`is_legal` report, whose pairs are the store's as it lists them
    after construction: ascending by index, so by id.  A macro without a
    position, or with a non-finite one, raises ``ValueError`` naming it
    before any store is built.  A :class:`KeptPlacement` keeps both, so that
    the summary of ``naive_legalize``'s result reads its legality check's."""
    kept = getattr(placement, "kept", None)
    if kept and kept[0] is netlist and kept[1] is area and placement == kept[2]:
        return kept[3], kept[4]
    w, h, out_of_area = area.width, area.height, []
    for m in netlist.macros:
        if m.id not in placement:
            raise ValueError(f"macro {m.id!r} has no position")
        x, y = placement[m.id]
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"macro {m.id!r} has a non-finite position ({x!r}, {y!r})")
        hx, hy = m.size_x / 2.0, m.size_y / 2.0
        if not (x - hx >= 0 and x + hx <= w and y - hy >= 0 and y + hy <= h):
            out_of_area.append(m.id)
    ids = netlist.ids
    store = placement_store(netlist, area, array("d", [v for m in ids for v in placement[m]]))
    blocked = [(mid, bi) for i, mid in enumerate(ids) for bi, b in enumerate(area.blockages)
               if overlaps(store.box(i), b)] if area.blockages else []
    pairs = [(ids[i], ids[j]) for i, j, _ in store.pairs()]
    report = LegalityReport(out_of_area, pairs, blocked)
    if isinstance(placement, KeptPlacement):
        placement.kept = (netlist, area, dict(placement), store, report)
    return store, report


def is_legal(
    placement: Placement, netlist: Netlist, area: PlacementArea
) -> LegalityReport:
    """Check the three legality conditions: inside the area, pairwise
    disjoint, disjoint from every blockage.  Half-open footprints make
    edge-to-edge contact legal.  The report lists the macros outside the
    area in the netlist's order, the overlapping pairs ``(a, b)``, ``a <
    b``, ascending, and each overlap ``(macro, keep-out index)`` by id, then
    keep-out; its pairs are a placement store's (:func:`store_and_report`)."""
    return store_and_report(placement, netlist, area)[1]


def bb_netlength(points: list[Point]) -> float:
    """Half-perimeter of the bounding box of the pin positions."""
    if len(points) < 2:
        raise ValueError("a net needs at least 2 pins")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return max(xs) - min(xs) + max(ys) - min(ys)


def _lse_axis(vals: list[float], alpha: float) -> float:
    # alpha*log(sum(exp(v/alpha))) + alpha*log(sum(exp(-v/alpha))), max-shifted;
    # summed left to right (builtin sum compensates since Python 3.12), as
    # the C placement store's score does
    hi = max(vals)
    lo = min(vals)
    sp = sn = 0.0
    for v in vals:
        sp += math.exp((v - hi) / alpha)
        sn += math.exp((lo - v) / alpha)
    pos = alpha * math.log(sp) + hi
    neg = alpha * math.log(sn) - lo
    return pos + neg


def lse_netlength(points: list[Point], alpha: float) -> float:
    """Log-sum-exp smoothing of the bounding-box length.

    Always at least the bounding-box length and converges to it as ``alpha``
    shrinks (gap at most ``2*alpha*log(len(points))`` per axis).
    """
    if len(points) < 2:
        raise ValueError("a net needs at least 2 pins")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return _lse_axis([p[0] for p in points], alpha) + _lse_axis(
        [p[1] for p in points], alpha
    )


def nl_netlength(dx: float, dy: float, beta: float) -> float:
    """Smoothed absolute length of a 2-pin edge with coordinate differences
    ``(dx, dy)``: ``(1/beta)*log(exp(beta*d) + exp(-beta*d))`` per axis.

    Overflow-safe; approaches ``|dx| + |dy|`` as ``beta`` grows, with error
    at most ``2*log(2)/beta``.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")

    def axis(d: float) -> float:
        a = abs(beta * d)
        return (a + math.log1p(math.exp(-2.0 * a))) / beta

    return axis(dx) + axis(dy)


def model_length(points: list[Point], beta: float | None) -> float:
    """Length of a pin set as the placer scores it.

    ``beta=None`` is the exact bounding box.  Otherwise the smoothed regime:
    2-pin nets use the exponential edge smoothing with sharpness ``beta``;
    larger nets fall back to log-sum-exp with ``alpha = 1/beta`` (the edge
    formula's convergence to the bounding box only holds per coordinate
    difference, i.e. for 2-pin nets).
    """
    if beta is None:
        return bb_netlength(points)
    if len(points) == 2:
        (x1, y1), (x2, y2) = points
        return nl_netlength(x1 - x2, y1 - y2, beta)
    return lse_netlength(points, 1.0 / beta)
