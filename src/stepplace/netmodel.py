"""Netlists, placements, geometry, legality, and net-length models.

Coordinates are real placement-area units with the origin at the lower-left
corner of the area.  Every macro's pins sit at its center, so net models
operate on macro centers.  Occupied regions are half-open rectangles
``(x1, x2] x (y1, y2]``: two macros may share a boundary without overlapping.

All functions here are pure; a placement passed in is treated as an
immutable snapshot, so concurrent evaluation is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from stepplace.stepfield import MAX_GRID_EXPONENT, ordered_sum

Point = tuple[float, float]
Placement = dict[str, Point]


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
        if not self.id or not self.id.isprintable() or any(c.isspace() for c in self.id):
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
    """Macros plus the hypergraph of nets connecting them."""

    macros: list[Macro]
    nets: list[Net]
    by_id: dict[str, Macro] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_id = {}
        for m in self.macros:
            if m.id in self.by_id:
                raise ValueError(f"duplicate macro id {m.id!r}")
            self.by_id[m.id] = m
        for net in self.nets:
            for mid in net.members:
                if mid not in self.by_id:
                    raise ValueError(
                        f"net {net.members!r} references unknown macro {mid!r}"
                    )

    @property
    def total_macro_area(self) -> float:
        return ordered_sum([m.area for m in self.macros])


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


def check_placeable(macro: Macro, area: PlacementArea) -> None:
    """Raise ``ValueError`` naming the macro unless it fits the area and its
    half sides exceed one ulp of the area's larger side, so that its
    footprint has distinct edges wherever its center lies in the area."""
    w, h = area.width, area.height
    sx, sy = macro.size_x, macro.size_y
    if sx > w or sy > h:
        raise ValueError(f"macro {macro.id} ({sx!r} x {sy!r}) does not fit the "
                         f"{w!r} x {h!r} area")
    ulp = math.ulp(max(w, h))
    if not min(sx, sy) / 2.0 > ulp:
        raise ValueError(f"macro {macro.id} is too small for a {w!r} x {h!r} area: "
                         f"its half-size must exceed {ulp!r}")


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
    speed only, never results.  With cells as large as the largest macro
    (:func:`footprint_grid`), a footprint query visits at most 2x2 cells.
    ``grid[key]`` is the box stored under ``key``.  The C core's
    ``PlacementStore`` keeps its footprints in a C index of the same design,
    whose overlap queries find the same keys in the same order, and so does
    its legalizer's ``FreeSpace``.
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

    def first_hit(self, x1: float, y1: float, x2: float, y2: float) -> Box | None:
        """Box of the least key that meets the query with positive area in
        the first cell holding one, the cells taken by column, then by row;
        None if none."""
        cells, boxes = self.cells, self.boxes
        cx, cy = self.cell_x, self.cell_y
        ys = range(math.floor(y1 / cy), math.floor(y2 / cy) + 1)
        for i in range(math.floor(x1 / cx), math.floor(x2 / cx) + 1):
            for j in ys:
                best = None
                for key in cells.get((i, j), ()):
                    bx1, by1, bx2, by2 = boxes[key]
                    if (bx1 if bx1 > x1 else x1) < (bx2 if bx2 < x2 else x2) and (
                        by1 if by1 > y1 else y1
                    ) < (by2 if by2 < y2 else y2) and (best is None or key < best):
                        best = key
                if best is not None:
                    return boxes[best]
        return None

    def pairs(self) -> list[tuple]:
        """Every overlapping pair ``(a, b)`` with ``a < b``, in ascending order."""
        boxes = self.boxes
        return [
            (a, b) for a in sorted(boxes) for b in self.hits(*boxes[a]) if b > a
        ]


def footprint_grid(netlist: Netlist, placement: Placement) -> BucketGrid:
    """Bucket grid of the footprints of every placed macro of the netlist,
    with cells as large as the netlist's largest macro width and height."""
    grid = BucketGrid(
        max((m.size_x for m in netlist.macros), default=1.0),
        max((m.size_y for m in netlist.macros), default=1.0),
    )
    for m in netlist.macros:
        if m.id in placement:
            grid.put(m.id, footprint_box(m, placement[m.id]))
    return grid


@dataclass
class LegalityReport:
    """All legality violations of a total placement."""

    out_of_area: list[str]
    overlaps: list[tuple[str, str]]
    blockage_overlaps: list[tuple[str, int]]

    @property
    def legal(self) -> bool:
        return not (self.out_of_area or self.overlaps or self.blockage_overlaps)


def is_legal(
    placement: Placement, netlist: Netlist, area: PlacementArea
) -> LegalityReport:
    """Check the three legality conditions: inside the area, pairwise
    disjoint, disjoint from every blockage.  Half-open footprints make
    edge-to-edge contact legal."""
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
    return LegalityReport(out_of_area, grid.pairs(), blockage_overlaps)


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


def beta_schedule(rnd: int, max_rounds: int) -> float:
    """Smoothing sharpness for a 1-based round: rises from 1 to max_rounds."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if not 1 <= rnd <= max_rounds:
        raise ValueError(f"round {rnd} outside [1, {max_rounds}]")
    return max_rounds / (max_rounds - rnd + 1)


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
