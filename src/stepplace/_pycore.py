"""The Python core: the exports of the C core ``_fieldcore``, in plain Python.

:class:`FieldCore` (the field's coefficients), :class:`PlacementStore` (the
placer's placement with its draw, score, commit and round, and ``step``,
the placer's whole round; its unbound ``score`` is the placer's scoring
hook), :func:`legalize` (the legalizer's placing loop with its nearest-free
search) and :func:`repr_line` (the file writers' lines) answer as the C
core's do, bit for bit.  ``stepfield.core`` is this module where the C core
did not load.  ``stepfield`` and ``placer`` import the helpers these share
(the basis arithmetic, :func:`snap_to_grid`, :func:`move_macro`,
:func:`first_min`, :func:`penalty`, and the round's :class:`Schedule`,
:func:`grown` and :func:`schedules`) under the same names.  This module
imports only :mod:`stepplace.netmodel`, so no import cycle forms.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from stepplace.netmodel import (
    Box,
    BucketGrid,
    PlacementArea,
    Point,
    bb_netlength,
    meet,
    model_length,
    ordered_sum,
    overlaps,
)

if TYPE_CHECKING:
    from stepplace.stepfield import CostField

__all__ = ["FieldCore", "PlacementStore", "legalize", "repr_line"]


class GridRect(NamedTuple):
    """Half-open cell rectangle ``[a1, a2) x [b1, b2)``; :class:`CostField`
    rejects it if degenerate or out of the grid (``ValueError``), or if an
    index is not an integer (``TypeError``)."""

    a1: int
    b1: int
    a2: int
    b2: int


def blocks_at_level(p: int, a: int) -> int:
    """Number of valid block indexes k at axis level a (1-based blocks)."""
    if not 0 <= a <= p:
        raise ValueError(f"level {a} out of range for exponent {p}")
    if a == p:
        return 1
    return 1 << (p - a - 1)


def flat_axis_id(p: int, a: int, k: int) -> int:
    """Dense position of axis element (a, k) in [0, 2**p); all-ones is last."""
    if not 1 <= k <= blocks_at_level(p, a):
        raise ValueError(f"block {k} out of range at level {a} (exponent {p})")
    n = 1 << p
    if a == p:
        return n - 1
    return n - (n >> a) + (k - 1)


def nonzero_basis_1d(s: int, t: int, p: int) -> list[tuple[int, int, float]]:
    """All 1D basis elements not orthogonal to the indicator of cells [s, t).

    Returns ``(level a, block k, inner product)`` triples, the all-ones
    element last with inner product ``t - s``.  At most ``2p + 1`` entries.
    """
    n = 1 << p
    if not 0 <= s < t <= n:
        raise ValueError(f"invalid cell interval [{s}, {t}) for n={n}")
    out: list[tuple[int, int, float]] = []
    for a in range(p):
        span2 = 2 << a
        ks = (s + span2 - 1) // span2 if s > 0 else 0
        kt = (t + span2 - 1) // span2
        if ks:
            lo = (2 * ks - 2) << a
            hi = (2 * ks) << a
            v = -min(s - lo, hi - s)
            if kt == ks:
                v += min(t - lo, hi - t)
            if v:
                out.append((a, ks, float(v)))
        if kt != ks:
            lo = (2 * kt - 2) << a
            hi = (2 * kt) << a
            v = min(t - lo, hi - t)
            if v:
                out.append((a, kt, float(v)))
    out.append((p, 1, float(t - s)))
    return out


#: Most cell intervals :func:`_axis_block` keeps (an axis at exponent 11 has
#: about two million).
AXIS_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=AXIS_CACHE_SIZE)
def _axis_block(s: int, t: int, p: int) -> tuple[tuple, tuple, tuple]:
    """The nonzero 1D components of the indicator of cells [s, t) at exponent
    ``p``, as the C core's ``axis_components`` writes them: their flat axis
    ids, inner products, and the reciprocals of the elements' squared norms.
    Memoized for the most recent :data:`AXIS_CACHE_SIZE` intervals."""
    comps = nonzero_basis_1d(s, t, p)
    ids = tuple(flat_axis_id(p, a, k) for a, k, _ in comps)
    stars = tuple(v for _, _, v in comps)
    inv_norms = tuple(1.0 / (2 << a if a < p else 1 << p) for a, _, _ in comps)
    return ids, stars, inv_norms


#: Smallest scale the field cores keep apart from the coefficients; below it
#: ``inflate`` folds the scale into every coefficient.
FOLD_BELOW = 2.0**-32

#: Largest ``|value / scale|`` an ``increase`` stores while the scale is below
#: 1; above it the scale is folded in first, so that neither the stored
#: coefficients nor a read overflow where the field's values do not (the
#: bound is derived beside the C core's ``FOLD_ABOVE``).
FOLD_ABOVE = 2.0**800


class FieldCore:
    """Python core with the same interface as the C core, doing the same
    float operations in the same order, so both return the same bits.

    ``increase``'s ``value`` and ``inflate``'s ``rho`` are read as the C
    core's ``"d"`` format reads them, as ``math.ldexp(v, 0)`` reads ``v``:
    by ``__float__``, else ``__index__``, else ``TypeError`` (a NumPy
    float32 becomes a float, a ``str`` is refused)."""

    def __init__(self, p: int, q: int) -> None:
        self.p = p
        self.q = q
        self.n = 1 << p
        self.m = 1 << q
        self._coef = [0.0] * (self.n * self.m)
        self._scale = 1.0  # every stored coefficient omits this factor
        self.last_touched = 0

    def _blocks(self, a1: int, b1: int, a2: int, b2: int):
        """The rectangle's x and y :func:`_axis_block`, once it passed the C
        core's checks; records ``last_touched``."""
        for v in (a1, b1, a2, b2):
            operator.index(v)  # TypeError on non-integers, as the C core's "n"
        if not (0 <= a1 < a2 <= self.n and 0 <= b1 < b2 <= self.m):
            raise ValueError(
                f"rectangle ({a1},{b1})-({a2},{b2}) invalid for "
                f"{self.n}x{self.m} grid"
            )
        bx, by = _axis_block(a1, a2, self.p), _axis_block(b1, b2, self.q)
        self.last_touched = len(bx[0]) * len(by[0])
        return bx, by

    def _fold(self, s: float) -> None:
        """Multiply every non-constant coefficient by ``s`` and the constant
        one by the scale, then reset the scale to 1."""
        const = self._coef[-1] * self._scale
        # a zero keeps its bits (and its shared object) times s >= 0
        self._coef = [c * s if c else c for c in self._coef]
        self._coef[-1] = const
        self._scale = 1.0

    def increase(self, a1: int, b1: int, a2: int, b2: int, value: float) -> None:
        value = math.ldexp(value, 0)
        (ix, sx, nx), (iy, sy, ny) = self._blocks(a1, b1, a2, b2)
        v = value / self._scale
        if self._scale < 1.0 and abs(v) > FOLD_ABOVE:
            # a value too large over the scale takes the scale folded in first
            self._fold(self._scale)
            v = value / self._scale
        coef, m = self._coef, self.m
        wy = [s * r for s, r in zip(sy, ny)]
        for fx, s, r in zip(ix, sx, nx):
            vx = s * r * v
            row = fx * m
            for fy, w in zip(iy, wy):
                coef[row + fy] += vx * w

    def cost(self, a1: int, b1: int, a2: int, b2: int) -> float:
        (ix, sx, _), (iy, sy, _) = self._blocks(a1, b1, a2, b2)
        coef, m = self._coef, self.m
        tot = 0.0
        for fx, s in zip(ix, sx):
            row = fx * m
            sub = 0.0
            for fy, t in zip(iy, sy):
                sub += coef[row + fy] * t
            tot += sub * s
        return tot * self._scale

    def inflate(self, rho: float) -> None:
        rho = math.ldexp(rho, 0)
        if not 0.0 < rho <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        s = self._scale * rho
        if s < FOLD_BELOW or abs(self._coef[-1] / rho) > FOLD_ABOVE:
            # the constant over rho too large to store takes the scale folded in
            self._fold(s)
        else:
            self._scale = s
            self._coef[-1] /= rho  # the constant element never decays

    def coefficient(self, fx: int, fy: int) -> float:
        if not (0 <= fx < self.n and 0 <= fy < self.m):
            raise ValueError("axis component id out of range")
        return self._coef[fx * self.m + fy] * self._scale


class MacroBounds(NamedTuple):
    """Feasible center coordinates keeping a macro inside the area."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float


def snap_to_grid(
    box: Box, area: PlacementArea, p: int, q: int
) -> GridRect | None:
    """Smallest grid rectangle covering ``box`` (clipped to the area).

    Cell sizes are ``area.width / 2**p`` by ``area.height / 2**q``.  Returns
    None when the clipped rectangle is degenerate (a no-op for callers).
    Outward rounding may conservatively widen the cover by one cell when a
    boundary is not exactly representable.
    """
    n, m = 1 << p, 1 << q
    cx = area.width / n
    cy = area.height / m
    x1, y1, x2, y2 = meet(box, (0.0, 0.0, area.width, area.height))
    if not (x1 < x2 and y1 < y2):
        return None
    # 0 <= x1 < x2 <= width, and cx is width over a power of two exactly
    # (PlacementArea's minimum side), so 0 <= x1 / cx < n and x2 / cx <= n
    a1 = math.floor(x1 / cx)
    b1 = math.floor(y1 / cy)
    a2 = max(a1 + 1, math.ceil(x2 / cx))
    b2 = max(b1 + 1, math.ceil(y2 / cy))
    return GridRect(a1, b1, a2, b2)


def gamma(span: float, u: float) -> float:
    """Log-uniform jump length in [1, span] for a uniform sample ``u``.

    Below one unit of slack there is no room to jump, so spans under 1
    return 0.
    """
    if span < 1.0:
        return 0.0
    return math.exp(math.log(span) * u)


def move_macro(pos: Point, bounds: MacroBounds, rng: random.Random) -> Point:
    """Propose a new position around ``pos``.

    Per axis a fair coin picks the direction; the jump length is log-uniform
    over the feasible span on that side (the leftward/downward span is
    measured to the bound, plus one unit so a minimal jump stays possible).
    Consumes exactly four rng draws: direction x, direction y, jump x, jump y.
    The result is clamped into ``bounds``.  It is the draw of each proposal
    of :meth:`PlacementStore.round`, and the reference of the C store's.
    """
    x, y = pos
    a = 1 if rng.random() < 0.5 else -1
    b = 1 if rng.random() < 0.5 else -1
    ux = rng.random()
    uy = rng.random()
    if a == 1:
        x_new = x - gamma(x - bounds.x_min + 1.0, ux)
    else:
        x_new = x + gamma(bounds.x_max - x, ux)
    if b == 1:
        y_new = y - gamma(y - bounds.y_min + 1.0, uy)
    else:
        y_new = y + gamma(bounds.y_max - y, uy)
    return (
        min(max(x_new, bounds.x_min), bounds.x_max),
        min(max(y_new, bounds.y_min), bounds.y_max),
    )


def first_min(scores: Sequence[float]) -> int:
    """The index of the first smallest score (ties to the lowest index), or
    -1 where a score is not finite.  The C store's ``round`` picks its
    winner as this does.
    """
    if not all(map(math.isfinite, scores)):
        return -1
    return scores.index(min(scores))


class RoundStats(NamedTuple):
    """One row of the per-round statistics stream (``stepplace.placer``
    re-exports it); a store's ``step`` returns one."""

    round: int
    netlength_bb: float
    overlap_area: float
    delta: float
    beta: float
    w: float


class Schedule(NamedTuple):
    """A config's scalars that a round reads, in floats where a schedule
    computes with them: the rounds, the first round scored by the exact
    bounding box, the proposals per round, the penalty constant, the bases
    and growths of delta and w, and the inflation factor.  A store's
    ``step`` reads them by position."""

    max_rounds: int
    switch_round: int
    candidates: int
    penalty_c: float
    delta0: float
    delta_growth: float
    w0: float
    w_growth: float
    rho: float


def grown(base: float, growth: float, step: int) -> float:
    """``base * growth**step`` in floats, ``inf`` where the power overflows
    (float ``**`` raises there, where libm ``pow`` gives ``inf``)."""
    try:
        return base * growth**step
    except OverflowError:
        return math.inf


def schedules(rnd: int, schedule: Schedule) -> tuple[float, float, float]:
    """The ``delta``, ``beta`` and ``w`` of the 1-based round ``rnd``, which
    the caller keeps in ``0 .. max_rounds``: the penalty multiplier and
    field increment of step ``rnd - 1`` (:func:`grown`) and the net-model
    sharpness ``max_rounds / (max_rounds - rnd + 1)``, an int division.
    Round 0, the statistics row of the initial state, takes step 0 and
    beta 1."""
    if rnd:
        step, beta = rnd - 1, schedule.max_rounds / (schedule.max_rounds - rnd + 1)
    else:
        step, beta = 0, 1.0
    return (grown(schedule.delta0, schedule.delta_growth, step), beta,
            grown(schedule.w0, schedule.w_growth, step))


def penalty(factor: float, box: Box, grid: BucketGrid, key) -> float:
    """Overlap penalty of the footprint ``box`` against every footprint of
    ``grid`` but the one stored under ``key``: ``factor`` (the round's
    penalty constant times its multiplier) times the total circumference of
    the pairwise footprint intersections, added in key order."""
    total_circ = 0.0
    for k in grid.hits(*box):
        if k == key:
            continue
        ix1, iy1, ix2, iy2 = meet(box, grid[k])
        total_circ += 2.0 * ((ix2 - ix1) + (iy2 - iy1))
    return factor * total_circ


class PlacementStore:
    """The placement as the rounds read and commit it, with the cost field
    and the keep-outs a candidate is scored against.

    It takes the C store's arguments, keying macros by index: ``halves``,
    ``centers``, ``bounds`` and ``blockages`` hold ``hx, hy``, ``x, y``,
    ``x_min, x_max, y_min, y_max`` and ``x1, y1, x2, y2`` per macro or
    keep-out, ``nets`` each net's members.  It keeps ``field``, the
    ``width`` by ``height`` ``area``, the ``blockages`` and their
    ``blockage_weight``, each macro's half-sizes (``halves[i]``), center
    (``centers[i]``) and :class:`MacroBounds` (``bounds[i]``), the nets
    (``nets``, and each macro's net indices ascending in ``nets_of[i]``)
    with their bounding-box lengths, the footprints in ``grid`` (a
    :class:`BucketGrid` with ``min_cell_x`` by ``min_cell_y`` cells), and the
    live overlap pairs ``(i, j)``, ``i < j``, with their areas, in the order
    the pairs entered: a pair that ends and overlaps again goes to the end.
    :meth:`move` is a round's whole commit, the macro's move and the field's
    growth under its meets, and :meth:`round` runs a whole round of the
    placer.  Every method that takes a macro index refuses one outside
    ``0 .. count - 1`` with the C store's ``ValueError``.
    """

    def __init__(
        self,
        field: CostField,
        width: float,
        height: float,
        min_cell_x: float,
        min_cell_y: float,
        halves: Sequence[float],
        centers: Sequence[float],
        bounds: Sequence[float],
        nets: Sequence[Sequence[int]],
        blockages: Sequence[float],
        blockage_weight: float,
    ) -> None:
        self.field, self.blockage_weight = field, blockage_weight
        self.area = PlacementArea(width, height)
        self.blockages = list(zip(*[iter(blockages)] * 4))  # x1, y1, x2, y2 each
        count = len(centers) // 2
        self.halves = [(halves[2 * i], halves[2 * i + 1]) for i in range(count)]
        self.centers = [(centers[2 * i], centers[2 * i + 1]) for i in range(count)]
        self.bounds = [MacroBounds(*bounds[4 * i:4 * i + 4]) for i in range(count)]
        self.nets = [list(net) for net in nets]
        self.nets_of: list[list[int]] = [[] for _ in range(count)]
        for k, net in enumerate(self.nets):
            for i in net:
                self.nets_of[i].append(k)
        self.grid = BucketGrid(min_cell_x, min_cell_y)
        for i in range(count):
            self.grid.put(i, self.box(i))
        self.net_bb = [self._net_box(k) for k in range(len(self.nets))]
        # macro index pairs (i, j), i < j, with positive intersection area
        self.pair_overlap: dict[tuple[int, int], float] = {}
        # per macro index, the indices it overlaps, i.e. its keys in pair_overlap
        self.partners: list[set[int]] = [set() for _ in range(count)]
        # every pair enters pair_overlap as (i, j) in ascending order, as it
        # would from a scan over all pairs
        for i in range(count):
            self._update_overlaps(i)

    def _check(self, i: int) -> None:
        """Refuse a macro index outside ``0 .. count - 1``, as the C store does."""
        if not 0 <= i < len(self.centers):
            raise ValueError(f"macro index {i} out of range for {len(self.centers)} "
                             "macros")

    def box(self, i: int) -> Box:
        """The footprint of macro ``i``."""
        self._check(i)
        (x, y), (hx, hy) = self.centers[i], self.halves[i]
        return (x - hx, y - hy, x + hx, y + hy)

    def _net_box(self, k: int) -> float:
        return bb_netlength([self.centers[i] for i in self.nets[k]])

    def _update_overlaps(self, i: int) -> list[Box]:
        """Bring ``pair_overlap`` and ``partners`` up to date for macro ``i``
        at its footprint; returns the meets of that footprint with every
        other one it overlaps, in index order."""
        grid = self.grid
        box = grid[i]
        # hits come in index order, so pair_overlap gains new keys, and the
        # caller's field its increases, in the order of a scan over every macro
        hits = [j for j in grid.hits(*box) if j != i]
        partners = self.partners
        pair_overlap = self.pair_overlap
        for j in partners[i].difference(hits):
            pair_overlap.pop((i, j) if i < j else (j, i))
            partners[j].discard(i)
        partners[i] = set(hits)
        meets = []
        for j in hits:
            partners[j].add(i)
            inter = meet(box, grid[j])
            pair_overlap[(i, j) if i < j else (j, i)] = (inter[2] - inter[0]) * (
                inter[3] - inter[1]
            )
            meets.append(inter)
        return meets

    def move(self, i: int, x: float, y: float, w: float) -> None:
        """Commit macro ``i`` at ``(x, y)``: store its footprint, recompute
        its nets' boxes and overlap pairs, and grow the field by ``w`` under
        the :func:`snap_to_grid` cells of each of its meets, in index order.
        A bad index, a non-finite ``w`` or footprint raises the C store's
        ``ValueError`` before anything moves."""
        self._check(i)
        if not math.isfinite(w):
            raise ValueError("increase value must be finite")
        (hx, hy), x, y = self.halves[i], float(x), float(y)
        box = (x - hx, y - hy, x + hx, y + hy)
        if not all(map(math.isfinite, box)):
            raise ValueError("footprint must be finite")
        self.centers[i] = (x, y)
        self.grid.put(i, box)
        for k in self.nets_of[i]:
            self.net_bb[k] = self._net_box(k)
        p, q = self.field.p, self.field.q
        for inter in self._update_overlaps(i):
            snapped = snap_to_grid(inter, self.area, p, q)
            if snapped is not None:
                self.field.increase(snapped, w)

    def score(
        self, i: int, x: float, y: float, beta: float | None, factor: float
    ) -> float:
        """Score of macro ``i`` centered at ``(x, y)``: the field cost of its
        snapped footprint, plus the :func:`model_length` (sharpness ``beta``)
        of each of its nets with its pin at ``(x, y)``, plus the
        :func:`penalty` of ``factor``, plus ``blockage_weight`` times its
        overlap area with each keep-out, in this order."""
        self._check(i)
        hx, hy = self.halves[i]
        fp = (x - hx, y - hy, x + hx, y + hy)
        snapped = snap_to_grid(fp, self.area, self.field.p, self.field.q)
        score = self.field.cost(snapped) if snapped is not None else 0.0
        centers = self.centers
        for k in self.nets_of[i]:
            pts = [(x, y) if j == i else centers[j] for j in self.nets[k]]
            score += model_length(pts, beta)
        score += penalty(factor, fp, self.grid, i)
        for b in self.blockages:
            ix1, iy1, ix2, iy2 = meet(fp, b)
            if ix1 < ix2 and iy1 < iy2:
                score += self.blockage_weight * ((ix2 - ix1) * (iy2 - iy1))
        return score

    def round(self, score: Callable[..., float], rng: random.Random, count: int,
              beta: float | None, factor: float, w: float, rho: float) -> int:
        """One round of the placer: draw a macro ``i`` by ``rng.randrange``,
        then its candidates, its center and ``count`` proposals around it
        within its bounds, each drawn by :func:`move_macro`; score each
        ``(x, y)`` by ``float(score(self, i, x, y, beta, factor))`` in order,
        :meth:`move` it to the :func:`first_min` winner with ``w`` and
        inflate the field by ``rho``.  Returns the winner's index, or -1
        with nothing moved where a score is not finite.  A non-finite ``w``,
        then a ``rho`` outside (0, 1], then a store without macros raise
        ``ValueError`` before any draw; a drawn index outside
        ``0 .. count - 1`` (read as :func:`operator.index` reads it) raises
        it after its draw.  The C store's
        ``round`` raises where this does, after the same draws, and leaves
        the same bits, but grows the field in C, runs
        ``CostField.inflate``'s body in C where the field still resolves
        ``inflate`` to it (any other ``inflate`` it calls, as this one
        does), and holds the candidates as C doubles; for an ``rng`` that
        is a :class:`random.Random` itself,
        overriding none of ``random``, ``getrandbits``, ``randrange`` and
        ``_randbelow`` on the instance, whose class holds
        ``_random.Random``'s own ``random`` and ``getrandbits``, it takes the macro's and the candidates' draws
        from the generator's own words, in place, with no call (see
        ``_fieldcore._draws_in_place``), and calls any other ``rng``'s
        ``randrange`` and ``random`` as this one does; with its own
        unbound ``score`` as ``score`` it scores with no call, and settles
        a later candidate by a lower bound of its score that reaches the
        least score before it, where that score is provably finite.  This
        one scores every candidate in full, the exact reference of both."""
        if not math.isfinite(w):
            raise ValueError("increase value must be finite")
        if not 0.0 < rho <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        if not self.centers:
            raise ValueError("the store has no macros to move")
        i = operator.index(rng.randrange(len(self.centers)))
        self._check(i)
        center, bounds = self.centers[i], self.bounds[i]
        candidates = [center, *(move_macro(center, bounds, rng) for _ in range(count))]
        best = first_min([float(score(self, i, x, y, beta, factor)) for x, y in candidates])
        if best >= 0:
            self.move(i, *candidates[best], w)
            self.field.inflate(rho)
        return best

    def step(self, score: Callable[..., float], state) -> RoundStats:
        """The placer state's next round ``rnd = state.round + 1`` on this
        store: its :func:`schedules` from ``state.config._schedule``, then
        :meth:`round` with ``score``, ``state.rng``, the schedule's
        candidates, ``beta`` (None from ``switch_round`` on), the factor
        ``penalty_c * delta``, ``w`` and ``rho``.  Sets ``state.round`` and
        ``state.last_choice`` (the winner's index) and returns the
        :class:`RoundStats` row ``(rnd, *totals(), delta, beta, w)``.
        Rounds exhausted, a negative ``state.round``, a store without
        macros, then a score that is not finite (naming the round) raise
        ``ValueError`` before anything moves, and all but a score before
        any draw.  The C store's ``step`` leaves the same bits,
        with the schedules computed in C and the round's body run with no
        call."""
        schedule, rnd = state.config._schedule, state.round + 1
        if rnd > schedule.max_rounds:
            raise ValueError("all configured rounds already executed")
        if rnd < 1:
            raise ValueError("the state's round must not be negative")
        if not self.centers:
            raise ValueError("the state has no macros to move")
        delta, beta, w = schedules(rnd, schedule)
        best = self.round(
            score, state.rng, schedule.candidates,
            None if rnd >= schedule.switch_round else beta, schedule.penalty_c * delta, w,
            schedule.rho,
        )
        if best < 0:
            raise ValueError(
                f"round {rnd}: a candidate score is not finite; "
                "lower w0, w_growth, penalty_c or delta0"
            )
        state.round = rnd
        state.last_choice = best
        # built as a tuple is, without the named tuple's Python __new__
        return tuple.__new__(RoundStats, (rnd, *self.totals(), delta, beta, w))

    def totals(self) -> tuple[float | int, float | int]:
        """The sum of the net boxes in net order and of the live pairs'
        areas in the order the pairs entered, each by :func:`ordered_sum`
        (so int ``0`` where there is nothing to sum)."""
        return ordered_sum(self.net_bb), ordered_sum(self.pair_overlap.values())

    def net_lengths(self) -> list[float]:
        """The bounding-box length of each net."""
        return list(self.net_bb)

    def pairs(self) -> list[tuple[int, int, float]]:
        """The live overlap pairs ``(i, j, area)``, ``i < j``, in the order
        they entered."""
        return [(i, j, a) for (i, j), a in self.pair_overlap.items()]


def _below(edge: float, half: float) -> float:
    """The greatest center ``v`` whose footprint, ``half`` either side, ends
    at or below ``edge`` (``v + half`` rounds to at most it): ``edge - half``
    nudged down, as :func:`~stepplace.netmodel._upper` nudges the bounds,
    then up in doubling steps, then by bisection (``v + half`` is monotone).
    ``-_below(-edge, half)`` is the least that starts at or above ``edge``."""
    lo = edge - half
    while lo + half > edge:
        lo = math.nextafter(lo, -math.inf)
    step = max(max(abs(lo), abs(edge)) * 2.0**-52, 5e-324)
    while (hi := lo + step) + half <= edge:
        lo, step = hi, 2.0 * step
    while lo < (mid := lo + (hi - lo) / 2.0) < hi:
        lo, hi = (mid, hi) if mid + half <= edge else (lo, mid)
    return lo


def _axis(lo: float, hi: float, start: float, half: float, sides, reach: float) -> list[float]:
    """The candidate centers along one axis, ascending, once each (``+ 0.0``
    makes a ``-0.0`` the ``0.0`` it equals): the bounds, the start and the
    centers abutting each side ``(a, b)`` of ``sides`` from below ``a`` and
    above ``b`` (:func:`_below`) that lie in ``[lo, hi]`` and at most
    ``reach`` from the start."""
    vals = [lo, hi, start] + [v for a, b in sides for v in (_below(a, half), -_below(-b, half))]
    return sorted({v + 0.0 for v in vals if lo <= v <= hi and abs(v - start) <= reach})


def _free_candidate(
    xs: list[float],
    ys: list[float],
    start: Point,
    half: Point,
    blocker: Callable[[Box], Box | None],
) -> tuple[float, float, float] | None:
    """``(d, x, y)`` of the first candidate ``(x, y)`` of ``xs`` by ``ys``
    (both ascending) whose footprint, ``half`` the sides around it,
    ``blocker`` finds no box overlapping, in rising distance ``d = |x - x0|
    + |y - y0|`` from ``start``, ties by x, then y.

    Each column has two cursors, the nearest rows at or above ``y0`` and
    below it not known to be blocked, and a heap holds each cursor's next
    point.  A blocker moves every cursor it covers past its rows, found by
    bisecting the footprint edges (monotone, computed as in the overlap
    test); an entry a cursor left behind is skipped.  With every footprint
    non-empty (:func:`~stepplace.netmodel.check_placeable`) the result is
    that of probing every candidate in turn; a jump may pass an empty one,
    as the C search's does."""
    (x0, y0), (hx, hy), ny = start, half, len(ys)
    lefts, rights = [x - hx for x in xs], [x + hx for x in xs]
    bottoms, tops = [y - hy for y in ys], [y + hy for y in ys]
    dxs, dys = [abs(x - x0) for x in xs], [abs(y - y0) for y in ys]
    cj = bisect_left(ys, y0)
    row = [cj, cj - 1] * len(xs)  # row[2 * i]: upward cursor, + 1: downward
    # (d, x, y) is one point's, so the cursor and row are never compared
    heap = [(dxs[u >> 1] + dys[j], xs[u >> 1], ys[j], u, j)
            for u, j in enumerate(row) if 0 <= j < ny]
    heapq.heapify(heap)
    while heap:
        d, x, y, u, j = heapq.heappop(heap)
        if row[u] != j:
            continue
        blk = blocker((lefts[u >> 1], bottoms[j], rights[u >> 1], tops[j]))
        if blk is None:
            # a downward cursor's rows below at the same distance come first
            k = j
            while u & 1 and k and dxs[u >> 1] + dys[k - 1] == d:
                k -= 1
            k = next((r for r in range(k, j) if blocker(
                (lefts[u >> 1], bottoms[r], rights[u >> 1], tops[r])) is None), j)
            return d, x, ys[k]
        # blk covers rows lo .. hi - 1 of these columns, this point's too
        lo, hi = bisect_right(tops, blk[1]), bisect_left(bottoms, blk[3])
        for k in range(bisect_right(rights, blk[0]), bisect_left(lefts, blk[2])):
            for u, to in ((2 * k, hi), (2 * k + 1, lo - 1)):
                if lo <= row[u] < hi:
                    row[u] = to
                    if 0 <= to < ny:
                        heapq.heappush(heap, (dxs[k] + dys[to], xs[k], ys[to], u, to))
    return None


def legalize(width: float, height: float, halves: Sequence[float], bounds: Sequence[float],
             centers: Sequence[float], order: Sequence[int],
             blockages: Sequence[float]) -> list[Point]:
    """The legalizer's placing loop: each macro in ``order``, its footprint
    kept clear of those placed before it and of the keep-outs.

    ``halves``, ``bounds`` and ``centers`` hold 2, 4 and 2 floats per macro
    by index, ``blockages`` 4 per keep-out.  A macro's start, its center
    clamped into its bounds as ``placer._clamped`` clamps it, is kept where
    its footprint meets nothing; else it takes the nearest free candidate
    (:func:`_free_candidate`) of the :func:`_axis` values within ``r`` of
    the start of the boxes near it, ``r`` growing from half the half sides'
    sum until that candidate is nearer than ``r`` or ``r`` spans the
    bounds.  A free center nearer than ``r`` takes each coordinate from the
    start, a bound or the edge of a box near the start that blocks the next
    center toward it; so with every footprint non-empty none is nearer than
    the one taken (:func:`_below`).  A probe's blocker is the footprint of
    the least index that meets it (the first of :meth:`BucketGrid.hits`),
    else the first keep-out that meets it, as in the C core, whatever either
    index's cells (``width`` and ``height`` size the C index only).  Returns
    each macro's point in placing order, stopping before the first with
    none."""
    placed = BucketGrid(2.0 * max(halves[::2], default=0.5), 2.0 * max(halves[1::2], default=0.5))
    keepouts = list(zip(*[iter(blockages)] * 4))

    def blocker(box: Box) -> Box | None:
        hits = placed.hits(*box)
        return placed[hits[0]] if hits else next((r for r in keepouts if overlaps(box, r)), None)

    out: list[Point] = []
    for key in order:
        x_lo, x_hi, y_lo, y_hi = bounds[4 * key:4 * key + 4]
        hx, hy, x, y = halves[2 * key], halves[2 * key + 1], centers[2 * key], centers[2 * key + 1]
        x, y = min(max(x, x_lo), x_hi), min(max(y, y_lo), y_hi)
        if blocker((x - hx, y - hy, x + hx, y + hy)) is not None:
            reach = 0.5 * (hx + hy)
            span = max(abs(x_lo - x), abs(x_hi - x)) + max(abs(y_lo - y), abs(y_hi - y))
            while True:
                ex, ey = 1.25 * reach + hx, 1.25 * reach + hy
                window = (x - ex, y - ey, x + ex, y + ey)
                # footprints in the window (by its cells, unless they outnumber the
                # boxes) and keep-outs, grown within 1.25 * reach (L1)
                near = ([placed[k] for k in placed.hits(*window)] if len(placed.boxes)
                        > 4.0 * (ex / placed.cell_x + 1.0) * (ey / placed.cell_y + 1.0)
                        else [b for b in placed.boxes.values() if overlaps(window, b)])
                boxes = [b for b in near + keepouts if max(b[0] - hx - x, x - (b[2] + hx), 0.0)
                         + max(b[1] - hy - y, y - (b[3] + hy), 0.0) < 1.25 * reach]
                hit = _free_candidate(
                    _axis(x_lo, x_hi, x, hx, [(b[0], b[2]) for b in boxes], reach),
                    _axis(y_lo, y_hi, y, hy, [(b[1], b[3]) for b in boxes], reach),
                    (x, y), (hx, hy), blocker)
                if reach >= span or hit is not None and hit[0] < reach:
                    break
                # past a point found, the next window holds it; it may hold nearer
                reach = 2.0 * reach if hit is None else math.nextafter(hit[0], math.inf)
            if hit is None:
                return out
            x, y = hit[1:]
        out.append((x, y))
        placed.put(key, (x - hx, y - hy, x + hx, y + hy))
    return out


def repr_line(values: Sequence[float | int], sep: str) -> str:
    """The line the file writers write for ``values``: their ``repr``
    joined by ``sep``, then a newline.  The reference of the C core's
    ``repr_line``."""
    return sep.join(map(repr, values)) + "\n"
