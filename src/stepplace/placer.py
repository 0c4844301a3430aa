"""Iterative macro placement driven by a growing dual cost field.

Each round picks a random macro, proposes candidate positions around it, and
moves it to the candidate minimizing

    field cost of the snapped footprint
    + length of every net containing the macro
    + overlap penalty against the other macros it overlaps
    + weighted overlap area with blockages.

Afterwards the field gains mass under every remaining overlap of the moved
macro, the overlap increment and penalty multiplier grow geometrically
(cooling, so overlap punishment eventually dominates), and the field is
inflated toward its mean so early hot spots do not stay forbidden forever.
Smoothed net models are used early, exact bounding-box scoring late.  The
result is near-legal; :func:`naive_legalize` removes the residual overlaps.

The round loop is sequential.  Scoring candidates within a round is read-only
with respect to the placement and the field; the winning move and field
updates are applied afterwards.

The placement the rounds read and commit lives in one store keyed by macro
index, the run's one backend object and the placement's only copy: the cost
field it is built on, the area's keep-outs with their weight, each macro's
center, bounds, half-sizes and footprint, the nets with their bounding-box
lengths and the live overlap pairs with their areas.  On the C field core it
is the C core's ``PlacementStore``, else a :class:`PlacementStore`, its
Python reference, which answers with the same bits; the state's field is the
store's, and its ``placement`` a snapshot of the store's centers.  A whole
round is one ``round`` call on the store: it draws the macro and its
candidates (each proposal as :func:`move_macro` draws one), scores each
through :func:`candidate_score`, handing it the store, commits the first
smallest with ``move`` (the move and the field's growth under the macro's
meets), and inflates the field.  On a C store all but the rng and the
field's ``inflate`` runs in C: the scoring hook is the C core's
``candidate_score``, which scores with no Python frame, and
:func:`py_candidate_score` is its reference.  The statistics row
takes both its totals from the store.  Footprints sit in a spatial index,
so the penalty and the overlap update test a footprint only against the
macros near it.

A round evaluates its schedules (delta, beta and w) once, taking the power
of a growth both share once, for its candidates' net-model sharpness and
penalty factor, its field growth and its statistics row.  Likewise the
legalizer's lattice search runs in the C core's ``FreeSpace`` where it
loaded, which finds the points of :class:`PyFreeSpace`.  Runs are
deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

from stepplace.netmodel import (
    Box,
    BucketGrid,
    Macro,
    Netlist,
    Placement,
    PlacementArea,
    Point,
    bb_netlength,
    beta_schedule,
    check_placeable,
    footprint_box,
    is_legal,
    meet,
    model_length,
    overlaps,
)
from stepplace.stepfield import (
    MAX_GRID_EXPONENT,
    CostField,
    CFreeSpace,
    CPlacementStore,
    GridRect,
    c_candidate_score,
    ordered_sum,
)


class LegalizationError(Exception):
    """No conflict-free position could be found for a macro."""

    def __init__(self, macro_id: str, message: str | None = None) -> None:
        self.macro_id = macro_id
        super().__init__(message or f"no legal position found for macro {macro_id!r}")


_INT_FIELDS = frozenset(
    ("max_rounds", "candidates_per_round", "grid_p", "grid_q", "seed",
     "model_switch_round")
)


@dataclass(frozen=True)
class PlacerConfig:
    """Every tunable of the placement loop.

    ``delta_growth``/``w_growth`` default to the per-round factor that
    multiplies the respective schedule by 1000 over the whole run.  The
    attribute ``switch_round``, set at construction, is
    ``model_switch_round``, by default 80% of ``max_rounds``; rounds at or
    after it score with the exact bounding-box model instead of the smoothed
    one.  Integer fields take ``int`` only (no ``bool`` or ``float``), the
    others any finite ``int`` or ``float``; violations raise ``ValueError``
    naming the field, as does a schedule that overflows by the last round
    (``penalty_c * delta_at(max_rounds - 1)`` or ``w_at(max_rounds - 1)``).
    """

    max_rounds: int
    candidates_per_round: int = 8
    grid_p: int = 6
    grid_q: int = 6
    penalty_c: float = 10.0
    delta0: float = 0.01
    delta_growth: float | None = None
    w0: float = 0.01
    w_growth: float | None = None
    inflation_rho: float = 0.995
    blockage_weight: float = 100.0
    seed: int = 0
    model_switch_round: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue
            if f.name in _INT_FIELDS:
                ok, kind = isinstance(v, int), "an integer"
            else:
                ok = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
                kind = "a finite number"
            if isinstance(v, bool) or not ok:
                raise ValueError(f"{f.name} must be {kind}, got {v!r}")
        if not 0 <= self.max_rounds <= sys.maxsize:
            raise ValueError(f"max_rounds must be in [0, {sys.maxsize}]")
        if self.candidates_per_round < 0:
            raise ValueError("candidates_per_round must be >= 0")
        for name in ("grid_p", "grid_q"):
            v = getattr(self, name)
            if not 0 <= v <= MAX_GRID_EXPONENT:
                raise ValueError(f"{name} must be in [0, {MAX_GRID_EXPONENT}]")
        if self.penalty_c < 0:
            raise ValueError("penalty_c must be >= 0")
        if not self.delta0 > 0:
            raise ValueError("delta0 must be > 0")
        if self.delta_growth is not None and not self.delta_growth >= 1:
            raise ValueError("delta_growth must be >= 1")
        if not self.w0 > 0:
            raise ValueError("w0 must be > 0")
        if self.w_growth is not None and not self.w_growth >= 1:
            raise ValueError("w_growth must be >= 1")
        if not 0 < self.inflation_rho <= 1:
            raise ValueError("inflation_rho must be in (0, 1]")
        if self.blockage_weight < 0:
            raise ValueError("blockage_weight must be >= 0")
        if self.model_switch_round is not None and self.model_switch_round < 1:
            raise ValueError("model_switch_round must be >= 1")
        # the default growth, the growth both schedules share (None where
        # they differ) and the switch round, once: the schedules are read
        # every round (attributes, not fields: fields() and eq are unchanged)
        growth = 1000.0 if self.max_rounds <= 1 else 1000.0 ** (1.0 / self.max_rounds)
        dg = growth if self.delta_growth is None else self.delta_growth
        wg = growth if self.w_growth is None else self.w_growth
        object.__setattr__(self, "_growth", growth)
        # equal values of one type give one power (3**34 and 3.0**34 differ)
        object.__setattr__(
            self, "_shared_growth", dg if type(dg) is type(wg) and dg == wg else None
        )
        object.__setattr__(
            self,
            "switch_round",
            self.model_switch_round
            if self.model_switch_round is not None
            else max(1, int(round(0.8 * self.max_rounds))),
        )
        last = max(self.max_rounds - 1, 0)
        if not math.isfinite(self.penalty_c * self.delta_at(last)):
            raise ValueError(
                "penalty_c * delta0 * delta_growth**(max_rounds - 1) must be finite"
            )
        if not math.isfinite(self.w_at(last)):
            raise ValueError("w0 * w_growth**(max_rounds - 1) must be finite")

    def _grown(self, base: float, growth: float | None, step: int) -> float:
        """``base * growth**step``, infinite where that overflows."""
        try:
            g = growth if growth is not None else self._growth
            return base * g**step
        except OverflowError:
            return math.inf

    def delta_at(self, step: int) -> float:
        """Penalty multiplier for a 0-based step."""
        return self._grown(self.delta0, self.delta_growth, step)

    def w_at(self, rnd: int) -> float:
        """Field increment for a 0-based round."""
        return self._grown(self.w0, self.w_growth, rnd)


class MacroBounds(NamedTuple):
    """Feasible center coordinates keeping a macro inside the area."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float


def _safe_upper(span: float, half: float) -> float:
    """Largest center so the footprint edge stays at or below ``span``.

    ``(span - half) + half`` can round one ulp past ``span``; addition is
    monotone, so nudging the endpoint down fixes every smaller center too.
    """
    hi = span - half
    while hi + half > span:
        hi = math.nextafter(hi, -math.inf)
    return hi


def compute_bounds(macro: Macro, area: PlacementArea) -> MacroBounds:
    """Center-coordinate bounds of a macro that passes :func:`check_placeable`."""
    check_placeable(macro, area)
    hx = macro.size_x / 2.0
    hy = macro.size_y / 2.0
    # the lower bound is always exact: hx - hx == 0; the center hx itself is
    # feasible because hx + hx == size_x <= width
    return MacroBounds(
        hx,
        max(_safe_upper(area.width, hx), hx),
        hy,
        max(_safe_upper(area.height, hy), hy),
    )


def _clamped(mid: str, pos: Point, b: MacroBounds) -> Point:
    """``pos`` clamped into the bounds ``b`` of macro ``mid``; ``ValueError``
    naming the macro where a coordinate is NaN, which no clamp can place."""
    x, y = pos
    if x != x or y != y:
        raise ValueError(f"macro {mid!r} has a NaN position ({x!r}, {y!r})")
    return min(max(x, b.x_min), b.x_max), min(max(y, b.y_min), b.y_max)


class RoundStats(NamedTuple):
    """One row of the per-round statistics stream."""

    round: int
    netlength_bb: float
    overlap_area: float
    delta: float
    beta: float
    w: float


@dataclass
class PlacerState:
    """Mutable loop state; create with :func:`new_state`, whose ``config``
    is the only one its rounds and statistics rows accept.  The store holds
    the placement; :attr:`placement` and :attr:`field` read it."""

    config: PlacerConfig
    rng: random.Random
    round: int
    macro_order: list[str]
    # the placement keyed by index in macro_order, with each macro's bounds
    # and the field and keep-outs it scores against: the C core's
    # PlacementStore on the C field core, else a PlacementStore
    store: PlacementStore | CPlacementStore
    # winning index of the most recent round's candidates
    last_choice: int | None = None

    @property
    def field(self) -> CostField:
        """The cost field, the one the store scores against."""
        return self.store.field

    @property
    def placement(self) -> Placement:
        """Each macro's center keyed by id, in ``macro_order``: a snapshot of
        the store's centers, a new dict on each read."""
        return dict(zip(self.macro_order, self.store.centers))


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


class PlacementStore:
    """The placement as the rounds read and commit it, with the cost field
    and the keep-outs a candidate is scored against, in Python: the
    reference of the C core's ``PlacementStore``, which answers every method
    with the same bits.

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

    def proposals(self, i: int, rng: random.Random, count: int) -> list[Point]:
        """A round's candidates for macro ``i``: its center, then ``count``
        proposals around it within its bounds, each drawn by
        :func:`move_macro`.  The C store's ``proposals`` makes the same
        draws, returns the same bits and raises where this does, after the
        same draws."""
        self._check(i)
        center, bounds = self.centers[i], self.bounds[i]
        return [center, *(move_macro(center, bounds, rng) for _ in range(count))]

    def score(
        self, i: int, x: float, y: float, beta: float | None, factor: float
    ) -> float:
        """Score of macro ``i`` centered at ``(x, y)``: the field cost of its
        snapped footprint, plus the :func:`model_length` (sharpness ``beta``)
        of each of its nets with its pin at ``(x, y)``, plus the
        :func:`penalty` of ``factor``, plus ``blockage_weight`` times its
        overlap area with each keep-out.  The C store's ``score`` adds the
        same terms in the same order."""
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
        score each of its :meth:`proposals` by ``score(self, i, pos, beta,
        factor)`` in order, :meth:`move` it to the :func:`first_min` winner
        with ``w`` and inflate the field by ``rho``.  Returns the winner's
        index, or -1 with nothing moved where a score is not finite.  A
        non-finite ``w`` or a store without macros raises ``ValueError``
        before any draw.  The C store's ``round`` leaves the same bits, but
        grows the field in C; for an ``rng`` that is a
        :class:`random.Random` itself it draws the macro as ``randrange``
        does on Python 3.10–3.13, through ``getrandbits``, and any other
        ``rng`` it asks for ``randrange``."""
        if not math.isfinite(w):
            raise ValueError("increase value must be finite")
        if not self.centers:
            raise ValueError("the store has no macros to move")
        i = rng.randrange(len(self.centers))
        candidates = self.proposals(i, rng, count)
        best = first_min([score(self, i, c, beta, factor) for c in candidates])
        if best >= 0:
            self.move(i, *candidates[best], w)
            self.field.inflate(rho)
        return best

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
    The result is clamped into ``bounds``.  It is the draw of
    :meth:`PlacementStore.proposals`, and the reference of the C store's.
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


def _schedules(rnd: int, config: PlacerConfig) -> tuple[float, float, float]:
    """The ``delta``, ``beta`` and ``w`` of the 1-based round ``rnd``: its
    penalty multiplier and field increment (:meth:`PlacerConfig.delta_at`
    and :meth:`PlacerConfig.w_at` of step ``rnd - 1``) and its net-model
    sharpness (:func:`beta_schedule`).  Round 0, the statistics row of the
    initial state, takes step 0 and beta 1.  Where both schedules grow by
    one growth, as by default, its power is taken once."""
    step = rnd - 1 if rnd else 0
    beta = beta_schedule(rnd, config.max_rounds) if rnd else 1.0
    growth = config._shared_growth
    if growth is not None:
        try:
            power = growth**step
            return config.delta0 * power, beta, config.w0 * power
        except OverflowError:
            pass  # overflowed: each schedule alone, as delta_at and w_at give it
    return config.delta_at(step), beta, config.w_at(step)


def py_candidate_score(
    store: PlacementStore, i: int, pos: Point, beta: float | None, factor: float
) -> float:
    """Score of moving macro ``i`` (its index in ``macro_order``) to ``pos``
    with net-model sharpness ``beta`` and penalty factor ``factor``: one
    ``score`` call on ``store`` (see :meth:`PlacementStore.score`), which
    returns the same float on both cores.  The reference of the C core's
    ``candidate_score``, and :func:`candidate_score` without it."""
    x, y = pos
    return store.score(i, x, y, beta, factor)


#: The scoring hook a round calls per candidate: the C core's
#: ``candidate_score`` where it loaded, which scores on a C store with no
#: Python frame and returns or raises what :func:`py_candidate_score` does,
#: else that function.
candidate_score = py_candidate_score if c_candidate_score is None else c_candidate_score


def new_state(
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
    initial: Placement | None = None,
) -> PlacerState:
    """Initial loop state: the placement store (the C core's on a C field)
    with each macro's bounds and center (a given position clamped into the
    bounds, a missing one drawn uniformly), on a zero field plus one static
    increase per blockage; :func:`stats_row` gives its statistics row 0.  A
    macro :func:`~stepplace.netmodel.check_placeable` refuses, or an initial
    position that is NaN or names no macro, raises ``ValueError`` first."""
    macro_order = sorted(m.id for m in netlist.macros)
    macros = [netlist.by_id[mid] for mid in macro_order]
    bounds = [compute_bounds(m, area) for m in macros]
    if initial is not None:
        for mid in initial:
            if mid not in netlist.by_id:
                raise ValueError(f"initial position for unknown macro {mid!r}")
    rng = random.Random(config.seed)
    centers = array("d")
    for mid, b in zip(macro_order, bounds):
        if initial is not None and mid in initial:
            centers.extend(_clamped(mid, initial[mid], b))
        else:
            x = rng.uniform(b.x_min, b.x_max)
            centers.extend((x, rng.uniform(b.y_min, b.y_max)))

    fld = CostField(config.grid_p, config.grid_q)
    for blk in area.blockages:
        snapped = snap_to_grid(blk, area, config.grid_p, config.grid_q)
        if snapped is not None:
            fld.increase(snapped, config.blockage_weight)

    # footprint cells at least as large as the largest macro: a footprint
    # touches at most 2x2 of them
    store = (CPlacementStore if fld.backend == "c" else PlacementStore)(
        fld, area.width, area.height,
        max((m.size_x for m in macros), default=1.0),
        max((m.size_y for m in macros), default=1.0),
        # half-sizes as footprint_box computes them
        array("d", [v for m in macros for v in (m.size_x / 2.0, m.size_y / 2.0)]),
        centers,
        array("d", [v for b in bounds for v in b]),
        [[bisect_left(macro_order, mid) for mid in net.members] for net in netlist.nets],
        array("d", [v for b in area.blockages for v in b]),
        config.blockage_weight,
    )
    return PlacerState(
        config=config, rng=rng, round=0, macro_order=macro_order, store=store
    )


def _check_config(state: PlacerState, config: PlacerConfig) -> None:
    """Raise ``ValueError`` unless ``config`` equals the state's own."""
    if config is not state.config and config != state.config:
        raise ValueError("config differs from the one the state was created with")


def stats_row(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """Statistics of the state as it stands after ``state.round`` rounds."""
    _check_config(state, config)
    rnd = state.round
    return RoundStats(rnd, *state.store.totals(), *_schedules(rnd, config))


def round_step(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """One round: pick a macro at random, score the current position plus
    ``candidates_per_round`` proposals, move to the argmin (ties to the
    lowest index, the current position first), grow the field under every
    remaining overlap of the moved macro, inflate.  Returns the round's
    statistics row.

    The round is one :meth:`PlacementStore.round` call on the state's store,
    which scores by :func:`candidate_score` as this module holds it.  The
    round's schedules give every candidate's net-model sharpness (None from
    ``switch_round`` on) and penalty factor (``penalty_c * delta``).  The
    winner's index is left on ``state.last_choice``.  A ``config`` not equal
    to ``state.config``, a state with no macros, or a score that is not
    finite (the field or the penalty overflowed), raises ``ValueError``
    before anything moves, and all but a score before any draw.
    """
    _check_config(state, config)
    rnd = state.round + 1
    if rnd > config.max_rounds:
        raise ValueError("all configured rounds already executed")
    if not state.macro_order:
        raise ValueError("the state has no macros to move")
    delta, beta, w = _schedules(rnd, config)
    best = state.store.round(
        candidate_score, state.rng, config.candidates_per_round,
        None if rnd >= config.switch_round else beta, config.penalty_c * delta, w,
        config.inflation_rho,
    )
    if best < 0:
        raise ValueError(
            f"round {rnd}: a candidate score is not finite; "
            "lower w0, w_growth, penalty_c or delta0"
        )
    state.round = rnd
    state.last_choice = best
    return RoundStats(rnd, *state.store.totals(), delta, beta, w)


def run_placer(
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
    initial: Placement | None = None,
) -> tuple[Placement, list[RoundStats]]:
    """Run the full loop and return the final placement plus the statistics
    trace (row 0 describes the initial placement, then one row per round)."""
    state = new_state(netlist, area, config, initial)
    trace = [stats_row(state, config)]
    if state.macro_order:
        trace.extend(round_step(state, config) for _ in range(config.max_rounds))
    return state.placement, trace


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    """Grid positions from lo to hi inclusive (endpoint always present)."""
    vals = []
    i = 0
    while True:
        v = lo + i * step
        if v >= hi:
            break
        vals.append(v)
        i += 1
    vals.append(hi)
    return vals


# where a lattice has no free position, the legalizer retries on finer ones
# up to this exponent (two past the default grid)
_FINEST_RETRY = 8


def _nearest_index(vals: list[float], v: float) -> int:
    """Index of the sorted ``vals`` entry nearest ``v``, ties to the lower."""
    i = min(bisect_left(vals, v), len(vals) - 1)
    return i - 1 if i > 0 and abs(vals[i - 1] - v) <= abs(vals[i] - v) else i


def _nearest_free(
    xs: list[float],
    ys: list[float],
    pos: Point,
    half: Point,
    blocker: Callable[[Box], Box | None],
) -> Point | None:
    """First lattice point ``(xs[i], ys[j])`` whose footprint, ``half`` the
    macro's sides around it, ``blocker`` finds no box overlapping, in
    Manhattan rings of index distance around the point nearest ``pos``: each
    ring by ascending ``i``, ``+dj`` before ``-dj``.

    Ring ``r`` holds at most one point of column ``i`` at or above row ``cj``
    and one below it, so only two cursors per column are probed: the nearest
    rows up and down not known to be blocked, ring by ring in that order.  A
    blocker moves every cursor it covers past its rows, found by bisecting
    the footprint edges, which are monotone and computed as in the overlap
    test.  Precondition: every lattice footprint is non-empty, as
    :func:`~stepplace.netmodel.check_placeable` makes the legalizer's; then
    the result is that of probing every point.  (A jump may pass an empty
    footprint, which overlaps nothing; the C search passes the same ones.)"""
    hx, hy = half
    ci, cj = _nearest_index(xs, pos[0]), _nearest_index(ys, pos[1])
    lefts, rights = [x - hx for x in xs], [x + hx for x in xs]
    bottoms, tops = [y - hy for y in ys], [y + hy for y in ys]
    row = [cj, cj - 1] * len(xs)  # row[2 * i]: upward cursor, + 1: downward
    queue: dict[int, list[int]] = {}  # ring -> cursors, some since moved on
    for r in range(len(xs) + len(ys) - 1):
        ring = queue.pop(r, [])
        # columns ci - r and ci + r enter the search on ring r
        for i in (ci - r, ci + r) if r else (ci,):
            if 0 <= i < len(xs):
                ring.append(2 * i)
                if cj:
                    queue.setdefault(r + 1, []).append(2 * i + 1)
        ring.sort()
        for c in ring:
            i, j = c >> 1, row[c]
            if abs(i - ci) + abs(j - cj) != r:
                continue
            x, y = xs[i], ys[j]
            blk = blocker((x - hx, y - hy, x + hx, y + hy))
            if blk is None:
                return x, y
            # blk covers rows lo .. hi - 1 of these columns, this point's too
            lo, hi = bisect_right(tops, blk[1]), bisect_left(bottoms, blk[3])
            for k in range(bisect_right(rights, blk[0]), bisect_left(lefts, blk[2])):
                for u, to in ((2 * k, hi), (2 * k + 1, lo - 1)):
                    if lo <= row[u] < hi:
                        row[u] = to
                        if 0 <= to < len(ys):
                            queue.setdefault(abs(k - ci) + abs(to - cj), []).append(u)
    return None


class PyFreeSpace:
    """The footprints the legalizer has placed and the area's keep-outs, with
    the lattice search over them, in Python: the reference of the C core's
    ``FreeSpace``, which finds the same positions.

    Footprints are keyed by ``0 .. count - 1`` in a :class:`BucketGrid` of
    ``cell_x`` by ``cell_y`` cells, and ``blockages`` holds ``x1, y1, x2,
    y2`` per keep-out.  A probe's blocker is the box
    :meth:`BucketGrid.first_hit` reports, else the first keep-out that meets
    the probe; ``width``, ``height`` and ``count`` size the C index only.
    :meth:`nearest_free` takes the precondition of :func:`_nearest_free`.
    """

    def __init__(
        self,
        width: float,
        height: float,
        cell_x: float,
        cell_y: float,
        count: int,
        blockages: Sequence[float],
    ) -> None:
        self.placed = BucketGrid(cell_x, cell_y)
        self.blockages = list(zip(*[iter(blockages)] * 4))

    def blocker(self, box: Box) -> Box | None:
        """A placed footprint or keep-out that meets ``box``, or None."""
        return self.placed.first_hit(*box) or next(
            (r for r in self.blockages if overlaps(box, r)), None
        )

    def put(self, key: int, x1: float, y1: float, x2: float, y2: float) -> None:
        """Store the footprint under ``key``, or move it there."""
        self.placed.put(key, (x1, y1, x2, y2))

    def blocked(self, x1: float, y1: float, x2: float, y2: float) -> bool:
        """Whether a placed footprint or a keep-out meets the box."""
        return self.blocker((x1, y1, x2, y2)) is not None

    def nearest_free(
        self, x_lo: float, x_hi: float, x_step: float, y_lo: float, y_hi: float,
        y_step: float, x: float, y: float, hx: float, hy: float,
    ) -> Point | None:
        """:func:`_nearest_free` over the lattice of :func:`_lattice` per
        axis, from ``(x, y)``, for footprints ``hx`` by ``hy`` the half sides
        around a point."""
        return _nearest_free(
            _lattice(x_lo, x_hi, x_step), _lattice(y_lo, y_hi, y_step), (x, y),
            (hx, hy), self.blocker,
        )


FreeSpace = PyFreeSpace if CFreeSpace is None else CFreeSpace


def naive_legalize(
    placement: Placement,
    netlist: Netlist,
    area: PlacementArea,
    grid_p: int,
    grid_q: int,
) -> Placement:
    """Greedy legalizer for nearly-legal placements.

    Macros are processed by area, largest first.  Each keeps its position if
    conflict-free; otherwise it moves to the nearest conflict-free lattice
    position (Manhattan rings over a lattice whose pitch is the area over
    ``2**grid_p`` by ``2**grid_q``, deterministic tie order).  Where that
    lattice has no free position, the search repeats on a lattice one
    exponent finer per axis, up to ``max(exponent, 8)``.  The placed
    footprints and the keep-outs sit in a :data:`FreeSpace`: the C core's,
    whose search runs in C, where it loaded, else :class:`PyFreeSpace`.  The
    ring search (:func:`_nearest_free`) probes only one cursor per column and
    direction, and a probe's blocker, a placed footprint or else a keep-out,
    moves the cursors past exactly the points it covers: in ring order the
    first free cursor is the first free ring point, so the result is that of
    probing every point, on both cores.  Before any search is built, a
    macro without a position, with a NaN one, or that
    :func:`~stepplace.netmodel.check_placeable` refuses (which leaves every
    lattice footprint non-empty) raises ``ValueError`` naming it.  Raises
    :class:`LegalizationError` when a macro cannot be placed, and never
    returns an illegal placement.
    """
    starts = []
    for m in sorted(netlist.macros, key=lambda m: (-m.area, m.id)):
        if m.id not in placement:
            raise ValueError(f"macro {m.id!r} has no position")
        b = compute_bounds(m, area)
        starts.append((m, b, _clamped(m.id, placement[m.id], b)))
    ids = sorted(netlist.by_id)
    # keys in id order, so that the reference's first_hit, which reports
    # the least key, picks the least id
    key = {mid: k for k, mid in enumerate(ids)}
    space = FreeSpace(
        area.width, area.height, max((m.size_x for m in netlist.macros), default=1.0),
        max((m.size_y for m in netlist.macros), default=1.0), len(ids),
        array("d", [v for b in area.blockages for v in b]),
    )
    out: Placement = {}
    for m, b, start in starts:
        found = None if space.blocked(*footprint_box(m, start)) else start
        for k in range(max(_FINEST_RETRY - min(grid_p, grid_q), 0) + 1):
            if found is not None:
                break
            p = max(grid_p, min(grid_p + k, _FINEST_RETRY))
            q = max(grid_q, min(grid_q + k, _FINEST_RETRY))
            found = space.nearest_free(
                b.x_min, b.x_max, area.width / (1 << p),
                b.y_min, b.y_max, area.height / (1 << q),
                *start, m.size_x / 2.0, m.size_y / 2.0,
            )
        if found is None:
            raise LegalizationError(m.id)
        out[m.id] = found
        space.put(key[m.id], *footprint_box(m, found))

    report = is_legal(out, netlist, area)
    if not report.legal:
        culprits = (
            report.out_of_area
            + [a for a, _ in report.overlaps]
            + [mid for mid, _ in report.blockage_overlaps]
        )
        raise LegalizationError(
            culprits[0], f"legalizer produced an illegal placement: {report}"
        )
    return out
