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
updates are applied afterwards.  What every candidate of a round shares (the
macro's half-sizes, the net model's sharpness, the other pins of its nets) is
gathered once per round in a :class:`ScoreContext`; on the C field core each
candidate is then scored in one C call.

The placement the rounds read and commit lives in one store keyed by macro
index: each macro's center and footprint, the nets' bounding-box lengths and
the live overlap pairs with their areas.  On the C field core it is the C
core's ``PlacementStore``, else a :class:`PlacementStore`, its Python
reference, which answers with the same bits.  A round's commit is one
``move`` on it, which returns the grid rectangles the field then grows
under, and the statistics row takes both its totals from it.  Footprints
sit in a spatial index, so the penalty and the overlap update test a
footprint only against the macros near it.  Runs are deterministic for a
given seed.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from operator import lt
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
    footprint_box,
    footprint_grid,
    is_legal,
    meet,
    model_length,
    overlaps,
)
from stepplace.stepfield import (
    MAX_GRID_EXPONENT,
    CostField,
    CPlacementStore,
    GridRect,
    c_score_candidate,
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
    ``model_switch_round`` defaults to 80% of ``max_rounds``; rounds at or
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
        # the default growth, once: the schedules are read several times a
        # round (an attribute, not a field: fields() and eq are unchanged)
        object.__setattr__(
            self,
            "_growth",
            1000.0 if self.max_rounds <= 1 else 1000.0 ** (1.0 / self.max_rounds),
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

    @property
    def switch_round(self) -> int:
        """First 1-based round scored with the exact bounding-box model."""
        if self.model_switch_round is not None:
            return self.model_switch_round
        return max(1, int(round(0.8 * self.max_rounds)))


@dataclass(frozen=True)
class MacroBounds:
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
    """Center-coordinate bounds of a macro; error if it cannot fit."""
    hx = macro.size_x / 2.0
    hy = macro.size_y / 2.0
    if macro.size_x > area.width or macro.size_y > area.height:
        raise ValueError(f"macro {macro.id!r} does not fit the placement area")
    # the lower bound is always exact: hx - hx == 0; the center hx itself is
    # feasible because hx + hx == size_x <= width
    b = MacroBounds(
        hx,
        max(_safe_upper(area.width, hx), hx),
        hy,
        max(_safe_upper(area.height, hy), hy),
    )
    return b


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
    """Mutable loop state; create with :func:`new_state`."""

    netlist: Netlist
    area: PlacementArea
    rng: random.Random
    placement: Placement
    field: CostField
    bounds: dict[str, MacroBounds]
    round: int
    macro_order: list[str]
    # the placement keyed by index in macro_order: the C core's
    # PlacementStore on the C field core (the scoring kernel reads its
    # footprints), else a PlacementStore
    store: PlacementStore | CPlacementStore
    # the area's blockages as x1, y1, x2, y2 each, for the C scoring kernel
    blockage_boxes: array
    # scores and winning index of the most recent round's candidates
    last_scores: list[float] | None = None
    last_choice: int | None = None


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
    """The placement as the rounds read and commit it, in Python: the
    reference of the C core's ``PlacementStore``, which answers every method
    with the same bits.

    Macros are keyed by index.  ``halves`` and ``centers`` hold ``hx, hy``
    and ``x, y`` per macro, and ``nets`` each net's members as macro
    indices.  The store keeps each macro's center, its footprint in
    ``footprints`` (a :class:`BucketGrid` with ``cell_x`` by ``cell_y``
    cells), the nets' bounding-box lengths, and the live overlap pairs
    ``(i, j)``, ``i < j``, with their areas, in the order the pairs entered:
    a pair that ends and overlaps again goes to the end.  :meth:`move` snaps
    meets to the ``2**p`` by ``2**q`` grid over ``area``.
    """

    def __init__(
        self,
        area: PlacementArea,
        cell_x: float,
        cell_y: float,
        p: int,
        q: int,
        halves: Sequence[float],
        centers: Sequence[float],
        nets: Sequence[Sequence[int]],
    ) -> None:
        self.area, self.p, self.q = area, p, q
        count = len(centers) // 2
        self.halves = [(halves[2 * i], halves[2 * i + 1]) for i in range(count)]
        self.centers = [(centers[2 * i], centers[2 * i + 1]) for i in range(count)]
        self.nets = [list(net) for net in nets]
        self.nets_of: list[list[int]] = [[] for _ in range(count)]
        for k, net in enumerate(self.nets):
            for i in net:
                self.nets_of[i].append(k)
        self.footprints = BucketGrid(cell_x, cell_y)
        for i in range(count):
            self.footprints.put(i, self._box(i))
        self.net_bb = [self._net_box(k) for k in range(len(self.nets))]
        # macro index pairs (i, j), i < j, with positive intersection area
        self.pair_overlap: dict[tuple[int, int], float] = {}
        # per macro index, the indices it overlaps, i.e. its keys in pair_overlap
        self.partners: list[set[int]] = [set() for _ in range(count)]
        # every pair enters pair_overlap as (i, j) in ascending order, as it
        # would from a scan over all pairs
        for i in range(count):
            self._update_overlaps(i)

    def _box(self, i: int) -> Box:
        (x, y), (hx, hy) = self.centers[i], self.halves[i]
        return (x - hx, y - hy, x + hx, y + hy)

    def _net_box(self, k: int) -> float:
        return bb_netlength([self.centers[i] for i in self.nets[k]])

    def _update_overlaps(self, i: int) -> list[Box]:
        """Bring ``pair_overlap`` and ``partners`` up to date for macro ``i``
        at its footprint; returns the meets of that footprint with every
        other one it overlaps, in index order."""
        grid = self.footprints
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

    def move(self, i: int, x: float, y: float) -> list[GridRect]:
        """Center macro ``i`` at ``(x, y)``: store its footprint, recompute
        the boxes of its nets, and bring its overlap pairs up to date.
        Returns the :func:`snap_to_grid` cells of each meet of its footprint
        with another one, in index order, leaving out empty ones."""
        self.centers[i] = (float(x), float(y))
        self.footprints.put(i, self._box(i))
        for k in self.nets_of[i]:
            self.net_bb[k] = self._net_box(k)
        rects = []
        for inter in self._update_overlaps(i):
            snapped = snap_to_grid(inter, self.area, self.p, self.q)
            if snapped is not None:
                rects.append(snapped)
        return rects

    def pins(self, i: int) -> array:
        """The nets of macro ``i`` in net order, packed for the C core's
        ``score_candidate``: per net its member count, the index of ``i``
        among them, then the other members' ``x, y`` in order."""
        centers = self.centers
        pins: list[float] = []
        for k in self.nets_of[i]:
            net = self.nets[k]
            pins += (len(net), net.index(i))
            for j in net:
                if j != i:
                    pins += centers[j]
        return array("d", pins)

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
    The result is clamped into ``bounds``.
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


def penalty(
    step: int,
    macro: Macro,
    pos: Point,
    grid: BucketGrid | CFootprintIndex,
    config: PlacerConfig,
    key=None,
) -> float:
    """Overlap penalty of ``macro`` at ``pos`` against every footprint of
    ``grid`` but its own, stored under ``key`` (by default its id; the
    state's grid keys by index in ``macro_order``): the penalty constant
    times the step's multiplier times the total circumference of the
    pairwise footprint intersections, added in key order."""
    if key is None:
        key = macro.id
    cand = footprint_box(macro, pos)
    total_circ = 0.0
    for k in grid.hits(*cand):
        if k == key:
            continue
        ix1, iy1, ix2, iy2 = meet(cand, grid[k])
        total_circ += 2.0 * ((ix2 - ix1) + (iy2 - iy1))
    return config.penalty_c * config.delta_at(step) * total_circ


def _round_beta(rnd: int, config: PlacerConfig) -> float | None:
    """Net-model sharpness for a 1-based round (see :func:`model_length`):
    the beta schedule before the switch round, None (exact bounding box) at
    and after it."""
    if rnd >= config.switch_round:
        return None
    return beta_schedule(rnd, config.max_rounds)


class ScoreContext(NamedTuple):
    """What the candidates of one round share: the moving macro's
    half-sizes, the round's net-model sharpness (see :func:`model_length`),
    its nets as :meth:`PlacementStore.pins` packs them (per net: its pin
    count, the moving pin's index among them, then the other pins' ``x, y``
    in order), its index in ``macro_order``, and the round's penalty factor
    (``penalty_c`` times the round's :meth:`PlacerConfig.delta_at`)."""

    hx: float
    hy: float
    beta: float | None
    pins: array
    index: int
    penalty_factor: float


def score_context(
    macro: Macro, state: PlacerState, config: PlacerConfig
) -> ScoreContext:
    """The :class:`ScoreContext` of moving ``macro`` in the current round."""
    index = bisect_left(state.macro_order, macro.id)
    return ScoreContext(
        macro.size_x / 2.0,
        macro.size_y / 2.0,
        _round_beta(state.round + 1, config),
        state.store.pins(index),
        index,
        config.penalty_c * config.delta_at(state.round),
    )


def candidate_score(
    macro: Macro,
    pos: Point,
    state: PlacerState,
    config: PlacerConfig,
    ctx: ScoreContext,
) -> float:
    """Score of moving ``macro`` to ``pos`` in the current round: field cost
    of the snapped footprint, plus the lengths of the macro's nets, plus the
    overlap penalty, plus the weighted blockage overlap area.

    ``ctx`` is the round's :func:`score_context`.  On the C field core the
    score is one call of its ``score_candidate`` kernel, else
    :func:`py_candidate_score`; both return the same float."""
    fld = state.field
    if fld.backend != "c":
        return py_candidate_score(macro, pos, state, config, ctx)
    x, y = pos
    area = state.area
    return c_score_candidate(
        fld.core, x, y, ctx.hx, ctx.hy, area.width, area.height, ctx.beta,
        ctx.pins, state.store.footprints, ctx.index, ctx.penalty_factor,
        state.blockage_boxes, config.blockage_weight,
    )


def py_candidate_score(
    macro: Macro,
    pos: Point,
    state: PlacerState,
    config: PlacerConfig,
    ctx: ScoreContext,
) -> float:
    """:func:`candidate_score` on the Python field core, and the reference of
    the C core's ``score_candidate``, which sums the same terms in the same
    order; the nets are those packed in ``ctx.pins``."""
    x, y = pos
    fp = (x - ctx.hx, y - ctx.hy, x + ctx.hx, y + ctx.hy)
    snapped = snap_to_grid(fp, state.area, config.grid_p, config.grid_q)
    score = state.field.cost(snapped) if snapped is not None else 0.0
    pins = ctx.pins
    k = 0
    while k < len(pins):
        n, j = int(pins[k]), int(pins[k + 1])
        pts = [(pins[t], pins[t + 1]) for t in range(k + 2, k + 2 * n, 2)]
        pts.insert(j, pos)
        score += model_length(pts, ctx.beta)
        k += 2 * n
    score += penalty(state.round, macro, pos, state.store.footprints, config, ctx.index)
    for b in state.area.blockages:
        ix1, iy1, ix2, iy2 = meet(fp, b)
        if ix1 < ix2 and iy1 < iy2:
            score += config.blockage_weight * ((ix2 - ix1) * (iy2 - iy1))
    return score


def new_state(
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
    initial: Placement | None = None,
) -> PlacerState:
    """Initial loop state: bounds, placement (given positions clamped into
    bounds, missing ones drawn uniformly), zero field plus one static
    increase per blockage, and the placement store; :func:`stats_row` gives
    its statistics row 0."""
    bounds = {m.id: compute_bounds(m, area) for m in netlist.macros}
    if initial is not None:
        for mid in initial:
            if mid not in bounds:
                raise ValueError(f"initial position for unknown macro {mid!r}")
    rng = random.Random(config.seed)
    macro_order = sorted(m.id for m in netlist.macros)
    placement: Placement = {}
    for mid in macro_order:
        b = bounds[mid]
        if initial is not None and mid in initial:
            x, y = initial[mid]
            x = min(max(x, b.x_min), b.x_max)
            y = min(max(y, b.y_min), b.y_max)
        else:
            x = rng.uniform(b.x_min, b.x_max)
            y = rng.uniform(b.y_min, b.y_max)
        placement[mid] = (x, y)

    fld = CostField(config.grid_p, config.grid_q)
    for blk in area.blockages:
        snapped = snap_to_grid(blk, area, config.grid_p, config.grid_q)
        if snapped is not None:
            fld.increase(snapped, config.blockage_weight)

    # footprint cells at least as large as the largest macro: a footprint
    # touches at most 2x2 of them
    macros = [netlist.by_id[mid] for mid in macro_order]
    args = (
        max((m.size_x for m in macros), default=1.0),
        max((m.size_y for m in macros), default=1.0),
        config.grid_p,
        config.grid_q,
        # half-sizes as footprint_box computes them
        array("d", [v for m in macros for v in (m.size_x / 2.0, m.size_y / 2.0)]),
        array("d", [v for mid in macro_order for v in placement[mid]]),
        [[bisect_left(macro_order, mid) for mid in net.members] for net in netlist.nets],
    )
    if fld.backend == "c":
        store = CPlacementStore(area.width, area.height, *args, GridRect)
    else:
        store = PlacementStore(area, *args)
    return PlacerState(
        netlist=netlist,
        area=area,
        rng=rng,
        placement=placement,
        field=fld,
        bounds=bounds,
        round=0,
        macro_order=macro_order,
        store=store,
        blockage_boxes=array("d", [v for b in area.blockages for v in b]),
    )


def stats_row(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """Statistics of the state as it stands after ``state.round`` rounds."""
    rnd = state.round
    beta = beta_schedule(rnd, config.max_rounds) if rnd else 1.0
    step = max(0, rnd - 1)
    netlength_bb, overlap_area = state.store.totals()
    return RoundStats(
        round=rnd,
        netlength_bb=netlength_bb,
        overlap_area=overlap_area,
        delta=config.delta_at(step),
        beta=beta,
        w=config.w_at(step),
    )


def round_step(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """One round: pick a macro at random, score the current position plus
    ``candidates_per_round`` proposals, move to the argmin (ties to the
    lowest index, the current position first), grow the field under every
    remaining overlap of the moved macro, inflate.  Returns the round's
    statistics row.

    The candidates' scores and the winner's index are left on
    ``state.last_scores`` and ``state.last_choice``.  The config must be the
    one the state was created with.  A score that is not finite (the field or
    the penalty overflowed) raises ``ValueError`` before anything moves.
    """
    if state.round >= config.max_rounds:
        raise ValueError("all configured rounds already executed")
    if (config.grid_p, config.grid_q) != (state.field.p, state.field.q):
        raise ValueError("config grid exponents differ from the state's field")
    rng = state.rng
    mi = rng.randrange(len(state.macro_order))
    mid = state.macro_order[mi]
    macro = state.netlist.by_id[mid]
    x0 = state.placement[mid]
    candidates = [x0]
    for _ in range(config.candidates_per_round):
        candidates.append(move_macro(x0, state.bounds[mid], rng))
    ctx = score_context(macro, state, config)
    scores = [candidate_score(macro, c, state, config, ctx) for c in candidates]
    if not all(map(math.isfinite, scores)):
        raise ValueError(
            f"round {state.round + 1}: a candidate score is not finite; "
            "lower w0, w_growth, penalty_c or delta0"
        )
    best = 0
    for i in range(1, len(scores)):
        if scores[i] < scores[best]:
            best = i
    chosen = candidates[best]

    state.placement[mid] = chosen
    w = config.w_at(state.round)
    for rect in state.store.move(mi, *chosen):
        state.field.increase(rect, w)
    state.field.inflate(config.inflation_rho)

    state.round += 1
    state.last_scores = scores
    state.last_choice = best
    return stats_row(state, config)


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
# up to this exponent (the default grid)
_FINEST_RETRY = 6


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
    test: the result is that of probing every point."""
    hx, hy = half
    ci, cj = _nearest_index(xs, pos[0]), _nearest_index(ys, pos[1])
    lefts, rights = [x - hx for x in xs], [x + hx for x in xs]
    bottoms, tops = [y - hy for y in ys], [y + hy for y in ys]
    # an empty footprint overlaps nothing, so no jump may pass it; where one
    # exists the probed cursor steps one row at a time
    exact = all(map(lt, lefts, rights)) and all(map(lt, bottoms, tops))
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
            if exact:  # blk covers rows lo..hi - 1 of these columns
                lo, hi = bisect_right(tops, blk[1]), bisect_left(bottoms, blk[3])
                cols = range(bisect_right(rights, blk[0]), bisect_left(lefts, blk[2]))
            else:
                lo, hi, cols = j, j + 1, (i,)
            for k in cols:
                for u, to in ((2 * k, hi), (2 * k + 1, lo - 1)):
                    if lo <= row[u] < hi:
                        row[u] = to
                        if 0 <= to < len(ys):
                            queue.setdefault(abs(k - ci) + abs(to - cj), []).append(u)
    return None


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
    exponent finer per axis, up to ``max(exponent, 6)``.  The ring search
    (:func:`_nearest_free`) probes only one cursor per column and direction,
    and a probe's blocker, a placed footprint from the bucket grid or else a
    keep-out, moves the cursors past exactly the points it covers: in ring
    order the first free cursor is the first free ring point, so the result
    is that of probing every point.  Raises :class:`LegalizationError` when
    a macro cannot be placed, and never returns an illegal placement.
    """
    placed = footprint_grid(netlist, {})

    def blocker(box: Box) -> Box | None:
        return placed.first_hit(*box) or next(
            (r for r in area.blockages if overlaps(box, r)), None
        )

    out: Placement = {}
    order = sorted(netlist.macros, key=lambda m: (-m.area, m.id))
    for m in order:
        if m.id not in placement:
            raise ValueError(f"macro {m.id!r} has no position")
        b = compute_bounds(m, area)
        x, y = placement[m.id]
        start = (min(max(x, b.x_min), b.x_max), min(max(y, b.y_min), b.y_max))
        inside = b.x_min <= start[0] <= b.x_max and b.y_min <= start[1] <= b.y_max
        found = start if inside and blocker(footprint_box(m, start)) is None else None
        for k in range(max(_FINEST_RETRY - min(grid_p, grid_q), 0) + 1):
            if found is not None:
                break
            p = max(grid_p, min(grid_p + k, _FINEST_RETRY))
            q = max(grid_q, min(grid_q + k, _FINEST_RETRY))
            found = _nearest_free(
                _lattice(b.x_min, b.x_max, area.width / (1 << p)),
                _lattice(b.y_min, b.y_max, area.height / (1 << q)),
                start,
                (m.size_x / 2.0, m.size_y / 2.0),
                blocker,
            )
        if found is None:
            raise LegalizationError(m.id)
        out[m.id] = found
        placed.put(m.id, footprint_box(m, found))

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
