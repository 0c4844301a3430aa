"""Iterative macro placement driven by a growing dual cost field.

Each round picks a random macro, proposes candidate positions around it, and
moves it to the candidate minimizing

    field cost of the snapped footprint
    + length of every net containing the macro
    + overlap penalty against all other macros
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
candidate is then scored in one C call.  Runs are deterministic for a given
seed.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left
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
    GridRect,
    c_score_candidate,
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
        last = max(self.max_rounds - 1, 0)
        if not math.isfinite(self.penalty_c * self.delta_at(last)):
            raise ValueError(
                "penalty_c * delta0 * delta_growth**(max_rounds - 1) must be finite"
            )
        if not math.isfinite(self.w_at(last)):
            raise ValueError("w0 * w_growth**(max_rounds - 1) must be finite")

    def _default_growth(self) -> float:
        if self.max_rounds <= 1:
            return 1000.0
        return 1000.0 ** (1.0 / self.max_rounds)

    def _grown(self, base: float, growth: float | None, step: int) -> float:
        """``base * growth**step``, infinite where that overflows."""
        try:
            g = growth if growth is not None else self._default_growth()
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
    # footprints of every macro at its current position
    grid: BucketGrid
    # the same footprints as x1, y1, x2, y2 per macro, in macro_order, and
    # the area's blockages likewise, for the C scoring kernel
    footprints: array
    blockage_boxes: array
    net_bb: list[float]
    net_indices_of: dict[str, list[int]]
    # only pairs with positive intersection area are stored
    pair_overlap: dict[tuple[str, str], float]
    # the macros each macro overlaps, i.e. its keys in pair_overlap
    partners: dict[str, set[str]]
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
    step: int, macro: Macro, pos: Point, grid: BucketGrid, config: PlacerConfig
) -> float:
    """Overlap penalty of ``macro`` at ``pos`` against all other macros, whose
    footprints ``grid`` holds (the state's grid): the penalty constant times
    the step's multiplier times the total circumference of the pairwise
    footprint intersections."""
    cand = footprint_box(macro, pos)
    boxes = grid.boxes
    total_circ = 0.0
    for mid in grid.hits(*cand):
        if mid == macro.id:
            continue
        ix1, iy1, ix2, iy2 = meet(cand, boxes[mid])
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
    its nets in ``net_indices_of`` order packed for the C core's
    ``score_candidate`` (per net: its pin count, the moving pin's index among
    them, then the other pins' ``x, y`` in order), its index in
    ``macro_order``, and the round's penalty factor (``penalty_c`` times the
    round's :meth:`PlacerConfig.delta_at`)."""

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
    mid = macro.id
    placement = state.placement
    nets = state.netlist.nets
    pins: list[float] = []
    for ni in state.net_indices_of[mid]:
        members = nets[ni].members
        pins += (len(members), members.index(mid))
        for other in members:
            if other != mid:
                pins += placement[other]
    return ScoreContext(
        macro.size_x / 2.0,
        macro.size_y / 2.0,
        _round_beta(state.round + 1, config),
        array("d", pins),
        bisect_left(state.macro_order, mid),
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
        ctx.pins, state.footprints, ctx.index, ctx.penalty_factor,
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
    order."""
    x, y = pos
    fp = (x - ctx.hx, y - ctx.hy, x + ctx.hx, y + ctx.hy)
    snapped = snap_to_grid(fp, state.area, config.grid_p, config.grid_q)
    score = state.field.cost(snapped) if snapped is not None else 0.0
    mid = macro.id
    placement = state.placement
    nets = state.netlist.nets
    for ni in state.net_indices_of[mid]:
        pts = [pos if m == mid else placement[m] for m in nets[ni].members]
        score += model_length(pts, ctx.beta)
    score += penalty(state.round, macro, pos, state.grid, config)
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
    increase per blockage, and fresh statistics caches; :func:`stats_row`
    gives its statistics row 0."""
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

    grid = footprint_grid(netlist, placement)
    footprints = array("d", [v for mid in macro_order for v in grid.boxes[mid]])
    net_indices_of: dict[str, list[int]] = {mid: [] for mid in macro_order}
    net_bb: list[float] = []
    for ni, net in enumerate(netlist.nets):
        net_bb.append(bb_netlength([placement[mid] for mid in net.members]))
        for mid in net.members:
            net_indices_of[mid].append(ni)
    pair_overlap: dict[tuple[str, str], float] = {}
    partners: dict[str, set[str]] = {mid: set() for mid in macro_order}
    for mi, mj in grid.pairs():
        ix1, iy1, ix2, iy2 = meet(grid.boxes[mi], grid.boxes[mj])
        pair_overlap[(mi, mj)] = (ix2 - ix1) * (iy2 - iy1)
        partners[mi].add(mj)
        partners[mj].add(mi)

    return PlacerState(
        netlist=netlist,
        area=area,
        rng=rng,
        placement=placement,
        field=fld,
        bounds=bounds,
        round=0,
        macro_order=macro_order,
        grid=grid,
        footprints=footprints,
        blockage_boxes=array("d", [v for b in area.blockages for v in b]),
        net_bb=net_bb,
        net_indices_of=net_indices_of,
        pair_overlap=pair_overlap,
        partners=partners,
    )


def stats_row(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """Statistics of the state as it stands after ``state.round`` rounds."""
    rnd = state.round
    beta = beta_schedule(rnd, config.max_rounds) if rnd else 1.0
    step = max(0, rnd - 1)
    return RoundStats(
        round=rnd,
        netlength_bb=sum(state.net_bb),
        overlap_area=sum(state.pair_overlap.values()),
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
    new_fp = footprint_box(macro, chosen)
    grid = state.grid
    grid.put(mid, new_fp)
    state.footprints[4 * mi : 4 * mi + 4] = array("d", new_fp)
    for ni in state.net_indices_of[mid]:
        net = state.netlist.nets[ni]
        state.net_bb[ni] = bb_netlength(
            [state.placement[m2] for m2 in net.members]
        )
    w = config.w_at(state.round)
    # hits come in macro_order, so pair_overlap gains new keys and the field
    # its increases in the order of a scan over every macro
    hits = [other for other in grid.hits(*new_fp) if other != mid]
    partners = state.partners
    for other in partners[mid].difference(hits):
        state.pair_overlap.pop((mid, other) if mid < other else (other, mid))
        partners[other].discard(mid)
    partners[mid] = set(hits)
    for other in hits:
        partners[other].add(mid)
        inter = meet(new_fp, grid.boxes[other])
        key = (mid, other) if mid < other else (other, mid)
        state.pair_overlap[key] = (inter[2] - inter[0]) * (inter[3] - inter[1])
        snapped = snap_to_grid(inter, state.area, config.grid_p, config.grid_q)
        if snapped is not None:
            state.field.increase(snapped, w)
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
    ``2**grid_p`` by ``2**grid_q``, deterministic tie order).  Raises
    :class:`LegalizationError` when a macro cannot be placed, and never
    returns an illegal placement.
    """
    gx = area.width / (1 << grid_p)
    gy = area.height / (1 << grid_q)

    placed = footprint_grid(netlist, {})

    def conflict_free(m: Macro, pos: Point, b: MacroBounds) -> bool:
        if not (b.x_min <= pos[0] <= b.x_max and b.y_min <= pos[1] <= b.y_max):
            return False
        box = footprint_box(m, pos)
        return not placed.hits(*box) and not any(
            overlaps(box, blk) for blk in area.blockages
        )

    out: Placement = {}
    order = sorted(netlist.macros, key=lambda m: (-m.area, m.id))
    for m in order:
        if m.id not in placement:
            raise ValueError(f"macro {m.id!r} has no position")
        b = compute_bounds(m, area)
        x, y = placement[m.id]
        x = min(max(x, b.x_min), b.x_max)
        y = min(max(y, b.y_min), b.y_max)
        if conflict_free(m, (x, y), b):
            out[m.id] = (x, y)
            placed.put(m.id, footprint_box(m, (x, y)))
            continue
        xs = _lattice(b.x_min, b.x_max, gx)
        ys = _lattice(b.y_min, b.y_max, gy)
        ci = min(bisect_left(xs, x), len(xs) - 1)
        if ci > 0 and abs(xs[ci - 1] - x) <= abs(xs[ci] - x):
            ci -= 1
        cj = min(bisect_left(ys, y), len(ys) - 1)
        if cj > 0 and abs(ys[cj - 1] - y) <= abs(ys[cj] - y):
            cj -= 1
        found: Point | None = None
        max_r = len(xs) + len(ys)
        for r in range(max_r + 1):
            for di in range(-r, r + 1):
                i = ci + di
                if not 0 <= i < len(xs):
                    continue
                rem = r - abs(di)
                for dj in ((rem, -rem) if rem else (0,)):
                    j = cj + dj
                    if not 0 <= j < len(ys):
                        continue
                    cand = (xs[i], ys[j])
                    if conflict_free(m, cand, b):
                        found = cand
                        break
                if found:
                    break
            if found:
                break
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
