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
index, the placement's only copy: the cost field it is built on, the area's
keep-outs with their weight, each macro's center, bounds, half-sizes and
footprint, the nets with their bounding-box lengths and the live overlap
pairs with their areas.  It is ``stepfield.core``'s ``PlacementStore``: the
C core's, or its Python reference in :mod:`stepplace._pycore`, which
answers with the same bits.  The state's field is the store's, and its
``placement`` a snapshot of the store's centers.  A whole round is one
``round`` call on the store: it draws the macro and its candidates (each
proposal as :func:`move_macro` draws one), scores each through
:data:`candidate_score`, handing it the store, commits the first smallest
with ``move`` (the move and the field's growth under the macro's meets),
and inflates the field.  On the C core all but the rng and the field's
``inflate`` runs in C.  The statistics row takes both its totals from the
store.  Footprints sit in a spatial index, so the penalty and the overlap
update test a footprint only against the macros near it.

A round evaluates its schedules (delta, beta and w) once, taking the power
of a growth both share once, for its candidates' net-model sharpness and
penalty factor, its field growth and its statistics row.  The legalizer
keeps its order here and searches in ``stepfield.core``'s ``FreeSpace``.
Runs are deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import NamedTuple

from stepplace import stepfield
# first_min and gamma: public names of this module too
from stepplace._pycore import MacroBounds, first_min, gamma, snap_to_grid  # noqa: F401
# imported only for the benchmark's tracer, which patches these names here
from stepplace._pycore import move_macro, penalty  # noqa: F401
from stepplace.netmodel import (
    MAX_GRID_EXPONENT,
    Macro,
    Netlist,
    Placement,
    PlacementArea,
    Point,
    beta_schedule,
    check_placeable,
    footprint_box,
    is_legal,
)
from stepplace.netmodel import bb_netlength, model_length  # noqa: F401 (tracer)
from stepplace.stepfield import CostField


class LegalizationError(Exception):
    """No conflict-free position could be found for a macro."""

    def __init__(self, macro_id: str, message: str | None = None) -> None:
        self.macro_id = macro_id
        super().__init__(message or f"no legal position found for macro {macro_id!r}")


#: Largest accepted ``candidates_per_round`` (resource guard: a round holds
#: its candidates and their scores in two lists, about 150 bytes per
#: candidate, so about 10 MiB at the cap).
MAX_CANDIDATES_PER_ROUND = 2**16

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
        if not 0 <= self.candidates_per_round <= MAX_CANDIDATES_PER_ROUND:
            raise ValueError(
                f"candidates_per_round must be in [0, {MAX_CANDIDATES_PER_ROUND}]")
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
    # and the field and keep-outs it scores against: a core's PlacementStore
    store: object
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


#: The scoring hook :func:`round_step` hands the store, looked up here per
#: round: ``stepfield.core.candidate_score`` as the package loaded.  The one
#: alias of a core name, kept because the benchmark's tracer patches it.
candidate_score = stepfield.core.candidate_score


def new_state(
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
    initial: Placement | None = None,
) -> PlacerState:
    """Initial loop state: ``stepfield.core``'s placement store, with each
    macro's bounds and center (a given position clamped into the bounds, a
    missing one drawn uniformly), on a zero field of that core plus one
    static increase per blockage; :func:`stats_row` gives its statistics
    row 0.  A macro :func:`~stepplace.netmodel.check_placeable` refuses, or
    an initial position that is NaN or names no macro, raises ``ValueError``
    first."""
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
    store = stepfield.core.PlacementStore(
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

    The round is one ``round`` call on the state's store, which scores by
    :data:`candidate_score` as this module holds it.  The
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


# where a lattice has no free position, the legalizer retries on finer ones
# up to this exponent (two past the default grid)
_FINEST_RETRY = 8


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
    footprints and the keep-outs sit in ``stepfield.core``'s ``FreeSpace``.
    Its ring search (``_pycore._nearest_free``) probes only one cursor per
    column and direction, and a probe's blocker, a placed footprint or else
    a keep-out, moves the cursors past exactly the points it covers: in ring
    order the first free cursor is the first free ring point, so the result
    is that of probing every point, on both cores.  Before any search is
    built, a macro without a position, with a NaN one, or that
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
    space = stepfield.core.FreeSpace(
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
