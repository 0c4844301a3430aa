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
``placement`` a snapshot of the store's centers.  A whole round,
:func:`round_step`, is one ``step`` call on the store: it computes the
round's schedules, then runs the store's ``round``, which draws the macro
and its candidates (each proposal as :func:`move_macro` draws one), scores
each by :data:`candidate_score`, the store's own unbound ``score``, commits
the first smallest with ``move`` (the move and the field's growth under the
macro's meets), and inflates the field; ``step`` then sets the state's
round and winner and builds the statistics row.  On the C core the round
holds its candidates and their scores as C doubles, draws them from a plain
:class:`random.Random`'s own Mersenne Twister words in place, and with its
own ``score`` as the hook it scores each candidate with no call, and it
runs ``CostField.inflate``'s body with no call where the field still
resolves ``inflate`` to it, so the whole round runs in C; there it
settles a later candidate by a lower bound of its score (field sum,
net-length bounds, keep-out terms, then the overlap penalty) that already
reaches the least score before it, where its score is provably finite,
so the bits stay those of the full scores, which ``_pycore`` computes for
every candidate.  Another hook, such as the benchmark tracer's wrapper, is
called per candidate and its result read as ``float()`` reads it.  The
statistics row takes both its totals from the store.  Footprints sit in a
spatial index, so the penalty and the overlap update test a footprint only
against the macros near it.

A round evaluates its schedules (delta, beta and w) once, in floats from
the config's ``_schedule`` (:func:`~stepplace._pycore.schedules`), for its
candidates' net-model sharpness and penalty factor, its field growth and
its statistics row, which it builds as ``tuple.__new__`` does (no
named-tuple ``__new__``).  The legalizer checks its input and orders the
macros here, and places them all in one call of ``stepfield.core``'s
``legalize``.
Runs are deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass, fields

from stepplace import stepfield
# first_min and gamma: public names of this module too
from stepplace._pycore import MacroBounds, first_min, gamma, snap_to_grid  # noqa: F401
from stepplace._pycore import RoundStats, Schedule, grown, schedules
# imported only for the benchmark's tracer, which patches these names here
from stepplace._pycore import move_macro, penalty  # noqa: F401
from stepplace.netmodel import (
    MAX_GRID_EXPONENT,
    KeptPlacement,
    Macro,
    Netlist,
    Placement,
    PlacementArea,
    Point,
    is_legal,
    placement_store,
)
from stepplace.netmodel import bb_netlength, model_length  # noqa: F401 (tracer)
from stepplace.stepfield import CostField


class LegalizationError(Exception):
    """A macro has no conflict-free position, given those placed before it,
    or the legalizer's final check failed (``message`` says which)."""

    def __init__(self, macro_id: str, message: str | None = None) -> None:
        self.macro_id = macro_id
        super().__init__(message or f"no free position exists for macro {macro_id!r}: "
                         "each center in its bounds meets a keep-out or a macro "
                         "placed before it")


#: Largest accepted ``candidates_per_round`` (resource guard: a Python-core
#: round holds its candidates and scores in two lists, about 150 bytes per
#: candidate, so about 10 MiB at the cap; a C round holds 24 bytes each).
MAX_CANDIDATES_PER_ROUND = 2**16

_INT_FIELDS = frozenset(
    ("max_rounds", "candidates_per_round", "grid_p", "grid_q", "seed",
     "model_switch_round")
)


@dataclass(frozen=True)
class PlacerConfig:
    """Every tunable of the placement loop.

    ``delta_growth``/``w_growth`` default to the per-round factor that
    multiplies the respective schedule by 1000 over the whole run.  Each
    schedule computes in floats: ``delta_at(step)`` is ``float(delta0) *
    float(delta_growth)**step``, and ``w_at`` likewise, so an int growth
    powers as its float does.  The attribute ``_schedule``, set at
    construction, holds the scalars a round reads
    (:class:`~stepplace._pycore.Schedule`).  The
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
        # the switch round and the round's scalars in floats, once: a round
        # reads them (attributes, not fields: fields() and eq are unchanged)
        object.__setattr__(
            self,
            "switch_round",
            self.model_switch_round
            if self.model_switch_round is not None
            else max(1, int(round(0.8 * self.max_rounds))),
        )
        growth = 1000.0 if self.max_rounds <= 1 else 1000.0 ** (1.0 / self.max_rounds)
        object.__setattr__(self, "_schedule", Schedule(
            self.max_rounds, self.switch_round, self.candidates_per_round,
            float(self.penalty_c), float(self.delta0),
            float(growth if self.delta_growth is None else self.delta_growth),
            float(self.w0), float(growth if self.w_growth is None else self.w_growth),
            float(self.inflation_rho),
        ))
        last = max(self.max_rounds - 1, 0)
        if not math.isfinite(self._schedule.penalty_c * self.delta_at(last)):
            raise ValueError(
                "penalty_c * delta0 * delta_growth**(max_rounds - 1) must be finite"
            )
        if not math.isfinite(self.w_at(last)):
            raise ValueError("w0 * w_growth**(max_rounds - 1) must be finite")

    def delta_at(self, step: int) -> float:
        """Penalty multiplier for a 0-based step: ``float(delta0) *
        float(delta_growth)**step``, ``inf`` where the power overflows."""
        return grown(self._schedule.delta0, self._schedule.delta_growth, step)

    def w_at(self, rnd: int) -> float:
        """Field increment for a 0-based round, as :meth:`delta_at` from
        ``w0`` and ``w_growth``."""
        return grown(self._schedule.w0, self._schedule.w_growth, rnd)


def compute_bounds(macro: Macro, area: PlacementArea) -> MacroBounds:
    """Center-coordinate bounds of a macro that passes ``check_placeable``:
    the :meth:`~stepplace.netmodel.Netlist.bounds` pass of the macro alone."""
    return MacroBounds(*Netlist([macro], []).bounds(area))


def _clamped(mid: str, pos: Point, b) -> Point:
    """``pos`` clamped into the bounds ``b`` (as a :class:`MacroBounds`) of macro
    ``mid``; ``ValueError`` naming it where a coordinate is NaN."""
    x, y = pos
    if x != x or y != y:
        raise ValueError(f"macro {mid!r} has a NaN position ({x!r}, {y!r})")
    return min(max(x, b[0]), b[1]), min(max(y, b[2]), b[3])


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


#: The scoring hook :func:`round_step` hands the store, looked up here per
#: round: the unbound ``stepfield.core.PlacementStore.score`` as the package
#: loaded, called as ``score(store, i, x, y, beta, factor)``.  The one alias
#: of a core name, kept because the benchmark's tracer patches it.
candidate_score = stepfield.core.PlacementStore.score


def new_state(
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
    initial: Placement | None = None,
) -> PlacerState:
    """Initial loop state: ``stepfield.core``'s placement store, built by
    :func:`~stepplace.netmodel.placement_store` from the netlist's inputs and
    its :meth:`~stepplace.netmodel.Netlist.bounds` pass, each built once per
    netlist (a parsed one ran the pass in the parser), with each macro's
    center (a given position clamped into its bounds, a missing one drawn
    uniformly), on a zero field of that core plus one static increase per
    blockage; :func:`stats_row` gives its statistics row 0.  A macro
    :func:`~stepplace.netmodel.check_placeable` refuses, or an initial
    position that is NaN or names no macro, raises ``ValueError`` first."""
    bounds = netlist.bounds(area)
    initial = initial or {}
    for mid in initial:
        if mid not in netlist.by_id:
            raise ValueError(f"initial position for unknown macro {mid!r}")
    rng = random.Random(config.seed)
    uniform, it, centers = rng.uniform, iter(bounds), array("d")
    for mid, x0, x1, y0, y1 in zip(netlist.ids, it, it, it, it):
        if mid in initial:
            centers.extend(_clamped(mid, initial[mid], (x0, x1, y0, y1)))
        else:
            centers.extend((uniform(x0, x1), uniform(y0, y1)))

    fld = CostField(config.grid_p, config.grid_q)
    for blk in area.blockages:
        snapped = snap_to_grid(blk, area, config.grid_p, config.grid_q)
        if snapped is not None:
            fld.increase(snapped, config.blockage_weight)

    store = placement_store(netlist, area, centers, fld, bounds, config.blockage_weight)
    return PlacerState(
        config=config, rng=rng, round=0, macro_order=list(netlist.ids), store=store
    )


def _check_config(state: PlacerState, config: PlacerConfig) -> None:
    """Raise ``ValueError`` unless ``config`` equals the state's own; the
    callers test identity first."""
    if config != state.config:
        raise ValueError("config differs from the one the state was created with")


def stats_row(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """Statistics of the state as it stands after ``state.round`` rounds."""
    if config is not state.config:
        _check_config(state, config)
    rnd = state.round
    # built as a tuple is, without the named tuple's Python __new__
    return tuple.__new__(
        RoundStats, (rnd, *state.store.totals(), *schedules(rnd, config._schedule)))


def round_step(state: PlacerState, config: PlacerConfig) -> RoundStats:
    """One round: pick a macro at random, score the current position plus
    ``candidates_per_round`` proposals, move to the argmin (ties to the
    lowest index, the current position first), grow the field under every
    remaining overlap of the moved macro, inflate.  Returns the round's
    statistics row.

    The round is one ``step`` call on the state's store, which scores by
    :data:`candidate_score` as this module holds it at the call and reads
    the schedules from ``state.config``, that is ``config``.  The round's
    schedules (:func:`~stepplace._pycore.schedules`) give every
    candidate's net-model sharpness (None from ``switch_round`` on) and
    penalty factor (``penalty_c * delta``).  The winner's index is left on
    ``state.last_choice``.  A ``config`` not equal to ``state.config``,
    rounds exhausted, a state with no macros, or a score that is not finite
    (the field or the penalty overflowed), raises ``ValueError`` before
    anything moves, and all but a score before any draw.
    """
    if config is not state.config:
        _check_config(state, config)
    return state.store.step(candidate_score, state)


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


def naive_legalize(placement: Placement, netlist: Netlist, area: PlacementArea) -> Placement:
    """Greedy legalizer for nearly-legal placements.

    Macros are processed by area, largest first, then by id.  Each keeps its
    position, clamped into its bounds, if conflict-free; otherwise it moves
    to the nearest conflict-free center (L1 distance, ties by x, then y)
    within its bounds.  The placing loop is one call of ``stepfield.core``'s
    ``legalize`` on the netlist's half sides and its one
    :meth:`~stepplace.netmodel.Netlist.bounds` pass, the centers by index
    and the placing order; it clamps the starts, holds the placed footprints
    and the keep-outs, and probes candidates in rising distance (see
    ``_pycore.legalize``).  Before the call, the first macro in placing
    order without a position, that :func:`~stepplace.netmodel.check_placeable`
    refuses (which leaves every footprint non-empty) or with a NaN position
    raises ``ValueError`` naming it.  Raises :class:`LegalizationError`
    naming the first macro with no free center, given those placed before
    it, and never returns an illegal placement: the
    :class:`~stepplace.netmodel.KeptPlacement` it returns, in placing order,
    keeps the store of its legality check, which the summary reads.  Its
    points are the core's floats, kept ones too: a position of ints comes
    back as the floats equal to it."""
    ids = netlist.ids
    areas = [netlist.by_id[mid].area for mid in ids]
    # keys are indices, so a probe's blocker, the footprint of the least key
    # that meets it, is that of the least id; by area, then id: a stable sort
    order = sorted(range(len(ids)), key=areas.__getitem__, reverse=True)
    try:
        bounds = netlist.bounds(area)
        centers = array("d", [v for x, y in map(placement.__getitem__, ids) for v in (x, y)])
        if centers != centers:  # exactly where a center is NaN
            raise ValueError
    except (KeyError, ValueError):
        for k in order:  # the first refused in placing order, as before the pass
            if ids[k] not in placement:
                raise ValueError(f"macro {ids[k]!r} has no position") from None
            _clamped(ids[k], placement[ids[k]], compute_bounds(netlist.by_id[ids[k]], area))
        raise
    points = stepfield.core.legalize(
        area.width, area.height, netlist.halves, bounds, centers, order,
        array("d", [v for b in area.blockages for v in b]),
    )
    if len(points) < len(order):
        raise LegalizationError(ids[order[len(points)]])
    out = KeptPlacement(zip(map(ids.__getitem__, order), points))

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
