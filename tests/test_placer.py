import io
import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import fields, replace
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepplace._pycore as _pycore
import stepplace.placer as placer
import stepplace.stepfield as stepfield
import oracles
from oracles import coefficients, intersection, oracle_legalize
from stepplace.io_cli import GenSpec, generate_instance, write_stats_csv
from stepplace.netmodel import (
    MIN_AREA_SIDE,
    BucketGrid,
    LegalityReport,
    Macro,
    Net,
    Netlist,
    PlacementArea,
    Rect,
    bb_netlength,
    beta_schedule,
    footprint_box,
    footprint_grid,
    is_legal,
    meet,
    model_length,
    overlaps,
)
from stepplace.placer import (
    MAX_CANDIDATES_PER_ROUND,
    LegalizationError,
    MacroBounds,
    PlacerConfig,
    candidate_score,
    compute_bounds,
    gamma,
    move_macro,
    naive_legalize,
    new_state,
    penalty,
    round_step,
    run_placer,
    snap_to_grid,
    stats_row,
)
from stepplace.stepfield import MAX_GRID_EXPONENT, CostField, GridRect


def square_area(side=8.0, blockages=()):
    return PlacementArea(side, side, blockages)


# ring probes of naive_legalize on blocked_instance(), plus one per macro,
# with the least-keyed footprint as each probe's blocker
PROBES = 449


def blocked_instance():
    """30 macros started in the lower-left quarter of an area with three
    keep-outs, so most of them must move."""
    netlist, area = generate_instance(GenSpec(macros=30, nets=0, seed=4))
    w, h = area.width, area.height
    area = PlacementArea(w, h, (
        Rect(0.1 * w, 0.2 * h, 0.25 * w, 0.3 * h),
        Rect(0.5 * w, 0.5 * h, 0.6 * w, 0.75 * h),
        Rect(0.7 * w, 0.1 * h, 0.9 * w, 0.2 * h),
    ))
    rng = random.Random(4)
    start = {m.id: (rng.uniform(0, w / 2), rng.uniform(0, h / 2))
             for m in netlist.macros}
    return start, netlist, area


def counted_legalize(start, netlist, area):
    """``naive_legalize`` at exponent 6 on the Python reference search, and
    its probes: one for each macro's start, one for each blocker query of the
    ring search."""
    probes = len(netlist.macros)
    search, core = _pycore._nearest_free, stepfield.core

    def counted_search(xs, ys, pos, half, blocker):
        def probe(box):
            nonlocal probes
            probes += 1
            return blocker(box)

        return search(xs, ys, pos, half, probe)

    _pycore._nearest_free, stepfield.core = counted_search, _pycore
    try:
        got = naive_legalize(start, netlist, area, 6, 6)
    finally:
        _pycore._nearest_free, stepfield.core = search, core
    return got, probes


def box_edges(vals, h):
    """The edges of the footprints ``h`` either side of ``vals`` and two
    beyond them, ascending."""
    far = 4 * h + 4
    return sorted({v - h for v in vals} | {v + h for v in vals}
                  | {vals[0] - far, vals[-1] + far})


@st.composite
def ring_searches(draw):
    """Arguments of ``_nearest_free`` plus the boxes its blocker reports,
    with every footprint non-empty, as the legalizer's are.

    At ``2**51`` floats are 0.5 apart, so a half side of 0.75 rounds the
    footprint edges (to even) and one of 0.5 does not.  Box edges come from
    the footprint edges, so boxes often touch footprints edge to edge, and
    from beyond the lattice, so some span whole columns or rows."""
    if draw(st.booleans(), label="at 2**51"):
        base, step = 2.0**51, st.sampled_from([0.5, 1.0, 1.5])
        half = st.sampled_from([0.5, 0.75, 1.0])
    else:
        base, step = draw(st.floats(0, 100), label="base"), st.floats(0.125, 3)
        half = st.floats(0.05, 4)
    xs, ys = (list(accumulate([base] + draw(st.lists(step, max_size=9), label=a)))
              for a in ("xs", "ys"))
    hx, hy = draw(half, label="hx"), draw(half, label="hy")

    ex, ey = box_edges(xs, hx), box_edges(ys, hy)
    ix, iy = st.integers(0, len(ex) - 1), st.integers(0, len(ey) - 1)
    boxes = [
        (ex[min(a, b)], ey[min(c, d)], ex[max(a, b)], ey[max(c, d)])
        for a, b, c, d in draw(st.lists(st.tuples(ix, ix, iy, iy), max_size=6),
                               label="boxes")
    ]
    # centers on, between and beyond the lattice points
    pos = tuple(
        draw(st.sampled_from([v[0] - 1] + v + [v[-1] + 1]), label=f"{a} center")
        + draw(st.sampled_from([0.0, 0.25, -0.25, 0.5]), label=f"{a} offset")
        for a, v in (("x", xs), ("y", ys))
    )
    return xs, ys, pos, (hx, hy), boxes


# empty footprints a jump passes, at 2**51 + 1 in a column and in a row:
# arguments of FreeSpace.nearest_free and the footprint blocking the rest
_B = 2.0**51
EMPTY_COLUMN = ((_B, _B + 1, 0.5, _B, _B, 1.0, _B - 1, _B - 1, 0.25, 0.25),
                [(_B - 5, _B - 5, _B + 6, _B, False)])
EMPTY_ROW = ((_B, _B, 1.0, _B, _B + 1.5, 0.5, _B, _B, 0.25, 0.25),
             [(_B - 5, _B - 5, _B + 5, _B + 3, False)])
# two footprints meet the start: the least-keyed one, right of 2**51,
# covers every row; the other, left of it, spares the empty footprint at
# 2**51 + 1.  With 14 empty boxes before them the C index has cells 2**51
# wide, so each search meets the other footprint in an earlier cell: they
# agree only where both report the least key whatever their cells
LEAST_KEY = ((_B - 0.5, _B - 0.5, 1.0, _B - 1, _B + 1, 1.0, _B - 0.5, _B - 1, 1.0, 0.25),
             [(_B - 7, _B - 6, _B - 7, _B - 6, False)] * 14
             + [(_B, _B - 2, _B + 2, _B + 3, False), (_B - 2, _B - 2, _B - 1, _B + 0.5, False)])
# a case hypothesis found where the searches disagreed: the reference met
# the later-keyed footprint first, in its finer cells
LEAST_KEY_FOUND = (
    (_B - 1, _B - 0.5, 0.5, _B - 1, _B + 1, 1.0, _B - 2, _B - 2, 0.5, 0.25),
    [(_B - 7, _B - 6, _B - 7, _B - 6, False)] * 4
    + [(_B - 1, _B - 6, _B - 0.5, _B + 6, False), (_B - 7, _B - 6, _B - 0.5, _B, False)])
# a box that blocks the center and touches the free column or row beside it
TOUCHING_COLUMN = ([-1.0, 0.0], [0.0, 1.0, 2.0], (0.0, 2.0), (0.5, 0.5),
                   [(-0.5, 1.5, 1.0, 3.0)])
TOUCHING_ROW = ([0.0], [0.0, 1.0, 2.0], (0.0, 2.0), (0.5, 0.5),
                [(-1.0, 1.5, 1.0, 3.0)])


needs_c_space = pytest.mark.skipif(stepfield.c_core is None, reason="C core not built")


@st.composite
def lattice_searches(draw):
    """Arguments of ``FreeSpace.nearest_free`` (the lattice ``lo + i *
    step`` below ``hi``, then ``hi``, per axis, a start and half sides) and
    the boxes to block it with, each put as a footprint or a keep-out:
    lattices near 0–100 (where a half side of 1e-300 leaves every footprint
    empty) and at ``2**51`` (where one of 0.25 leaves every other footprint
    empty), one-point lattices (``hi == lo``), box edges from the footprint
    edges and from beyond, as in :func:`ring_searches`."""
    big = draw(st.booleans(), label="at 2**51")
    if big:
        base = st.sampled_from([_B + k / 2 for k in range(-2, 3)])
        step, half = st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([0.25, 0.25, 0.5])
    else:
        base, step = st.floats(0, 100), st.floats(0.125, 3)
        half = st.one_of(st.floats(0.05, 4), st.just(1e-300))
    axes = []
    for a in ("x", "y"):
        lo, d = draw(base, label=f"{a} lo"), draw(step, label=f"{a} step")
        n = draw(st.integers(0, 9), label=f"{a} points")
        hi = lo + n * d + draw(st.sampled_from([0.0, d / 2]), label=f"{a} beyond")
        vals = _pycore._lattice(lo, hi, d)
        axes.append((lo, hi, d, vals, draw(half, label=f"h{a}")))
    (_, _, _, xs, hx), (_, _, _, ys, hy) = axes

    ex, ey = box_edges(xs, hx), box_edges(ys, hy)
    ix, iy = st.integers(0, len(ex) - 1), st.integers(0, len(ey) - 1)
    boxes = [
        (ex[min(a, b)], ey[min(c, d)], ex[max(a, b)], ey[max(c, d)], keepout)
        for a, b, c, d, keepout in draw(
            st.lists(st.tuples(ix, ix, iy, iy, st.booleans()), max_size=6), label="boxes")
    ]
    pos = tuple(
        draw(st.sampled_from([v[0] - 1] + v + [v[-1] + 1]), label=f"{a} center")
        + draw(st.sampled_from([0.0, 0.25, -0.25, 0.5]), label=f"{a} offset")
        for a, v in (("x", xs), ("y", ys))
    )
    (x_lo, x_hi, x_step, _, _), (y_lo, y_hi, y_step, _, _) = axes
    return (x_lo, x_hi, x_step, y_lo, y_hi, y_step, *pos, hx, hy), boxes


def spaces_blocked_by(boxes, side):
    """A C and a Python free space over a ``side`` x ``side`` area, holding
    each box as a placed footprint or, where its flag says so, a keep-out."""
    footprints = [b[:4] for b in boxes if not b[4]]
    keepouts = array("d", [v for b in boxes if b[4] for v in b[:4]])
    spaces = [make(side, side, 1.0, 1.0, len(footprints), keepouts)
              for make in (stepfield.c_core.FreeSpace, _pycore.FreeSpace)]
    for space in spaces:
        for k, box in enumerate(footprints):
            space.put(k, *box)
    return spaces


@st.composite
def legalizer_instances(draw):
    """A start placement, netlist, area and grid exponents for
    ``naive_legalize``: random macros and keep-outs over a window of the area
    (``random``), macros and keep-outs on whole units, so that footprints
    touch edge to edge (``touching``), macros as tall as the area, so that
    their row lattice is one point (``row``), or macros at ``2**51``, where
    floats are 0.5 apart, with half sides just above the ulp of the area's
    ``2**52`` side (``2**51``).  Exponents from 0 make the coarse lattices
    fail and retry finer, and full areas make the search fail."""
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    kind = draw(st.sampled_from(["random", "touching", "row", "2**51"]), label="kind")
    n = draw(st.integers(1, 16), label="macros")
    keepouts = []
    if kind == "random":
        w, h = rng.uniform(4, 40), rng.uniform(4, 40)
        side = math.sqrt(rng.uniform(0.05, 1.0) * w * h / n)
        sizes = [(min(w / 2, side * rng.uniform(0.4, 1.6)),
                  min(h / 2, side * rng.uniform(0.4, 1.6))) for _ in range(n)]
        for _ in range(rng.randrange(4)):
            kw, kh = w * rng.uniform(0.02, 0.3), h * rng.uniform(0.02, 0.3)
            x, y = rng.uniform(0, w - kw), rng.uniform(0, h - kh)
            keepouts.append(Rect(x, y, x + kw, y + kh))
        f = rng.random()
        starts = [(rng.uniform(0, f * w), rng.uniform(0, f * h)) for _ in range(n)]
    elif kind == "touching":
        w = h = 16.0
        sizes = [(float(rng.randint(1, 4)), float(rng.randint(1, 4))) for _ in range(n)]
        for _ in range(rng.randrange(3)):
            x, y = rng.randrange(15), rng.randrange(15)
            keepouts.append(Rect(x, y, x + rng.randint(1, 16 - x), y + rng.randint(1, 16 - y)))
        starts = [(rng.randint(0, 8) + sx / 2, rng.randint(0, 8) + sy / 2)
                  for sx, sy in sizes]
    elif kind == "row":
        w, h = rng.uniform(4, 40), rng.uniform(0.5, 4)
        sizes = [(rng.uniform(0.2, w / 3), h) for _ in range(n)]
        starts = [(rng.uniform(0, w), h / 2) for _ in range(n)]
    else:
        w, h = 2.0**52, 4.0
        sizes = [(rng.choice([2.5, 3.0, 3.5]), rng.choice([2.5, 4.0])) for _ in range(n)]
        keepouts.append(Rect(_B - 2, 0.0, _B + rng.randint(0, 4) / 2, rng.randint(1, 4)))
        starts = [(_B + rng.randint(-4, 4) / 2, rng.uniform(0, h)) for _ in range(n)]
    macros = [Macro(f"m{i:02d}", sx, sy) for i, (sx, sy) in enumerate(sizes)]
    start = {m.id: pos for m, pos in zip(macros, starts)}
    p = draw(st.integers(0, 8), label="grid_p")
    q = draw(st.integers(0, 8), label="grid_q")
    return start, Netlist(macros, []), PlacementArea(w, h, tuple(keepouts)), p, q


class TestSnapToGrid:
    def test_documented_example(self):
        area = PlacementArea(8, 8)
        got = snap_to_grid(Rect(0.3, 0.2, 2.5, 1.0), area, 3, 3)
        assert got == GridRect(0, 0, 3, 1)

    def test_aligned_rect_is_fixed_point(self):
        area = PlacementArea(8, 8)
        got = snap_to_grid(Rect(2.0, 1.0, 5.0, 4.0), area, 3, 3)
        assert got == GridRect(2, 1, 5, 4)

    def test_subcell_rect_snaps_to_single_cell(self):
        area = PlacementArea(8, 8)
        got = snap_to_grid(Rect(3.2, 5.4, 3.9, 5.8), area, 3, 3)
        assert got == GridRect(3, 5, 4, 6)

    def test_clipping_and_degenerate(self):
        area = PlacementArea(8, 8)
        assert snap_to_grid(Rect(-3, -3, -1, 5), area, 3, 3) is None
        got = snap_to_grid(Rect(-3, 2, 1.5, 3.0), area, 3, 3)
        assert got == GridRect(0, 2, 2, 3)

    def test_fractional_cells(self):
        area = PlacementArea(10, 10)  # cell 2.5 x 2.5 on a 4x4 grid
        got = snap_to_grid(Rect(2.4, 0.0, 2.6, 2.5), area, 2, 2)
        assert got == GridRect(0, 0, 2, 1)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_property_indices_in_grid(self, data):
        # the field's own checks are the only guard on these indices
        draw = data.draw
        # or just above the smallest side, where a cell (side / 2**p) is
        # barely a normal float, so still exact
        side = st.one_of(
            st.floats(0.5, 1e4), st.floats(MIN_AREA_SIDE, 4 * MIN_AREA_SIDE)
        )
        w, h = draw(side), draw(side)
        p, q = (draw(st.integers(0, MAX_GRID_EXPONENT)) for _ in "pq")

        def corners(span, n):  # low and high corner on one axis
            # anywhere, on a cell edge, or an ulp beside one
            lo = draw(st.one_of(
                st.floats(-span, 2.0 * span),
                st.integers(-n, 2 * n).map(lambda k: k * span / n),
            ))
            lo = draw(st.sampled_from(
                [lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf)]
            ))
            # as wide as twice the area, at most one cell, or a few ulps
            size = draw(st.one_of(
                st.floats(0.0, 2.0 * span),
                st.floats(0.0, span / n),
                st.integers(1, 3).map(lambda k: k * math.ulp(lo)),
            ))
            return lo, lo + size

        def box():
            (x1, x2), (y1, y2) = corners(w, 1 << p), corners(h, 1 << q)
            return (x1, y1, x2, y2)

        b = box()
        if draw(st.booleans()):  # the overlap of two footprints
            b = meet(b, box())
        got = snap_to_grid(b, PlacementArea(w, h), p, q)
        assert (got is None) == (not overlaps(b, (0.0, 0.0, w, h)))
        if got is not None:
            assert all(type(v) is int for v in got)
            assert 0 <= got.a1 < got.a2 <= 1 << p
            assert 0 <= got.b1 < got.b2 <= 1 << q


class TestGamma:
    def test_u_zero_gives_one(self):
        for span in (1.0, 3.7, 1e4):
            assert gamma(span, 0.0) == 1.0

    def test_u_one_gives_span(self):
        for span in (1.0, 3.7, 1e4):
            assert gamma(span, 1.0) == pytest.approx(span, rel=1e-12)

    def test_subunit_span_is_zero(self):
        assert gamma(0.5, 0.3) == 0.0
        assert gamma(0.0, 0.9) == 0.0

    @given(st.floats(1.0, 1e6), st.floats(0.0, 1.0))
    def test_range(self, span, u):
        g = gamma(span, u)
        assert 1.0 <= g <= span * (1 + 1e-12)


class FixedRng:
    """Returns the given draws in order from ``random()``."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


needs_c_move = pytest.mark.skipif(stepfield.c_core is None, reason="C core not built")


def draw_stores(pos, bounds):
    """A store of each loaded core, the C one first, each holding one macro
    centered at ``pos`` with ``bounds``, which need not hold ``pos``."""
    args = (8.0, 8.0, 1.0, 1.0, array("d", [0.5, 0.5]), array("d", pos),
            array("d", bounds), [], array("d"), 1.0)
    py = _pycore.PlacementStore(CostField(1, 1, "py"), *args)
    if stepfield.c_core is None:
        return [py]
    return [stepfield.c_core.PlacementStore(CostField(1, 1, "c"), *args), py]


def hexes(p):
    """The bits of each coordinate of ``p``."""
    return tuple(float.hex(v) for v in p)


def after_draws(draw, make_rng):
    """``draw(rng)`` on an rng from ``make_rng()``: what it returned, or the
    type of what it raised, with the rng's state or leftover draws after it."""
    rng = make_rng()
    try:
        got = draw(rng)
    except Exception as exc:  # the type is compared
        got = type(exc)
    return got, rng.getstate() if hasattr(rng, "getstate") else rng.draws


def both_moves(pos, bounds, make_rng):
    """The Python draw ``move_macro`` and the C store's draw, one proposal
    of its ``proposals`` for a macro centered at ``pos`` with ``bounds``, as
    :func:`after_draws` gives each."""
    c_store = draw_stores(pos, bounds)[0]
    return [
        after_draws(lambda rng: hexes(move_macro(pos, bounds, rng)), make_rng),
        after_draws(lambda rng: hexes(c_store.proposals(0, rng, 1)[1]), make_rng),
    ]


# direction draws, just below and at the coin's edge, ints, and NaN; jump
# draws, also beyond [0, 1] (random.Random draws the uniforms in between)
COIN_DRAWS = [0, 1, 0.0, math.nextafter(0.5, 0.0), 0.5, 0.25, 0.75, math.nan]
JUMP_DRAWS = [0, 1, 0.0, 1.0, math.nextafter(1.0, 0.0), 0.5, math.nan, -3.5, 7.0]


class TestMoveMacro:
    def test_no_room_rightward_stays(self):
        b = MacroBounds(1.0, 9.0, 1.0, 9.0)

        # a=-1 (rightward) at x=x_max: span 0 -> gamma 0 -> no x move
        rng = FixedRng([0.9, 0.9, 0.5, 0.5])
        x, y = move_macro((9.0, 9.0), b, rng)
        assert x == 9.0 and y == 9.0

    def test_unit_left_jump_for_u_zero(self):
        b = MacroBounds(1.0, 9.0, 1.0, 9.0)
        rng = FixedRng([0.1, 0.1, 0.0, 0.0])  # a=1, b=1, u=0 twice
        x, y = move_macro((5.0, 5.0), b, rng)
        assert (x, y) == (4.0, 4.0)

    def test_golden_sequence_seed_123(self):
        b = MacroBounds(1.0, 9.0, 1.0, 9.0)
        rng = random.Random(123)
        pos = (5.0, 5.0)
        seq = []
        for _ in range(5):
            pos = move_macro(pos, b, rng)
            seq.append(pos)
        assert seq == [
            (3.074028850104982, 3.8107333682727234),
            (5.670331029829944, 2.2511460057811803),
            (7.170576550449601, 1.0),
            (4.808698155305271, 1.0),
            (6.38023858219465, 1.0),
        ]

    @needs_c_move
    @settings(max_examples=400, deadline=None)
    @given(
        x_min=st.floats(-1e6, 1e6),
        y_min=st.floats(-1e6, 1e6),
        # spans below 1 leave no room to jump
        spans=st.tuples(*[st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e6))] * 2),
        # where the macro sits in its bounds, up to 2 units beyond them
        at=st.tuples(*[st.floats(-2.0, 3.0)] * 2),
        seed=st.one_of(st.none(), st.integers(0, 2**64)),
        draws=st.tuples(
            st.sampled_from(COIN_DRAWS),
            st.sampled_from(COIN_DRAWS),
            st.sampled_from(JUMP_DRAWS),
            st.sampled_from(JUMP_DRAWS),
        ),
    )
    # proposals clamped to the lower bounds (a jump one unit past them) and
    # to the upper ones (from beyond them, with no room to jump)
    @example(x_min=2.0, y_min=2.0, spans=(6.0, 6.0), at=(0.0, 0.0), seed=None,
             draws=(0.1, 0.1, 1.0, 1.0))
    @example(x_min=2.0, y_min=2.0, spans=(6.0, 6.0), at=(1.5, 1.5), seed=None,
             draws=(0.9, 0.9, 0.5, 0.5))
    # a NaN jump with room to jump: the clamp keeps the NaN, as max and min do
    @example(x_min=2.0, y_min=2.0, spans=(6.0, 6.0), at=(0.5, 0.5), seed=None,
             draws=(0.1, 0.9, math.nan, math.nan))
    def test_c_twin_draws_and_returns_the_same_bits(
        self, x_min, y_min, spans, at, seed, draws
    ):
        b = MacroBounds(x_min, x_min + spans[0], y_min, y_min + spans[1])
        pos = (x_min + at[0] * spans[0], y_min + at[1] * spans[1])
        if seed is None:
            py, c = both_moves(pos, b, lambda: FixedRng(draws))
        else:
            py, c = both_moves(pos, b, lambda: random.Random(seed))
        assert c == py
        assert isinstance(c[0], tuple)

    @needs_c_move
    def test_c_twin_lands_on_each_bound(self):
        # the two clamping examples above, landing on all four bounds
        b = MacroBounds(2.0, 8.0, 2.0, 8.0)
        for pos, draws, want in [
            ((2.0, 2.0), (0.1, 0.1, 1.0, 1.0), (2.0, 2.0)),
            ((11.0, 11.0), (0.9, 0.9, 0.5, 0.5), (8.0, 8.0)),
        ]:
            py, c = both_moves(pos, b, lambda: FixedRng(draws))
            assert c == py
            assert tuple(map(float.fromhex, c[0])) == want

    @needs_c_move
    def test_c_twin_raises_as_the_reference(self):
        b = MacroBounds(0.0, 2000.0, 0.0, 2000.0)

        class Boom(FixedRng):
            def random(self):
                if len(self.draws) == 2:
                    raise RuntimeError("rng failed")
                return super().random()

        # the third draw raises; a jump draw far above 1 over a span of 1001
        # overflows exp, as math.exp raises; a jump draw or a coin draw that
        # is no number (a coin is compared before the next draw)
        for make, error, left in [
            (lambda: Boom([0.1, 0.1, 0.5, 0.5]), RuntimeError, 2),
            (lambda: FixedRng([0.1, 0.1, 1e6, 0.5]), OverflowError, 0),
            (lambda: FixedRng([0.9, 0.9, 0.5, 1e6]), OverflowError, 0),
            (lambda: FixedRng([0.1, 0.1, "u", 0.5]), TypeError, 0),
            (lambda: FixedRng(["u", 0.1, 0.5, 0.5]), TypeError, 3),
            (lambda: FixedRng([0.1, "u", 0.5, 0.5]), TypeError, 2),
        ]:
            py, c = both_moves((1000.0, 1000.0), b, make)
            assert c == py and c[0] is error
            assert len(c[1]) == left
        with pytest.raises(TypeError, match="3 arguments"):
            draw_stores((1.0, 1.0), b)[0].proposals(0, FixedRng([0.1] * 4))

    def test_move_macro_is_the_python_draw_on_both_cores(self):
        # the C core has no draw of its own beside its store's proposals
        assert move_macro.__module__ == "stepplace._pycore"
        assert not hasattr(stepfield, "c_move_macro")
        assert not hasattr(stepfield.c_core, "move_macro")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    def test_stays_within_bounds(self, seed, x0, y0):
        b = MacroBounds(2.0, 38.0, 1.5, 14.5)
        rng = random.Random(seed)
        pos = (min(max(x0, b.x_min), b.x_max), min(max(y0, b.y_min), b.y_max))
        for _ in range(20):
            pos = move_macro(pos, b, rng)
            assert b.x_min <= pos[0] <= b.x_max
            assert b.y_min <= pos[1] <= b.y_max


def both_batches(pos, bounds, make_rng, count):
    """The C and the Python store's ``proposals`` for a macro centered at
    ``pos`` with ``bounds``, as :func:`after_draws` gives each, its
    proposals as float hex strings after checking that the first candidate
    is the center."""

    def batch(store):
        def draw(rng):
            got = store.proposals(0, rng, count)
            assert hexes(got[0]) == hexes(pos) and len(got) == 1 + len(range(count))
            return [hexes(p) for p in got[1:]]

        return draw

    return [after_draws(batch(store), make_rng) for store in draw_stores(pos, bounds)]


class TestProposals:
    """A round's candidates in one call on the store: the C store's
    ``proposals`` against the Python store's, which draws by ``move_macro``
    from the center and the bounds the store holds."""

    @needs_c_move
    @settings(max_examples=300, deadline=None)
    @given(
        x_min=st.floats(-1e6, 1e6),
        y_min=st.floats(-1e6, 1e6),
        spans=st.tuples(*[st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e6))] * 2),
        # the center in its bounds or up to 2 spans beyond them
        at=st.tuples(*[st.floats(-2.0, 3.0)] * 2),
        count=st.integers(0, 9),
        seed=st.one_of(st.none(), st.integers(0, 2**64)),
        # coin and jump draws for up to nine proposals; fewer than a batch
        # needs make the rng raise (IndexError) in the middle of it
        draws=st.lists(
            st.tuples(
                st.sampled_from(COIN_DRAWS),
                st.sampled_from(COIN_DRAWS),
                st.sampled_from(JUMP_DRAWS),
                st.sampled_from(JUMP_DRAWS),
            ),
            max_size=9,
        ).map(lambda ds: [d for four in ds for d in four]),
    )
    # the third proposal's x jump overflows exp; the second proposal's
    # fourth draw finds none left
    @example(x_min=0.0, y_min=0.0, spans=(2000.0, 2000.0), at=(0.5, 0.5), count=4,
             seed=None, draws=[0.1, 0.1, 0.5, 0.5] * 2 + [0.1, 0.1, 1e6, 0.5] * 2)
    @example(x_min=0.0, y_min=0.0, spans=(2000.0, 2000.0), at=(0.5, 0.5), count=2,
             seed=None, draws=[0.9, 0.2, 0.5, 0.5, 0.9, 0.2, 0.5])
    # a center beyond both bounds, below and above
    @example(x_min=2.0, y_min=2.0, spans=(6.0, 6.0), at=(-2.0, 3.0), count=3,
             seed=7, draws=[])
    def test_c_twin_draws_and_returns_the_same_bits(
        self, x_min, y_min, spans, at, count, seed, draws
    ):
        b = MacroBounds(x_min, x_min + spans[0], y_min, y_min + spans[1])
        pos = (x_min + at[0] * spans[0], y_min + at[1] * spans[1])
        if seed is None:
            c, py = both_batches(pos, b, lambda: FixedRng(draws), count)
        else:
            c, py = both_batches(pos, b, lambda: random.Random(seed), count)
        assert c == py
        if seed is not None:
            assert isinstance(c[0], list)

    @needs_c_move
    def test_c_twin_raises_mid_batch_after_the_same_draws(self):
        b = MacroBounds(0.0, 2000.0, 0.0, 2000.0)
        ok = [0.1, 0.1, 0.5, 0.5]

        class Boom(FixedRng):
            def random(self):
                if len(self.draws) == 6:
                    raise RuntimeError("rng failed")
                return super().random()

        # the second proposal's third draw raises; its x jump overflows exp;
        # its y jump is no number
        for make, error, left in [
            (lambda: Boom(ok * 3), RuntimeError, 6),
            (lambda: FixedRng(ok + [0.1, 0.1, 1e6, 0.5] + ok), OverflowError, 4),
            (lambda: FixedRng(ok + [0.1, 0.1, 0.5, "u"] + ok), TypeError, 4),
        ]:
            c, py = both_batches((1000.0, 1000.0), b, make, 3)
            assert c == py and c[0] is error
            assert len(c[1]) == left
        # a count range() refuses raises before any draw, and none is
        # needed for no proposals
        for count, want in [(2.0, TypeError), (0, list), (-3, list)]:
            c, py = both_batches((1.0, 1.0), b, lambda: FixedRng(ok), count)
            assert c == py and (c[0] is want or type(c[0]) is want)
            assert c[1] == ok
        c_store = draw_stores((1.0, 1.0), b)[0]
        with pytest.raises(TypeError, match="3 arguments"):
            c_store.proposals(0, FixedRng(ok))
        # no list holds that many candidates: refused before any draw
        rng = FixedRng(ok)
        with pytest.raises(MemoryError):
            c_store.proposals(0, rng, sys.maxsize)
        assert rng.draws == ok

    def test_round_calls_are_the_c_twins_where_the_core_loaded(self):
        # a round draws from its state's store, the C core's where it
        # loaded, and the C store picks its winner itself
        assert not hasattr(stepfield, "c_first_min") and not hasattr(placer, "py_first_min")
        nl, area = tiny_instance(2)
        state = new_state(nl, area, PlacerConfig(max_rounds=1))
        assert type(state.store) is stepfield.core.PlacementStore
        assert not hasattr(placer, "proposals") and not hasattr(placer, "py_proposals")

    def test_golden_sequence_seed_123(self):
        # the first proposal of TestMoveMacro's golden sequence, then one
        # more from the same center, on each loaded core
        for store in draw_stores((5.0, 5.0), MacroBounds(1.0, 9.0, 1.0, 9.0)):
            got = store.proposals(0, random.Random(123), 2)
            assert got == [(5.0, 5.0), (3.074028850104982, 3.8107333682727234),
                           (7.102934740294829, 3.2931465796128188)]


# scores a round may compare: ties, signed zeros, non-finite values, and
# ints beside floats, near 2**53 too, where a float conversion would tie them
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.nan, math.inf, -math.inf,
                     2.0**53, 2**53 + 1, 2**53, 0, -1, 1]),
    st.integers(-3, 3),
    st.floats(),
)


def picked_by_round(backend, scores):
    """The index a ``round`` on a two-macro store of ``backend`` returns
    where its hook scores the center and ``len(scores) - 1`` proposals with
    ``scores``, in order."""
    nl, area = tiny_instance(1, n_macros=2)
    state = state_on(backend, nl, area, PlacerConfig(max_rounds=1, seed=1))
    hook = iter(scores).__next__
    return state.store.round(lambda *args: hook(), state.rng, len(scores) - 1,
                             None, 1.0, 1.0, 1.0)


class TestFirstMin:
    """The winner of a round: ``first_min``, and the C store's ``round``,
    which picks as it does, against it."""

    @needs_c_move
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SCORES, min_size=1, max_size=10))
    @example([0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @example([3.0, 1.0, 1, 1.0])
    @example([2**53 + 1, 2.0**53])
    @example([1.0, math.nan, -1.0])
    @example([-math.inf, 0.0])
    def test_c_twin_picks_the_same_index(self, scores):
        want = placer.first_min(scores)
        assert picked_by_round("c", scores) == want == picked_by_round("py", scores)

    def test_first_smallest_or_minus_one(self):
        assert placer.first_min([2.0, 1.0, 1.0, 3.0]) == 1
        assert placer.first_min([0.0, -0.0]) == 0
        assert placer.first_min([2**53 + 1, 2.0**53]) == 1
        assert placer.first_min([1.0, math.inf, -1.0]) == -1
        assert placer.first_min([math.nan]) == -1

    @needs_c_move
    @pytest.mark.parametrize("scores, error", [
        ([], ValueError),
        ([1.0, "s"], TypeError),
        ([1.0, 10**400], OverflowError),
        (None, TypeError),
    ])
    def test_c_twin_raises_as_the_reference(self, scores, error):
        with pytest.raises(error):
            placer.first_min(scores)
        # a round scores its center and then count >= 0 proposals, so it
        # never picks from no scores, nor from what is no sequence
        for backend in ("c", "py") if scores else ():
            with pytest.raises(error):
                picked_by_round(backend, scores)
        # a non-finite score before a bad one decides first
        assert picked_by_round("c", [math.nan, "s"]) == -1 == placer.first_min(
            [math.nan, "s"])


class TestBounds:
    def test_values(self):
        b = compute_bounds(Macro("a", 2, 4), PlacementArea(10, 10))
        assert b == MacroBounds(1.0, 9.0, 2.0, 8.0)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="does not fit"):
            compute_bounds(Macro("a", 12, 1), PlacementArea(10, 10))

    def test_exact_fit(self):
        b = compute_bounds(Macro("a", 10, 10), PlacementArea(10, 10))
        assert b.x_min == b.x_max == 5.0

    def test_boundary_footprint_never_leaves_area(self):
        # (10.28 - 2.05) + 2.05 rounds one ulp past 10.28; the bound must be
        # nudged so a macro clamped to it still passes the exact area check
        area = PlacementArea(10.28, 10.35)
        m = Macro("a", 4.1, 4.6)
        b = compute_bounds(m, area)
        _, _, x2, y2 = footprint_box(m, (b.x_max, b.y_max))
        assert x2 <= area.width and y2 <= area.height
        nl = Netlist([m], [])
        assert is_legal({"a": (b.x_max, b.y_max)}, nl, area).legal


def a_box(netlist, pos):
    """The footprint of macro ``a`` of ``netlist`` centered at ``pos``."""
    return footprint_box(netlist.by_id["a"], pos)


class TestPenalty:
    def netlist2(self):
        return Netlist([Macro("a", 2, 3), Macro("b", 2, 3)], [])

    def test_no_overlap_is_zero(self):
        nl = self.netlist2()
        cfg = PlacerConfig(max_rounds=10, delta0=0.5, delta_growth=1.0)
        grid = footprint_grid(nl, {"b": (5, 1.5)})
        got = penalty(cfg.penalty_c * cfg.delta_at(0), a_box(nl, (1, 1.5)), grid, "a")
        assert got == 0.0

    def test_single_intersection_example(self):
        # footprints overlap in a 2x3 rectangle; c=1, delta=0.5 -> 0.5*2*(2+3)
        nl = self.netlist2()
        cfg = PlacerConfig(max_rounds=10, penalty_c=1.0, delta0=0.5, delta_growth=1.0)
        grid = footprint_grid(nl, {"b": (1, 1.5)})
        got = penalty(cfg.penalty_c * cfg.delta_at(0), a_box(nl, (1, 1.5)), grid, "a")
        assert got == 5.0

    def test_vanishing_overlap_is_continuous(self):
        nl = self.netlist2()
        cfg = PlacerConfig(max_rounds=10, delta0=0.5, delta_growth=1.0)
        vals = []
        for eps in (0.1, 0.01, 0.0):
            grid = footprint_grid(nl, {"b": (3 - eps, 1.5)})
            got = penalty(cfg.penalty_c * cfg.delta_at(0), a_box(nl, (1, 1.5)), grid, "a")
            vals.append(got)
        assert vals[2] == 0.0
        assert vals[0] > vals[1] > 0  # width shrinks toward zero

    def test_delta_schedule_growth(self):
        cfg = PlacerConfig(max_rounds=100, delta0=0.01, delta_growth=1.1)
        assert cfg.delta_at(0) == 0.01
        assert cfg.delta_at(10) == pytest.approx(0.01 * 1.1**10, rel=1e-12)

    @pytest.mark.parametrize("max_rounds", [0, 1, 7, 1600, 10**6])
    def test_default_growth_is_computed_once_with_the_same_bits(self, max_rounds):
        cfg = PlacerConfig(max_rounds=max_rounds, delta0=0.3, w0=0.7)
        growth = 1000.0 if max_rounds <= 1 else 1000.0 ** (1.0 / max_rounds)
        for step in (0, 1, 5, max(max_rounds - 1, 0)):
            assert cfg.delta_at(step).hex() == (0.3 * growth**step).hex()
            assert cfg.w_at(step).hex() == (0.7 * growth**step).hex()
        # the cached growth is no field: fields, repr and equality stay
        names = [f.name for f in fields(PlacerConfig)]
        assert "_growth" not in names and " _growth=" not in repr(cfg)
        assert cfg == PlacerConfig(max_rounds=max_rounds, delta0=0.3, w0=0.7)

    @pytest.mark.parametrize("growths", [
        {}, {"delta_growth": 1.5, "w_growth": 1.5}, {"delta_growth": 1.01},
        {"delta_growth": 3, "w_growth": 3}, {"delta_growth": 3, "w_growth": 3.0},
        {"delta_growth": 1.01, "w_growth": 1.02},
    ])
    def test_round_schedules_are_each_schedule_alone(self, growths):
        # one power where both schedules share a growth (the default), with
        # the bits of delta_at and w_at; 3**34 and 3.0**34 round apart
        cfg = PlacerConfig(max_rounds=600, delta0=0.3, w0=0.7, **growths)
        for rnd in (0, 1, 2, 35, 77, 599, 600):
            step = max(rnd - 1, 0)
            delta, beta, w = placer._schedules(rnd, cfg)
            assert (delta.hex(), w.hex()) == (cfg.delta_at(step).hex(),
                                              cfg.w_at(step).hex())
            assert beta == (beta_schedule(rnd, 600) if rnd else 1.0)

    def test_round_schedules_overflow_as_each_schedule(self):
        # the checks at construction keep valid configs finite; past them,
        # a power that overflows gives inf, as delta_at and w_at give it
        cfg = PlacerConfig(max_rounds=10, delta_growth=2, w_growth=2)
        for growth in (2, 1e300):
            object.__setattr__(cfg, "_shared_growth", growth)
            for attr in ("delta_growth", "w_growth"):
                object.__setattr__(cfg, attr, growth)
            assert placer._schedules(3, cfg) == (
                cfg.delta_at(2), beta_schedule(3, 10), cfg.w_at(2))
            object.__setattr__(cfg, "max_rounds", 2000)
            delta, _, w = placer._schedules(1100, cfg)
            assert delta == w == math.inf
            object.__setattr__(cfg, "max_rounds", 10)


class TestCandidateScore:
    def test_everything_empty_scores_zero(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=10, grid_p=3, grid_q=3, seed=1)
        state = new_state(nl, square_area(), cfg)
        for pos in [(1, 1), (4, 4), (6.5, 2.5)]:
            assert candidate_score(state.store, 0, pos, 1.0, 0.1) == 0.0

    def test_two_pin_net_minimized_at_neighbor(self):
        nl = Netlist([Macro("a", 1, 1), Macro("b", 1, 1)], [Net(("a", "b"))])
        cfg = PlacerConfig(
            max_rounds=10, grid_p=3, grid_q=3, seed=1, model_switch_round=1
        )
        state = new_state(nl, square_area(), cfg, initial={"b": (6.0, 6.0)})
        target = (6.0, 6.0)
        best = min(
            [(2, 2), (6, 6), (3, 7), (7, 3)],
            key=lambda c: candidate_score(state.store, 0, c, None, 0.1),
        )
        assert best == target

    def test_uniform_field_shifts_scores_without_changing_argmin(self):
        nl = Netlist(
            [Macro("a", 2, 2), Macro("b", 2, 2)], [Net(("a", "b"))]
        )
        cfg = PlacerConfig(max_rounds=10, grid_p=3, grid_q=3, seed=3)
        init = {"a": (3.0, 3.0), "b": (6.0, 5.0)}
        s_plain = new_state(nl, square_area(), cfg, initial=init)
        s_uniform = new_state(nl, square_area(), cfg, initial=init)
        height = 3.0
        s_uniform.field.increase(GridRect(0, 0, 8, 8), height)
        cands = [(1.0, 1.0), (5.0, 5.0), (7.0, 3.0), (3.0, 6.0)]
        plain = [candidate_score(s_plain.store, 0, c, 1.0, 0.1) for c in cands]
        unif = [candidate_score(s_uniform.store, 0, c, 1.0, 0.1) for c in cands]
        # every candidate footprint snaps to a 2x2=4 cell region
        for p, u in zip(plain, unif):
            assert u == pytest.approx(p + height * 4, rel=1e-12)
        assert plain.index(min(plain)) == unif.index(min(unif))

    def test_blockage_overlap_term(self):
        blk = Rect(0, 0, 4, 4)
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(
            max_rounds=10, grid_p=3, grid_q=3, seed=1, blockage_weight=50.0
        )
        state = new_state(nl, square_area(blockages=(blk,)), cfg)
        on_block = candidate_score(state.store, 0, (2.0, 2.0), 1.0, 0.1)
        off_block = candidate_score(state.store, 0, (6.9, 6.9), 1.0, 0.1)
        assert on_block >= 50.0 * 4.0  # full 2x2 footprint on the blockage
        assert off_block < on_block

    def test_score_includes_penalty_exactly_once(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        cfg = PlacerConfig(
            max_rounds=10, grid_p=3, grid_q=3, seed=1,
            delta0=0.5, delta_growth=1.0,
        )
        init = {"a": (3.0, 3.0), "b": (3.0, 3.0)}
        state = new_state(nl, square_area(), cfg, initial=init)
        # field is empty, no nets: the score at b's position is the penalty
        factor = cfg.penalty_c * cfg.delta_at(0)
        got = candidate_score(state.store, 0, (3.0, 3.0), None, factor)
        assert got == penalty(factor, a_box(nl, (3.0, 3.0)), footprint_grid(nl, init), "a")


needs_c_score = pytest.mark.skipif(
    stepfield.c_core is None, reason="C core not built"
)


#: a half-size that covers the whole 1 x 1 area from any test coordinate
COVER = 1e10


def kernel_sum(score, x, y, beta, nets):
    """``score`` plus the ``model_length`` of each ``(pins, j)`` net, the
    moving pin at ``(x, y)`` inserted at index ``j``, from ``score`` of a C
    store of these nets: macro 0 moves, and its footprint covers the single
    cell of its 1 x 1 field, which holds ``score``; the fixed pins are
    macros of their own with empty footprints, so no penalty or keep-out
    term adds anything."""
    centers, members = [0.0, 0.0], []
    for pins, j in nets:
        net = list(range(len(centers) // 2, len(centers) // 2 + len(pins)))
        net.insert(j, 0)
        members.append(net)
        centers += [v for pin in pins for v in pin]
    halves = [COVER, COVER] + [0.0] * (len(centers) - 2)
    fld = CostField(0, 0, "c")
    fld.increase(GridRect(0, 0, 1, 1), score)
    store = stepfield.c_core.PlacementStore(
        fld, 1.0, 1.0, 1.0, 1.0, array("d", halves), array("d", centers),
        array("d", [0.0] * 2 * len(centers)), members, array("d"), 0.0,
    )
    return store.score(0, x, y, beta, 0.0)


def reference_sum(score, x, y, beta, nets):
    """``score`` plus the ``model_length`` of each ``(pins, j)`` net, in
    order, with the moving pin at ``(x, y)`` inserted at index ``j``."""
    score += 0.0  # as the field's cell holds it: a sum is never -0.0
    for pins, j in nets:
        score += model_length(pins[:j] + [(x, y)] + pins[j:], beta)
    return score


class TestNetTerms:
    """The C store's ``score`` adds each net's ``model_length`` bit for bit:
    every regime, the moving pin anywhere, nets of 2 to 200 pins."""

    @needs_c_score
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_c_kernel_equals_python_reference(self, data):
        draw = data.draw
        # coordinates over a window of 1e-3 to 1e9 units, at the origin, near
        # it, or anywhere in +-1e9; near the origin the smoothing terms are
        # not rounded away against the coordinates
        width = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e6, 1e9]))
        lo = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e9, 1e9)))
        coord = st.floats(lo, lo + width)
        max_rounds = draw(st.integers(1, 10**6))
        rnd = draw(st.one_of(st.sampled_from([1, max_rounds]), st.integers(1, max_rounds)))
        # None is the exact bounding box; else the schedule's 1 ... max_rounds
        beta = draw(st.one_of(
            st.none(), st.just(beta_schedule(rnd, max_rounds)), st.floats(0.5, 50.0)
        ))
        sizes = st.one_of(st.just(2), st.integers(3, 8), st.integers(9, 200))
        nets = []
        for n in draw(st.lists(sizes, max_size=4), label="sizes"):
            pins = [(draw(coord), draw(coord)) for _ in range(n - 1)]
            nets.append((pins, draw(st.integers(0, n - 1))))
        score = draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
        x, y = draw(coord), draw(coord)
        want = reference_sum(score, x, y, beta, nets)
        got = kernel_sum(score, x, y, beta, nets)
        assert got.hex() == want.hex()

    @needs_c_score
    def test_small_span_sweep_bit_exact(self):
        # where no term is rounded away: spans near the smoothing width
        # 1/beta, a few pins, scores starting at 0
        rng = random.Random(3)
        for _ in range(3000):
            n = rng.choice((2, 2, 3, 4, 6))
            span = rng.choice((0.01, 0.3, 1.0, 4.0, 30.0))
            beta = rng.choice(
                (None, 1.0, rng.uniform(0.5, 20.0), rng.uniform(20.0, 1e3))
            )
            fixed = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n - 1)]
            nets = [(fixed, rng.randrange(n))]
            x, y = rng.uniform(0, span), rng.uniform(0, span)
            want = reference_sum(0.0, x, y, beta, nets)
            got = kernel_sum(0.0, x, y, beta, nets)
            assert got.hex() == want.hex(), (n, beta, fixed, x, y)

    @needs_c_score
    @pytest.mark.parametrize("beta", [None, 1.0, 37.5, 1e6])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_moving_pin_at_every_index(self, n, beta):
        rng = random.Random(n)
        fixed = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n - 1)]
        for j in range(n):
            pts = fixed[:j] + [(7.25, 3.5)] + fixed[j:]
            want = 2.0 + model_length(pts, beta)
            got = kernel_sum(2.0, 7.25, 3.5, beta, [(fixed, j)])
            assert got.hex() == want.hex()

    @needs_c_score
    def test_no_nets_returns_score(self):
        assert kernel_sum(4.5, 1.0, 1.0, 2.0, []) == 4.5

    @needs_c_score
    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bad_beta_raises_as_the_reference(self, n, beta):
        nets = [([(1.0, 1.0)] * (n - 1), 0)]
        raised = []
        for kernel in (reference_sum, kernel_sum):
            with pytest.raises((ValueError, ZeroDivisionError)) as exc:
                kernel(0.0, 0.0, 0.0, beta, nets)
            raised.append((exc.type, str(exc.value)))
        assert len(set(raised)) == 1

    @needs_c_score
    def test_round_context_scores_equal_contextless(self):
        # multi-pin nets, both net-model regimes (switch at round 16): the C
        # state scores every candidate as the Python state does
        nl, area = generate_instance(GenSpec(macros=10, nets=16, seed=2))
        cfg = PlacerConfig(max_rounds=20, grid_p=4, grid_q=4, seed=4)
        c_state, py_state = (state_on(b, nl, area, cfg) for b in ("c", "py"))
        rng = random.Random(8)
        for _ in range(cfg.max_rounds):
            i = rng.randrange(len(c_state.macro_order))
            mid = c_state.macro_order[i]
            args = round_args(cfg, c_state.round + 1)
            # the reference reads the macro's nets from the store as the
            # netlist gives them
            index = c_state.macro_order.index
            store = py_state.store
            assert [store.nets[k] for k in store.nets_of[i]] == [
                [index(m) for m in net.members] for net in nl.nets if mid in net.members
            ]
            for _ in range(4):
                b = compute_bounds(nl.by_id[mid], area)
                pos = (rng.uniform(b.x_min, b.x_max), rng.uniform(b.y_min, b.y_max))
                want = candidate_score(py_state.store, i, pos, *args)
                got = candidate_score(c_state.store, i, pos, *args)
                assert got.hex() == want.hex()
            assert round_step(c_state, cfg) == round_step(py_state, cfg)


def round_args(cfg, rnd):
    """The ``beta`` and ``factor`` every candidate of the 1-based round
    ``rnd`` is scored with."""
    beta = None if rnd >= cfg.switch_round else beta_schedule(rnd, cfg.max_rounds)
    return beta, cfg.penalty_c * cfg.delta_at(rnd - 1)


def candidate_at(draw, kind, macro, state, area):
    """A candidate center of the given kind for ``macro`` in ``state`` on
    ``area``."""
    hx, hy = macro.size_x / 2.0, macro.size_y / 2.0
    b = compute_bounds(macro, area)
    if kind == "inside":
        return draw(st.floats(b.x_min, b.x_max)), draw(st.floats(b.y_min, b.y_max))
    if kind == "outside":
        return (draw(st.floats(-area.width, 2 * area.width)),
                draw(st.floats(-area.height, 2 * area.height)))
    if kind == "edge":
        # the footprint straddles (or ends on) a side of the area
        x = draw(st.sampled_from([0.0, hx, area.width - hx, area.width]))
        y = draw(st.sampled_from([0.0, hy, area.height - hy, area.height]))
        return x + draw(st.floats(-hx, hx)), y
    if kind == "own":
        return state.placement[macro.id]
    # the footprint's edge on (or one ulp off) another macro's opposite edge
    other = draw(st.sampled_from([m for m in state.macro_order if m != macro.id]))
    ox1, oy1, ox2, oy2 = state.store.box(state.macro_order.index(other))
    ox, oy = state.placement[other]
    side = draw(st.sampled_from(["left", "right", "below", "above", "on"]))
    nudge = draw(st.sampled_from([None, math.inf, -math.inf]))

    def at(v):
        return v if nudge is None else math.nextafter(v, nudge)

    return {
        "left": (at(ox1 - hx), oy),
        "right": (at(ox2 + hx), oy),
        "below": (ox, at(oy1 - hy)),
        "above": (ox, at(oy2 + hy)),
        "on": (ox, oy),
    }[side]


def exact(v):
    """A float's bits, or the int a total with nothing to sum stays."""
    return v.hex() if isinstance(v, float) else v


def assert_stores_agree(c_store, py_store, count):
    """The C and the Python placement store answer alike, bit for bit."""
    assert [exact(v) for v in c_store.net_lengths()] == [
        exact(v) for v in py_store.net_lengths()
    ]
    assert [(i, j, exact(a)) for i, j, a in c_store.pairs()] == [
        (i, j, exact(a)) for i, j, a in py_store.pairs()
    ]
    assert [exact(v) for v in c_store.totals()] == [exact(v) for v in py_store.totals()]
    assert [c_store.box(i) for i in range(count)] == [py_store.box(i) for i in range(count)]
    assert [hexes(c) for c in c_store.centers] == [hexes(c) for c in py_store.centers]


class TestScoreCandidate:
    """``candidate_score`` is one ``score`` call on the store it is given; the
    C store's returns the float of the Python store's bit for bit."""

    @needs_c_score
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_c_kernel_equals_python_reference(self, data):
        draw = data.draw
        n_macros = draw(st.integers(2, 12), label="macros")
        spec = GenSpec(
            macros=n_macros,
            nets=draw(st.integers(0, 2 * n_macros), label="nets"),
            seed=draw(st.integers(0, 10**6), label="instance"),
        )
        nl, area = generate_instance(spec)
        w, h = area.width, area.height
        blockages = []
        for _ in range(draw(st.integers(0, 3), label="blockages")):
            x1, y1 = draw(st.floats(0, 0.8)), draw(st.floats(0, 0.8))
            x2, y2 = x1 + draw(st.floats(0.05, 0.2)), y1 + draw(st.floats(0.05, 0.2))
            blockages.append(Rect(x1 * w, y1 * h, x2 * w, y2 * h))
        area = PlacementArea(w, h, tuple(blockages))
        switch = draw(st.integers(1, 40), label="switch")
        cfg = PlacerConfig(
            max_rounds=40,
            grid_p=draw(st.integers(0, 7)),
            grid_q=draw(st.integers(0, 7)),
            seed=draw(st.integers(0, 99)),
            model_switch_round=switch,
        )
        c_state, py_state = (state_on(b, nl, area, cfg) for b in ("c", "py"))
        for _ in range(draw(st.integers(0, 12), label="rounds")):
            assert round_step(c_state, cfg) == round_step(py_state, cfg)
        # the scored round: the last smoothed one, the switch, or any
        rnd = draw(st.sampled_from([switch - 1, switch, c_state.round + 1]))
        args = round_args(cfg, max(1, rnd))
        i = draw(st.integers(0, n_macros - 1))
        macro = nl.by_id[c_state.macro_order[i]]
        for kind in ("inside", "outside", "edge", "own", "touch"):
            pos = candidate_at(draw, kind, macro, c_state, area)
            want = candidate_score(py_state.store, i, pos, *args)
            got = candidate_score(c_state.store, i, pos, *args)
            assert got.hex() == want.hex(), (kind, pos)
            assert c_state.field.last_touched == py_state.field.last_touched

    @needs_c_score
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_c_kernel_equals_python_path_at_scale(self, data):
        # instances of up to 200 macros, so the index's cells hold a few
        # macros each and prune most of them: the C state (field core and
        # store) scores as the Python state (Python core and store) after
        # the same rounds
        draw = data.draw
        n_macros = draw(st.integers(50, 200), label="macros")
        spec = GenSpec(
            macros=n_macros,
            nets=draw(st.integers(0, 2 * n_macros), label="nets"),
            utilization=draw(st.sampled_from([0.3, 0.5, 0.8]), label="utilization"),
            seed=draw(st.integers(0, 10**6), label="instance"),
        )
        nl, area = generate_instance(spec)
        cfg = PlacerConfig(
            max_rounds=40,
            grid_p=draw(st.integers(0, 7)),
            grid_q=draw(st.integers(0, 7)),
            seed=draw(st.integers(0, 99)),
            model_switch_round=draw(st.integers(1, 40), label="switch"),
        )
        c_state = new_state(nl, area, cfg)
        with mock.patch.object(stepfield, "core", _pycore):
            py_state = new_state(nl, area, cfg)
        assert isinstance(c_state.store, stepfield.c_core.PlacementStore)
        assert isinstance(py_state.store, _pycore.PlacementStore)
        assert_stores_agree(c_state.store, py_state.store, len(c_state.macro_order))
        for _ in range(draw(st.integers(0, 10), label="rounds")):
            assert round_step(c_state, cfg) == round_step(py_state, cfg)
            assert_stores_agree(c_state.store, py_state.store, len(c_state.macro_order))
            # the C round grows its field in C, under the same rectangles
            # in the same order as the Python round's increases
            assert coefficients(c_state.field) == coefficients(py_state.field)
        i = draw(st.integers(0, n_macros - 1))
        macro = nl.by_id[c_state.macro_order[i]]
        args = round_args(cfg, c_state.round + 1)
        for kind in ("inside", "outside", "edge", "own", "touch"):
            pos = candidate_at(draw, kind, macro, c_state, area)
            want = candidate_score(py_state.store, i, pos, *args)
            got = candidate_score(c_state.store, i, pos, *args)
            assert got.hex() == want.hex(), (kind, pos)

    @needs_c_score
    def test_box_meets_follow_python_max_and_min(self):
        # boxes no placer state holds (signed zeros; a NaN corner, which only
        # a blockage can have, as the store rejects it): the kernel's meets
        # are netmodel.meet's, so a NaN corner drops out of the meet as
        # Python's max and min drop it
        nan = math.nan
        # centers and half-sizes of: the moving macro, centered at the
        # candidate (1, 1); two overlapping ones; an empty one from y = -0.0
        # to 0.0; one that touches the candidate's right edge
        centers = [(1.0, 1.0), (2.0, 1.0), (0.5, 0.5), (1.0, -0.0), (2.5, 1.5)]
        halves = [(1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (0.5, 0.0), (0.5, 1.5)]
        boxes = [(x - hx, y - hy, x + hx, y + hy) for (x, y), (hx, hy) in zip(centers, halves)]
        assert math.copysign(1.0, boxes[3][1]) == -1.0
        blockages = [(nan, nan, 1.5, 0.5), (-0.0, 0.5, 0.5, nan)]
        cand = boxes[0]

        def circ_area(box):
            ix1, iy1, ix2, iy2 = meet(cand, box)
            if ix1 < ix2 and iy1 < iy2:
                return 2.0 * ((ix2 - ix1) + (iy2 - iy1)), (ix2 - ix1) * (iy2 - iy1)
            return 0.0, 0.0

        want = 0.0 + 3.0 * sum(circ_area(b)[0] for b in boxes[1:])
        for b in blockages:
            want += 5.0 * circ_area(b)[1]
        store = stepfield.c_core.PlacementStore(
            CostField(2, 2, "c"), 8.0, 8.0, 1.0, 1.0,
            array("d", [v for h in halves for v in h]),
            array("d", [v for c in centers for v in c]),
            array("d", [0.0] * 4 * len(centers)), [],
            array("d", [v for b in blockages for v in b]), 5.0,
        )
        got = store.score(0, 1.0, 1.0, None, 3.0)
        assert want > 0.0 and got.hex() == want.hex()

    @needs_c_score
    def test_rounds_never_reach_the_python_terms(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the C path ran a Python scoring term")

        nl, area = generate_instance(GenSpec(macros=12, nets=18, seed=5))
        area = PlacementArea(area.width, area.height, (Rect(0, 0, 4.0, 4.0),))
        cfg = PlacerConfig(max_rounds=30, grid_p=4, grid_q=4, seed=2)
        state = new_state(nl, area, cfg)
        assert state.field.backend == "c"
        for name in ("penalty", "model_length"):
            monkeypatch.setattr(_pycore, name, boom)
        monkeypatch.setattr(_pycore.PlacementStore, "score", boom)
        monkeypatch.setattr(CostField, "cost", boom)
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)

    @needs_c_score
    def test_rounds_never_reach_the_bucket_grid(self, monkeypatch):
        # on the C core the state's footprints live in the C store alone
        def boom(*args, **kwargs):
            raise AssertionError("the C path used the bucket grid")

        for name in ("put", "hits", "first_hit", "pairs", "__getitem__"):
            monkeypatch.setattr(BucketGrid, name, boom)
        nl, area = generate_instance(GenSpec(macros=40, nets=60, seed=5))
        cfg = PlacerConfig(max_rounds=60, grid_p=4, grid_q=4, seed=2)
        state = new_state(nl, area, cfg)
        assert state.store.pairs()  # the random start overlaps
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)

    def test_numpy_field_runs_the_reference(self, monkeypatch):
        # a state on the Python field core scores every candidate through
        # the Python store, the reference
        calls = []
        reference = _pycore.PlacementStore.score

        def counted(store, *args):
            calls.append(args[0])
            return reference(store, *args)

        nl, area = generate_instance(GenSpec(macros=12, nets=18, seed=5))
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=2)
        state = state_on("py", nl, area, cfg)
        assert type(state.store) is _pycore.PlacementStore
        monkeypatch.setattr(_pycore.PlacementStore, "score", counted)
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)
        assert len(calls) == cfg.max_rounds * (cfg.candidates_per_round + 1)

    def test_footprints_follow_the_grid(self):
        # the store holds each macro's footprint at its current position,
        # under its index in macro_order
        nl, area = generate_instance(GenSpec(macros=15, nets=20, seed=6))
        cfg = PlacerConfig(max_rounds=60, grid_p=4, grid_q=4, seed=3)
        state = new_state(nl, area, cfg)
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)
        assert [state.store.box(i) for i in range(len(state.macro_order))] == [
            footprint_box(nl.by_id[mid], state.placement[mid])
            for mid in state.macro_order
        ]

    @pytest.mark.parametrize(
        "index, value, error, match",
        [
            (0, None, TypeError, "FieldCore"),
            (0, "py core", TypeError, "FieldCore"),
            (1, "1.0", TypeError, None),
            pytest.param(1, "py store", TypeError, "PlacementStore",
                         id="1-py store-TypeError-store must be a PlacementStore"),
            (2, -1, ValueError, "macro index -1 out of range for 2 macros"),
            (2, 2, ValueError, "macro index 2 out of range for 2 macros"),
            (2, 1.0, TypeError, None),
            (3, math.nan, ValueError, "candidate center must be finite"),
            (4, math.inf, ValueError, "candidate center must be finite"),
            (3, "1.0", TypeError, None),
            (5, "1.0", TypeError, None),
            (6, None, TypeError, None),
            (8, "1.0", TypeError, None),
            (7, array("f"), TypeError, "blockages must be a buffer of doubles"),
            (7, [0.0, 0.0, 1.0, 1.0], TypeError, None),
            (7, array("d", [0, 0, 1]), ValueError, "4 doubles per box"),
        ],
    )
    @needs_c_score
    def test_c_kernel_rejects_bad_input(self, index, value, error, match):
        # ``index`` names one of what a score reads: the field (0), the keep-
        # outs (7) and their weight (8), which the store takes when it is
        # built, the store itself (1), and score's i, x, y, beta and factor
        # (2 to 6)
        halves, centers, bounds = [0.5] * 4, [0.5, 0.5, 2.5, 2.5], [0.5, 3.5] * 4

        def build(field, blockages, weight):
            return stepfield.c_core.PlacementStore(
                field, 4.0, 4.0, 1.0, 1.0, array("d", halves), array("d", centers),
                array("d", bounds), [[0, 1]], blockages, weight,
            )

        field, blockages, weight = CostField(2, 2, "c"), array("d", [0, 0, 1, 1]), 1.0
        store = build(field, blockages, weight)
        inputs = [field, store, 0, 1.0, 1.0, None, 1.0, blockages, weight]
        assert isinstance(store.score(*inputs[2:7]), float)
        with pytest.raises(TypeError, match="5 arguments"):
            store.score(*inputs[2:6])
        if value == "py core":
            value = CostField(2, 2, "py")
        elif value == "py store":
            value = _pycore.PlacementStore(
                CostField(2, 2, "py"), 4.0, 4.0, 1.0, 1.0, halves, centers, bounds,
                [[0, 1]], array("d"), 1.0,
            )
        inputs[index] = value
        with pytest.raises(error, match=match):
            if index in (0, 7, 8):
                build(inputs[0], *inputs[7:])
            else:
                # the C method refuses anything but a C store
                stepfield.c_core.PlacementStore.score(*inputs[1:7])


def outcome(fn, *args):
    """What ``fn(*args)`` gives: ``float.hex`` of the float it returns, or
    the type and message of what it raises."""
    try:
        return fn(*args).hex()
    except Exception as e:
        return type(e), str(e)


class TestCCandidateScore:
    """``placer.candidate_score`` is ``stepfield.core``'s: the C core's where
    it loaded, which returns and raises what ``_pycore.candidate_score``
    does."""

    def test_binding(self):
        assert _pycore.candidate_score.__module__ == "stepplace._pycore"
        assert stepfield.core is (stepfield.c_core or _pycore)
        assert placer.candidate_score is stepfield.core.candidate_score

    @needs_c_score
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_answers_as_the_python_hook(self, data):
        draw = data.draw
        n_macros = draw(st.integers(2, 8), label="macros")
        nl, area = generate_instance(GenSpec(
            macros=n_macros,
            nets=draw(st.integers(0, 2 * n_macros), label="nets"),
            seed=draw(st.integers(0, 10**6), label="instance"),
        ))
        cfg = PlacerConfig(
            max_rounds=20,
            grid_p=draw(st.integers(0, 6)),
            grid_q=draw(st.integers(0, 6)),
            seed=draw(st.integers(0, 99)),
        )
        state = state_on(draw(st.sampled_from(["c", "py"])), nl, area, cfg)
        for _ in range(draw(st.integers(0, 4), label="rounds")):
            round_step(state, cfg)
        i = draw(st.sampled_from([-1, n_macros]) | st.integers(0, n_macros - 1))
        coord = st.floats(-2 * area.width, 2 * area.width) | st.sampled_from(
            [math.nan, math.inf, -math.inf])
        x, y = draw(coord, label="x"), draw(coord, label="y")
        pos = draw(st.sampled_from([(x, y), [x, y], (x, y, 0.0), 7]), label="pos")
        store = state.store
        holder = draw(st.sampled_from([store, store, object(), None]), label="store")
        beta, factor = round_args(cfg, draw(st.integers(1, cfg.max_rounds)))
        args = (holder, i, pos, beta, factor)
        got = outcome(stepfield.c_core.candidate_score, *args)
        touched = state.field.last_touched
        assert got == outcome(_pycore.candidate_score, *args)
        assert state.field.last_touched == touched
        if holder is store and type(pos) is tuple and len(pos) == 2 and 0 <= i < n_macros:
            assert (type(got) is str) == (math.isfinite(x) and math.isfinite(y))

    @needs_c_score
    def test_other_calls_go_to_the_python_hook(self):
        nl, area = generate_instance(GenSpec(macros=4, nets=4, seed=3))
        cfg = PlacerConfig(max_rounds=5, grid_p=3, grid_q=3, seed=1)
        state = new_state(nl, area, cfg)
        want = _pycore.candidate_score(state.store, 1, (1.0, 2.0), None, 0.5)
        c_score, store = stepfield.c_core.candidate_score, state.store
        for args, kwargs in [
            ((store, 1, (1.0, 2.0), None), {"factor": 0.5}),
            ((), {"store": store, "i": 1, "pos": (1.0, 2.0), "beta": None,
                  "factor": 0.5}),
            ((store, 1, (1, 2), None, 0.5), {}),
        ]:
            assert c_score(*args, **kwargs).hex() == want.hex()
        for args in [(store, 1, (1.0, 2.0), None), (store, 1, (1.0, 2.0), None, 0.5, 0)]:
            with pytest.raises(TypeError) as c_err:
                c_score(*args)
            with pytest.raises(TypeError) as py_err:
                _pycore.candidate_score(*args)
            assert str(c_err.value) == str(py_err.value)


def state_on(backend, netlist, area, config, initial=None):
    """``new_state`` on the given field backend, with its placement store."""
    with mock.patch.object(stepfield, "core", stepfield.c_core if backend == "c" else _pycore):
        state = new_state(netlist, area, config, initial)
    assert state.field.backend == backend
    return state


class TestPlacementStore:
    """The store a round commits to: the C core's ``PlacementStore`` and its
    Python reference ``_pycore.PlacementStore``."""

    def test_reentered_pair_goes_to_the_end(self, backend):
        # three disjoint pairs of areas 1, e and e (e = 2**-53): in key order
        # they add up to (1 + e) + e == 1, in the order (2, 3), (4, 5),
        # (0, 1) to (e + e) + 1 == 1 + 2**-52
        e = 2.0**-53
        nl = Netlist([Macro(f"m{i}", 2, 2) for i in range(6)], [])
        init = {
            "m0": (5.0, 5.0), "m1": (6.0, 6.0),
            "m2": (20.0, 20.0), "m3": (22.0 - 2.0**-27, 22.0 - 2.0**-26),
            "m4": (40.0, 40.0), "m5": (42.0 - 2.0**-27, 42.0 - 2.0**-26),
        }
        cfg = PlacerConfig(max_rounds=1)
        area = PlacementArea(64, 64)
        state = state_on(backend, nl, area, cfg, init)
        store = state.store
        assert store.pairs() == [(0, 1, 1.0), (2, 3, e), (4, 5, e)]
        assert stats_row(state, cfg).overlap_area == 1.0
        # the pair (0, 1) ends, and with no meet the field does not grow
        grown = CostField(6, 6, backend)
        assert store.move(0, 5.0, 30.0, 1.0) is None
        assert store.pairs() == [(2, 3, e), (4, 5, e)]
        assert coefficients(state.field) == coefficients(grown)
        assert store.move(0, 5.0, 5.0, 1.0) is None
        assert store.pairs() == [(2, 3, e), (4, 5, e), (0, 1, 1.0)]
        grown.increase(snap_to_grid((5.0, 5.0, 6.0, 6.0), area, 6, 6), 1.0)
        assert coefficients(state.field) == coefficients(grown)
        assert (e + e) + 1.0 != (1.0 + e) + e
        assert store.totals() == (0, (e + e) + 1.0)
        assert stats_row(state, cfg).overlap_area == (e + e) + 1.0

    def test_one_ulp_meet_snaps_to_one_cell(self, backend):
        # cells of 0.7 / 8: the meet's sides x1 and x2 = 0.4375, one ulp
        # apart, both divide to 5 cells, so the cover takes its one cell
        # from the lower bound
        x2 = 0.4375
        x1 = math.nextafter(x2, 0.0)
        nl = Netlist([Macro("a", 0.25, 0.25), Macro("b", 0.125, 0.25)], [])
        init = {"a": (x2 - 0.125, 0.35), "b": (x1 + 0.0625, 0.35)}
        cfg = PlacerConfig(max_rounds=1, grid_p=3, grid_q=3)
        state = state_on(backend, nl, PlacementArea(0.7, 0.7), cfg, init)
        assert state.store.box(0)[2] == x2 and state.store.box(1)[0] == x1
        state.store.move(0, *init["a"], 1.0)
        grown = CostField(3, 3, backend)
        grown.increase(GridRect(5, 2, 6, 6), 1.0)
        assert coefficients(state.field) == coefficients(grown)

    def test_no_pair_and_no_net_writes_int_zero(self, backend):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=1)
        state = state_on(backend, nl, square_area(), cfg, {"a": (1, 1), "b": (5, 5)})
        row = stats_row(state, cfg)
        assert type(row.netlength_bb) is int and type(row.overlap_area) is int
        buf = io.StringIO()
        write_stats_csv(buf, [row])
        assert buf.getvalue().splitlines()[1].startswith("0,0,0,")

    @pytest.mark.parametrize("i", [-1, 2])
    def test_index_out_of_range_refused_alike(self, backend, i):
        # both stores refuse an index outside 0 .. count - 1 with one message,
        # the Python store too, where a list would read -1 from the end
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        state = state_on(backend, nl, square_area(), PlacerConfig(max_rounds=1))
        store, rng = state.store, random.Random(1)
        before, drawn = placed(state), rng.getstate()
        for call in (
            lambda: store.box(i),
            lambda: store.move(i, 4.0, 4.0, 1.0),
            lambda: store.proposals(i, rng, 1),
            lambda: store.score(i, 4.0, 4.0, None, 1.0),
        ):
            with pytest.raises(ValueError, match=f"^macro index {i} out of range for 2 macros$"):
                call()
        assert placed(state) == before and rng.getstate() == drawn

    @needs_c_score
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_move_commits_alike_on_both_stores(self, data):
        # random commits, w = 0 and positions beyond the bounds and the area
        # among them, leave both stores with the same bits; a refused one, a
        # bad index, a NaN x or a non-finite w, leaves both as they were
        draw = data.draw
        n_macros = draw(st.integers(2, 10), label="macros")
        nl, area = generate_instance(GenSpec(
            macros=n_macros,
            nets=draw(st.integers(0, 2 * n_macros), label="nets"),
            utilization=draw(st.sampled_from([0.3, 0.8]), label="utilization"),
            seed=draw(st.integers(0, 10**6), label="instance"),
        ))
        cfg = PlacerConfig(max_rounds=1, grid_p=draw(st.integers(0, 5)),
                           grid_q=draw(st.integers(0, 5)), seed=draw(st.integers(0, 99)))
        stores = [state_on(b, nl, area, cfg).store for b in ("c", "py")]

        def snapshot(store):
            return (coefficients(store.field),
                    [(i, j, a.hex()) for i, j, a in store.pairs()],
                    [v.hex() for v in store.net_lengths()],
                    [hexes(c) for c in store.centers],
                    [exact(v) for v in store.totals()])

        side = max(area.width, area.height)
        coord = st.floats(-side, 2 * side)
        for _ in range(draw(st.integers(1, 20), label="moves")):
            i = draw(st.integers(0, n_macros - 1) | st.sampled_from([-1, n_macros]))
            x = draw(coord | st.just(math.nan), label="x")
            y = draw(coord, label="y")
            w = draw(st.sampled_from([0.0, 1.0, math.nan, math.inf])
                     | st.floats(0.0, 1e3), label="w")
            before = snapshot(stores[0])
            refused = []
            for store in stores:
                try:
                    store.move(i, x, y, w)
                except ValueError as exc:
                    refused.append(str(exc))
            assert len(refused) in (0, 2) and len(set(refused)) <= 1
            assert snapshot(stores[0]) == snapshot(stores[1])
            if refused:
                assert snapshot(stores[0]) == before

    @needs_c_score
    def test_many_moves_keep_both_stores_equal(self):
        # a crowded area, so pairs end and enter often and the C store
        # compacts its dead slots many times
        rng = random.Random(3)
        nl, area = tiny_instance(4, n_macros=14, n_nets=12, side=9.0)
        cfg = PlacerConfig(max_rounds=1, grid_p=3, grid_q=5)
        c, py = (state_on(b, nl, area, cfg).store for b in ("c", "py"))
        ids = sorted(nl.by_id)
        for _ in range(3000):
            i = rng.randrange(len(ids))
            b = compute_bounds(nl.by_id[ids[i]], area)
            x, y = rng.uniform(b.x_min, b.x_max), rng.uniform(b.y_min, b.y_max)
            w = rng.uniform(0.0, 2.0)
            assert c.move(i, x, y, w) is py.move(i, x, y, w) is None
            assert_stores_agree(c, py, len(ids))
            assert coefficients(c.field) == coefficients(py.field)

    @needs_c_score
    @pytest.mark.parametrize(
        "change, error, match",
        [
            ({"nets": [[0]]}, ValueError, "fewer than 2 members"),
            ({"nets": [[0, 0]]}, ValueError, "macro 0 twice"),
            ({"nets": [[0, 2]]}, ValueError, "macro 2 out of range"),
            ({"nets": [[0, -1]]}, ValueError, "macro -1 out of range"),
            ({"nets": [0]}, TypeError, "each net must be a sequence"),
            ({"nets": 5}, TypeError, "nets must be a sequence"),
            ({"halves": array("d", [1.0])}, ValueError, "2 doubles per macro"),
            ({"centers": array("f", [1.0, 1.0])}, TypeError, "doubles"),
            ({"centers": array("d", [math.nan, 1.0, 5.0, 5.0])}, ValueError, "finite"),
            ({"rect": GridRect}, TypeError, "at most 11 keyword arguments"),
            ({"field": None}, TypeError, "field must be a CostField on the C core"),
            ({"width": 0.0}, ValueError, "positive and finite"),
            ({"bounds": array("d", [1.0, 7.0] * 2)}, ValueError, "4 doubles per macro"),
        ],
    )
    def test_c_store_rejects_bad_input(self, change, error, match):
        args = dict(
            field=CostField(3, 3, "c"), width=8.0, height=8.0, min_cell_x=2.0,
            min_cell_y=2.0, halves=array("d", [1.0, 1.0, 1.0, 1.0]),
            centers=array("d", [1.0, 1.0, 5.0, 5.0]),
            bounds=array("d", [1.0, 7.0] * 4), nets=[[0, 1]],
            blockages=array("d"), blockage_weight=1.0,
        )
        store = stepfield.c_core.PlacementStore(**args)
        with pytest.raises(ValueError, match="out of range"):
            store.move(2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            store.move(0, math.inf, 1.0, 1.0)
        with pytest.raises(TypeError, match="4 arguments"):
            store.move(0, 1.0, 1.0)
        assert store.pairs() == [] and store.net_lengths() == [8.0]
        with pytest.raises(error, match=match):
            stepfield.c_core.PlacementStore(**{**args, **change})

    @needs_c_score
    def test_round_calls_what_the_benchmark_counts(self, monkeypatch):
        # the benchmark's tracer counts these calls; per round on the C core:
        # candidates + 1 candidate_score with the moving macro, and one
        # CostField.inflate.  The field grows inside the C round, with no
        # CostField.increase call, to the bits of the Python core's
        calls = {}
        moved = []

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapped(*args):
                calls[name] = calls.get(name, 0) + 1
                if name == "candidate_score":
                    moved.append(args[1])
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapped)

        nl, area = generate_instance(GenSpec(macros=40, nets=60, seed=5))
        cfg = PlacerConfig(max_rounds=200, grid_p=4, grid_q=4, seed=2)
        state, twin = (state_on(b, nl, area, cfg) for b in ("c", "py"))
        counting(placer, "candidate_score")
        for name in ("increase", "inflate"):
            counting(CostField, name)
        grown = 0
        for _ in range(cfg.max_rounds):
            round_step(twin, cfg)
            calls.clear()
            moved.clear()
            state.last_choice = None
            round_step(state, cfg)
            assert coefficients(state.field) == coefficients(twin.field)
            assert moved == [moved[0]] * (cfg.candidates_per_round + 1)
            macro = nl.by_id[state.macro_order[moved[0]]]
            box = footprint_box(macro, state.placement[macro.id])
            meets = [
                snap_to_grid(meet(box, footprint_box(m, state.placement[m.id])),
                             area, cfg.grid_p, cfg.grid_q)
                for m in nl.macros
                if m is not macro
                and overlaps(box, footprint_box(m, state.placement[m.id]))
            ]
            assert calls == {"candidate_score": cfg.candidates_per_round + 1, "inflate": 1}
            assert state.last_choice is not None
            grown += sum(r is not None for r in meets)
        assert grown > 0


def logged_round(state, log, count, beta, factor, w, rho):
    """One ``round`` on the state's store, with a score hook that appends
    each call's ``(i, pos, beta, factor)`` to ``log`` and then scores as
    ``candidate_score`` does."""

    def hook(st, i, pos, b, f):
        log.append((i, hexes(pos), exact(b), exact(f)))
        return candidate_score(st, i, pos, b, f)

    return state.store.round(hook, state.rng, count, beta, factor, w, rho)


def placed(state):
    """The bits of what a round may change but the rng: the centers, the
    field's coefficients and the totals."""
    return ([hexes(c) for c in state.store.centers], coefficients(state.field),
            [exact(v) for v in state.store.totals()])


def drawn_by_round(state, count):
    """The rng state a round leaves after its draws: the macro's, then four
    per proposal."""
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    rng.randrange(len(state.macro_order))
    for _ in range(4 * count):
        rng.random()
    return rng.getstate()


class TestStoreRound:
    """A whole round in one call on the store: the C store's ``round``
    against the Python store's, its reference."""

    @needs_c_score
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_c_round_equals_python_reference(self, data):
        draw = data.draw
        n_macros = draw(st.integers(2, 12), label="macros")
        nl, area = generate_instance(GenSpec(
            macros=n_macros,
            nets=draw(st.integers(0, 2 * n_macros), label="nets"),
            utilization=draw(st.sampled_from([0.3, 0.5, 0.8]), label="utilization"),
            seed=draw(st.integers(0, 10**6), label="instance"),
        ))
        w, h = area.width, area.height
        blockages = []
        for _ in range(draw(st.integers(0, 3), label="blockages")):
            x1, y1 = draw(st.floats(0, 0.8)), draw(st.floats(0, 0.8))
            x2, y2 = x1 + draw(st.floats(0.05, 0.2)), y1 + draw(st.floats(0.05, 0.2))
            blockages.append(Rect(x1 * w, y1 * h, x2 * w, y2 * h))
        area = PlacementArea(w, h, tuple(blockages))
        cfg = PlacerConfig(
            max_rounds=1, grid_p=draw(st.integers(0, 5)), grid_q=draw(st.integers(0, 5)),
            seed=draw(st.integers(0, 99)),
            blockage_weight=draw(st.sampled_from([0.0, 1.0, 100.0])),
        )
        c_state, py_state = (state_on(b, nl, area, cfg) for b in ("c", "py"))
        for _ in range(draw(st.integers(1, 12), label="rounds")):
            args = (
                draw(st.integers(0, 9), label="count"),
                draw(st.one_of(st.none(), st.floats(1.0, 1e3)), label="beta"),
                draw(st.floats(0.0, 1e3), label="factor"),
                draw(st.floats(0.0, 1e3), label="w"),
                draw(st.sampled_from([1.0, 0.995, 0.5, 0.01]), label="rho"),
            )
            logs = [], []
            got = [logged_round(s, log, *args) for s, log in zip((c_state, py_state), logs)]
            assert got[0] == got[1] >= 0
            assert logs[0] == logs[1] and len(logs[0]) == args[0] + 1
            assert len({i for i, *_ in logs[0]}) == 1
            assert c_state.rng.getstate() == py_state.rng.getstate()
            assert placed(c_state) == placed(py_state)

    def test_macro_drawn_through_getrandbits(self, backend):
        # the macro is drawn as randrange draws it: getrandbits(3) for 5
        # macros, looked up on the rng, until a draw is below 5
        class Logged(random.Random):
            def getrandbits(self, k):
                bits = super().getrandbits(k)
                log.append((k, bits))
                return bits

        log = []
        nl, area = tiny_instance(2, n_macros=5)
        state = state_on(backend, nl, area, PlacerConfig(max_rounds=1, seed=1))
        state.rng = Logged(4)
        want = random.Random(4)
        for _ in range(30):
            log.clear()
            i, seen = want.randrange(5), []
            state.store.round(lambda st, j, *args: seen.append(j) or 0.0,
                              state.rng, 0, None, 1.0, 1.0, 1.0)
            assert seen == [i] and [k for k, _ in log] == [3] * len(log)
            assert [b for _, b in log][-1] == i and all(b >= 5 for _, b in log[:-1])
        assert state.rng.getstate() == want.getstate()

    @needs_c_score
    def test_rng_of_its_own_draws_the_macro_by_its_randrange(self):
        # a Random subclass that overrides random() alone draws randrange
        # from random(), not from getrandbits; the C round asks such an rng
        # for randrange, so both stores draw the same macros from its own
        # generator and leave the base generator's state alone
        class Golden(random.Random):
            k = 0

            def random(self):
                self.k += 1
                return self.k * 0.6180339887498949 % 1.0

        nl, area = tiny_instance(2, n_macros=5)
        states = [state_on(b, nl, area, PlacerConfig(max_rounds=1, seed=1))
                  for b in ("c", "py")]
        for state in states:
            state.rng = Golden(4)
        untouched = random.Random(4).getstate()
        for _ in range(20):
            logs = [], []
            got = [logged_round(s, log, 3, None, 1.0, 1.0, 0.5) for s, log in zip(states, logs)]
            assert got[0] == got[1] >= 0 and logs[0] == logs[1]
            assert states[0].rng.k == states[1].rng.k
            assert all(s.rng.getstate() == untouched for s in states)
            assert placed(states[0]) == placed(states[1])

    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_non_finite_score_moves_and_grows_nothing(self, backend, k):
        # the hook's k-th score is not finite: -1, after every draw, with
        # nothing moved, grown or inflated
        nl, area = tiny_instance(4)
        area = PlacementArea(area.width, area.height, (Rect(0.0, 0.0, 3.0, 3.0),))
        cfg = PlacerConfig(max_rounds=20, grid_p=4, grid_q=4, seed=1)
        state = state_on(backend, nl, area, cfg)
        for _ in range(10):
            round_step(state, cfg)
        for bad in (math.inf, -math.inf, math.nan):
            calls = []

            def hook(st, i, pos, beta, factor):
                calls.append(i)
                return bad if len(calls) == k + 1 else candidate_score(
                    st, i, pos, beta, factor)

            inflates = []
            state.field.inflate = inflates.append
            before, drawn = placed(state), drawn_by_round(state, 8)
            assert state.store.round(hook, state.rng, 8, None, 1.0, 2.0, 0.5) == -1
            assert len(calls) == 9 and inflates == []
            assert placed(state) == before and state.rng.getstate() == drawn

    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_raising_hook_propagates_with_nothing_moved(self, backend, k):
        nl, area = tiny_instance(4)
        cfg = PlacerConfig(max_rounds=20, grid_p=4, grid_q=4, seed=1)
        state = state_on(backend, nl, area, cfg)
        for _ in range(10):
            round_step(state, cfg)
        calls = []

        def hook(*args):
            calls.append(args)
            if len(calls) == k + 1:
                raise RuntimeError("hook failed")
            return candidate_score(*args)

        before, drawn = placed(state), drawn_by_round(state, 8)
        with pytest.raises(RuntimeError, match="hook failed"):
            state.store.round(hook, state.rng, 8, 2.0, 1.0, 2.0, 0.5)
        assert len(calls) == k + 1
        assert placed(state) == before and state.rng.getstate() == drawn

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_non_finite_w_refused_before_any_draw(self, backend, w):
        nl, area = tiny_instance(4)
        state = state_on(backend, nl, area, PlacerConfig(max_rounds=1, seed=1))
        before, drawn = placed(state), state.rng.getstate()
        with pytest.raises(ValueError, match="^increase value must be finite$"):
            state.store.round(candidate_score, state.rng, 8, None, 1.0, w, 0.5)
        assert placed(state) == before and state.rng.getstate() == drawn

    def test_empty_store_refused_before_any_draw(self, backend):
        state = state_on(backend, Netlist([], []), PlacementArea(10.0, 10.0),
                         PlacerConfig(max_rounds=1, seed=1))
        drawn = state.rng.getstate()
        # w is checked first, as on a store with macros
        for w, match in ((1.0, "the store has no macros to move"),
                         (math.nan, "increase value must be finite")):
            with pytest.raises(ValueError, match=f"^{match}$"):
                state.store.round(candidate_score, state.rng, 8, None, 1.0, w, 0.5)
        assert state.rng.getstate() == drawn

    def test_round_step_is_one_store_round(self, monkeypatch, backend):
        # round_step hands the store candidate_score as this module holds
        # it at the call, the state's rng and the round's schedules
        nl, area = tiny_instance(5)
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=3)
        state = state_on(backend, nl, area, cfg)
        hook = mock.Mock(side_effect=candidate_score)
        monkeypatch.setattr(placer, "candidate_score", hook)
        store = state.store
        rounds = []

        class Store:
            """The state's store, recording each round call."""

            def __getattr__(self, name):
                return getattr(store, name)

            def round(self, *args):
                rounds.append(args)
                return store.round(*args)

        state.store = Store()
        row = round_step(state, cfg)
        ((score, rng, count, beta, factor, w, rho),) = rounds
        assert score is hook and rng is state.rng
        assert (count, beta, factor, w, rho) == (
            8, row.beta, cfg.penalty_c * row.delta, row.w, cfg.inflation_rho)
        # the hook gets the store itself, not the state or this wrapper
        assert hook.call_count == 9
        assert all(call.args[0] is store for call in hook.call_args_list)


def tiny_instance(seed=0, n_macros=6, n_nets=6, side=12.0):
    rng = random.Random(seed)
    macros = [
        Macro(f"m{i}", 1.0 + rng.random() * 2, 1.0 + rng.random() * 2)
        for i in range(n_macros)
    ]
    nets = []
    for _ in range(n_nets):
        a, b = rng.sample(range(n_macros), 2)
        nets.append(Net((f"m{a}", f"m{b}")))
    return Netlist(macros, nets), PlacementArea(side, side)


def recorded_scores(monkeypatch):
    """A list that holds the scores of every ``candidate_score`` call from
    now on, in call order: clear it before a round to get that round's."""
    scores = []
    score = placer.candidate_score

    def recording(*args):
        scores.append(score(*args))
        return scores[-1]

    monkeypatch.setattr(placer, "candidate_score", recording)
    return scores


class TestRoundStep:
    def test_chosen_never_worse_than_staying(self, monkeypatch):
        nl, area = tiny_instance(1)
        cfg = PlacerConfig(max_rounds=60, grid_p=4, grid_q=4, seed=5)
        state = new_state(nl, area, cfg)
        scores = recorded_scores(monkeypatch)
        for _ in range(60):
            scores.clear()
            round_step(state, cfg)
            assert scores[state.last_choice] <= scores[0]
            assert scores[state.last_choice] == min(scores)

    def test_non_finite_score_raises_before_moving(self, on_core, backend):
        # each increment is finite, but two of them on one field coefficient
        # are not
        on_core(backend)
        nl, area = tiny_instance(1)
        cfg = PlacerConfig(max_rounds=40, grid_p=4, grid_q=4, seed=5, w0=1e308,
                           w_growth=1.0)
        state = state_on(backend, nl, area, cfg)
        whole = GridRect(0, 0, 16, 16)
        with pytest.raises(ValueError, match="not finite; lower w0, w_growth"):
            for _ in range(cfg.max_rounds):
                before = repr((state.round, state.placement, state.field.cost(whole)))
                round_step(state, cfg)
        assert repr((state.round, state.placement, state.field.cost(whole))) == before

    def test_state_without_macros_refused_before_any_draw(self, backend):
        cfg = PlacerConfig(max_rounds=5)
        state = state_on(backend, Netlist([], []), PlacementArea(10.0, 10.0), cfg)
        drawn = state.rng.getstate()
        with pytest.raises(ValueError, match="^the state has no macros to move$"):
            round_step(state, cfg)
        assert state.rng.getstate() == drawn and state.round == 0

    def test_placement_is_a_snapshot_of_the_store(self, monkeypatch, backend):
        # the store holds the only placement: state.placement reads its
        # centers, bit for bit, and writing into the dict it returned moves
        # nothing, so the next round scores the same candidates as a twin
        # state's that saw no write
        nl, area = tiny_instance(7)
        cfg = PlacerConfig(max_rounds=40, grid_p=4, grid_q=4, seed=3)
        state, twin = (state_on(backend, nl, area, cfg) for _ in range(2))
        seen = []
        score = placer.candidate_score

        def recording(st, i, pos, *args):
            seen.append((st is state.store, i, hexes(pos)))
            return score(st, i, pos, *args)

        monkeypatch.setattr(placer, "candidate_score", recording)
        for _ in range(cfg.max_rounds // 2):
            for s in (state, twin):
                round_step(s, cfg)
            assert {mid: hexes(p) for mid, p in state.placement.items()} == dict(
                zip(state.macro_order, map(hexes, state.store.centers)))
            placement = state.placement
            for mid in placement:
                placement[mid] = (0.0, 0.0)
            assert state.placement != placement
            seen.clear()
        for s in (state, twin):
            round_step(s, cfg)
        mine = [c for own, *c in seen if own]
        assert mine == [c for own, *c in seen if not own] and len(mine) == 9
        assert state.placement == twin.placement

    def test_single_macro_stays_when_alone_scores_zero(self, monkeypatch):
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=30, grid_p=3, grid_q=3, seed=2)
        state = new_state(nl, square_area(), cfg)
        scores = recorded_scores(monkeypatch)
        for _ in range(30):
            scores.clear()
            round_step(state, cfg)
            assert scores[0] == 0.0
            assert scores[state.last_choice] <= scores[0]

    def test_bounds_safety_every_round(self):
        nl, area = tiny_instance(3)
        cfg = PlacerConfig(max_rounds=150, grid_p=4, grid_q=4, seed=9)
        state = new_state(nl, area, cfg)
        for _ in range(150):
            round_step(state, cfg)
            for mid, (x, y) in state.placement.items():
                b = compute_bounds(nl.by_id[mid], area)
                assert b.x_min <= x <= b.x_max
                assert b.y_min <= y <= b.y_max

    def test_zero_candidates_never_moves_but_field_grows(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        init = {"a": (3.0, 3.0), "b": (3.5, 3.5)}
        cfg = PlacerConfig(
            max_rounds=40, candidates_per_round=0, grid_p=3, grid_q=3,
            seed=4, inflation_rho=1.0,
        )
        state = new_state(nl, square_area(), cfg, initial=init)
        probe = snap_to_grid(Rect(2.5, 2.5, 4.0, 4.0), square_area(), 3, 3)
        before = state.field.cost(probe)
        for _ in range(40):
            round_step(state, cfg)
        assert state.placement == init
        assert state.field.cost(probe) > before

    def test_field_monotone_without_inflation(self):
        nl, area = tiny_instance(5)
        cfg = PlacerConfig(
            max_rounds=80, grid_p=4, grid_q=4, seed=6, inflation_rho=1.0
        )
        state = new_state(nl, area, cfg)
        probes = [GridRect(2, 2, 9, 9), GridRect(0, 0, 16, 16), GridRect(5, 1, 6, 14)]
        prev = [state.field.cost(r) for r in probes]
        for _ in range(80):
            round_step(state, cfg)
            cur = [state.field.cost(r) for r in probes]
            assert all(c >= p - 1e-9 for c, p in zip(cur, prev))
            prev = cur

    def test_statistics_recomputable_from_placement(self):
        nl, area = tiny_instance(7)
        cfg = PlacerConfig(max_rounds=50, grid_p=4, grid_q=4, seed=11)
        state = new_state(nl, area, cfg)
        for _ in range(50):
            round_step(state, cfg)
        fresh_bb = sum(
            bb_netlength([state.placement[m] for m in net.members])
            for net in nl.nets
        )
        assert stats_row(state, cfg).netlength_bb == fresh_bb
        ids = sorted(state.placement)
        fresh_ov = 0.0
        for i, mi in enumerate(ids):
            for mj in ids[i + 1 :]:
                inter = intersection(
                    footprint_box(nl.by_id[mi], state.placement[mi]),
                    footprint_box(nl.by_id[mj], state.placement[mj]),
                )
                if inter is not None:
                    x1, y1, x2, y2 = inter
                    fresh_ov += (x2 - x1) * (y2 - y1)
        assert stats_row(state, cfg).overlap_area == pytest.approx(fresh_ov, rel=1e-12, abs=1e-12)


class TestCoolingRemark:
    def test_two_macro_pair_separates_for_every_seed(self):
        # the pathological pair: one net pulls two identical macros together;
        # growing punishment must break the ping-pong and keep them apart
        nl = Netlist(
            [Macro("a", 2, 2), Macro("b", 2, 2)], [Net(("a", "b"))]
        )
        area = PlacementArea(8, 4)
        for seed in range(20):
            cfg = PlacerConfig(
                max_rounds=2000, grid_p=3, grid_q=2, seed=seed
            )
            placement, trace = run_placer(nl, area, cfg)
            assert trace[-1].overlap_area == 0.0, f"seed {seed}"


class TestRunPlacer:
    def test_zero_macros(self):
        placement, trace = run_placer(
            Netlist([], []), square_area(), PlacerConfig(max_rounds=10, seed=1)
        )
        assert placement == {}
        assert len(trace) == 1
        assert trace[0].netlength_bb == 0.0
        assert trace[0].overlap_area == 0.0

    def test_single_unconstrained_macro_is_legal(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=50, grid_p=3, grid_q=3, seed=3)
        placement, trace = run_placer(nl, square_area(), cfg)
        assert is_legal(placement, nl, square_area()).legal
        assert len(trace) == 51

    def test_determinism_bitwise(self):
        nl, area = tiny_instance(9)
        cfg = PlacerConfig(max_rounds=300, grid_p=4, grid_q=4, seed=1234)
        p1, t1 = run_placer(nl, area, cfg)
        p2, t2 = run_placer(nl, area, cfg)
        assert p1 == p2
        assert t1 == t2

    def test_seed_changes_outcome(self):
        nl, area = tiny_instance(9)
        cfg1 = PlacerConfig(max_rounds=100, grid_p=4, grid_q=4, seed=1)
        cfg2 = PlacerConfig(max_rounds=100, grid_p=4, grid_q=4, seed=2)
        assert run_placer(nl, area, cfg1)[0] != run_placer(nl, area, cfg2)[0]

    def test_partial_initial_placement(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=0, seed=5)
        placement, trace = run_placer(
            nl, square_area(), cfg, initial={"a": (4.0, 4.0)}
        )
        assert placement["a"] == (4.0, 4.0)
        assert "b" in placement
        assert len(trace) == 1

    def test_out_of_bounds_initial_is_clamped(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=0, seed=5)
        placement, _ = run_placer(
            nl, square_area(), cfg, initial={"a": (100.0, -50.0)}
        )
        assert placement["a"] == (7.0, 1.0)

    def test_infeasible_macro_errors_before_rounds(self):
        nl = Netlist([Macro("a", 20, 2)], [])
        with pytest.raises(ValueError, match="does not fit"):
            run_placer(nl, square_area(), PlacerConfig(max_rounds=5, seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlacerConfig(max_rounds=-1)
        with pytest.raises(ValueError):
            PlacerConfig(max_rounds=10, inflation_rho=0.0)
        with pytest.raises(ValueError):
            PlacerConfig(max_rounds=10, delta0=0.0)
        with pytest.raises(ValueError):
            PlacerConfig(max_rounds=10, w_growth=0.5)
        with pytest.raises(ValueError):
            PlacerConfig(max_rounds=10, grid_p=99)
        # beyond the float range, before 1 / max_rounds overflows
        with pytest.raises(ValueError, match="max_rounds must be in"):
            PlacerConfig(max_rounds=10**400)
        # a round holds all its candidates in a list; the C store would
        # refuse 10**20 only with an OverflowError, and 10**15 runs out of
        # memory
        PlacerConfig(max_rounds=1, candidates_per_round=MAX_CANDIDATES_PER_ROUND)
        for count in (MAX_CANDIDATES_PER_ROUND + 1, 10**15, 10**20):
            with pytest.raises(ValueError, match=r"^candidates_per_round must be "
                               rf"in \[0, {MAX_CANDIDATES_PER_ROUND}\]$"):
                PlacerConfig(max_rounds=1, candidates_per_round=count)


class TestBackendsAndSwitch:
    def test_rounds_on_python_field_backend(self, monkeypatch):
        nl, area = tiny_instance(12)
        cfg = PlacerConfig(max_rounds=80, grid_p=4, grid_q=4, seed=3)
        state = state_on("py", nl, area, cfg)
        scores = recorded_scores(monkeypatch)
        for _ in range(80):
            scores.clear()
            round_step(state, cfg)
            assert scores[state.last_choice] <= scores[0]
        fresh_bb = sum(
            bb_netlength([state.placement[m] for m in net.members])
            for net in nl.nets
        )
        assert stats_row(state, cfg).netlength_bb == fresh_bb

    def test_switch_round_beyond_run_keeps_smoothing(self):
        nl, area = tiny_instance(13)
        cfg = PlacerConfig(
            max_rounds=30, grid_p=4, grid_q=4, seed=3, model_switch_round=1000
        )
        placement, trace = run_placer(nl, area, cfg)
        assert len(trace) == 31

    def test_round_row_is_the_stats_row(self, backend, monkeypatch):
        # round_step builds its row from the schedules it scored with; it
        # equals stats_row's, field by field, on every round, among them
        # the first, those around the switch round and the last, and every
        # candidate is scored with the row's beta and delta
        nl, area = tiny_instance(3)
        cfg = PlacerConfig(max_rounds=40, grid_p=4, grid_q=4, seed=2)
        state = state_on(backend, nl, area, cfg)
        assert 1 < cfg.switch_round - 1 < cfg.switch_round < cfg.max_rounds
        seen = []
        score = placer.candidate_score

        def recording(*args):
            seen.append(args)
            return score(*args)

        monkeypatch.setattr(placer, "candidate_score", recording)
        for _ in range(cfg.max_rounds):
            seen.clear()
            row = round_step(state, cfg)
            want = stats_row(state, cfg)
            assert [exact(v) for v in row] == [exact(v) for v in want]
            assert row.round == state.round
            assert len(seen) == cfg.candidates_per_round + 1 == 9
            beta = None if row.round >= cfg.switch_round else row.beta
            factor = (cfg.penalty_c * row.delta).hex()
            (i,) = {args[1] for args in seen}
            assert 0 <= i < len(state.macro_order)
            for scored, _, _, b, f in seen:
                assert scored is state.store and b == beta and f.hex() == factor
        assert state.round == cfg.max_rounds

    @needs_c_score
    def test_mixed_cores_rejected(self):
        # the store is built on its field, so a state cannot pair a field of
        # one core with the store of the other: a C store refuses a field
        # on the Python core, and the state's field is the store's
        nl, area = tiny_instance(16)
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=1)
        states = {b: state_on(b, nl, area, cfg) for b in ("c", "py")}
        with pytest.raises(TypeError, match="field must be a CostField on the C core"):
            stepfield.c_core.PlacementStore(
                states["py"].field, area.width, area.height, 1.0, 1.0, array("d"),
                array("d"), array("d"), [], array("d"), 1.0,
            )
        for backend, other in (("c", "py"), ("py", "c")):
            with pytest.raises(AttributeError):
                states[backend].field = states[other].field
            assert states[backend].field.backend == backend

    def test_both_stores_expose_the_same_methods(self, backend):
        # one switch: _pycore exports the C module's names, each class pair
        # has the same public methods (the C core's properties are the
        # Python instances' attributes), and a state's store is the core's
        def public(obj):
            return sorted(n for n in dir(obj) if not n.startswith("_"))

        exports = ["FieldCore", "FreeSpace", "PlacementStore", "candidate_score",
                   "repr_line"]
        assert sorted(_pycore.__all__) == exports
        methods = {
            "FieldCore": ["coefficient", "cost", "increase", "inflate"],
            "FreeSpace": ["blocked", "nearest_free", "put"],
            "PlacementStore": ["box", "move", "net_lengths", "pairs", "proposals",
                               "round", "score", "totals"],
        }
        properties = {"FieldCore": ["last_touched"], "PlacementStore": ["centers", "field"]}
        for name, want in methods.items():
            assert public(getattr(_pycore, name)) == want
        if stepfield.c_core is not None:
            assert public(stepfield.c_core) == exports
            for name, want in methods.items():
                assert public(getattr(stepfield.c_core, name)) == sorted(
                    want + properties.get(name, []))
        nl, area = tiny_instance(17)
        cfg = PlacerConfig(max_rounds=1, grid_p=4, grid_q=4, seed=1)
        state = state_on(backend, nl, area, cfg)
        assert type(state.store) is (
            _pycore.PlacementStore if backend == "py" else stepfield.c_core.PlacementStore
        )
        assert state.field is state.store.field and state.field.backend == backend
        for name, holder in (("FieldCore", state.field.core),
                             ("PlacementStore", state.store)):
            assert all(hasattr(holder, n) for n in properties[name])

    def test_mismatched_config_grid_rejected(self):
        nl, area = tiny_instance(14)
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=1)
        state = new_state(nl, area, cfg)
        other = PlacerConfig(max_rounds=10, grid_p=5, grid_q=4, seed=1)
        with pytest.raises(ValueError, match="config differs from the one the state"):
            round_step(state, other)

    def test_equal_config_accepted(self, backend):
        # an equal config need not be the state's own object
        nl, area = tiny_instance(14)
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=1)
        state = state_on(backend, nl, area, cfg)
        twin = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=1)
        assert twin == cfg and twin is not cfg and state.config is cfg
        assert stats_row(state, twin) == stats_row(state, cfg)
        row = round_step(state, twin)
        assert row.round == state.round == 1 and row == stats_row(state, twin)

    def test_other_config_refused_before_anything_moves(self, backend):
        # a config differing only in a field the grid does not show
        nl, area = tiny_instance(14)
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=1)
        state = state_on(backend, nl, area, cfg)
        round_step(state, cfg)
        other = replace(cfg, blockage_weight=0.0)
        whole = GridRect(0, 0, 16, 16)
        before = repr((state.round, state.placement, state.field.cost(whole)))
        for step in (round_step, stats_row):
            with pytest.raises(ValueError, match="config differs from the one the state"):
                step(state, other)
            assert repr((state.round, state.placement, state.field.cost(whole))) == before

    def test_unknown_initial_macro_rejected(self):
        nl, area = tiny_instance(15)
        cfg = PlacerConfig(max_rounds=1, seed=1)
        with pytest.raises(ValueError, match="unknown macro 'ghost'"):
            new_state(nl, area, cfg, initial={"ghost": (1.0, 1.0)})


class TestBlockagesEndToEnd:
    def test_placement_with_central_blockage_ends_legal(self):
        rng = random.Random(17)
        macros = [Macro(f"m{i}", 2, 2) for i in range(6)]
        nets = [Net((f"m{i}", f"m{(i + 1) % 6}")) for i in range(4)]
        nl = Netlist(macros, nets)
        area = PlacementArea(12, 12, (Rect(4.0, 4.0, 8.0, 8.0),))
        cfg = PlacerConfig(max_rounds=4000, grid_p=4, grid_q=4, seed=21)
        placement, trace = run_placer(nl, area, cfg)
        legal = naive_legalize(placement, nl, area, cfg.grid_p, cfg.grid_q)
        rep = is_legal(legal, nl, area)
        assert rep.legal
        assert rep.blockage_overlaps == []


class TestNaiveLegalize:
    def test_identity_on_legal_placement(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        area = PlacementArea(4, 2)
        placement = {"a": (1.0, 1.0), "b": (3.0, 1.0)}
        assert naive_legalize(placement, nl, area, 2, 1) == placement

    def test_stacked_unit_macros_split_to_free_cell(self):
        nl = Netlist([Macro("a", 1, 1), Macro("b", 1, 1)], [])
        area = PlacementArea(2, 1)
        placement = {"a": (0.5, 0.5), "b": (0.5, 0.5)}
        got = naive_legalize(placement, nl, area, 2, 1)
        assert got["a"] == (0.5, 0.5)
        assert got["b"] == (1.5, 0.5)
        assert is_legal(got, nl, area).legal

    def test_overfull_area_errors(self):
        nl = Netlist([Macro(f"m{i}", 1, 1) for i in range(3)], [])
        area = PlacementArea(2, 1)
        placement = {f"m{i}": (0.5, 0.5) for i in range(3)}
        with pytest.raises(LegalizationError):
            naive_legalize(placement, nl, area, 2, 1)

    def test_coarse_lattice_falls_back_to_finer(self):
        # at exponent 0 the unit lattice is {0.5, 3.5}, and c finds both taken
        nl = Netlist([Macro(m, 1, 1) for m in "abc"], [])
        area = PlacementArea(4, 1)
        placement = {m: (0.5, 0.5) for m in "abc"}
        with pytest.raises(LegalizationError):
            oracle_legalize(placement, nl, area, 0, 0)
        got = naive_legalize(placement, nl, area, 0, 0)
        assert got == {"a": (0.5, 0.5), "b": (3.5, 0.5), "c": (2.5, 0.5)}

    def test_blockage_respected(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        area = PlacementArea(6, 2, (Rect(0, 0, 2, 2),))
        got = naive_legalize({"a": (1.0, 1.0)}, nl, area, 3, 1)
        assert is_legal(got, nl, area).legal

    @pytest.mark.parametrize("seed", range(6))
    def test_random_overlapping_instances_legalize(self, seed):
        rng = random.Random(seed)
        macros = [
            Macro(f"m{i}", 1.0 + rng.random(), 1.0 + rng.random())
            for i in range(8)
        ]
        nl = Netlist(macros, [])
        area = PlacementArea(10, 10)
        placement = {
            m.id: (rng.uniform(m.size_x / 2, 10 - m.size_x / 2),
                   rng.uniform(m.size_y / 2, 10 - m.size_y / 2))
            for m in macros
        }
        # a lattice pitch of 10 / 2**e at most half the smallest macro side
        e = 4 if min(min(m.size_x, m.size_y) for m in macros) >= 1.25 else 5
        got = naive_legalize(placement, nl, area, e, e)
        assert is_legal(got, nl, area).legal

    def test_missing_position_errors(self):
        nl = Netlist([Macro("a", 1, 1)], [])
        with pytest.raises(ValueError, match="'a'"):
            naive_legalize({}, nl, PlacementArea(4, 4), 3, 3)

    @pytest.mark.parametrize(
        "report, culprit",
        [
            (LegalityReport([], [("b", "c")], []), "b"),
            (LegalityReport([], [], [("c", 0)]), "c"),
        ],
    )
    def test_final_check_error_names_a_macro(self, monkeypatch, report, culprit):
        nl = Netlist([Macro(m, 1, 1) for m in "abc"], [])
        placement = {"a": (0.5, 0.5), "b": (1.5, 0.5), "c": (2.5, 0.5)}
        monkeypatch.setattr(placer, "is_legal", lambda *args: report)
        with pytest.raises(LegalizationError) as err:
            naive_legalize(placement, nl, PlacementArea(4, 4), 3, 3)
        assert err.value.macro_id == culprit

    def test_cursor_probes_are_a_fraction_of_the_oracles(self, monkeypatch):
        """Same placement as the oracle, which probes every ring point, from
        under a fifth of its probes.  The blocker choice is deterministic, so
        the count is exact."""
        start, netlist, area = blocked_instance()
        boxes = 0
        box = footprint_box

        def counted_box(*args):
            nonlocal boxes
            boxes += 1
            return box(*args)

        monkeypatch.setattr(oracles, "footprint_box", counted_box)
        want = oracle_legalize(start, netlist, area, 6, 6)
        # one footprint per probe, plus one per placed macro
        oracle_probes = boxes - len(netlist.macros)
        got, probes = counted_legalize(start, netlist, area)
        assert got == want
        assert oracle_probes == 35240
        assert probes == PROBES <= oracle_probes // 5

    def test_probes_do_not_depend_on_the_hash_seed(self):
        """String hashes order the bucket grid's sets; the blocker a probe
        reports, and so the probe count, must not follow that order."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(placer.__file__))
        code = (
            "from test_placer import blocked_instance, counted_legalize\n"
            "got, probes = counted_legalize(*blocked_instance())\n"
            "print(sorted((k, x.hex(), y.hex()) for k, (x, y) in got.items()))\n"
            "print(probes)\n"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                 "PYTHONPATH": os.pathsep.join((src, here))},
            ).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] == outs[1]
        assert outs[0].split()[-1] == str(PROBES)

    @settings(max_examples=150, deadline=None)
    @given(case=ring_searches())
    @example(case=TOUCHING_COLUMN)
    @example(case=TOUCHING_ROW)
    def test_ring_search_matches_point_by_point_walk(self, case):
        """The cursor walk returns the first free point of the walk that
        probes every ring point, to the bit, whichever overlapping box the
        blocker reports."""
        xs, ys, pos, half, boxes = case

        def blocker(box):
            return next((b for b in boxes if intersection(box, b)), None)

        got = _pycore._nearest_free(xs, ys, pos, half, blocker)
        want = oracles.oracle_nearest_free(xs, ys, pos, half, boxes)
        assert (got and tuple(v.hex() for v in got)) == (
            want and tuple(v.hex() for v in want))

    @needs_c_space
    @settings(max_examples=200, deadline=None)
    @given(case=lattice_searches())
    @example(case=EMPTY_COLUMN)
    @example(case=EMPTY_ROW)
    @example(case=LEAST_KEY)
    @example(case=LEAST_KEY_FOUND)
    def test_c_search_matches_python_reference(self, case):
        """The C core's lattice search finds the Python reference's point,
        to the bit, and its start probe the same answer, on empty footprints
        too, which both jump over alike."""
        args, boxes = case
        c_space, py_space = spaces_blocked_by(boxes, 2.0**53)
        got, want = c_space.nearest_free(*args), py_space.nearest_free(*args)
        assert (got and tuple(v.hex() for v in got)) == (
            want and tuple(v.hex() for v in want))
        x, y, hx, hy = args[6:]
        box = (x - hx, y - hy, x + hx, y + hy)
        assert c_space.blocked(*box) == py_space.blocked(*box)

    @needs_c_space
    @settings(max_examples=120, deadline=None)
    @given(case=legalizer_instances())
    def test_c_legalizer_matches_python_reference(self, case):
        """``naive_legalize`` on the C core returns the Python reference's
        placement by ``float.hex``, or both raise :class:`LegalizationError`
        naming the same macro."""
        outcomes = []
        for core in (stepfield.c_core, _pycore):
            with mock.patch.object(stepfield, "core", core):
                try:
                    got = naive_legalize(*case)
                    outcomes.append({k: (x.hex(), y.hex()) for k, (x, y) in got.items()})
                except LegalizationError as e:
                    outcomes.append(("LegalizationError", e.macro_id))
        assert outcomes[0] == outcomes[1]

    @needs_c_space
    def test_c_free_space_rejects_bad_input(self):
        make = stepfield.c_core.FreeSpace
        with pytest.raises(ValueError, match="positive and finite"):
            make(math.inf, 4.0, 1.0, 1.0, 2, array("d"))
        with pytest.raises(ValueError, match="4 doubles per box"):
            make(4.0, 4.0, 1.0, 1.0, 2, array("d", [0.0, 0.0, 1.0]))
        space = make(4.0, 4.0, 1.0, 1.0, 2, array("d"))
        with pytest.raises(ValueError, match="key 2 out of range"):
            space.put(2, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="footprint must be finite"):
            space.put(0, 0.0, 0.0, math.nan, 1.0)
        with pytest.raises(TypeError, match="expected 4 arguments"):
            space.blocked(0.0, 0.0, 1.0)
        search = [0.5, 3.5, 1.0, 0.5, 3.5, 1.0, 1.0, 1.0, 0.5, 0.5]
        assert space.nearest_free(*search) == (0.5, 0.5)
        for k, bad in ((2, 0.0), (6, math.inf), (9, math.nan)):
            with pytest.raises(ValueError, match="finite values and positive steps"):
                space.nearest_free(*search[:k], bad, *search[k + 1:])
        with pytest.raises(ValueError, match="too fine"):
            space.nearest_free(0.0, 1.0, 1e-9, *search[3:])

    def test_naive_legalize_runs_the_c_search_where_the_core_loaded(self, monkeypatch):
        """On the C core no Python search runs; without it the Python
        reference does, and both give the same placement."""
        assert stepfield.core is (stepfield.c_core or _pycore)
        start, netlist, area = blocked_instance()
        calls = 0
        search = _pycore._nearest_free

        def counted(*args):
            nonlocal calls
            calls += 1
            return search(*args)

        monkeypatch.setattr(_pycore, "_nearest_free", counted)
        got = naive_legalize(start, netlist, area, 6, 6)
        assert (calls == 0) == (stepfield.c_core is not None)
        monkeypatch.setattr(stepfield, "core", _pycore)
        assert naive_legalize(start, netlist, area, 6, 6) == got
        assert calls > 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_matches_oracle(self, data):
        """Where the plain search succeeds, the legalizer returns its
        placement to the bit; where it fails, the legalizer returns a legal
        placement or raises :class:`LegalizationError`."""
        draw = data.draw
        rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
        w, h = rng.uniform(4, 40), rng.uniform(4, 40)
        # macro sides up to a third of the area, total area up to 60% of it
        n = draw(st.integers(1, 30), label="macros")
        util = draw(st.floats(0.05, 0.6), label="utilization")
        side = math.sqrt(util * w * h / n)
        macros = [
            Macro(f"m{i}", min(w / 3, side * rng.uniform(0.4, 1.6)),
                  min(h / 3, side * rng.uniform(0.4, 1.6)))
            for i in range(n)
        ]
        keepouts = []
        for _ in range(draw(st.integers(0, 3), label="keep-outs")):
            kw, kh = w * rng.uniform(0.02, 0.3), h * rng.uniform(0.02, 0.3)
            x, y = rng.uniform(0, w - kw), rng.uniform(0, h - kh)
            keepouts.append(Rect(x, y, x + kw, y + kh))
        area = PlacementArea(w, h, tuple(keepouts))
        # centers drawn from a window of the area, so footprints overlap
        f = draw(st.floats(0.0, 1.0), label="window")
        start = {m.id: (rng.uniform(0, f * w), rng.uniform(0, f * h))
                 for m in macros}
        p = draw(st.integers(2, 8), label="grid_p")
        q = draw(st.integers(2, 8), label="grid_q")
        nl = Netlist(macros, [])
        try:
            want = oracle_legalize(start, nl, area, p, q)
        except LegalizationError:
            want = None
        try:
            got = naive_legalize(start, nl, area, p, q)
        except LegalizationError:
            assert want is None
            return
        assert is_legal(got, nl, area).legal
        if want is not None:
            assert {k: (x.hex(), y.hex()) for k, (x, y) in got.items()} == {
                k: (x.hex(), y.hex()) for k, (x, y) in want.items()}


class TestPlaceability:
    """Inputs the CLI refuses are refused by the library too, on both
    cores, with one message and before any store or search is built."""

    @pytest.mark.parametrize("w, h, side", [(math.inf, 4.0, "width"),
                                            (4.0, -math.inf, "height"),
                                            (math.nan, 4.0, "width")])
    def test_non_finite_area_side(self, on_core, backend, w, h, side):
        on_core(backend)
        with pytest.raises(ValueError, match=f"^placement area {side} must be finite: "):
            PlacementArea(w, h)

    @pytest.mark.parametrize("sizes, area, ulp", [
        # a footprint 2e-300 wide is empty off the left edge
        ([(2e-300, 2.0), (2.0, 2.0)], PlacementArea(16.0, 16.0), "3.552713678800501e-15"),
        # at 2**52 floats are 1 apart: a half side of 0.25 leaves most
        # footprints empty; one of 1.0, the ulp itself, is refused too
        ([(0.5, 1.0)], PlacementArea(2.0**52, 4.0), "1.0"),
        ([(2.0, 2.0)], PlacementArea(2.0**52, 4.0), "1.0"),
    ])
    def test_sub_ulp_macro(self, monkeypatch, on_core, backend, sizes, area, ulp):
        on_core(backend)
        nl = Netlist([Macro(f"m{i}", sx, sy) for i, (sx, sy) in enumerate(sizes)], [])
        want = (rf"^macro m0 is too small for a {area.width!r} x {area.height!r} "
                rf"area: its half-size must exceed {ulp}$")
        with pytest.raises(ValueError, match=want):
            run_placer(nl, area, PlacerConfig(max_rounds=5, seed=1))
        built = []
        monkeypatch.setattr(stepfield.core, "FreeSpace", lambda *args: built.append(args))
        start = {m.id: (m.size_x / 2, m.size_y / 2) for m in nl.macros}
        with pytest.raises(ValueError, match=want):
            naive_legalize(start, nl, area, 6, 6)
        assert built == []

    def test_nan_position(self, monkeypatch, on_core, backend):
        on_core(backend)
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        area = PlacementArea(10, 10)
        placement = {"a": (math.nan, 3.0), "b": (5.0, 5.0)}
        want = r"^macro 'a' has a NaN position \(nan, 3\.0\)$"
        with pytest.raises(ValueError, match=want):
            new_state(nl, area, PlacerConfig(max_rounds=5, seed=1), placement)
        built = []
        monkeypatch.setattr(stepfield.core, "FreeSpace", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=want):
            naive_legalize(placement, nl, area, 6, 6)
        assert built == []
