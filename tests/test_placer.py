import io
import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import fields
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepplace.placer as placer
import stepplace.stepfield as stepfield
import oracles
from oracles import intersection, oracle_legalize
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
    py_candidate_score,
    round_step,
    run_placer,
    score_context,
    snap_to_grid,
    stats_row,
)
from stepplace.stepfield import MAX_GRID_EXPONENT, CostField, GridRect


def square_area(side=8.0, blockages=()):
    return PlacementArea(side, side, blockages)


# ring probes of naive_legalize on blocked_instance(), plus one per macro
PROBES = 451


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
    """``naive_legalize`` at exponent 6 and its probes: one for each macro's
    start, one for each blocker query of the ring search."""
    probes = len(netlist.macros)
    search = placer._nearest_free

    def counted_search(xs, ys, pos, half, blocker):
        def probe(box):
            nonlocal probes
            probes += 1
            return blocker(box)

        return search(xs, ys, pos, half, probe)

    placer._nearest_free = counted_search
    try:
        got = naive_legalize(start, netlist, area, 6, 6)
    finally:
        placer._nearest_free = search
    return got, probes


@st.composite
def ring_searches(draw):
    """Arguments of ``_nearest_free`` plus the boxes its blocker reports.

    At ``2**51`` floats are 0.5 apart, so a half side of 0.25 leaves the
    footprints at even multiples of 0.5 empty (``y - hy == y + hy``) and
    those at odd ones not.  Box edges come from the footprint edges, so
    boxes often touch footprints edge to edge, and from beyond the lattice,
    so some span whole columns or rows."""
    if draw(st.booleans(), label="at 2**51"):
        base, step = 2.0**51, st.sampled_from([0.5, 1.0, 1.5])
        half = st.sampled_from([0.25, 0.25, 0.5])
    else:
        base, step = draw(st.floats(0, 100), label="base"), st.floats(0.125, 3)
        half = st.one_of(st.floats(0.05, 4), st.just(1e-300))
    xs, ys = (list(accumulate([base] + draw(st.lists(step, max_size=9), label=a)))
              for a in ("xs", "ys"))
    hx, hy = draw(half, label="hx"), draw(half, label="hy")

    def edges(vals, h):
        far = 4 * h + 4
        return sorted({v - h for v in vals} | {v + h for v in vals}
                      | {vals[0] - far, vals[-1] + far})

    ex, ey = edges(xs, hx), edges(ys, hy)
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


# empty footprints a jump would pass: at 2**51 + 1 in a column, in a row
_B = 2.0**51
EMPTY_COLUMN = ([_B, _B + 0.5, _B + 1], [_B], (_B - 1, _B - 1), (0.25, 0.25),
                [(_B - 5, _B - 5, _B + 6, _B)])
EMPTY_ROW = ([_B], [_B, _B + 0.5, _B + 1, _B + 1.5], (_B, _B), (0.25, 0.25),
             [(_B - 5, _B - 5, _B + 5, _B + 3)])
# a box that blocks the center and touches the free column or row beside it
TOUCHING_COLUMN = ([-1.0, 0.0], [0.0, 1.0, 2.0], (0.0, 2.0), (0.5, 0.5),
                   [(-0.5, 1.5, 1.0, 3.0)])
TOUCHING_ROW = ([0.0], [0.0, 1.0, 2.0], (0.0, 2.0), (0.5, 0.5),
                [(-1.0, 1.5, 1.0, 3.0)])


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


class TestMoveMacro:
    def test_no_room_rightward_stays(self):
        b = MacroBounds(1.0, 9.0, 1.0, 9.0)

        class FixedRng:
            def __init__(self, draws):
                self.draws = list(draws)

            def random(self):
                return self.draws.pop(0)

        # a=-1 (rightward) at x=x_max: span 0 -> gamma 0 -> no x move
        rng = FixedRng([0.9, 0.9, 0.5, 0.5])
        x, y = move_macro((9.0, 9.0), b, rng)
        assert x == 9.0 and y == 9.0

    def test_unit_left_jump_for_u_zero(self):
        b = MacroBounds(1.0, 9.0, 1.0, 9.0)

        class FixedRng:
            def __init__(self, draws):
                self.draws = list(draws)

            def random(self):
                return self.draws.pop(0)

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


class TestPenalty:
    def netlist2(self):
        return Netlist([Macro("a", 2, 3), Macro("b", 2, 3)], [])

    def test_no_overlap_is_zero(self):
        nl = self.netlist2()
        cfg = PlacerConfig(max_rounds=10, delta0=0.5, delta_growth=1.0)
        grid = footprint_grid(nl, {"b": (5, 1.5)})
        got = penalty(0, nl.by_id["a"], (1, 1.5), grid, cfg)
        assert got == 0.0

    def test_single_intersection_example(self):
        # footprints overlap in a 2x3 rectangle; c=1, delta=0.5 -> 0.5*2*(2+3)
        nl = self.netlist2()
        cfg = PlacerConfig(max_rounds=10, penalty_c=1.0, delta0=0.5, delta_growth=1.0)
        grid = footprint_grid(nl, {"b": (1, 1.5)})
        got = penalty(0, nl.by_id["a"], (1, 1.5), grid, cfg)
        assert got == 5.0

    def test_vanishing_overlap_is_continuous(self):
        nl = self.netlist2()
        cfg = PlacerConfig(max_rounds=10, delta0=0.5, delta_growth=1.0)
        vals = []
        for eps in (0.1, 0.01, 0.0):
            grid = footprint_grid(nl, {"b": (3 - eps, 1.5)})
            got = penalty(0, nl.by_id["a"], (1, 1.5), grid, cfg)
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


class TestCandidateScore:
    def test_everything_empty_scores_zero(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=10, grid_p=3, grid_q=3, seed=1)
        state = new_state(nl, square_area(), cfg)
        a = nl.by_id["a"]
        ctx = score_context(a, state, cfg)
        for pos in [(1, 1), (4, 4), (6.5, 2.5)]:
            assert candidate_score(a, pos, state, cfg, ctx) == 0.0

    def test_two_pin_net_minimized_at_neighbor(self):
        nl = Netlist([Macro("a", 1, 1), Macro("b", 1, 1)], [Net(("a", "b"))])
        cfg = PlacerConfig(
            max_rounds=10, grid_p=3, grid_q=3, seed=1, model_switch_round=1
        )
        state = new_state(nl, square_area(), cfg, initial={"b": (6.0, 6.0)})
        target = (6.0, 6.0)
        a = nl.by_id["a"]
        ctx = score_context(a, state, cfg)
        best = min(
            [(2, 2), (6, 6), (3, 7), (7, 3)],
            key=lambda c: candidate_score(a, c, state, cfg, ctx),
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
        a = nl.by_id["a"]
        ctx = score_context(a, s_plain, cfg)  # the same in both states
        plain = [candidate_score(a, c, s_plain, cfg, ctx) for c in cands]
        unif = [candidate_score(a, c, s_uniform, cfg, ctx) for c in cands]
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
        a = nl.by_id["a"]
        ctx = score_context(a, state, cfg)
        on_block = candidate_score(a, (2.0, 2.0), state, cfg, ctx)
        off_block = candidate_score(a, (6.9, 6.9), state, cfg, ctx)
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
        a = nl.by_id["a"]
        got = candidate_score(a, (3.0, 3.0), state, cfg, score_context(a, state, cfg))
        # the state's store keys footprints by index in macro_order
        assert got == penalty(0, a, (3.0, 3.0), state.store.footprints, cfg, 0)


needs_c_score = pytest.mark.skipif(
    stepfield.c_score_candidate is None, reason="C core not built"
)


def pack_nets(nets):
    """``ScoreContext.pins`` records of ``(pins, j)`` nets, the moving pin
    omitted from ``pins``."""
    out = []
    for pins, j in nets:
        out += (len(pins) + 1, j)
        for x, y in pins:
            out += (x, y)
    return array("d", out)


#: a half-size that covers the whole 1 x 1 area from any test coordinate
COVER = 1e10


def kernel_sum(score, x, y, beta, pins):
    """``score`` plus the nets packed in ``pins``, the moving pin at
    ``(x, y)``, from the C core's ``score_candidate``: the single cell of a
    1 x 1 field holds ``score`` and the footprint covers it; the one other
    footprint is skipped, and no blockage or penalty term adds anything."""
    fld = CostField(0, 0, "c")
    fld.increase(GridRect(0, 0, 1, 1), score)
    far = stepfield.CFootprintIndex(1, 1.0, 1.0, 1.0, 1.0)
    far.put(0, (-3 * COVER, -3 * COVER, -2 * COVER, -2 * COVER))
    return stepfield.c_score_candidate(
        fld.core, x, y, COVER, COVER, 1.0, 1.0, beta, pins, far, 0, 0.0,
        array("d"), 0.0,
    )


def reference_sum(score, x, y, beta, nets):
    """``score`` plus the ``model_length`` of each ``(pins, j)`` net, in
    order, with the moving pin at ``(x, y)`` inserted at index ``j``."""
    score += 0.0  # as the field's cell holds it: a sum is never -0.0
    for pins, j in nets:
        score += model_length(pins[:j] + [(x, y)] + pins[j:], beta)
    return score


class TestNetTerms:
    """The C core's ``score_candidate`` adds each net's ``model_length`` bit
    for bit: every regime, the moving pin anywhere, nets of 2 to 200 pins."""

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
        got = kernel_sum(score, x, y, beta, pack_nets(nets))
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
            got = kernel_sum(0.0, x, y, beta, pack_nets(nets))
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
            got = kernel_sum(2.0, 7.25, 3.5, beta, pack_nets([(fixed, j)]))
            assert got.hex() == want.hex()

    @needs_c_score
    def test_no_nets_returns_score(self):
        assert kernel_sum(4.5, 1.0, 1.0, 2.0, array("d")) == 4.5

    @needs_c_score
    @pytest.mark.parametrize(
        "record",
        [
            [1, 0],  # one pin
            [2, 2, 0, 0],  # moving index past the end
            [2, -1, 0, 0],
            [2, 0.5, 0, 0],  # fractional index
            [2.5, 0, 0, 0, 0],  # fractional count
            [3, 0, 0, 0],  # too few coordinates
            [float("nan"), 0, 0, 0],
            [2],  # header cut short
        ],
    )
    def test_malformed_record_rejected(self, record):
        pins = array("d", [2, 0, 1.0, 1.0] + record)  # a good record first
        with pytest.raises(ValueError, match="malformed net record at offset 4"):
            kernel_sum(0.0, 0.0, 0.0, None, pins)

    @needs_c_score
    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bad_beta_raises_as_the_reference(self, n, beta):
        nets = [([(1.0, 1.0)] * (n - 1), 0)]
        raised = []
        for kernel, arg in ((reference_sum, nets), (kernel_sum, pack_nets(nets))):
            with pytest.raises((ValueError, ZeroDivisionError)) as exc:
                kernel(0.0, 0.0, 0.0, beta, arg)
            raised.append((exc.type, str(exc.value)))
        assert len(set(raised)) == 1

    @needs_c_score
    def test_c_kernel_wants_doubles(self):
        with pytest.raises(TypeError, match="doubles"):
            kernel_sum(0.0, 0.0, 0.0, None, array("f", [2, 0, 1, 1]))

    def test_round_context_scores_equal_contextless(self):
        # multi-pin nets, both net-model regimes (switch at round 16)
        nl, area = generate_instance(GenSpec(macros=10, nets=16, seed=2))
        cfg = PlacerConfig(max_rounds=20, grid_p=4, grid_q=4, seed=4)
        state = new_state(nl, area, cfg)
        rng = random.Random(8)
        for _ in range(cfg.max_rounds):
            macro = nl.by_id[rng.choice(state.macro_order)]
            ctx = score_context(macro, state, cfg)
            # the context packs the macro's nets as the netlist and the
            # placement give them
            nets = [
                ([state.placement[m] for m in net.members if m != macro.id],
                 net.members.index(macro.id))
                for net in nl.nets
                if macro.id in net.members
            ]
            assert ctx.pins == pack_nets(nets)
            for _ in range(4):
                b = state.bounds[macro.id]
                pos = (rng.uniform(b.x_min, b.x_max), rng.uniform(b.y_min, b.y_max))
                # the reference takes the penalty factor from the state
                want = py_candidate_score(macro, pos, state, cfg, ctx)
                got = candidate_score(macro, pos, state, cfg, ctx)
                assert got.hex() == want.hex()
            round_step(state, cfg)


def candidate_at(draw, kind, macro, state):
    """A candidate center of the given kind for ``macro`` in ``state``."""
    area = state.area
    hx, hy = macro.size_x / 2.0, macro.size_y / 2.0
    b = state.bounds[macro.id]
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
    ox1, oy1, ox2, oy2 = state.store.footprints[state.macro_order.index(other)]
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
    for i in range(count):
        assert c_store.pins(i).tobytes() == py_store.pins(i).tobytes()
        assert c_store.footprints[i] == py_store.footprints[i]


class TestScoreCandidate:
    """On the C core, ``candidate_score`` is one call of ``score_candidate``,
    which returns ``py_candidate_score``'s float bit for bit."""

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
        state = new_state(nl, area, cfg)
        for _ in range(draw(st.integers(0, 12), label="rounds")):
            round_step(state, cfg)
        # the scored round: the last smoothed one, the switch, or any
        rnd = draw(st.sampled_from([switch - 2, switch - 1, state.round]))
        state.round = max(0, rnd)
        macro = nl.by_id[draw(st.sampled_from(state.macro_order))]
        ctx = score_context(macro, state, cfg)
        for kind in ("inside", "outside", "edge", "own", "touch"):
            pos = candidate_at(draw, kind, macro, state)
            want = py_candidate_score(macro, pos, state, cfg, ctx)
            touched = state.field.last_touched
            got = candidate_score(macro, pos, state, cfg, ctx)
            assert got.hex() == want.hex(), (kind, pos)
            assert state.field.last_touched == touched

    @needs_c_score
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_c_kernel_equals_python_path_at_scale(self, data):
        # instances of up to 200 macros, so the index's cells hold a few
        # macros each and prune most of them: the C state (field core and
        # footprint index) scores as the Python state (Python core and
        # bucket grid) after the same rounds
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
        with mock.patch.object(stepfield, "HAVE_C_CORE", False):
            py_state = new_state(nl, area, cfg)
        assert isinstance(c_state.store, stepfield.CPlacementStore)
        assert isinstance(py_state.store, placer.PlacementStore)
        assert isinstance(c_state.store.footprints, stepfield.CFootprintIndex)
        assert isinstance(py_state.store.footprints, BucketGrid)
        # the rectangles each store's move returned, in the order the round
        # grew its field under them
        grown = {"c": [], "py": []}

        def recording(field):
            def increase(rect, w):
                grown[field.backend].append(rect)
                CostField.increase(field, rect, w)
            return increase

        for state in (c_state, py_state):
            state.field.increase = recording(state.field)
        assert_stores_agree(c_state.store, py_state.store, len(c_state.macro_order))
        for _ in range(draw(st.integers(0, 10), label="rounds")):
            assert round_step(c_state, cfg) == round_step(py_state, cfg)
            assert grown["c"] == grown["py"]
            assert all(type(r) is GridRect for r in grown["c"])
            assert_stores_agree(c_state.store, py_state.store, len(c_state.macro_order))
            grown["c"].clear()
            grown["py"].clear()
        macro = nl.by_id[draw(st.sampled_from(c_state.macro_order))]
        ctx = score_context(macro, c_state, cfg)
        for kind in ("inside", "outside", "edge", "own", "touch"):
            pos = candidate_at(draw, kind, macro, c_state)
            want = py_candidate_score(macro, pos, py_state, cfg, ctx)
            got = candidate_score(macro, pos, c_state, cfg, ctx)
            assert got.hex() == want.hex(), (kind, pos)

    @needs_c_score
    def test_box_meets_follow_python_max_and_min(self):
        # boxes no placer state holds (signed zeros; a NaN corner, which only
        # a blockage can have, as the index rejects it): the kernel's meets
        # are netmodel.meet's, so a NaN corner drops out of the meet as
        # Python's max and min drop it
        nan = math.nan
        boxes = [
            (0.0, 0.0, 2.0, 2.0),  # skipped
            (1.0, 0.5, 3.0, 1.5),
            (-0.0, -0.0, 1.0, 1.0),
            (0.5, -0.0, 1.5, 0.0),  # empty
            (2.0, 0.0, 3.0, 3.0),  # touches the candidate's right edge
        ]
        blockages = [(nan, nan, 1.5, 0.5), (-0.0, 0.5, 0.5, nan)]
        cand = (0.0, 0.0, 2.0, 2.0)

        def circ_area(box):
            ix1, iy1, ix2, iy2 = meet(cand, box)
            if ix1 < ix2 and iy1 < iy2:
                return 2.0 * ((ix2 - ix1) + (iy2 - iy1)), (ix2 - ix1) * (iy2 - iy1)
            return 0.0, 0.0

        want = 0.0 + 3.0 * sum(circ_area(b)[0] for b in boxes[1:])
        for b in blockages:
            want += 5.0 * circ_area(b)[1]
        index = stepfield.CFootprintIndex(len(boxes), 8.0, 8.0, 1.0, 1.0)
        for k, b in enumerate(boxes):
            index.put(k, b)
        got = stepfield.c_score_candidate(
            CostField(2, 2, "c").core, 1.0, 1.0, 1.0, 1.0, 8.0, 8.0, None,
            array("d"), index, 0, 3.0,
            array("d", [v for b in blockages for v in b]), 5.0,
        )
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
        for name in ("penalty", "model_length", "py_candidate_score"):
            monkeypatch.setattr(placer, name, boom)
        monkeypatch.setattr(CostField, "cost", boom)
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)

    @needs_c_score
    def test_rounds_never_reach_the_bucket_grid(self, monkeypatch):
        # on the C core the state's footprints live in the C index alone
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
        def boom(*args, **kwargs):
            raise AssertionError("the numpy field reached the C kernel")

        calls = []
        reference = placer.py_candidate_score

        def counted(*args):
            calls.append(args[1])
            return reference(*args)

        nl, area = generate_instance(GenSpec(macros=12, nets=18, seed=5))
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=2)
        state = new_state(nl, area, cfg)
        state.field = CostField(cfg.grid_p, cfg.grid_q, backend="py")
        monkeypatch.setattr(placer, "c_score_candidate", boom)
        monkeypatch.setattr(placer, "py_candidate_score", counted)
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)
        assert len(calls) == cfg.max_rounds * (cfg.candidates_per_round + 1)

    def test_footprints_follow_the_grid(self):
        # the store's one footprint index holds each macro's footprint at its
        # current position, under its index in macro_order
        nl, area = generate_instance(GenSpec(macros=15, nets=20, seed=6))
        cfg = PlacerConfig(max_rounds=60, grid_p=4, grid_q=4, seed=3)
        state = new_state(nl, area, cfg)
        for _ in range(cfg.max_rounds):
            round_step(state, cfg)
        footprints = state.store.footprints
        assert [footprints[i] for i in range(len(state.macro_order))] == [
            footprint_box(nl.by_id[mid], state.placement[mid])
            for mid in state.macro_order
        ]

    @pytest.mark.parametrize(
        "index, value, error, match",
        [
            (0, None, TypeError, "FieldCore"),
            (0, "py core", TypeError, "FieldCore"),
            (8, array("f", [2, 0, 1, 1]), TypeError, "pins must be a buffer of doubles"),
            (9, array("f", [0, 0, 1, 1]), TypeError,
             "footprints must be a FootprintIndex"),
            (12, array("f"), TypeError, "blockages must be a buffer"),
            (9, [0.0, 0.0, 1.0, 1.0], TypeError, None),
            # the flat buffer of four doubles per macro the kernel once read
            (9, array("d", [0, 0, 1, 1, 2, 2, 3, 3]), TypeError, "a FootprintIndex"),
            (12, array("d", [0, 0, 1]), ValueError, "4 doubles per box"),
            (10, -1, ValueError, "skip index -1 out of range for 2"),
            (10, 2, ValueError, "skip index 2 out of range for 2"),
            (10, 1.0, TypeError, None),
            (1, math.nan, ValueError, "finite"),
            (2, math.inf, ValueError, "finite"),
            (5, math.nan, ValueError, "outside the grid"),
            (1, "1.0", TypeError, None),
            (8, array("d", [2, 5, 1, 1]), ValueError, "malformed net record"),
        ],
    )
    @needs_c_score
    def test_c_kernel_rejects_bad_input(self, index, value, error, match):
        footprints = stepfield.CFootprintIndex(2, 4.0, 4.0, 1.0, 1.0)
        footprints.put(0, (0.0, 0.0, 1.0, 1.0))
        footprints.put(1, (2.0, 2.0, 3.0, 3.0))
        args = [
            CostField(2, 2, "c").core, 1.0, 1.0, 0.5, 0.5, 4.0, 4.0, None,
            array("d", [2, 0, 3.0, 3.0]), footprints,
            0, 1.0, array("d", [0, 0, 1, 1]), 1.0,
        ]
        assert isinstance(stepfield.c_score_candidate(*args), float)
        if value == "py core":
            value = CostField(2, 2, "py").core
        args[index] = value
        with pytest.raises(error, match=match):
            stepfield.c_score_candidate(*args)
        with pytest.raises(TypeError, match="14 arguments"):
            stepfield.c_score_candidate(*args[:-1])


def state_on(backend, netlist, area, config, initial=None):
    """``new_state`` on the given field backend, with its placement store."""
    with mock.patch.object(stepfield, "HAVE_C_CORE", backend == "c"):
        state = new_state(netlist, area, config, initial)
    assert state.field.backend == backend
    return state


class TestPlacementStore:
    """The store a round commits to: the C core's ``PlacementStore`` and its
    Python reference ``placer.PlacementStore``."""

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
        state = state_on(backend, nl, PlacementArea(64, 64), cfg, init)
        store = state.store
        assert store.pairs() == [(0, 1, 1.0), (2, 3, e), (4, 5, e)]
        assert stats_row(state, cfg).overlap_area == 1.0
        assert store.move(0, 5.0, 30.0) == []  # the pair (0, 1) ends
        assert store.pairs() == [(2, 3, e), (4, 5, e)]
        assert store.move(0, 5.0, 5.0) == [snap_to_grid((5.0, 5.0, 6.0, 6.0),
                                                        state.area, 6, 6)]
        assert store.pairs() == [(2, 3, e), (4, 5, e), (0, 1, 1.0)]
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
        assert state.store.footprints[0][2] == x2 and state.store.footprints[1][0] == x1
        rects = state.store.move(0, *init["a"])
        assert rects == [GridRect(5, 2, 6, 6)]

    def test_no_pair_and_no_net_writes_int_zero(self, backend):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=1)
        state = state_on(backend, nl, square_area(), cfg, {"a": (1, 1), "b": (5, 5)})
        row = stats_row(state, cfg)
        assert type(row.netlength_bb) is int and type(row.overlap_area) is int
        buf = io.StringIO()
        write_stats_csv(buf, [row])
        assert buf.getvalue().splitlines()[1].startswith("0,0,0,")

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
            assert c.move(i, x, y) == py.move(i, x, y)
            assert_stores_agree(c, py, len(ids))

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
            ({"rect": list}, TypeError, "subtype of tuple"),
            ({"p": 30}, ValueError, "grid exponents"),
            ({"width": 0.0}, ValueError, "positive and finite"),
        ],
    )
    def test_c_store_rejects_bad_input(self, change, error, match):
        args = dict(
            width=8.0, height=8.0, min_cell_x=2.0, min_cell_y=2.0, p=3, q=3,
            halves=array("d", [1.0, 1.0, 1.0, 1.0]),
            centers=array("d", [1.0, 1.0, 5.0, 5.0]),
            nets=[[0, 1]], rect=GridRect,
        )
        store = stepfield.CPlacementStore(**args)
        with pytest.raises(ValueError, match="out of range"):
            store.move(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            store.move(0, math.inf, 1.0)
        with pytest.raises(TypeError, match="3 arguments"):
            store.move(0, 1.0)
        assert store.pairs() == [] and store.net_lengths() == [8.0]
        with pytest.raises(error, match=match):
            stepfield.CPlacementStore(**{**args, **change})

    @needs_c_score
    def test_round_calls_what_the_benchmark_counts(self, monkeypatch):
        # the benchmark's tracer counts these calls; per round on the C core:
        # candidates + 1 candidate_score, candidates move_macro, one
        # CostField.increase per snapped meet of the moved macro, one inflate
        calls = {}
        moved = []

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapped(*args):
                calls[name] = calls.get(name, 0) + 1
                if name == "candidate_score":
                    moved.append(args[0])
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapped)

        for name in ("candidate_score", "move_macro"):
            counting(placer, name)
        for name in ("increase", "inflate"):
            counting(CostField, name)
        nl, area = generate_instance(GenSpec(macros=40, nets=60, seed=5))
        cfg = PlacerConfig(max_rounds=200, grid_p=4, grid_q=4, seed=2)
        state = new_state(nl, area, cfg)
        assert state.field.backend == "c"
        grown = 0
        for _ in range(cfg.max_rounds):
            calls.clear()
            moved.clear()
            state.last_choice = None
            round_step(state, cfg)
            macro = moved[0]
            assert moved == [macro] * (cfg.candidates_per_round + 1)
            box = footprint_box(macro, state.placement[macro.id])
            meets = [
                snap_to_grid(meet(box, footprint_box(m, state.placement[m.id])),
                             area, cfg.grid_p, cfg.grid_q)
                for m in nl.macros
                if m is not macro
                and overlaps(box, footprint_box(m, state.placement[m.id]))
            ]
            want = sum(r is not None for r in meets)
            assert calls == {
                "candidate_score": cfg.candidates_per_round + 1,
                "move_macro": cfg.candidates_per_round,
                "inflate": 1,
                **({"increase": want} if want else {}),
            }
            assert state.last_choice is not None
            grown += want
        assert grown > 0


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


class TestRoundStep:
    def test_chosen_never_worse_than_staying(self):
        nl, area = tiny_instance(1)
        cfg = PlacerConfig(max_rounds=60, grid_p=4, grid_q=4, seed=5)
        state = new_state(nl, area, cfg)
        for _ in range(60):
            round_step(state, cfg)
            assert state.last_scores[state.last_choice] <= state.last_scores[0]
            assert state.last_scores[state.last_choice] == min(state.last_scores)

    def test_non_finite_score_raises_before_moving(self, backend):
        # each increment is finite, but two of them on one field coefficient
        # are not
        nl, area = tiny_instance(1)
        cfg = PlacerConfig(max_rounds=40, grid_p=4, grid_q=4, seed=5, w0=1e308,
                           w_growth=1.0)
        state = new_state(nl, area, cfg)
        state.field = CostField(cfg.grid_p, cfg.grid_q, backend=backend)
        whole = GridRect(0, 0, 16, 16)
        with pytest.raises(ValueError, match="not finite; lower w0, w_growth"):
            for _ in range(cfg.max_rounds):
                before = repr((state.round, state.placement, state.field.cost(whole)))
                round_step(state, cfg)
        assert repr((state.round, state.placement, state.field.cost(whole))) == before

    def test_single_macro_stays_when_alone_scores_zero(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        cfg = PlacerConfig(max_rounds=30, grid_p=3, grid_q=3, seed=2)
        state = new_state(nl, square_area(), cfg)
        for _ in range(30):
            round_step(state, cfg)
            assert state.last_scores[0] == 0.0
            assert state.last_scores[state.last_choice] <= state.last_scores[0]

    def test_bounds_safety_every_round(self):
        nl, area = tiny_instance(3)
        cfg = PlacerConfig(max_rounds=150, grid_p=4, grid_q=4, seed=9)
        state = new_state(nl, area, cfg)
        for _ in range(150):
            round_step(state, cfg)
            for mid, (x, y) in state.placement.items():
                b = state.bounds[mid]
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
        probe = snap_to_grid(Rect(2.5, 2.5, 4.0, 4.0), state.area, 3, 3)
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


class TestBackendsAndSwitch:
    def test_rounds_on_python_field_backend(self):
        from stepplace.stepfield import CostField

        nl, area = tiny_instance(12)
        cfg = PlacerConfig(max_rounds=80, grid_p=4, grid_q=4, seed=3)
        state = new_state(nl, area, cfg)
        state.field = CostField(cfg.grid_p, cfg.grid_q, backend="py")
        for _ in range(80):
            round_step(state, cfg)
            assert state.last_scores[state.last_choice] <= state.last_scores[0]
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

    def test_mismatched_config_grid_rejected(self):
        nl, area = tiny_instance(14)
        cfg = PlacerConfig(max_rounds=10, grid_p=4, grid_q=4, seed=1)
        state = new_state(nl, area, cfg)
        other = PlacerConfig(max_rounds=10, grid_p=5, grid_q=4, seed=1)
        with pytest.raises(ValueError, match="grid exponents"):
            round_step(state, other)

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
    @example(case=EMPTY_COLUMN)
    @example(case=EMPTY_ROW)
    @example(case=TOUCHING_COLUMN)
    @example(case=TOUCHING_ROW)
    def test_ring_search_matches_point_by_point_walk(self, case):
        """The cursor walk returns the first free point of the walk that
        probes every ring point, to the bit, whichever overlapping box the
        blocker reports."""
        xs, ys, pos, half, boxes = case

        def blocker(box):
            return next((b for b in boxes if intersection(box, b)), None)

        got = placer._nearest_free(xs, ys, pos, half, blocker)
        want = oracles.oracle_nearest_free(xs, ys, pos, half, boxes)
        assert (got and tuple(v.hex() for v in got)) == (
            want and tuple(v.hex() for v in want))

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
