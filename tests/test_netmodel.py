import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepplace.netmodel import (
    Macro,
    Net,
    Netlist,
    PlacementArea,
    Rect,
    bb_netlength,
    beta_schedule,
    footprint_box,
    is_legal,
    lse_netlength,
    meet,
    model_length,
    nl_netlength,
    overlaps,
)
from stepplace.placer import (
    PlacerConfig,
    candidate_score,
    new_state,
    snap_to_grid,
)
from stepplace import stepfield
from stepplace.stepfield import GridRect

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
points_lists = st.lists(st.tuples(coords, coords), min_size=2, max_size=6)


class TestRect:
    def test_half_open_adjacency_is_disjoint(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(2, 0, 4, 2)
        assert meet(a, b) == (2, 0, 2, 2)
        assert not overlaps(a, b)

    def test_intersection(self):
        a = Rect(0, 0, 3, 3)
        b = (1, 2, 5, 5)
        got = meet(a, b)
        assert got == Rect(1, 2, 3, 3)
        assert overlaps(a, b)
        x1, y1, x2, y2 = got
        assert (x2 - x1) * (y2 - y1) == 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="is empty or outside"):
            PlacementArea(4, 4, (Rect(0, 0, 0, 1),))


class TestFootprint:
    def test_direct_substitution(self):
        m = Macro("a", 2, 4)
        assert footprint_box(m, (1, 2)) == Rect(0, 0, 2, 4)

    def test_unit_macro(self):
        m = Macro("a", 1, 1)
        assert footprint_box(m, (0.5, 0.5)) == Rect(0, 0, 1, 1)

    def test_side_by_side_share_boundary_only(self):
        m = Macro("a", 2, 2)
        f1 = footprint_box(m, (1, 1))
        f2 = footprint_box(m, (3, 1))
        assert not overlaps(f1, f2)
        assert f1[2] == f2[0]


class TestDomainValidation:
    def test_macro_needs_positive_sizes(self):
        with pytest.raises(ValueError):
            Macro("a", 0, 1)
        with pytest.raises(ValueError):
            Macro("a b", 1, 1)

    def test_net_needs_two_distinct_members(self):
        with pytest.raises(ValueError):
            Net(("a",))
        with pytest.raises(ValueError):
            Net(("a", "a"))

    def test_netlist_referential_integrity(self):
        with pytest.raises(ValueError, match="unknown macro"):
            Netlist([Macro("a", 1, 1)], [Net(("a", "ghost"))])
        with pytest.raises(ValueError, match="duplicate macro id"):
            Netlist([Macro("a", 1, 1), Macro("a", 2, 2)], [])

    def test_nets_of(self):
        # the placer's per-macro nets, in netlist order
        nl = Netlist(
            [Macro("a", 1, 1), Macro("b", 1, 1), Macro("c", 1, 1)],
            [Net(("a", "b")), Net(("b", "c"))],
        )
        at = {"a": (1.0, 1.5), "b": (2.0, 2.5), "c": (3.5, 3.5)}
        args = (nl, PlacementArea(4, 4), PlacerConfig(max_rounds=1), at)
        with mock.patch.object(stepfield, "HAVE_C_CORE", False):
            store = new_state(*args).store
        assert store.nets == [[0, 1], [1, 2]]
        assert store.nets_of == [[0], [0, 1], [1]]
        assert store.net_lengths() == [2.0, 2.5]
        # the C store reads the same nets
        if stepfield.HAVE_C_CORE:
            assert new_state(*args).store.net_lengths() == [2.0, 2.5]

    def test_blockage_must_be_inside_area(self):
        with pytest.raises(ValueError):
            PlacementArea(4, 4, (Rect(1, 1, 5, 2),))


class TestLegality:
    def area(self, w=4, h=2, blockages=()):
        return PlacementArea(w, h, blockages)

    def test_exact_tiling_is_legal(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        rep = is_legal({"a": (1, 1), "b": (3, 1)}, nl, self.area())
        assert rep.legal

    def test_full_grid_tiling_is_legal(self):
        # 4x3 macros tiling the area edge to edge: no violations at all
        macros = [Macro(f"t{i}{j}", 2, 2) for i in range(4) for j in range(3)]
        nl = Netlist(macros, [])
        placement = {
            f"t{i}{j}": (2 * i + 1.0, 2 * j + 1.0) for i in range(4) for j in range(3)
        }
        rep = is_legal(placement, nl, PlacementArea(8, 6))
        assert rep.legal

    def test_identical_positions_overlap(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [])
        rep = is_legal({"a": (1, 1), "b": (1, 1)}, nl, self.area())
        assert rep.overlaps == [("a", "b")]
        assert not rep.legal

    def test_sliver_blockage_overlap_is_illegal(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        area = self.area(blockages=(Rect(1.99, 0, 3, 2),))
        rep = is_legal({"a": (1, 1)}, nl, area)
        assert rep.blockage_overlaps == [("a", 0)]
        assert not rep.legal

    def test_out_of_area(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        rep = is_legal({"a": (0.5, 1)}, nl, self.area())
        assert rep.out_of_area == ["a"]

    def test_missing_position_names_macro(self):
        nl = Netlist([Macro("a", 1, 1), Macro("b", 1, 1)], [])
        with pytest.raises(ValueError, match="'b'"):
            is_legal({"a": (0.5, 0.5)}, nl, self.area())


class TestBBNetlength:
    def test_documented_example(self):
        assert bb_netlength([(1, 2), (4, 6), (3, 3)]) == 7.0

    def test_coincident_pins(self):
        assert bb_netlength([(2, 3), (2, 3), (2, 3)]) == 0.0

    def test_two_pin(self):
        assert bb_netlength([(0, 0), (3, 4)]) == 7.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            bb_netlength([(0, 0)])


class TestLSE:
    def test_frozen_scalar_value(self):
        pts = [(0.0, 5.0), (1.0, 5.0)]
        assert lse_netlength(pts, 0.5) == pytest.approx(
            1.1269280110429727 + 2 * 0.5 * math.log(2), rel=1e-12
        )

    def test_printed_reference_digits(self):
        # x-part alone: 0.5*(log(1+e^2) + log(1+e^-2)) ~ 1.126928
        pts = [(0.0, 0.0), (1.0, 0.0)]
        x_part = lse_netlength(pts, 0.5) - 2 * 0.5 * math.log(2)
        assert x_part == pytest.approx(1.126928, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(points_lists, st.floats(0.01, 5))
    def test_dominates_bb_with_bounded_gap(self, pts, alpha):
        lse = lse_netlength(pts, alpha)
        bb = bb_netlength(pts)
        assert lse >= bb - 1e-9
        assert lse - bb <= 2 * (2 * alpha * math.log(len(pts))) + 1e-9

    def test_alpha_shrink_converges_to_bb(self):
        pts = [(0.0, 1.0), (2.5, 0.0), (1.0, 4.0)]
        bb = bb_netlength(pts)
        for alpha in (1.0, 0.5, 0.1, 0.01):
            gap = lse_netlength(pts, alpha) - bb
            assert 0 <= gap <= 2 * (2 * alpha * math.log(3))

    def test_huge_coordinates_do_not_overflow(self):
        pts = [(1e8, -1e8), (-1e8, 1e8)]
        assert math.isfinite(lse_netlength(pts, 0.01))


class TestNL:
    def test_frozen_scalar_value(self):
        assert nl_netlength(2.0, 0.0, 1.0) == pytest.approx(
            2.01814992791781 + math.log(2), rel=1e-12
        )

    def test_zero_deltas(self):
        for beta in (0.5, 1.0, 10.0):
            assert nl_netlength(0.0, 0.0, beta) == pytest.approx(
                2 * math.log(2) / beta, rel=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(coords, coords, st.floats(0.05, 50))
    def test_bounded_error_vs_bb(self, dx, dy, beta):
        nl = nl_netlength(dx, dy, beta)
        bb = abs(dx) + abs(dy)
        assert bb - 1e-12 <= nl <= bb + 2 * math.log(2) / beta + 1e-12

    @given(coords, coords)
    def test_monotone_in_beta(self, dx, dy):
        vals = [nl_netlength(dx, dy, b) for b in (0.5, 1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_overflow_safe(self):
        assert math.isfinite(nl_netlength(1e6, -1e6, 100.0))


class TestBetaSchedule:
    def test_endpoints_and_midpoint(self):
        assert beta_schedule(1, 100) == 1.0
        assert beta_schedule(100, 100) == 100.0
        assert beta_schedule(51, 100) == 2.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            beta_schedule(0, 100)
        with pytest.raises(ValueError):
            beta_schedule(101, 100)


class TestNetLengthDispatch:
    def test_bb_dispatch(self):
        assert model_length([(0, 0), (3, 4)], None) == 7.0
        assert model_length([(0, 0), (3, 4), (1, 1)], None) == 7.0

    def test_nl_two_pin_near_bb_at_high_beta(self):
        beta = beta_schedule(1000, 1000)
        got = model_length([(0, 0), (3, 4)], beta)
        assert got == nl_netlength(-3, -4, beta)
        assert abs(got - 7.0) <= 2 * math.log(2) / beta

    def test_smoothed_multi_pin_uses_lse(self):
        pts = [(0, 0), (3, 4), (1, 1)]
        beta = 2.0
        assert model_length(pts, beta) == lse_netlength(pts, 1.0 / beta)

    def test_model_validation(self):
        # a non-positive sharpness is rejected by either smoothed formula
        for pts in ([(0, 0), (1, 1)], [(0, 0), (1, 1), (2, 0)]):
            with pytest.raises(ValueError):
                model_length(pts, -1.0)
        with pytest.raises(ValueError):
            model_length([(0, 0), (1, 1)], 0.0)
        with pytest.raises(ValueError):
            model_length([(0, 0)], None)


class TestInvariances:
    @settings(max_examples=60, deadline=None)
    @given(points_lists, st.floats(-50, 50), st.floats(-50, 50))
    def test_translation_invariance(self, pts, tx, ty):
        moved = [(x + tx, y + ty) for x, y in pts]
        assert bb_netlength(moved) == pytest.approx(bb_netlength(pts), abs=1e-6)
        assert lse_netlength(moved, 0.7) == pytest.approx(
            lse_netlength(pts, 0.7), abs=1e-6
        )

    @settings(max_examples=60, deadline=None)
    @given(points_lists)
    def test_reflection_invariance(self, pts):
        flipped = [(-x, y) for x, y in pts]
        assert bb_netlength(flipped) == pytest.approx(bb_netlength(pts), abs=1e-9)
        assert lse_netlength(flipped, 0.5) == pytest.approx(
            lse_netlength(pts, 0.5), abs=1e-7
        )

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.1, 10))
    def test_nl_symmetry(self, dx, dy, beta):
        assert nl_netlength(dx, dy, beta) == pytest.approx(
            nl_netlength(-dx, -dy, beta), rel=1e-12
        )


class TestMarginalCost:
    """The placer's candidate score: field cost of the spot plus the lengths
    of the nets containing the macro (no overlaps or blockages here)."""

    def score(self, nl, placement, mid, pos, beta=None):
        # beta None scores with the exact bounding box
        cfg = PlacerConfig(max_rounds=10)
        state = new_state(nl, PlacementArea(20, 20), cfg, placement)
        return candidate_score(state.store, state.macro_order.index(mid), pos, beta, 0.1)

    def test_no_nets_returns_field_cost(self):
        nl = Netlist([Macro("solo", 1, 1)], [])
        cfg = PlacerConfig(max_rounds=10)
        area = PlacementArea(20, 20)
        state = new_state(nl, area, cfg, {"solo": (1, 1)})
        state.field.increase(GridRect(0, 0, 64, 64), 1.5)
        got = candidate_score(state.store, 0, (4, 5), 1.0, 0.1)
        fp = footprint_box(nl.by_id["solo"], (4, 5))
        snapped = snap_to_grid(fp, area, 6, 6)
        assert got == state.field.cost(snapped) > 0

    def test_two_pin_bb_example(self):
        nl = Netlist([Macro("m", 1, 1), Macro("o", 1, 1)], [Net(("m", "o"))])
        got = self.score(nl, {"m": (9, 9), "o": (1, 1)}, "m", (4, 5))
        assert got == 7.0

    def test_locality(self):
        nl = Netlist(
            [Macro(mid, 1, 1) for mid in ("m", "n1", "n2", "far")],
            [Net(("m", "n1")), Net(("n1", "n2"))],
        )
        base = {"m": (9, 9), "n1": (1, 1), "n2": (5, 5), "far": (15, 15)}
        moved = dict(base, far=(1, 18), n2=(17, 3))
        # only nets containing m matter, and they ignore n2/far, in the
        # smoothed (beta 1) and the bounding-box regime alike
        for beta in (None, 1.0):
            a = self.score(nl, base, "m", (2, 3), beta)
            b = self.score(nl, moved, "m", (2, 3), beta)
            assert a == b
