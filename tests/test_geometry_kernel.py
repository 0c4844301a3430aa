"""The bucket-grid geometry kernel against brute-force all-pairs scans.

Layouts mix sizes, put footprints edge to edge (half-unit lattice), partly or
wholly outside the area, and sometimes include one macro far larger than the
rest, so the grid's cells are much larger than most footprints.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import intersection
from stepplace.netmodel import (
    Macro,
    Netlist,
    PlacementArea,
    Rect,
    footprint_box,
    footprint_grid,
    is_legal,
)
from stepplace.placer import PlacerConfig, penalty

AREA = 10.0

sizes = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 4.0))
# half-unit lattice points give exact edge-to-edge contact
coords = st.one_of(
    st.integers(-6, 26).map(lambda k: k / 2.0), st.floats(-3.0, 13.0)
)


@st.composite
def layouts(draw):
    n = draw(st.integers(1, 12))
    macros = [Macro(f"m{i}", draw(sizes), draw(sizes)) for i in range(n)]
    if draw(st.booleans()):
        big = draw(st.integers(0, n - 1))
        macros[big] = Macro(f"m{big}", 9.0, 7.5)
    placement = {m.id: (draw(coords), draw(coords)) for m in macros}
    return Netlist(macros, []), placement


def brute_hits(netlist, placement, query):
    return sorted(
        mid
        for mid, pos in placement.items()
        if intersection(query, footprint_box(netlist.by_id[mid], pos))
    )


@settings(max_examples=200, deadline=None)
@given(layouts(), st.lists(st.tuples(st.integers(0, 11), coords, coords), max_size=8),
       coords, coords, sizes, sizes)
def test_hits_equal_brute_force_after_moves(layout, moves, qx, qy, qw, qh):
    netlist, placement = layout
    grid = footprint_grid(netlist, placement)
    for k, x, y in moves:
        m = netlist.macros[k % len(netlist.macros)]
        placement[m.id] = (x, y)
        grid.put(m.id, footprint_box(m, (x, y)))
    query = (qx, qy, qx + qw, qy + qh)
    for box in [query] + [footprint_box(m, placement[m.id]) for m in netlist.macros]:
        want = brute_hits(netlist, placement, box)
        assert grid.hits(*box) == want
        # first_hit reports the box of one of them, None if there is none
        assert grid.first_hit(*box) in ([grid.boxes[k] for k in want] or [None])


def all_pairs_penalty(step, macro, pos, placement, netlist, config):
    cand = footprint_box(macro, pos)
    total_circ = 0.0
    for mid in sorted(placement):
        if mid == macro.id:
            continue
        inter = intersection(cand, footprint_box(netlist.by_id[mid], placement[mid]))
        if inter is not None:
            x1, y1, x2, y2 = inter
            total_circ += 2.0 * ((x2 - x1) + (y2 - y1))
    return config.penalty_c * config.delta_at(step) * total_circ


@settings(max_examples=200, deadline=None)
@given(layouts(), coords, coords, st.integers(0, 50))
def test_penalty_equals_all_pairs_formula(layout, x, y, step):
    netlist, placement = layout
    config = PlacerConfig(max_rounds=50)
    grid = footprint_grid(netlist, placement)
    for macro in netlist.macros:
        # the drawn spot, the macro's own spot, and spots touching each
        # other macro's right and top edge
        spots = [(x, y), placement[macro.id]]
        for o in netlist.macros:
            ox, oy = placement[o.id]
            spots.append((ox + (macro.size_x + o.size_x) / 2.0, oy))
            spots.append((ox, oy + (macro.size_y + o.size_y) / 2.0))
        for pos in spots:
            expected = all_pairs_penalty(step, macro, pos, placement, netlist, config)
            assert penalty(step, macro, pos, grid, config) == expected


@settings(max_examples=200, deadline=None)
@given(layouts(), st.lists(st.tuples(coords, coords, sizes, sizes), max_size=3))
def test_is_legal_lists_equal_brute_force(layout, blocks):
    netlist, placement = layout
    blockages = tuple(
        Rect(min(max(x, 0.0), AREA - w), min(max(y, 0.0), AREA - h),
             min(max(x, 0.0), AREA - w) + w, min(max(y, 0.0), AREA - h) + h)
        for x, y, w, h in blocks
    )
    area = PlacementArea(AREA, AREA, blockages)
    rects = {m.id: footprint_box(m, placement[m.id]) for m in netlist.macros}
    ids = sorted(rects)
    report = is_legal(placement, netlist, area)
    assert report.out_of_area == [
        mid
        for mid, r in rects.items()
        if not (r[0] >= 0 and r[2] <= AREA and r[1] >= 0 and r[3] <= AREA)
    ]
    assert report.overlaps == [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if intersection(rects[a], rects[b])
    ]
    assert report.blockage_overlaps == [
        (mid, bi)
        for mid in ids
        for bi, blk in enumerate(blockages)
        if intersection(rects[mid], blk)
    ]
