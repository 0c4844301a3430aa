"""The geometry kernels against brute-force all-pairs scans: the bucket
grid, and the C core's footprint index against both.

Layouts mix sizes, put footprints edge to edge (half-unit lattice), partly or
wholly outside the area, and sometimes include one macro far larger than the
rest, so the grid's cells are much larger than most footprints.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import intersection
from stepplace.netmodel import (
    BucketGrid,
    Macro,
    Netlist,
    PlacementArea,
    Rect,
    footprint_box,
    footprint_grid,
    is_legal,
)
from stepplace.placer import PlacerConfig, penalty
from stepplace.stepfield import CFootprintIndex

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


# a lattice of 120 steps a side: its points include the cell edges of every
# index of 1 to 6 columns or rows, and boxes built on it meet edge to edge
LATTICE = 120


@st.composite
def index_cases(draw):
    """An index's size and area, the bucket grid's and the index's minimum
    cell sides, a sequence of ``(key, box)`` puts (keys repeat, so boxes
    move), and a few more query boxes."""
    count = draw(st.integers(1, 30), label="count")
    # 1000 a side with boxes of a few steps: tiny macros in a large area,
    # where the cap of about count cells binds
    side = draw(st.sampled_from([AREA, 1000.0]), label="side")
    step = side / LATTICE
    # on the lattice, from beyond the area, or anywhere
    lattice = st.integers(-20, LATTICE + 20).map(lambda k: k * step)
    coord = st.one_of(lattice, st.floats(-side, 2 * side))
    length = st.one_of(
        st.integers(0, 12).map(lambda k: k * step), st.floats(0.0, side / 10)
    )

    def box():
        x, y = draw(coord), draw(coord)
        return (x, y, x + draw(length), y + draw(length))

    puts = [
        (draw(st.integers(0, count - 1)), box())
        for _ in range(draw(st.integers(1, 30), label="puts"))
    ]
    queries = [box() for _ in range(draw(st.integers(0, 6), label="queries"))]
    # cells as large as the largest box (at least a step, so that no query
    # spans too many of the bucket grid's cells), and for the index also far
    # smaller than the boxes, so that only the cap on their number sizes them
    largest = max(step, *(max(b[2] - b[0], b[3] - b[1]) for _, b in puts))
    cell = draw(st.sampled_from([largest, step / 64]), label="cell")
    return count, side, largest, cell, puts, queries


@pytest.mark.skipif(CFootprintIndex is None, reason="C core not built")
@settings(max_examples=80, deadline=None)
@given(index_cases())
@example(  # two boxes edge to edge on a cell edge, queries on both sides
    (4, AREA, 5.0, 5.0, [(0, (0.0, 0.0, 5.0, 5.0)), (1, (5.0, 0.0, 10.0, 5.0))],
     [(4.0, 1.0, 5.0, 2.0), (5.0, 1.0, 6.0, 2.0), (4.5, 1.0, 5.5, 2.0)]),
)
def test_footprint_index_hits_equal_bucket_grid_and_brute_force(case):
    count, side, largest, cell, puts, queries = case
    index = CFootprintIndex(count, side, side, cell, cell)
    grid = BucketGrid(largest, largest)
    boxes = {}
    for key, box in puts:
        index.put(key, box)
        grid.put(key, box)
        boxes[key] = box
    for q in list(boxes.values()) + queries:
        want = sorted(k for k, b in boxes.items() if intersection(q, b))
        assert index.hits(*q) == grid.hits(*q) == want, q
    assert {k: index[k] for k in boxes} == boxes


@pytest.mark.skipif(CFootprintIndex is None, reason="C core not built")
def test_footprint_index_sorts_many_hits():
    # more hits than one cell's few, put in shuffled key order
    rng = random.Random(4)
    keys = list(range(40))
    rng.shuffle(keys)
    index = CFootprintIndex(len(keys), AREA, AREA, 1.0, 1.0)
    for k in keys:
        x, y = rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)
        index.put(k, (x, y, x + 2.0, y + 2.0))
    assert index.hits(-1.0, -1.0, AREA + 1.0, AREA + 1.0) == list(range(40))


@pytest.mark.skipif(CFootprintIndex is None, reason="C core not built")
def test_footprint_index_rejects_bad_input():
    index = CFootprintIndex(2, 10.0, 10.0, 1.0, 1.0)
    index.put(1, (1.0, 1.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="key 2 out of range for 2 footprints"):
        index.put(2, (0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="key -1 out of range"):
        index[-1]
    with pytest.raises(KeyError, match="key 0 holds no footprint"):
        index[0]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="footprint must be finite"):
            index.put(0, (0.0, bad, 1.0, 1.0))
    with pytest.raises(TypeError):
        index.put(0, (0.0, 0.0, 1.0))
    for args in [(-1, 1.0, 1.0, 1.0, 1.0), (2, 0.0, 1.0, 1.0, 1.0),
                 (2, 1.0, 1.0, math.inf, 1.0), (2, 1.0, 1.0, 1.0, math.nan)]:
        with pytest.raises(ValueError):
            CFootprintIndex(*args)
    with pytest.raises(TypeError):
        CFootprintIndex()
    # a failed put leaves the index as it was
    assert index[1] == (1.0, 1.0, 2.0, 2.0) and index.hits(0.0, 0.0, 9.0, 9.0) == [1]
