"""The geometry kernels against brute-force all-pairs scans: the bucket
grid, and the overlap pairs of the C core's placement store, whose footprint
index answers every overlap query, against both; and ``is_legal``, which
reads a store's pairs, against the bucket-grid path it replaced, on both
cores.

Layouts mix sizes, put footprints edge to edge (half-unit lattice), partly or
wholly outside the area, and sometimes include one macro far larger than the
rest, so the grid's cells are much larger than most footprints.
"""

import math
import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import use_core
from oracles import coefficients, footprint_grid, intersection, oracle_is_legal
from stepplace.netmodel import (
    Macro,
    Netlist,
    PlacementArea,
    Rect,
    footprint_box,
    is_legal,
)
from stepplace._pycore import PlacementStore
from stepplace.placer import PlacerConfig, penalty
from stepplace.stepfield import CostField, c_core

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
        # a probe's blocker, the first hit's box, is that of the least key
        assert [grid[k] for k in grid.hits(*box)[:1]] == [grid.boxes[k] for k in want[:1]]


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
            factor = config.penalty_c * config.delta_at(step)
            got = penalty(factor, footprint_box(macro, pos), grid, macro.id)
            assert got == expected


def keepouts(blocks):
    """A keep-out ``w`` by ``h`` at each ``(x, y, w, h)``, moved into the area."""
    return tuple(
        Rect(min(max(x, 0.0), AREA - w), min(max(y, 0.0), AREA - h),
             min(max(x, 0.0), AREA - w) + w, min(max(y, 0.0), AREA - h) + h)
        for x, y, w, h in blocks
    )


@settings(max_examples=200, deadline=None)
@given(layouts(), st.lists(st.tuples(coords, coords, sizes, sizes), max_size=3))
def test_is_legal_lists_equal_brute_force(layout, blocks):
    netlist, placement = layout
    blockages = keepouts(blocks)
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


needs_c = pytest.mark.skipif(c_core is None, reason="C core not built")
CORES = ["py"] + (["c"] if c_core is not None else [])


@settings(max_examples=200, deadline=None)
@given(layouts(), st.lists(st.tuples(coords, coords, sizes, sizes), max_size=3))
def test_is_legal_equals_the_bucket_grid_path_on_both_cores(layout, blocks):
    # every list of the report, order included, is the one of the footprint
    # grid's pairs: footprints edge to edge, outside the area, on keep-outs
    netlist, placement = layout
    area = PlacementArea(AREA, AREA, keepouts(blocks))
    want = oracle_is_legal(placement, netlist, area)
    for core in CORES:
        with pytest.MonkeyPatch.context() as patch:
            use_core(patch, core)
            got = is_legal(placement, netlist, area)
        assert (got.out_of_area, got.overlaps, got.blockage_overlaps) == (
            want.out_of_area, want.overlaps, want.blockage_overlaps)


def half_units(lo, hi):
    """Multiples of 0.5 from ``lo`` to ``hi``: a center plus or minus a
    half-size on them is exact, so boxes meet edge to edge."""
    return st.integers(int(2 * lo), int(2 * hi)).map(lambda k: k / 2.0)


@st.composite
def store_cases(draw):
    """A store's area side and its index's minimum cell side, its macros'
    centers and half-sizes, and a sequence of moves ``(i, x, y)`` (indices
    repeat, so a macro moves several times), all on half-unit lattices."""
    count = draw(st.integers(1, 30), label="count")
    # 1000 a side with boxes of a few units: tiny macros in a large area,
    # where the cap of about count cells binds
    side = draw(st.sampled_from([AREA, 1000.0]), label="side")
    coord = half_units(-10, side + 10)  # on the area, or beyond it
    half = half_units(0, 4)  # zero: an empty footprint

    def pt(c):
        return (draw(c), draw(c))

    centers = [pt(coord) for _ in range(count)]
    halves = [pt(half) for _ in range(count)]
    moves = [
        (draw(st.integers(0, count - 1)), *pt(coord))
        for _ in range(draw(st.integers(0, 30), label="moves"))
    ]
    # cells as large as the largest box, or far smaller than the boxes, so
    # that only the cap on their number sizes them
    largest = max(1.0, *(2 * h for hs in halves for h in hs))
    cell = draw(st.sampled_from([largest, 1 / 128]), label="cell")
    return side, cell, centers, halves, moves


def stores(side, cell, centers, halves):
    """The C store with cells of at least ``cell`` a side, and the Python
    store, whose bucket grid has cells as large as the largest box."""
    largest = max(1.0, *(2 * h for hs in halves for h in hs))
    args = (array("d", [v for h in halves for v in h]),
            array("d", [v for c in centers for v in c]), array("d", [0.0] * 4 * len(centers)),
            [])
    return (c_core.PlacementStore(CostField(3, 3, "c"), side, side, cell, cell, *args,
                            array("d"), 1.0),
            PlacementStore(CostField(3, 3, "py"), side, side, largest, largest, *args,
                           array("d"), 1.0))


def assert_pairs_agree(c_store, py_store, count):
    """Both stores hold the same boxes and the same pairs in the same order,
    and the pairs are those of a brute-force scan, with their areas."""
    boxes = [c_store.box(i) for i in range(count)]
    assert boxes == [py_store.box(i) for i in range(count)]
    pairs = c_store.pairs()
    assert pairs == py_store.pairs()
    want = {}
    for i in range(count):
        for j in range(i + 1, count):
            inter = intersection(boxes[i], boxes[j])
            if inter is not None:
                want[i, j] = (inter[2] - inter[0]) * (inter[3] - inter[1])
    assert {(i, j): a for i, j, a in pairs} == want


@needs_c
@settings(max_examples=80, deadline=None)
@given(store_cases())
@example(  # two boxes edge to edge on a cell edge, then a box on either
    # side of it and one across it
    (AREA, 5.0, [(2.5, 2.5), (7.5, 2.5), (-5.0, -5.0), (-5.0, 5.0)],
     [(2.5, 2.5), (2.5, 2.5), (0.5, 0.5), (0.5, 0.5)],
     [(2, 4.5, 1.5), (2, 5.5, 1.5), (3, 5.0, 1.5)]),
)
def test_footprint_index_hits_equal_bucket_grid_and_brute_force(case):
    side, cell, centers, halves, moves = case
    c_store, py_store = stores(side, cell, centers, halves)
    assert_pairs_agree(c_store, py_store, len(centers))
    for i, x, y in moves:
        assert c_store.move(i, x, y, 1.0) is py_store.move(i, x, y, 1.0) is None
        assert_pairs_agree(c_store, py_store, len(centers))
        assert coefficients(c_store.field) == coefficients(py_store.field)


@needs_c
def test_footprint_index_sorts_many_hits():
    # more hits than one cell's few: macro 0 moves over 40 macros that
    # entered the cells in shuffled order, and its pairs enter in index order
    rng = random.Random(4)
    n = 40
    centers = [(-20.0, -20.0)] + [(-20.0 - 4 * k, 30.0) for k in range(n)]
    halves = [(6.0, 6.0)] + [(1.0, 1.0)] * n
    c_store, py_store = stores(AREA, 1.0, centers, halves)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for k in order:
        x, y = rng.randint(2, 18) / 2.0, rng.randint(2, 18) / 2.0
        c_store.move(k, x, y, 1.0)
        py_store.move(k, x, y, 1.0)
    c_store.move(0, 5.0, 5.0, 1.0)
    py_store.move(0, 5.0, 5.0, 1.0)
    assert coefficients(c_store.field) == coefficients(py_store.field)
    # its pairs come last, in index order
    assert [(i, j) for i, j, _ in c_store.pairs()[-n:]] == [(0, j) for j in range(1, n + 1)]
    assert_pairs_agree(c_store, py_store, n + 1)


@needs_c
def test_footprint_index_rejects_bad_input():
    # a move the footprints cannot take raises and leaves the store as it was
    halves, centers = array("d", [0.5] * 4), array("d", [1.0, 1.0, 1.5, 1.5])
    bounds = array("d", [0.5, 9.5] * 4)
    store = c_core.PlacementStore(CostField(3, 3, "c"), 10.0, 10.0, 1.0, 1.0, halves, centers,
                            bounds, [[0, 1]], array("d"), 1.0)

    def state():
        return (store.pairs(), [store.box(i) for i in range(2)], store.net_lengths(),
                coefficients(store.field))

    before = state()
    assert before[:3] == ([(0, 1, 0.25)], [(0.5, 0.5, 1.5, 1.5), (1.0, 1.0, 2.0, 2.0)],
                          [1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="footprint must be finite"):
            store.move(0, 1.0, bad, 1.0)
        with pytest.raises(ValueError, match="increase value must be finite"):
            store.move(0, 1.0, 1.0, bad)
        assert state() == before
    with pytest.raises(ValueError, match="macro index 2 out of range for 2 macros"):
        store.move(2, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="macro index -1 out of range"):
        store.box(-1)
    with pytest.raises(TypeError):
        store.box(0.0)
    with pytest.raises(TypeError, match="4 arguments"):
        store.move(0, 1.0, 1.0)
    for sides in [(0.0, 10.0, 1.0, 1.0), (10.0, -1.0, 1.0, 1.0),
                  (10.0, 10.0, math.inf, 1.0), (10.0, 10.0, 1.0, math.nan)]:
        with pytest.raises(ValueError, match="positive and finite"):
            c_core.PlacementStore(CostField(3, 3, "c"), *sides, halves, centers, bounds, [],
                            array("d"), 1.0)
