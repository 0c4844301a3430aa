"""Brute-force oracles shared by the test suite.

Everything here is built directly from definitions (dense vectors and
matrices updated by slicing, rectangle corners compared one by one),
independent of the library's coefficient and geometry-kernel arithmetic, so
tests compare two unrelated computation paths.  The one exception is
:func:`oracle_legalize`, the legalizer's plain search kept as a reference for
its faster probing: it shares the bucket grid and ``compute_bounds``.
:func:`oracle_nearest_free` is the ring search alone, tested point by point,
and :func:`oracle_check_result` the result checker that tests every pair.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from stepplace.netmodel import footprint_box, footprint_grid, overlaps
from stepplace.placer import LegalizationError, compute_bounds
from stepplace.stepfield import GridRect


def brute_basis_1d(p: int) -> dict[tuple[int, int], np.ndarray]:
    """All 1D basis vectors of length 2**p keyed by (level, block), built
    literally: +1 on the first half-block, -1 on the second, all-ones last."""
    n = 1 << p
    vecs: dict[tuple[int, int], np.ndarray] = {}
    for a in range(p):
        for k in range(1, (n >> (a + 1)) + 1):
            v = np.zeros(n)
            lo = (2 * k - 2) << a
            mid = (2 * k - 1) << a
            hi = (2 * k) << a
            v[lo:mid] = 1.0
            v[mid:hi] = -1.0
            vecs[(a, k)] = v
    vecs[(p, 1)] = np.ones(n)
    return vecs


def brute_basis_2d(p: int, q: int) -> dict[tuple[int, int, int, int], np.ndarray]:
    """Dense product-basis matrices keyed by (a, k, b, l)."""
    vx = brute_basis_1d(p)
    vy = brute_basis_1d(q)
    return {
        (a, k, b, l): np.outer(xv, yv)
        for (a, k), xv in vx.items()
        for (b, l), yv in vy.items()
    }


def indicator_1d(s: int, t: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[s:t] = 1.0
    return v


class NaiveField:
    """Dense-matrix mirror of CostField semantics, straight from definitions."""

    def __init__(self, p: int, q: int) -> None:
        self.arr = np.zeros((1 << p, 1 << q))

    def increase(self, r: GridRect, value: float) -> None:
        self.arr[r.a1 : r.a2, r.b1 : r.b2] += value

    def inflate(self, rho: float) -> None:
        mean = self.arr.mean()
        self.arr = rho * self.arr + (1.0 - rho) * mean

    def cost(self, r: GridRect) -> float:
        return float(self.arr[r.a1 : r.a2, r.b1 : r.b2].sum())


def coefficients(field):
    """The bits of every coefficient of ``field`` (times its scale)."""
    coefficient = field.core.coefficient
    return [coefficient(fx, fy).hex() for fx in range(field.n) for fy in range(field.m)]


def intersection(a, b):
    """Corners of the intersection of two half-open ``(x1, y1, x2, y2)``
    rectangles, or None when it is empty (boundary contact is empty)."""
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[2], b[2]), min(a[3], b[3])
    return (x1, y1, x2, y2) if x1 < x2 and y1 < y2 else None


def random_grid_rect(rng, n: int, m: int) -> GridRect:
    a1 = rng.randrange(n)
    a2 = rng.randrange(a1 + 1, n + 1)
    b1 = rng.randrange(m)
    b2 = rng.randrange(b1 + 1, m + 1)
    return GridRect(a1, b1, a2, b2)


def ring_walk(xs, ys, pos):
    """Every lattice point ``(xs[i], ys[j])`` in the legalizer's probe order:
    Manhattan rings of index distance around the point nearest ``pos`` (ties
    to the lower index), each ring by ascending ``i``, ``+dj`` before
    ``-dj``."""

    def nearest(vals, v):
        i = min(bisect_left(vals, v), len(vals) - 1)
        if i > 0 and abs(vals[i - 1] - v) <= abs(vals[i] - v):
            i -= 1
        return i

    ci, cj = nearest(xs, pos[0]), nearest(ys, pos[1])
    for r in range(len(xs) + len(ys) + 1):
        for di in range(-r, r + 1):
            i = ci + di
            rem = r - abs(di)
            for dj in (rem, -rem) if rem else (0,):
                j = cj + dj
                if 0 <= i < len(xs) and 0 <= j < len(ys):
                    yield xs[i], ys[j]


def oracle_nearest_free(xs, ys, pos, half, boxes):
    """First point of :func:`ring_walk` whose footprint, ``half`` the sides
    around it, meets none of ``boxes``; every point is tested in turn."""
    hx, hy = half
    return next(
        ((x, y) for x, y in ring_walk(xs, ys, pos)
         if not any(intersection((x - hx, y - hy, x + hx, y + hy), b)
                    for b in boxes)),
        None,
    )


def oracle_legalize(placement, netlist, area, grid_p, grid_q):
    """The greedy legalizer as it was before its probes skipped anything:
    every probe queries the bucket grid and scans every keep-out, and the
    search covers only the ``2**grid_p`` by ``2**grid_q`` lattice.  Raises
    :class:`LegalizationError` when a macro finds no free lattice point."""
    gx = area.width / (1 << grid_p)
    gy = area.height / (1 << grid_q)
    placed = footprint_grid(netlist, {})

    def lattice(lo, hi, step):
        vals = []
        i = 0
        while lo + i * step < hi:
            vals.append(lo + i * step)
            i += 1
        return vals + [hi]

    def conflict_free(m, pos, b):
        if not (b.x_min <= pos[0] <= b.x_max and b.y_min <= pos[1] <= b.y_max):
            return False
        box = footprint_box(m, pos)
        return not placed.hits(*box) and not any(
            overlaps(box, blk) for blk in area.blockages
        )

    out = {}
    for m in sorted(netlist.macros, key=lambda m: (-m.area, m.id)):
        b = compute_bounds(m, area)
        x, y = placement[m.id]
        x = min(max(x, b.x_min), b.x_max)
        y = min(max(y, b.y_min), b.y_max)
        found = (x, y) if conflict_free(m, (x, y), b) else None
        if found is None:
            xs = lattice(b.x_min, b.x_max, gx)
            ys = lattice(b.y_min, b.y_max, gy)
            found = next(
                (p for p in ring_walk(xs, ys, (x, y)) if conflict_free(m, p, b)),
                None,
            )
        if found is None:
            raise LegalizationError(m.id)
        out[m.id] = found
        placed.put(m.id, footprint_box(m, found))
    return out


def oracle_check_result(netlist, area, result):
    """``io_cli.check_result`` as it was before its sweep: every pair of
    macros tested in ascending id order."""
    lines = []
    inst_ids = sorted(netlist.by_id)
    res_ids = sorted(result.positions)
    if inst_ids != res_ids:
        missing = sorted(set(inst_ids) - set(res_ids))
        extra = sorted(set(res_ids) - set(inst_ids))
        if missing:
            lines.append(f"macros missing from result: {', '.join(missing)}")
        if extra:
            lines.append(f"macros not in instance: {', '.join(extra)}")
        return False, lines

    spans = {}
    for mid in inst_ids:
        m = netlist.by_id[mid]
        x, y = result.positions[mid]
        spans[mid] = (
            x - m.size_x / 2.0,
            x + m.size_x / 2.0,
            y - m.size_y / 2.0,
            y + m.size_y / 2.0,
        )
    legal = True
    for mid, (x1, x2, y1, y2) in spans.items():
        if x1 < 0 or x2 > area.width or y1 < 0 or y2 > area.height:
            lines.append(f"macro {mid} leaves the placement area")
            legal = False
    overlap = 0.0
    for i, mi in enumerate(inst_ids):
        a = spans[mi]
        for mj in inst_ids[i + 1 :]:
            b = spans[mj]
            if (
                max(a[0], b[0]) < min(a[1], b[1])
                and max(a[2], b[2]) < min(a[3], b[3])
            ):
                lines.append(f"macros {mi} and {mj} overlap")
                overlap += (min(a[1], b[1]) - max(a[0], b[0])) * (
                    min(a[3], b[3]) - max(a[2], b[2])
                )
                legal = False
    for mid, a in spans.items():
        for bi, blk in enumerate(area.blockages):
            if (
                max(a[0], blk.x1) < min(a[1], blk.x2)
                and max(a[2], blk.y1) < min(a[3], blk.y2)
            ):
                lines.append(f"macro {mid} overlaps blockage {bi}")
                legal = False

    total = 0.0
    for net in netlist.nets:
        xs = [result.positions[mid][0] for mid in net.members]
        ys = [result.positions[mid][1] for mid in net.members]
        total += max(xs) - min(xs) + max(ys) - min(ys)
    disagreements = []
    if total.hex() != result.netlength_bb.hex():
        disagreements.append(
            f"summary netlength_bb {result.netlength_bb!r} disagrees with "
            f"the recomputed {total!r}"
        )
    if overlap.hex() != result.overlap_area.hex():
        disagreements.append(
            f"summary overlap_area {result.overlap_area!r} disagrees with "
            f"the recomputed {overlap!r}"
        )
    if legal != result.legal:
        disagreements.append(
            f"summary legal {'true' if result.legal else 'false'} disagrees "
            f"with the recomputed {'true' if legal else 'false'}"
        )
    lines += disagreements
    lines.append(f"total bounding-box netlength: {total!r}")
    lines.append(f"legal: {'true' if legal else 'false'}")
    return legal and not disagreements, lines
