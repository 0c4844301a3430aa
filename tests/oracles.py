"""Brute-force oracles shared by the test suite.

Everything here is built directly from definitions (dense vectors and
matrices updated by slicing, rectangle corners compared one by one),
independent of the library's coefficient and geometry-kernel arithmetic, so
tests compare two unrelated computation paths.
"""

from __future__ import annotations

import numpy as np

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
