"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import round_beta
from oracles import NaiveField, brute_basis_1d, indicator_1d, random_grid_rect
from stepplace.io_cli import GenSpec, generate_instance, main, save_instance
from stepplace.netmodel import (
    Macro,
    Net,
    Netlist,
    PlacementArea,
    bb_netlength,
    is_legal,
    lse_netlength,
    nl_netlength,
)
from stepplace.placer import PlacerConfig, naive_legalize, run_placer
from stepplace.stepfield import CostField, GridRect, nonzero_basis_1d


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_stepfield_oracle_equivalence():
    with criterion(1, "stepfield matches the dense-matrix oracle (64x32 grid)"):
        t0 = time.perf_counter()
        p, q = 6, 5
        n, m = 1 << p, 1 << q

        # integer weights, no inflation: exact equality
        rng = random.Random(101)
        field = CostField(p, q)
        naive = NaiveField(p, q)
        ops = ["inc"] * 200 + ["cost"] * 500
        rng.shuffle(ops)
        for op in ops:
            r = random_grid_rect(rng, n, m)
            if op == "inc":
                v = float(rng.randint(-100, 1000))
                field.increase(r, v)
                naive.increase(r, v)
            else:
                assert field.cost(r) == naive.cost(r)

        # real weights with inflation active: 1e-9 relative
        rng = random.Random(102)
        field = CostField(p, q)
        naive = NaiveField(p, q)
        ops = ["inc"] * 200 + ["cost"] * 500
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            r = random_grid_rect(rng, n, m)
            if op == "inc":
                v = rng.uniform(0.0, 10.0)
                field.increase(r, v)
                naive.increase(r, v)
            else:
                got = field.cost(r)
                want = naive.cost(r)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            if i % 3 == 0:
                rho = rng.uniform(0.9, 1.0)
                field.inflate(rho)
                naive.inflate(rho)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_component_count_bound_and_star_values():
    with criterion(2, "1D component count <= 2*log2(n)+1 and exact star values"):
        for p in (1, 2, 3, 4):
            n = 1 << p
            vecs = brute_basis_1d(p)
            observed_max = 0
            for s in range(n):
                for t in range(s + 1, n + 1):
                    ind = indicator_1d(s, t, n)
                    brute = {
                        (a, k): float(ind @ v)
                        for (a, k), v in vecs.items()
                        if ind @ v != 0
                    }
                    got = {(a, k): v for a, k, v in nonzero_basis_1d(s, t, p)}
                    assert got == brute, (p, s, t)
                    observed_max = max(observed_max, len(got))
            assert observed_max <= 2 * p + 1
            print(f"  [n={n}: max nonzero components {observed_max} <= {2 * p + 1}]")


def test_criterion_3_touch_bound_and_throughput():
    with criterion(3, "<=441 touches per op on 1024x1024; 1e6 ops under 10s"):
        p = q = 10
        n = m = 1 << 10
        field = CostField(p, q)
        rng = random.Random(103)
        bound = (2 * p + 1) * (2 * q + 1)
        assert bound == 441
        for _ in range(2000):
            r = random_grid_rect(rng, n, m)
            field.increase(r, 1.0)
            assert field.last_touched <= bound
            field.cost(r)
            assert field.last_touched <= bound

        ops = []
        rng = random.Random(104)
        for _ in range(1_000_000):
            a1 = rng.randrange(n)
            a2 = rng.randrange(a1 + 1, n + 1)
            b1 = rng.randrange(m)
            b2 = rng.randrange(b1 + 1, m + 1)
            ops.append((GridRect(a1, b1, a2, b2), rng.random() < 0.5))
        field = CostField(p, q)
        inc = field.increase
        cost = field.cost
        t0 = time.perf_counter()
        for r, is_inc in ops:
            if is_inc:
                inc(r, 1.5)
            else:
                cost(r)
        elapsed = time.perf_counter() - t0
        print(f"  [1e6 ops in {elapsed:.2f}s on backend {field.backend!r}]")
        assert elapsed < 10.0, f"1e6 ops took {elapsed:.2f}s"


def test_criterion_4_netlength_model_bounds():
    with criterion(4, "LSE/NL bounds over 1000 random nets; schedule endpoints"):
        rng = random.Random(105)
        for _ in range(1000):
            k = rng.choice([2, 2, 2, 3, 3, 4, 5])
            pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(k)]
            alpha = rng.uniform(0.05, 2.0)
            lse = lse_netlength(pts, alpha)
            bb = bb_netlength(pts)
            assert lse >= bb - 1e-9
            assert lse - bb <= 2 * (2 * alpha * math.log(k)) + 1e-9
            if k == 2:
                beta = rng.uniform(0.2, 20.0)
                (x1, y1), (x2, y2) = pts
                nl = nl_netlength(x1 - x2, y1 - y2, beta)
                assert abs(nl - bb) <= 2 * math.log(2) / beta + 1e-9
        assert round_beta(1, 7777) == 1.0
        assert round_beta(7777, 7777) == 7777.0


def test_criterion_5_two_macro_cooling():
    with criterion(5, "two-macro pathology: overlap 0 after cooling, 20 seeds"):
        netlist = Netlist(
            [Macro("a", 2, 2), Macro("b", 2, 2)], [Net(("a", "b"))]
        )
        area = PlacementArea(8, 4)
        for seed in range(20):
            cfg = PlacerConfig(max_rounds=2000, grid_p=3, grid_q=2, seed=seed)
            placement, trace = run_placer(netlist, area, cfg)
            assert trace[-1].overlap_area == 0.0, f"seed {seed}"


def test_criterion_6_end_to_end_quality():
    with criterion(6, "20 macros / 30 nets / 50% util: <2% overlap, legal, improved"):
        t0 = time.perf_counter()
        netlist, area = generate_instance(GenSpec(macros=20, nets=30, seed=1))
        total_area = netlist.total_macro_area
        config = PlacerConfig(max_rounds=50_000, seed=7)
        placement, trace = run_placer(netlist, area, config)
        overlap_pct = 100.0 * trace[-1].overlap_area / total_area
        assert overlap_pct < 2.0, f"pre-legalization overlap {overlap_pct:.2f}%"
        legal = naive_legalize(placement, netlist, area)
        assert is_legal(legal, netlist, area).legal
        final_bb = sum(
            bb_netlength([legal[mid] for mid in net.members])
            for net in netlist.nets
        )
        initial_bb = trace[0].netlength_bb
        assert final_bb < initial_bb, f"{final_bb:.2f} !< {initial_bb:.2f}"
        elapsed = time.perf_counter() - t0
        print(
            f"  [overlap {overlap_pct:.3f}%, bb {initial_bb:.1f} -> {final_bb:.1f}, "
            f"{elapsed:.1f}s]"
        )
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_bitwise_determinism(tmp_path):
    with criterion(7, "identical seed runs give bit-identical results and stats"):
        netlist, area = generate_instance(GenSpec(macros=10, nets=14, seed=3))
        inst = str(tmp_path / "inst.txt")
        save_instance(inst, netlist, area)
        blobs = []
        for tag in ("run1", "run2"):
            res = str(tmp_path / f"{tag}.txt")
            stats = str(tmp_path / f"{tag}.csv")
            code = main(
                [
                    "place", "--in", inst, "--out", res, "--stats", stats,
                    "--rounds", "3000", "--seed", "99",
                ]
            )
            assert code == 0
            with open(res, "rb") as fp:
                r = fp.read()
            with open(stats, "rb") as fp:
                s = fp.read()
            blobs.append((r, s))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
