import hashlib
import importlib.machinery
import io
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepplace
from stepplace import _pycore
from oracles import (
    NaiveField,
    brute_basis_1d,
    brute_basis_2d,
    indicator_1d,
    random_grid_rect,
)
from stepplace.io_cli import GenSpec, generate_instance
from stepplace.placer import PlacerConfig, run_placer
from stepplace._pycore import AXIS_CACHE_SIZE, FOLD_ABOVE, _axis_block
from stepplace.netmodel import ordered_sum
from stepplace.stepfield import (
    HAVE_C_CORE,
    MAX_GRID_EXPONENT,
    BasisIndex,
    CostField,
    GridRect,
    blocks_at_level,
    flat_axis_id,
    nonzero_basis_1d,
    _compile_c_core,
    _load_c_core,
)


BACKENDS = ("c", "py") if HAVE_C_CORE else ("py",)


class TestGridRect:
    """A GridRect is a plain named tuple; the field validates it on each core."""

    def test_properties(self):
        r = GridRect(1, 2, 4, 7)
        assert (r.a1, r.b1, r.a2, r.b2) == tuple(r) == (1, 2, 4, 7)

    @pytest.mark.parametrize("bad", [(2, 0, 2, 4), (3, 0, 2, 4), (0, -1, 2, 4), (-1, 0, 2, 4)])
    def test_degenerate_rejected(self, bad):
        for backend in BACKENDS:
            f = CostField(3, 3, backend=backend)
            with pytest.raises(ValueError):
                f.cost(GridRect(*bad))
            with pytest.raises(ValueError):
                f.increase(GridRect(*bad), 1.0)

    def test_non_int_rejected(self):
        for backend in BACKENDS:
            f = CostField(3, 3, backend=backend)
            with pytest.raises(TypeError):
                f.cost(GridRect(0.0, 0, 1, 1))
            with pytest.raises(TypeError):
                f.increase(GridRect(0, 0, 1, 1.5), 1.0)


class TestBasis1D:
    def test_printed_vectors_n8(self):
        # spot-check the literal +1/-1 block layout on the 8-cell axis
        vecs = brute_basis_1d(3)
        assert vecs[(2, 1)].tolist() == [1, 1, 1, 1, -1, -1, -1, -1]
        assert vecs[(1, 2)].tolist() == [0, 0, 0, 0, 1, 1, -1, -1]
        assert vecs[(0, 3)].tolist() == [0, 0, 0, 0, 1, -1, 0, 0]
        assert vecs[(3, 1)].tolist() == [1] * 8

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_basis_is_orthogonal_and_complete(self, p):
        vecs = brute_basis_1d(p)
        n = 1 << p
        assert len(vecs) == n
        mat = np.stack(list(vecs.values()))
        gram = mat @ mat.T
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0)
        assert np.all(np.diag(gram) > 0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_nonzero_components_match_brute_force(self, p):
        n = 1 << p
        vecs = brute_basis_1d(p)
        for s in range(n):
            for t in range(s + 1, n + 1):
                ind = indicator_1d(s, t, n)
                expected = {
                    (a, k): float(ind @ v)
                    for (a, k), v in vecs.items()
                    if ind @ v != 0
                }
                got = {(a, k): v for a, k, v in nonzero_basis_1d(s, t, p)}
                assert got == expected, (s, t)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_count_bound(self, p):
        # at most 2*log2(n) zero-sum elements plus the all-ones element
        n = 1 << p
        worst = 0
        for s in range(n):
            for t in range(s + 1, n + 1):
                worst = max(worst, len(nonzero_basis_1d(s, t, p)))
        assert worst <= 2 * p + 1

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_star_formula_exhaustive(self, p):
        # the inner products over the squared norms (the weights increase
        # projects with) expand every interval indicator exactly
        n = 1 << p
        vecs = brute_basis_1d(p)
        for s in range(n):
            for t in range(s + 1, n + 1):
                expansion = sum(
                    v / float(vecs[(a, k)] @ vecs[(a, k)]) * vecs[(a, k)]
                    for a, k, v in nonzero_basis_1d(s, t, p)
                )
                assert expansion.tolist() == indicator_1d(s, t, n).tolist(), (s, t)

    def test_documented_example(self):
        got = dict(((a, k), v) for a, k, v in nonzero_basis_1d(2, 5, 3))
        assert got[(2, 1)] == 1.0
        assert got[(0, 3)] == 1.0
        assert (0, 1) not in got  # inner product is zero, filtered out
        assert got[(3, 1)] == 3.0

    def test_full_range_only_ones(self):
        assert nonzero_basis_1d(0, 8, 3) == [(3, 1, 8.0)]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            nonzero_basis_1d(3, 3, 3)
        with pytest.raises(ValueError):
            nonzero_basis_1d(0, 9, 3)


def block_star(rect: GridRect, idx: BasisIndex) -> float:
    """Inner product of a rectangle indicator with a basis element of the 8x8
    grid, from the axis components both cores use for ``cost`` (0 if not in
    the block)."""
    ix, sx, _ = _axis_block(rect.a1, rect.a2, 3)
    iy, sy, _ = _axis_block(rect.b1, rect.b2, 3)
    fx, fy = flat_axis_id(3, idx.a, idx.k), flat_axis_id(3, idx.b, idx.l)
    return dict(zip(ix, sx)).get(fx, 0.0) * dict(zip(iy, sy)).get(fy, 0.0)


class TestStar2D:
    def test_full_grid_against_ones(self):
        r = GridRect(0, 0, 8, 8)
        assert block_star(r, BasisIndex(3, 1, 3, 1)) == 64.0

    def test_documented_square(self):
        r = GridRect(2, 2, 5, 5)
        assert block_star(r, BasisIndex(2, 1, 2, 1)) == 1.0

    def test_orthogonal_factor_gives_zero(self):
        r = GridRect(2, 2, 5, 5)
        # (0,1) has support [0,2), disjoint from [2,5)
        assert block_star(r, BasisIndex(0, 1, 2, 1)) == 0.0

    def test_matches_dense_dot(self):
        mats = brute_basis_2d(3, 3)
        rng = random.Random(7)
        for _ in range(50):
            r = random_grid_rect(rng, 8, 8)
            ind = np.zeros((8, 8))
            ind[r.a1 : r.a2, r.b1 : r.b2] = 1.0
            for (a, k, b, l), mat in mats.items():
                assert block_star(r, BasisIndex(a, k, b, l)) == float(
                    (ind * mat).sum()
                )


class TestBasis2D:
    def test_pairwise_orthogonality_8x8(self):
        mats = brute_basis_2d(3, 3)
        assert len(mats) == 64
        flat = np.stack([m.ravel() for m in mats.values()])
        gram = flat @ flat.T
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0)
        assert np.all(np.diag(gram) > 0)

    def test_index_enumeration_count(self):
        # the (level, block) pairs of an axis map one-to-one onto its dense ids
        for p in (0, 2, 3):
            ids = [
                flat_axis_id(p, a, k)
                for a in range(p + 1)
                for k in range(1, blocks_at_level(p, a) + 1)
            ]
            assert sorted(ids) == list(range(1 << p))


class TestCostField:
    def test_fresh_field_is_zero(self, backend):
        f = CostField(3, 3, backend=backend)
        rng = random.Random(1)
        for _ in range(20):
            assert f.cost(random_grid_rect(rng, 8, 8)) == 0.0

    def test_degenerate_grid(self, backend):
        f = CostField(0, 0, backend=backend)
        assert f.cost(GridRect(0, 0, 1, 1)) == 0.0
        f.increase(GridRect(0, 0, 1, 1), 2.5)
        assert f.cost(GridRect(0, 0, 1, 1)) == 2.5

    def test_value_times_area_on_fresh_field(self, backend):
        f = CostField(3, 3, backend=backend)
        f.increase(GridRect(2, 2, 5, 6), 2.0)
        assert f.cost(GridRect(2, 2, 5, 6)) == 24.0

    def test_uniform_field_window(self, backend):
        f = CostField(3, 3, backend=backend)
        f.increase(GridRect(0, 0, 8, 8), 1.0)
        assert f.cost(GridRect(3, 1, 6, 4)) == 9.0

    def test_increase_then_undo(self, backend):
        rng = random.Random(5)
        f = CostField(3, 2, backend=backend)
        r = GridRect(1, 0, 6, 3)
        before = [f.cost(random_grid_rect(rng, 8, 4)) for _ in range(10)]
        f.increase(r, 3.25)
        f.increase(r, -3.25)
        rng = random.Random(5)
        after = [f.cost(random_grid_rect(rng, 8, 4)) for _ in range(10)]
        assert after == before

    def test_exponent_guard(self):
        with pytest.raises(ValueError):
            CostField(MAX_GRID_EXPONENT + 1, 2)
        with pytest.raises(ValueError):
            CostField(2, -1)

    def test_rect_outside_grid_rejected(self, backend):
        f = CostField(2, 2, backend=backend)
        with pytest.raises(ValueError):
            f.cost(GridRect(0, 0, 5, 4))
        with pytest.raises(ValueError):
            f.increase(GridRect(0, 0, 4, 5), 1.0)

    def test_non_finite_increase_rejected(self, backend):
        f = CostField(2, 2, backend=backend)
        with pytest.raises(ValueError):
            f.increase(GridRect(0, 0, 1, 1), math.nan)

    def test_oracle_interleaved_integer_exact(self, backend):
        rng = random.Random(42)
        f = CostField(4, 3, backend=backend)
        naive = NaiveField(4, 3)
        for _ in range(300):
            if rng.random() < 0.5:
                r = random_grid_rect(rng, 16, 8)
                v = float(rng.randint(-50, 100))
                f.increase(r, v)
                naive.increase(r, v)
            else:
                r = random_grid_rect(rng, 16, 8)
                assert f.cost(r) == naive.cost(r)

    def test_oracle_with_inflation_real_weights(self, backend):
        rng = random.Random(43)
        f = CostField(4, 4, backend=backend)
        naive = NaiveField(4, 4)
        for _ in range(400):
            u = rng.random()
            if u < 0.4:
                r = random_grid_rect(rng, 16, 16)
                v = rng.uniform(0.0, 10.0)
                f.increase(r, v)
                naive.increase(r, v)
            elif u < 0.55:
                rho = rng.uniform(0.8, 1.0)
                f.inflate(rho)
                naive.inflate(rho)
            else:
                r = random_grid_rect(rng, 16, 16)
                got = f.cost(r)
                want = naive.cost(r)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_coefficients_match_projection(self, backend):
        # project the naive matrix onto every basis element and compare
        rng = random.Random(44)
        p, q = 3, 2
        f = CostField(p, q, backend=backend)
        naive = NaiveField(p, q)
        for _ in range(40):
            r = random_grid_rect(rng, 8, 4)
            v = float(rng.randint(-5, 9))
            f.increase(r, v)
            naive.increase(r, v)
        mats = brute_basis_2d(p, q)
        for (a, k, b, l), mat in mats.items():
            proj = float((naive.arr * mat).sum() / (mat * mat).sum())
            assert f.coefficient(BasisIndex(a, k, b, l)) == pytest.approx(
                proj, rel=1e-12, abs=1e-12
            )

    def test_all_coefficients_match_projection_64x32(self):
        # 200 random increases, then check every one of the 2048 coefficients
        rng = random.Random(51)
        p, q = 6, 5
        n, m = 1 << p, 1 << q
        f = CostField(p, q)
        naive = NaiveField(p, q)
        for _ in range(200):
            r = random_grid_rect(rng, n, m)
            v = float(rng.randint(-20, 60))
            f.increase(r, v)
            naive.increase(r, v)
        vx = brute_basis_1d(p)
        vy = brute_basis_1d(q)
        flat = naive.arr
        for (a, k), bx in vx.items():
            for (b, l), by in vy.items():
                mat = np.outer(bx, by)
                proj = float((flat * mat).sum() / (mat * mat).sum())
                got = f.coefficient(BasisIndex(a, k, b, l))
                assert got == pytest.approx(proj, rel=1e-9, abs=1e-9), (a, k, b, l)

    def test_touch_bound(self, backend):
        p, q = 5, 4
        f = CostField(p, q, backend=backend)
        rng = random.Random(45)
        bound = (2 * p + 1) * (2 * q + 1)
        for _ in range(200):
            r = random_grid_rect(rng, 1 << p, 1 << q)
            f.increase(r, 1.0)
            assert f.last_touched <= bound
            f.cost(r)
            assert f.last_touched <= bound

    def test_cost_additive_over_partition(self, backend):
        rng = random.Random(46)
        f = CostField(4, 4, backend=backend)
        for _ in range(30):
            f.increase(random_grid_rect(rng, 16, 16), rng.randint(0, 9))
        whole = GridRect(2, 3, 14, 13)
        split = 9
        left = GridRect(2, 3, split, 13)
        right = GridRect(split, 3, 14, 13)
        assert f.cost(left) + f.cost(right) == pytest.approx(f.cost(whole), rel=1e-12)

    def test_inflate_identity(self, backend):
        rng = random.Random(47)
        f = CostField(3, 3, backend=backend)
        for _ in range(10):
            f.increase(random_grid_rect(rng, 8, 8), rng.randint(1, 5))
        rng2 = random.Random(48)
        probes = [random_grid_rect(rng2, 8, 8) for _ in range(20)]
        before = [f.cost(r) for r in probes]
        f.inflate(1.0)
        assert [f.cost(r) for r in probes] == before

    def test_inflate_uniform_field_unchanged(self, backend):
        f = CostField(3, 3, backend=backend)
        f.increase(GridRect(0, 0, 8, 8), 4.0)
        f.inflate(0.25)
        assert f.cost(GridRect(1, 2, 4, 6)) == pytest.approx(4.0 * 12, rel=1e-12)

    def test_inflate_preserves_total(self, backend):
        # a tiny rho folds the global scale into the coefficients at once;
        # forty halvings fold it once, at the 33rd
        full = GridRect(0, 0, 16, 8)
        for rhos in [(0.5, 0.9), (1e-320,), (5e-324,), (0.5,) * 40]:
            rng = random.Random(49)
            f = CostField(4, 3, backend=backend)
            for _ in range(25):
                f.increase(random_grid_rect(rng, 16, 8), rng.uniform(0, 3))
            total = f.cost(full)
            for rho in rhos:
                f.inflate(rho)
                assert f.cost(full) == pytest.approx(total, rel=1e-12), rhos

    def test_increase_the_scale_would_overflow_folds_first(self):
        # 1e300 over a scale of 2**-31 overflows; the value itself does not
        pytest.importorskip("stepplace._fieldcore")
        got = []
        for backend in ("c", "py"):
            f = CostField(2, 2, backend=backend)
            f.increase(GridRect(1, 1, 4, 4), 3.0)
            f.inflate(2.0**-31)
            f.increase(GridRect(0, 0, 1, 1), 1e300)
            got.append(f.cost(GridRect(0, 0, 1, 1)))
            assert math.isfinite(got[-1]) and got[-1] == pytest.approx(1e300)
        assert got[0].hex() == got[1].hex()

    def test_increase_folds_before_the_stored_coefficients_overflow(self):
        # after 27 halvings 1e300 over the scale is finite, but two such
        # increases of one cell sum past the float range; the scale is
        # folded in first, so the cell reads the 2e300 it holds
        pytest.importorskip("stepplace._fieldcore")
        got = []
        for backend in ("c", "py"):
            f = CostField(2, 2, backend=backend)
            f.increase(GridRect(1, 1, 4, 4), 3.0)
            for _ in range(27):
                f.inflate(0.5)
            f.increase(GridRect(0, 0, 1, 1), 1e300)
            f.increase(GridRect(0, 0, 1, 1), 1e300)
            got.append([f.cost(GridRect(0, 0, 1, 1)), f.cost(GridRect(0, 0, 4, 4))])
            assert got[-1][0] == pytest.approx(2e300)
            assert got[-1][1] == pytest.approx(2e300 + 27.0)
        assert [v.hex() for v in got[0]] == [v.hex() for v in got[1]]

    def test_fold_above_is_the_threshold(self):
        # over a scale of 0.5, FOLD_ABOVE / 2 is stored as is and the next
        # float up folds the scale in first, on both cores alike
        pytest.importorskip("stepplace._fieldcore")
        edge = FOLD_ABOVE / 2
        for value, scale in ((edge, 0.5), (math.nextafter(edge, math.inf), 1.0)):
            coefs = []
            for backend in ("c", "py"):
                f = CostField(2, 2, backend=backend)
                f.increase(GridRect(1, 0, 3, 2), 3.0)
                f.inflate(0.5)
                f.increase(GridRect(0, 0, 1, 1), value)
                coefs.append([f.core.coefficient(i, j).hex() for i in range(4) for j in range(4)])
            assert f.core._scale == scale
            assert coefs[0] == coefs[1]

    def test_inflate_folds_before_the_stored_constant_overflows(self, backend):
        # a uniform 1e300 stays 1e300: each inflate by 0.1 finds the constant
        # over rho above FOLD_ABOVE and folds the scale in, where dividing
        # the stored constant alone overflowed from the 9th inflate on
        f = CostField(2, 2, backend=backend)
        f.increase(GridRect(0, 0, 4, 4), 1e300)
        for _ in range(12):
            f.inflate(0.1)
            assert f.cost(GridRect(0, 0, 1, 1)).hex() == (1e300).hex()

    def test_inflate_fold_above_is_the_threshold(self):
        # over rho 0.5, a constant of FOLD_ABOVE / 2 is divided as is and the
        # next float up folds the scale in, on both cores alike
        pytest.importorskip("stepplace._fieldcore")
        edge = FOLD_ABOVE / 2
        for value, scale in ((edge, 0.5), (math.nextafter(edge, math.inf), 1.0)):
            coefs = []
            for backend in ("c", "py"):
                f = CostField(2, 2, backend=backend)
                f.increase(GridRect(1, 0, 3, 2), 3.0)
                f.increase(GridRect(0, 0, 4, 4), value)
                f.inflate(0.5)
                coefs.append([f.core.coefficient(i, j).hex() for i in range(4) for j in range(4)])
            assert f.core._scale == scale
            assert coefs[0] == coefs[1]

    def test_inflate_bad_rho(self, backend):
        f = CostField(2, 2, backend=backend)
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                f.inflate(rho)

    def test_values_are_read_as_doubles(self, backend):
        # each core reads an increase value and a rho as the C core's "d"
        # format does: a NumPy float32 by __float__, so the Python core's
        # scale and reads stay floats with the C core's bits (it kept the
        # float32 and read 0x1.5e66660000000p+2, a numpy.float32), a Decimal
        # by __float__, an int by __index__, and a str is refused
        f = CostField(3, 3, backend=backend)
        f.increase(GridRect(0, 0, 5, 3), 1.0)
        f.inflate(np.float32(0.1))
        f.increase(GridRect(1, 1, 8, 8), np.float32(0.1))
        got = f.cost(GridRect(0, 0, 4, 4))
        assert type(got) is float and got.hex() == "0x1.5e66668200000p+2"
        f.inflate(Decimal("0.5"))
        f.core.increase(0, 0, 2, 2, Decimal("0.25"))
        f.core.increase(2, 2, 3, 3, 10**20)
        got = f.cost(GridRect(0, 0, 8, 8))
        assert type(got) is float and got.hex() == "0x1.5af1d78b58c40p+66"
        for call in (lambda: f.core.inflate("0.5"), lambda: f.core.increase(0, 0, 1, 1, "1")):
            with pytest.raises(TypeError, match="^must be real number, not str$"):
                call()

    def test_to_dense_and_dump(self, backend):
        f = CostField(2, 2, backend=backend)
        f.increase(GridRect(1, 0, 3, 2), 2.0)
        dense = f.to_dense()
        naive = NaiveField(2, 2)
        naive.increase(GridRect(1, 0, 3, 2), 2.0)
        assert np.allclose(dense, naive.arr)
        buf = io.StringIO()
        f.dump_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 4  # one CSV row per y index
        first_row = [float(tok) for tok in data[0].split(",")]
        assert first_row == [naive.arr[i, 0] for i in range(4)]

    def test_backends_agree(self):
        # 442 decays of 0.7-0.95 fold the global scale into the
        # coefficients three times; a core that folded one inflate early or
        # late would read other bits
        pytest.importorskip("stepplace._fieldcore")
        rng = random.Random(50)
        fc = CostField(4, 4, backend="c")
        fp = CostField(4, 4, backend="py")
        for _ in range(1500):
            u = rng.random()
            if u < 0.45:
                r = random_grid_rect(rng, 16, 16)
                v = rng.uniform(-2, 5)
                fc.increase(r, v)
                fp.increase(r, v)
            elif u < 0.75:
                rho = rng.uniform(0.7, 0.95)
                fc.inflate(rho)
                fp.inflate(rho)
            else:
                r = random_grid_rect(rng, 16, 16)
                assert fc.cost(r).hex() == fp.cost(r).hex()

    def test_numpy_axis_cache_is_capped(self):
        # an axis at exponent 11 has about two million cell intervals; the
        # Python core keeps the components of the most recent few thousand
        _axis_block.cache_clear()
        rng = random.Random(51)
        f = CostField(MAX_GRID_EXPONENT, 1, backend="py")
        n = 1 << MAX_GRID_EXPONENT
        for _ in range(AXIS_CACHE_SIZE + 1000):
            f.cost(random_grid_rect(rng, n, 2))
        info = _axis_block.cache_info()
        assert info.maxsize == AXIS_CACHE_SIZE
        assert info.currsize == AXIS_CACHE_SIZE
        # every caller gets the same components: they must be immutable
        assert all(type(a) is tuple for a in _axis_block(3, 9, 4))


# A compiler command that fails like a compile error: stderr text, exit 1.
FAILING_COMPILER = [
    sys.executable, "-c", "import sys; sys.exit('fatal error: Python.h')"
]
SYSCONFIG_CC = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]


# a short run with 2-pin and larger nets, 8 of its 40 rounds past the switch
# to the bounding-box model
FALLBACK_SPEC = GenSpec(macros=12, nets=20, seed=5)
FALLBACK_CONFIG = PlacerConfig(max_rounds=40, seed=5)


class TestCCoreLoader:
    @pytest.mark.skipif(shutil.which(SYSCONFIG_CC) is None, reason=f"no {SYSCONFIG_CC}")
    def test_cold_build_then_cached_load(self, tmp_path, monkeypatch):
        # Loading registers the module; restore the package's own after.
        monkeypatch.delitem(sys.modules, "stepplace._fieldcore", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            core = _load_c_core(str(tmp_path))
            # The failing compiler proves a cache hit runs no compiler.
            again = _load_c_core(str(tmp_path), FAILING_COMPILER)
        assert core is not None and again is not None
        # One build, named by the source hash; no temp file left behind.
        (built,) = os.listdir(tmp_path)
        assert built.startswith("_fieldcore-")
        assert built.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
        rng = random.Random(51)
        fc, fp = again.FieldCore(3, 4), _pycore.FieldCore(3, 4)
        for _ in range(60):
            r = random_grid_rect(rng, 8, 16)
            args = (r.a1, r.b1, r.a2, r.b2)
            u = rng.random()
            if u < 0.45:
                v = rng.uniform(-2, 5)
                fc.increase(*args, v)
                fp.increase(*args, v)
            elif u < 0.6:
                rho = rng.uniform(0.7, 1.0)
                fc.inflate(rho)
                fp.inflate(rho)
            else:
                assert fc.cost(*args).hex() == fp.cost(*args).hex()
                assert fc.last_touched == fp.last_touched

    def test_failing_compiler_warns_once_and_returns_none(self, tmp_path):
        with pytest.warns(RuntimeWarning) as record:
            assert _load_c_core(str(tmp_path), FAILING_COMPILER) is None
        assert len(record) == 1
        assert "fatal error: Python.h" in str(record[0].message)
        assert os.listdir(tmp_path) == []

    def test_compiler_gets_no_fp_contraction(self, tmp_path):
        # A compiler that records its arguments, then fails.
        record = tmp_path / "argv.json"
        recorder = [
            sys.executable, "-c",
            f"import json, sys; json.dump(sys.argv[1:], open({str(record)!r}, 'w'));"
            " sys.exit(1)",
        ]
        with pytest.warns(RuntimeWarning):
            assert _load_c_core(str(tmp_path / "cache"), recorder) is None
        argv = json.loads(record.read_text())
        # the last contraction flag wins, so the interpreter's CFLAGS cannot
        # turn fused multiply-add back on
        assert [a for a in argv if a.startswith("-ffp-contract")][-1] == (
            "-ffp-contract=off"
        )

    @pytest.mark.skipif(
        not sysconfig.get_config_var("LDSHARED") or shutil.which(SYSCONFIG_CC) is None,
        reason="the interpreter names no LDSHARED, or its compiler is missing",
    )
    def test_source_compiles_without_warnings(self, tmp_path, interpreters):
        # the loader's own recipe, with -Wextra and -Wshadow, warnings as
        # errors, on each interpreter found (the source branches on the
        # version); -Wall reports an unused static function, so no deletion
        # can leave dead C behind.  A failed build warns with the compiler's
        # messages, here raised as an error.  Each import falls back to the
        # Python core first: its cache is blocked by a file.
        code = (
            "import shlex, sys, sysconfig, warnings\n"
            "from stepplace.stepfield import _load_c_core\n"
            "warnings.simplefilter('error', RuntimeWarning)\n"
            "ldshared = shlex.split(sysconfig.get_config_var('LDSHARED'))\n"
            "flags = ['-Wall', '-Wextra', '-Wno-unused-parameter', '-Wshadow', '-Werror']\n"
            "assert _load_c_core(sys.argv[1], [*ldshared, *flags])\n"
        )
        blocked = tmp_path / "cache-blocked"
        blocked.write_text("")
        src = os.path.dirname(os.path.dirname(os.path.abspath(stepplace.__file__)))
        env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(blocked)}
        builds = [
            subprocess.Popen([python, "-c", code, str(tmp_path / f"build-{k}")], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for k, python in enumerate(interpreters)
        ]
        for python, proc in zip(interpreters, builds):
            _, err = proc.communicate()
            # its exports: test_placer's test_both_stores_expose_the_same_methods
            assert proc.returncode == 0, (python, err)

    def test_legalizer_runs_clean_under_address_and_undefined_sanitizers(self, tmp_path):
        """The C core, built with AddressSanitizer and UBSan (any report
        aborts) into a private cache under the name the loader expects,
        legalizes around keep-outs, stops at a macro with no free center,
        refuses a repeated, missing or out-of-range index, arrays of unequal
        macro counts and a NaN center, fills a window of 23 x candidates,
        completes the three-macro case, legalizes 600 macros started at
        random and runs a short ``place``, with both runtimes preloaded:
        exit 0 and nothing on stderr."""
        runtimes = [
            subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                           text=True).stdout.strip() if shutil.which("gcc") else ""
            for name in ("libasan.so", "libubsan.so")]
        if not all(os.path.isabs(r) and os.path.exists(r) for r in runtimes):
            pytest.skip("gcc finds no libasan.so or libubsan.so runtime")
        if not sysconfig.get_config_var("LDSHARED"):
            pytest.skip("the interpreter names no LDSHARED linker")
        source = os.path.join(os.path.dirname(stepplace.__file__), "_fieldcore.c")
        digest = hashlib.sha256(open(source, "rb").read()).hexdigest()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        target = tmp_path / "stepplace" / f"_fieldcore-{digest}{suffix}"
        flags = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
        _compile_c_core(source, str(target),
                        [*shlex.split(sysconfig.get_config_var("LDSHARED")), *flags])
        code = (
            "import random, sys\n"
            "from array import array\n"
            "from stepplace import _pycore, stepfield\n"
            "from stepplace.io_cli import GenSpec, generate_instance, main, save_instance\n"
            "from stepplace.netmodel import Macro, Netlist, PlacementArea, Rect, is_legal\n"
            "from stepplace.placer import LegalizationError, naive_legalize\n"
            "assert stepfield.c_core.__file__ == sys.argv[1], stepfield.c_core\n"
            "c = stepfield.c_core\n"
            "m = (array('d', [0.5, 0.5] * 3), array('d', [0.5, 3.5, 0.5, 3.5] * 3),\n"
            "     array('d', [1.0, 1.0, 9.0, 1.0, 1.0, -9.0]))\n"
            "ko = array('d', [0.0, 0.0, 1.5, 1.5, 2.0, 2.0, 4.0, 2.5])\n"
            "assert c.legalize(4.0, 4.0, *m, [2, 0, 1], ko) == _pycore.legalize(\n"
            "    4.0, 4.0, *m, [2, 0, 1], ko)\n"
            "full = array('d', [0.0, 0.0, 4.0, 4.0])\n"
            "assert c.legalize(4.0, 4.0, *m, [0, 1, 2], full) == []\n"
            "nan = array('d', [1.0, float('nan')] * 3)\n"
            "for bad in ((*m, [0, 0, 1]), (*m, [0, 1]), (*m, [0, 1, 3]), (*m[:2], nan, range(3)),\n"
            "            (m[0][:4], *m[1:], range(3)), (m[0], m[1][:8], m[2], range(3))):\n"
            "    try:\n"
            "        c.legalize(4.0, 4.0, *bad, ko)\n"
            "    except ValueError:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError(bad)\n"
            "kept = [v for k in range(1, 21) for v in (k, k, 0.5, 0.5)]\n"
            "row = (array('d', [0.5] * 42), array('d', kept + [0.5, 21, 0.5, 0.5]),\n"
            "       array('d', [v for k in range(1, 21) for v in (k, 0.5)] + [10.5, 0.5]))\n"
            "assert c.legalize(32.0, 1.0, *row, range(21), array('d'))[-1] == (21.0, 0.5)\n"
            "nl = Netlist([Macro('a', 10, 4.99), Macro('b', 10, 4.99), Macro('c', 10, 0.02)], [])\n"
            "got = naive_legalize({'a': (5.0, 2.495), 'b': (5.0, 7.505), 'c': (5.0, 2.0)},\n"
            "                     nl, PlacementArea(10, 10))\n"
            "assert got['c'] == (5.0, 5.0), got\n"
            "nl, area = generate_instance(GenSpec(macros=600, nets=900, seed=1))\n"
            "area = PlacementArea(area.width, area.height, (Rect(0, 0, area.width / 4,\n"
            "                                                    area.height / 4),))\n"
            "rng = random.Random(1)\n"
            "start = {m.id: (rng.uniform(0, area.width), rng.uniform(0, area.height))\n"
            "         for m in nl.macros}\n"
            "try:\n"
            "    assert is_legal(naive_legalize(start, nl, area), nl, area).legal\n"
            "except LegalizationError:\n"
            "    pass\n"
            "nl, area = generate_instance(GenSpec(macros=60, nets=90, seed=2))\n"
            "save_instance(sys.argv[2], nl, area)\n"
            "assert main(['place', '--in', sys.argv[2], '--out', sys.argv[3],\n"
            "             '--rounds', '300', '--seed', '1']) == 0\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(stepplace.__file__)))
        env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(tmp_path),
               "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0"}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(target), str(tmp_path / "i.txt"),
             str(tmp_path / "r.txt")], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-4000:]

    @pytest.mark.skipif(shutil.which(SYSCONFIG_CC) is None, reason=f"no {SYSCONFIG_CC}")
    def test_module_beside_the_source_is_not_loaded(self, tmp_path):
        # A stale in-tree build of an older source sits where an import of
        # stepplace._fieldcore would find it; the loader must build and load
        # this source's hash-named build from the cache instead.
        pkg = tmp_path / "src" / "stepplace"
        shutil.copytree(
            os.path.dirname(stepplace.__file__), pkg,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (pkg / "_fieldcore.py").write_text("# a stale in-tree build\n")
        digest = hashlib.sha256((pkg / "_fieldcore.c").read_bytes()).hexdigest()
        code = (
            "import sys\n"
            "import stepplace.stepfield as f\n"
            "print(sys.modules['stepplace._fieldcore'].__file__, f.HAVE_C_CORE)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(tmp_path / "src"),
            "XDG_CACHE_HOME": str(tmp_path / "cache"),
        }
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True,
        )
        path, have = out.stdout.split()
        assert os.path.dirname(path) == str(tmp_path / "cache" / "stepplace")
        assert os.path.basename(path).startswith(f"_fieldcore-{digest}.")
        assert have == "True"

    def test_have_c_core_reports_the_auto_backend(self):
        assert HAVE_C_CORE == (CostField(1, 1).backend == "c")
        if HAVE_C_CORE:
            assert importlib.import_module("stepplace._fieldcore").FieldCore

    @pytest.mark.skipif(shutil.which(SYSCONFIG_CC) is None, reason=f"no {SYSCONFIG_CC}")
    def test_compile_removes_this_interpreters_stale_builds(self, tmp_path, monkeypatch):
        # two builds of other sources for this interpreter go; a build for
        # another interpreter and an unrelated file stay, and a stale build
        # that is gone by the time it would be removed is no error
        monkeypatch.delitem(sys.modules, "stepplace._fieldcore", raising=False)
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        stale = ["_fieldcore-0" + suffix, "_fieldcore-1" + suffix]
        kept = ["_fieldcore-2.cpython-39-other.so", "notes.txt"]
        for name in stale + kept:
            (tmp_path / name).write_text("")
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda d: listdir(d) + ["_fieldcore-9" + suffix])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _load_c_core(str(tmp_path)) is not None
        (built,) = set(listdir(tmp_path)) - set(kept)
        assert built.startswith("_fieldcore-") and built.endswith(suffix)
        assert built not in stale and set(kept) <= set(listdir(tmp_path))

    @pytest.mark.parametrize("module", ["stepplace._pycore", "stepplace.stepfield",
                                        "stepplace.io_cli"])
    @pytest.mark.parametrize("cache", ["loaded", "blocked"])
    def test_each_module_imports_first(self, tmp_path, module, cache):
        # no import cycle: each module imports first in a fresh interpreter,
        # on the C core (the user cache) and with it blocked (a file as the
        # cache dir), and the switch names the core that runs
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(stepplace.__file__))}
        if cache == "blocked":
            (tmp_path / "stepplace").write_text("")
            env["XDG_CACHE_HOME"] = str(tmp_path)
        code = f"import {module}, stepplace.stepfield as f; print(f.core.__name__)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 0, out.stderr
        want = stepplace.stepfield.core if cache == "loaded" else _pycore
        assert out.stdout.split() == [want.__name__]

    def test_blocked_cache_loads_no_build_module(self, tmp_path, interpreters):
        # a file where the cache dir would be fails the build at its first
        # step, making that dir, before the modules only a compile needs
        # load; the one warning names the reason
        (tmp_path / "stepplace").write_text("")
        src = os.path.dirname(os.path.dirname(os.path.abspath(stepplace.__file__)))
        env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(tmp_path)}
        code = ("import sys, stepplace.io_cli\n"
                "print([m for m in ('locale', 'shlex', 'subprocess', 'sysconfig')"
                " if m in sys.modules])\n")
        for python in interpreters:
            out = subprocess.run([python, "-c", code], env=env, capture_output=True,
                                 text=True)
            assert (out.returncode, out.stdout.split()) == (0, ["[]"]), (python, out.stderr)
            assert out.stderr.count("C field core unavailable (") == 1, python
            assert str(tmp_path / "stepplace") in out.stderr, python

    def test_import_falls_back_to_numpy_with_one_warning(self, tmp_path):
        # A regular file where the cache dir should be makes the build fail;
        # the cache is the only place the C core loads from.
        (tmp_path / "stepplace").write_text("")
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as w:\n"
            "    warnings.simplefilter('always')\n"
            "    import stepplace\n"
            "from stepplace.stepfield import CostField\n"
            "n = sum(issubclass(x.category, RuntimeWarning) for x in w)\n"
            "print(stepplace.HAVE_C_CORE, CostField(1, 1).backend, n)\n"
            "from stepplace.io_cli import GenSpec, generate_instance\n"
            "import stepplace.placer as placer\n"
            f"nl, area = generate_instance({FALLBACK_SPEC!r})\n"
            f"print(repr(placer.run_placer(nl, area, placer.{FALLBACK_CONFIG!r})))\n"
            "import sys\n"
            "print('numpy' in sys.modules)\n"
        )
        path = os.pathsep.join(sys.path)  # the package this process imports
        env = {**os.environ, "PYTHONPATH": path, "XDG_CACHE_HOME": str(tmp_path)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        first, run, numpy_loaded = out.stdout.splitlines()
        assert first.split() == ["False", "py", "1"]
        # the Python core is plain Python: nothing imports numpy
        assert numpy_loaded == "False"
        # a short run gives the same placement and trace as on the C core
        nl, area = generate_instance(FALLBACK_SPEC)
        assert run == repr(run_placer(nl, area, FALLBACK_CONFIG))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_random_program_matches_oracle(data):
    p = data.draw(st.integers(0, 5), label="p")
    q = data.draw(st.integers(0, 5), label="q")
    n, m = 1 << p, 1 << q
    f = CostField(p, q)
    naive = NaiveField(p, q)
    n_ops = data.draw(st.integers(1, 40), label="ops")
    for _ in range(n_ops):
        a1 = data.draw(st.integers(0, n - 1))
        a2 = data.draw(st.integers(a1 + 1, n))
        b1 = data.draw(st.integers(0, m - 1))
        b2 = data.draw(st.integers(b1 + 1, m))
        r = GridRect(a1, b1, a2, b2)
        v = data.draw(st.integers(-20, 20))
        f.increase(r, float(v))
        naive.increase(r, float(v))
        q1 = data.draw(st.integers(0, n - 1))
        q2 = data.draw(st.integers(q1 + 1, n))
        q3 = data.draw(st.integers(0, m - 1))
        q4 = data.draw(st.integers(q3 + 1, m))
        probe = GridRect(q1, q3, q2, q4)
        assert f.cost(probe) == naive.cost(probe)


@pytest.mark.skipif(not HAVE_C_CORE, reason="C field core not built")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_backends_return_the_same_bits(data):
    """Random programs with fractional increments and inflation read the same
    ``cost`` bits and ``last_touched`` on the C and the Python core.  Decay
    factors reach the smallest subnormal, so programs fold the global scale
    into the coefficients, some several times over."""
    draw = data.draw
    p = draw(st.integers(0, 8), label="p")
    q = draw(st.integers(0, 8), label="q")
    n, m = 1 << p, 1 << q
    fc, fp = CostField(p, q, "c"), CostField(p, q, "py")

    def rect():
        a1, b1 = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        a2, b2 = draw(st.integers(a1 + 1, n)), draw(st.integers(b1 + 1, m))
        return GridRect(a1, b1, a2, b2)

    for _ in range(draw(st.integers(1, 60), label="ops")):
        op = draw(st.sampled_from(["increase", "inflate", "cost"]))
        if op == "increase":
            r, v = rect(), draw(st.floats(-50, 50, allow_subnormal=False))
            fc.increase(r, v)
            fp.increase(r, v)
        elif op == "inflate":
            rho = draw(st.floats(5e-324, 1.0))
            fc.inflate(rho)
            fp.inflate(rho)
        else:
            r = rect()
            assert fc.cost(r).hex() == fp.cost(r).hex()
            assert fc.last_touched == fp.last_touched


class _Float(float):
    """A float that is not exactly a float, so sums take the generic path."""


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(),
            st.floats(-1e6, 1e6),
            st.integers(-(10**20), 10**20),
            st.floats(-10.0, 10.0).map(_Float),
        ),
        max_size=20,
    ),
    st.sampled_from(["list", "dict values", "tuple"]),
)
def test_ordered_sum_is_python_311_sum(values, form):
    # ordered_sum returns the same bits and type as a left-to-right loop
    # from int 0, which is builtin sum on 3.11 (3.12 compensates), also for
    # an empty input and for items other than exact floats
    arg = {
        "list": lambda: list(values),
        "dict values": lambda: {i: v for i, v in enumerate(values)}.values(),
        "tuple": lambda: tuple(values),
    }[form]
    got = ordered_sum(arg())
    want = 0
    for v in arg():
        want = want + v
    assert type(got) is type(want) and repr(got) == repr(want)
    if sys.version_info < (3, 12):
        builtin = sum(arg())
        assert type(got) is type(builtin) and repr(got) == repr(builtin)


def test_ordered_sum_raises_as_sum_does():
    for values in ([1.0, "a"], ["a"], [1.0, None, 2.0], 3):
        with pytest.raises(TypeError):
            ordered_sum(values)
        with pytest.raises(TypeError):
            sum(values)
