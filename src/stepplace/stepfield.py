"""2D step functions on a power-of-two grid with logarithmic rectangle ops.

A :class:`CostField` represents an ``n x m`` matrix (``n = 2**p``,
``m = 2**q``) of per-cell values as coefficients over an orthogonal basis.
Each axis contributes ``n - 1`` zero-sum block vectors (a run of ``+1``
followed by an equally long run of ``-1`` at dyadic scale ``2**a``) plus the
all-ones vector; the 2D basis is the outer product of the two axis bases.
Because any cell-interval indicator has at most ``2p + 1`` nonzero inner
products per axis, both rectangle-sum queries and rectangle constant
increments touch at most ``(2p+1)*(2q+1)`` coefficients.

Rectangles are half-open in cell indices: ``GridRect(a1, b1, a2, b2)`` covers
cells ``a1 <= i < a2``, ``b1 <= j < b2`` (0-based).  A ``GridRect`` is a plain
named tuple; ``CostField.cost`` and ``increase`` validate it, since both cores
reject non-integer, degenerate and out-of-grid rectangles.

Concurrency: single writer.  ``cost`` leaves the coefficients unchanged and
records ``last_touched``; it may run from several threads while no
``increase``/``inflate`` is in flight, but ``last_touched`` then reports
whichever call finished last.  Mutations require exclusive access.

Backends: the first import loads the C core ``_fieldcore`` from the user
cache (``$XDG_CACHE_HOME/stepplace``, else ``~/.cache/stepplace``), compiling
``_fieldcore.c`` there first if the cache holds no build of this exact
source; if that fails it warns once and falls back to the Python core, which
returns the same bits.  The same C module holds the placer's placement
store, :data:`CPlacementStore`, built on a C-core :class:`CostField`, whose
``move`` commits a macro and grows the field under its meets in C (no
:meth:`CostField.increase` call), and whose one ``round`` call draws, scores
through the placer's hook, which it hands the store, commits as ``move``
does and inflates the field; that hook, :data:`c_candidate_score`; the
legalizer's :data:`CFreeSpace`; and
:data:`c_repr_line`, which writes floats and ints with ``repr``'s bytes.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import warnings
from collections.abc import Iterable
from types import ModuleType
from typing import IO, NamedTuple


def _user_cache_dir() -> str:
    """``$XDG_CACHE_HOME/stepplace`` if that variable is an absolute path,
    else ``~/.cache/stepplace``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "stepplace")


def _load_c_core(
    cache_dir: str, compiler: list[str] | None = None
) -> ModuleType | None:
    """Load ``_fieldcore.c`` as built in ``cache_dir``, compiling it first if
    that directory holds no build of this exact source.

    A build is named by the SHA-256 of the source and the interpreter's
    extension suffix, so an edited source never loads a stale build.
    ``compiler`` is the command the interpreter's ``CFLAGS``, ``CCSHARED``,
    ``-ffp-contract=off``, include dir, source and output are appended to;
    it defaults to the interpreter's ``LDSHARED``.  The loaded module is
    registered as ``stepplace._fieldcore``.  On any failure returns ``None``
    after one ``RuntimeWarning`` naming the reason.
    """
    import hashlib
    import importlib.machinery
    import importlib.util

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_fieldcore.c")
    try:
        with open(source, "rb") as fp:
            digest = hashlib.sha256(fp.read()).hexdigest()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        target = os.path.join(cache_dir, f"_fieldcore-{digest}{suffix}")
        if not os.path.exists(target):
            _compile_c_core(source, target, compiler)
        spec = importlib.util.spec_from_file_location("stepplace._fieldcore", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[spec.name] = module
        return module
    except (OSError, ImportError) as exc:
        warnings.warn(
            f"C field core unavailable ({exc}); using the slower Python core",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _compile_c_core(source: str, target: str, compiler: list[str] | None) -> None:
    """Compile ``source`` to a temp file beside ``target``, then move it into
    place atomically, so concurrent importers never see a partial build."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cfg = sysconfig.get_config_var
    if compiler is None:
        if not cfg("LDSHARED"):
            raise ImportError("the interpreter names no LDSHARED linker")
        compiler = shlex.split(cfg("LDSHARED"))
    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(target))
    os.close(fd)
    try:
        cmd = [
            *compiler,
            *shlex.split(cfg("CFLAGS") or ""),
            *shlex.split(cfg("CCSHARED") or ""),
            # no fused multiply-add: the net terms must round as Python does
            "-ffp-contract=off",
            "-I" + sysconfig.get_path("include"),
            source,
            "-o",
            tmp,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, errors="replace")
        if proc.returncode:
            raise ImportError(
                f"{shlex.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_c_module = _load_c_core(_user_cache_dir())
_CFieldCore = getattr(_c_module, "FieldCore", None)

#: The C core's ``repr_line``, which returns
#: :func:`stepplace.io_cli.py_repr_line`'s string for floats and ints, byte
#: for byte, or None without the C core.
c_repr_line = getattr(_c_module, "repr_line", None)

#: The C core's ``candidate_score``, the placer's scoring hook, which
#: returns or raises what :func:`stepplace.placer.py_candidate_score` does,
#: running a C store's ``score`` body with no Python frame.  None without
#: the C core.
c_candidate_score = getattr(_c_module, "candidate_score", None)

#: The C core's ``PlacementStore``, which answers as
#: :class:`stepplace.placer.PlacementStore` does, bit for bit, and takes a
#: :class:`CostField` on the C core.  None without the C core.
CPlacementStore = getattr(_c_module, "PlacementStore", None)

#: The C core's ``FreeSpace``, the legalizer's placed footprints and
#: keep-outs with its lattice search, which finds the positions of
#: :class:`stepplace.placer.PyFreeSpace`, bit for bit.  None without the C
#: core.
CFreeSpace = getattr(_c_module, "FreeSpace", None)


def ordered_sum(values: Iterable) -> float | int:
    """Builtin ``sum(values)`` as Python 3.11 adds floats: left to right
    (3.12 compensates), ``0`` when there is nothing to sum."""
    return functools.reduce(operator.add, values, 0)


#: True exactly when ``CostField(..., backend="auto")`` runs on the C core.
HAVE_C_CORE = _CFieldCore is not None

#: Largest accepted grid exponent per axis (resource guard: the coefficients
#: are one dense array, so an axis pair (p, q) allocates 2**(p+q) doubles at
#: construction, 32 MiB at the cap).
MAX_GRID_EXPONENT = 11


class GridRect(NamedTuple):
    """Half-open cell rectangle ``[a1, a2) x [b1, b2)``; :class:`CostField`
    rejects it if degenerate or out of the grid (``ValueError``), or if an
    index is not an integer (``TypeError``)."""

    a1: int
    b1: int
    a2: int
    b2: int


class BasisIndex(NamedTuple):
    """Identifies the product basis element with axis levels (a, b) and block
    indices (k, l).  Level ``p`` (resp. ``q``) with block 1 is the all-ones
    axis vector."""

    a: int
    k: int
    b: int
    l: int


def blocks_at_level(p: int, a: int) -> int:
    """Number of valid block indexes k at axis level a (1-based blocks)."""
    if not 0 <= a <= p:
        raise ValueError(f"level {a} out of range for exponent {p}")
    if a == p:
        return 1
    return 1 << (p - a - 1)


def flat_axis_id(p: int, a: int, k: int) -> int:
    """Dense position of axis element (a, k) in [0, 2**p); all-ones is last."""
    if not 1 <= k <= blocks_at_level(p, a):
        raise ValueError(f"block {k} out of range at level {a} (exponent {p})")
    n = 1 << p
    if a == p:
        return n - 1
    return n - (n >> a) + (k - 1)


def nonzero_basis_1d(s: int, t: int, p: int) -> list[tuple[int, int, float]]:
    """All 1D basis elements not orthogonal to the indicator of cells [s, t).

    Returns ``(level a, block k, inner product)`` triples, the all-ones
    element last with inner product ``t - s``.  At most ``2p + 1`` entries.
    """
    n = 1 << p
    if not 0 <= s < t <= n:
        raise ValueError(f"invalid cell interval [{s}, {t}) for n={n}")
    out: list[tuple[int, int, float]] = []
    for a in range(p):
        span2 = 2 << a
        ks = (s + span2 - 1) // span2 if s > 0 else 0
        kt = (t + span2 - 1) // span2
        if ks:
            lo = (2 * ks - 2) << a
            hi = (2 * ks) << a
            v = -min(s - lo, hi - s)
            if kt == ks:
                v += min(t - lo, hi - t)
            if v:
                out.append((a, ks, float(v)))
        if kt != ks:
            lo = (2 * kt - 2) << a
            hi = (2 * kt) << a
            v = min(t - lo, hi - t)
            if v:
                out.append((a, kt, float(v)))
    out.append((p, 1, float(t - s)))
    return out


#: Most cell intervals :func:`_axis_block` keeps (an axis at exponent 11 has
#: about two million).
AXIS_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=AXIS_CACHE_SIZE)
def _axis_block(s: int, t: int, p: int) -> tuple[tuple, tuple, tuple]:
    """The nonzero 1D components of the indicator of cells [s, t) at exponent
    ``p``, as the C core's ``axis_components`` writes them: their flat axis
    ids, inner products, and the reciprocals of the elements' squared norms.
    Memoized for the most recent :data:`AXIS_CACHE_SIZE` intervals."""
    comps = nonzero_basis_1d(s, t, p)
    ids = tuple(flat_axis_id(p, a, k) for a, k, _ in comps)
    stars = tuple(v for _, _, v in comps)
    inv_norms = tuple(1.0 / (2 << a if a < p else 1 << p) for a, _, _ in comps)
    return ids, stars, inv_norms


#: Smallest scale the field cores keep apart from the coefficients; below it
#: ``inflate`` folds the scale into every coefficient.
FOLD_BELOW = 2.0**-32

#: Largest ``|value / scale|`` an ``increase`` stores while the scale is below
#: 1; above it the scale is folded in first, so that neither the stored
#: coefficients nor a read overflow where the field's values do not (the
#: bound is derived beside the C core's ``FOLD_ABOVE``).
FOLD_ABOVE = 2.0**800


class _PyFieldCore:
    """Python core with the same interface as the C core, doing the same
    float operations in the same order, so both return the same bits."""

    def __init__(self, p: int, q: int) -> None:
        self.p = p
        self.q = q
        self.n = 1 << p
        self.m = 1 << q
        self._coef = [0.0] * (self.n * self.m)
        self._scale = 1.0  # every stored coefficient omits this factor
        self.last_touched = 0

    def _blocks(self, a1: int, b1: int, a2: int, b2: int):
        """The rectangle's x and y :func:`_axis_block`, once it passed the C
        core's checks; records ``last_touched``."""
        for v in (a1, b1, a2, b2):
            operator.index(v)  # TypeError on non-integers, as the C core's "n"
        if not (0 <= a1 < a2 <= self.n and 0 <= b1 < b2 <= self.m):
            raise ValueError(
                f"rectangle ({a1},{b1})-({a2},{b2}) invalid for "
                f"{self.n}x{self.m} grid"
            )
        bx, by = _axis_block(a1, a2, self.p), _axis_block(b1, b2, self.q)
        self.last_touched = len(bx[0]) * len(by[0])
        return bx, by

    def _fold(self, s: float) -> None:
        """Multiply every non-constant coefficient by ``s`` and the constant
        one by the scale, then reset the scale to 1."""
        const = self._coef[-1] * self._scale
        # a zero keeps its bits (and its shared object) times s >= 0
        self._coef = [c * s if c else c for c in self._coef]
        self._coef[-1] = const
        self._scale = 1.0

    def increase(self, a1: int, b1: int, a2: int, b2: int, value: float) -> None:
        (ix, sx, nx), (iy, sy, ny) = self._blocks(a1, b1, a2, b2)
        v = value / self._scale
        if self._scale < 1.0 and abs(v) > FOLD_ABOVE:
            # a value too large over the scale takes the scale folded in first
            self._fold(self._scale)
            v = value / self._scale
        coef, m = self._coef, self.m
        wy = [s * r for s, r in zip(sy, ny)]
        for fx, s, r in zip(ix, sx, nx):
            vx = s * r * v
            row = fx * m
            for fy, w in zip(iy, wy):
                coef[row + fy] += vx * w

    def cost(self, a1: int, b1: int, a2: int, b2: int) -> float:
        (ix, sx, _), (iy, sy, _) = self._blocks(a1, b1, a2, b2)
        coef, m = self._coef, self.m
        tot = 0.0
        for fx, s in zip(ix, sx):
            row = fx * m
            sub = 0.0
            for fy, t in zip(iy, sy):
                sub += coef[row + fy] * t
            tot += sub * s
        return tot * self._scale

    def inflate(self, rho: float) -> None:
        if not 0.0 < rho <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        s = self._scale * rho
        if s < FOLD_BELOW:
            self._fold(s)
        else:
            self._scale = s
            self._coef[-1] /= rho  # the constant element never decays

    def coefficient(self, fx: int, fy: int) -> float:
        if not (0 <= fx < self.n and 0 <= fy < self.m):
            raise ValueError("axis component id out of range")
        return self._coef[fx * self.m + fy] * self._scale


class CostField:
    """Step function over an ``n x m`` grid as orthogonal-basis coefficients.

    A fresh field is identically zero.  ``increase`` adds a constant to every
    cell of a rectangle, ``cost`` returns the sum over a rectangle, and
    ``inflate`` decays every non-constant coefficient, flattening the field
    toward its mean while preserving the total.  Negative increase values are
    accepted (the placer only ever adds non-negative mass).

    ``backend`` is ``"c"`` or ``"py"``, and ``core`` the backend's coefficient
    store.  A placement store is built on the field it scores against: a
    :data:`CPlacementStore` on a field whose core is a C ``FieldCore``, and
    reads that core directly.
    """

    def __init__(self, p: int, q: int, backend: str = "auto") -> None:
        if p < 0 or q < 0:
            raise ValueError("grid exponents must be non-negative")
        if p > MAX_GRID_EXPONENT or q > MAX_GRID_EXPONENT:
            raise ValueError(
                f"grid exponent above limit {MAX_GRID_EXPONENT}; "
                f"got p={p}, q={q}"
            )
        if backend == "auto":
            backend = "c" if HAVE_C_CORE else "py"
        if backend == "c":
            if not HAVE_C_CORE:
                raise RuntimeError("C field core is not available")
            self.core = _CFieldCore(p, q)
        elif backend == "py":
            self.core = _PyFieldCore(p, q)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.p = p
        self.q = q
        self.n = 1 << p
        self.m = 1 << q

    def increase(self, rect: GridRect, value: float) -> None:
        """Add ``value`` to every cell of ``rect``.  Where ``value`` over the
        global scale exceeds :data:`FOLD_ABOVE`, the scale is folded into
        every coefficient first, in O(n*m)."""
        if not math.isfinite(value):
            raise ValueError("increase value must be finite")
        self.core.increase(*rect, value)

    def cost(self, rect: GridRect) -> float:
        """Sum of all cell values inside ``rect``."""
        return self.core.cost(*rect)

    def inflate(self, rho: float) -> None:
        """Decay all non-constant coefficients by ``rho`` in (0, 1]; the
        total is preserved up to rounding.  O(1), except when the global
        scale would fall below :data:`FOLD_BELOW`: then it is folded into
        every coefficient, in O(n*m)."""
        self.core.inflate(rho)

    def coefficient(self, idx: BasisIndex) -> float:
        """Current coefficient of one basis element (times the global scale)."""
        fx = flat_axis_id(self.p, idx.a, idx.k)
        fy = flat_axis_id(self.q, idx.b, idx.l)
        return self.core.coefficient(fx, fy)

    @property
    def last_touched(self) -> int:
        """Coefficients touched by the most recent increase/cost."""
        return self.core.last_touched

    def to_dense(self) -> list[list[float]]:
        """Materialize the represented matrix as a list of rows; entry
        ``[i][j]`` is the cell value at x-cell i, y-cell j.  Intended for
        debugging and small grids."""
        return [
            [self.cost(GridRect(i, j, i + 1, j + 1)) for j in range(self.m)]
            for i in range(self.n)
        ]

    def dump_csv(self, fp: IO[str]) -> None:
        """Debug dump of the dense matrix as CSV.

        One output row per y-index j (ascending); the columns within a row
        run over the x-index i, so the entry in row j, column i is the value
        of the cell with x-cell i and y-cell j.
        """
        dense = self.to_dense()
        fp.write(
            "# dense field dump: row = y-cell index j, column = x-cell index i\n"
        )
        fp.write(f"# {self.n} columns x {self.m} rows\n")
        for j in range(self.m):
            fp.write(",".join(repr(dense[i][j]) for i in range(self.n)))
            fp.write("\n")
