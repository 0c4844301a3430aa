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

Cores: the first import loads the C core ``_fieldcore`` from the user cache
(``$XDG_CACHE_HOME/stepplace``, else ``~/.cache/stepplace``), compiling
``_fieldcore.c`` there first if the cache holds no build of this exact
source (then removing this interpreter's builds of other sources); if that
fails it warns once.  :data:`core` is the one switch: :data:`c_core`, the
loaded module, else :mod:`stepplace._pycore`, which exports the same names
with the same bits.  Every caller reads through it: the field for
``backend="auto"``, the placer's store and its scoring hook (the store's
unbound ``score``), the legalizer's ``legalize`` and the file writers'
``repr_line``.  ``_pycore`` holds the basis arithmetic; this module
re-exports its public part.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from types import ModuleType
from typing import IO, NamedTuple

from stepplace import _pycore
from stepplace._pycore import (  # the basis arithmetic, re-exported
    GridRect,
    blocks_at_level,
    flat_axis_id,
    nonzero_basis_1d,
)
from stepplace.netmodel import MAX_GRID_EXPONENT


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
    extension suffix, so an edited source never loads a stale build.  After
    a compile, the other ``_fieldcore-*`` builds with this suffix are
    removed, so the cache holds one build per interpreter.
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
            # this interpreter's builds of any other source are stale now
            for name in os.listdir(cache_dir):
                old = os.path.join(cache_dir, name)
                if name.startswith("_fieldcore-") and name.endswith(suffix) and old != target:
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(old)
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
    place atomically, so concurrent importers never see a partial build.
    The cache directory is made first, so that a blocked cache fails before
    the build's modules load."""
    os.makedirs(os.path.dirname(target), exist_ok=True)
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cfg = sysconfig.get_config_var
    if compiler is None:
        if not cfg("LDSHARED"):
            raise ImportError("the interpreter names no LDSHARED linker")
        compiler = shlex.split(cfg("LDSHARED"))
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


#: The loaded C core, or None where it did not load.
c_core = _load_c_core(_user_cache_dir())

#: The core every caller reads through: :data:`c_core`, else
#: :mod:`stepplace._pycore`, which exports the same names.
core = _pycore if c_core is None else c_core

#: True exactly when the C core loaded (the benchmark's worker reads it).
HAVE_C_CORE = c_core is not None


class BasisIndex(NamedTuple):
    """Identifies the product basis element with axis levels (a, b) and block
    indices (k, l).  Level ``p`` (resp. ``q``) with block 1 is the all-ones
    axis vector."""

    a: int
    k: int
    b: int
    l: int


class CostField:
    """Step function over an ``n x m`` grid as orthogonal-basis coefficients.

    A fresh field is identically zero.  ``increase`` adds a constant to every
    cell of a rectangle, ``cost`` returns the sum over a rectangle, and
    ``inflate`` decays every non-constant coefficient, flattening the field
    toward its mean while preserving the total.  Negative increase values are
    accepted (the placer only ever adds non-negative mass).

    ``backend`` is ``"c"`` or ``"py"``, and ``core`` the backend's coefficient
    store, the ``FieldCore`` of :data:`c_core` or of ``_pycore``; ``"auto"``
    takes that of :data:`core`.  A placement store is built on the field it
    scores against; the C core's reads the field's C ``FieldCore`` directly.
    """

    def __init__(self, p: int, q: int, backend: str = "auto") -> None:
        if p < 0 or q < 0:
            raise ValueError("grid exponents must be non-negative")
        if p > MAX_GRID_EXPONENT or q > MAX_GRID_EXPONENT:
            raise ValueError(
                f"grid exponent above limit {MAX_GRID_EXPONENT}; "
                f"got p={p}, q={q}"
            )
        if backend not in ("auto", "c", "py"):
            raise ValueError(f"unknown backend {backend!r}")
        module = core if backend == "auto" else c_core if backend == "c" else _pycore
        if module is None:
            raise RuntimeError("C field core is not available")
        self.core = module.FieldCore(p, q)
        self.backend = "py" if module is _pycore else "c"
        self.p = p
        self.q = q
        self.n = 1 << p
        self.m = 1 << q

    def increase(self, rect: GridRect, value: float) -> None:
        """Add ``value`` to every cell of ``rect``.  Where ``value`` over the
        global scale exceeds ``_pycore.FOLD_ABOVE``, the scale is folded into
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
        scale would fall below ``_pycore.FOLD_BELOW``: then it is folded into
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


if c_core is not None:
    # a C round whose field resolves inflate to this one runs its body
    c_core._own_inflate(CostField.inflate)
