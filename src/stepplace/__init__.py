"""Macro placement on a fast 2D step-function cost field.

The package combines these layers:

* :mod:`stepplace.stepfield` - the orthogonal-basis representation of 2D step
  functions with logarithmic-time rectangle sums and rectangle increments,
  and ``core``, the one switch between the C core and :mod:`stepplace._pycore`,
  the Python core with the C core's names;
* :mod:`stepplace.netmodel` - netlists, placements, legality, and the
  bounding-box / smoothed net-length models;
* :mod:`stepplace.placer` - the iterative placement heuristic that grows a
  dual cost field under overlaps, plus a naive final legalizer;
* :mod:`stepplace.io_cli` - instance/result files, an instance generator, an
  independent result checker, SVG rendering, and the ``stepplace`` CLI.
"""

from stepplace.netmodel import (
    LegalityReport,
    Macro,
    Net,
    Netlist,
    PlacementArea,
    Rect,
    bb_netlength,
    is_legal,
)
from stepplace.placer import (
    LegalizationError,
    MacroBounds,
    PlacerConfig,
    PlacerState,
    RoundStats,
    compute_bounds,
    naive_legalize,
    new_state,
    round_step,
    run_placer,
    stats_row,
)
from stepplace.stepfield import (
    HAVE_C_CORE,
    MAX_GRID_EXPONENT,
    CostField,
    GridRect,
)

__version__ = "0.1.0"
