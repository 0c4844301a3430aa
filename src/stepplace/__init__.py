"""Macro placement on a fast 2D step-function cost field.

The package combines three layers:

* :mod:`stepplace.stepfield` - the orthogonal-basis representation of 2D step
  functions with logarithmic-time rectangle sums and rectangle increments;
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
    beta_schedule,
    is_legal,
    lse_netlength,
    nl_netlength,
)
from stepplace.placer import (
    LegalizationError,
    MacroBounds,
    PlacerConfig,
    PlacerState,
    RoundStats,
    candidate_score,
    compute_bounds,
    gamma,
    move_macro,
    naive_legalize,
    new_state,
    penalty,
    round_step,
    run_placer,
    snap_to_grid,
    stats_row,
)
from stepplace.stepfield import (
    HAVE_C_CORE,
    MAX_GRID_EXPONENT,
    BasisIndex,
    CostField,
    GridRect,
    nonzero_basis_1d,
)

__version__ = "0.1.0"
