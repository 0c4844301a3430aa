"""Instance/result files, instance generation, checking, SVG, and the CLI.

Instance files are a line-based text format (``#`` starts a comment):

    area <width> <height>              exactly once
    blockage <x1> <y1> <x2> <y2>       zero or more keep-out rectangles
    macro <id> <size_x> <size_y>       one per macro, ids unique
    net <id> <id> [<id> ...]           at least two distinct members
    place <id> <x> <y>                 optional initial center positions

Result files echo the full placer configuration, a summary recomputable from
the positions, and one ``place`` line per macro:

    config <field> <value>
    summary netlength_bb <float>
    summary overlap_area <float>
    summary legal <true|false>
    place <id> <x> <y>

One reader cuts both formats into lines; a refusal of either names its line,
but for an instance without an ``area`` line.

All coordinates are area units; occupied regions are half-open rectangles, so
edge-to-edge contact is not an overlap.  Floats are written with the bytes
``repr`` writes (``stepfield.core.repr_line``, looked up once per file; the
C core's finds the same digits in integer arithmetic) and round-trip
exactly.  File writes are atomic (write temp, then rename), and the written
file gets the mode ``open()`` would give it.  Every float total that reaches
a file is added left to right (:func:`ordered_sum`), so the bytes do not
depend on whether the interpreter's ``sum`` compensates.

The ``stepplace`` CLI wraps this: ``place`` runs the placer, ``check``
independently verifies a result, ``gen`` emits random instances, ``render``
draws an SVG; :data:`COMMANDS` holds their flags.  A usage error, like any
refused input, prints one ``error:`` line and exits 1.  When the environment
variable ``STEPPLACE_OUT_DIR`` is set, relative output paths are resolved
under it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import random
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace
from typing import IO, Iterable, Iterator, Sequence

from stepplace import stepfield
from stepplace.netmodel import (
    Macro,
    Net,
    Netlist,
    Placement,
    PlacementArea,
    Rect,
    check_placeable,
    footprint_box,
    ordered_sum,
    store_and_report,
)
from stepplace.netmodel import bb_netlength, is_legal  # noqa: F401 (tracer)
from stepplace.placer import (
    _INT_FIELDS,
    LegalizationError,
    PlacerConfig,
    RoundStats,
    naive_legalize,
    new_state,
    round_step,
    stats_row,
)

OUT_DIR_ENV = "STEPPLACE_OUT_DIR"
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(PlacerConfig))
# the fields write_result may write as ``none``
_OPTIONAL_KEYS = frozenset(f.name for f in dataclasses.fields(PlacerConfig)
                           if f.default is None)


class InstanceFormatError(ValueError):
    """Malformed or inconsistent instance/result file."""


def _atomic_write(path: str, write_body):
    """Write via a temp file in the target directory, then rename; returns
    what ``write_body`` returned.  The temp file is created with mode
    ``0o666``, so the kernel applies the umask as ``open()`` does (reading
    the umask would mean setting it for the whole process)."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:  # name the target, not the temp file
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fp:
            result = write_body(fp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return result


def _parse_float(tok: str, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise InstanceFormatError(f"{what} is not a number: {tok!r}") from None
    if not math.isfinite(v):
        raise InstanceFormatError(f"{what} must be finite: {tok!r}")
    return v


def _directives(lines: Iterable[str]) -> Iterator[tuple[int, str, list[str]]]:
    """Each directive of ``lines`` as (line number, text, tokens): the text
    before any ``#``, stripped; lines with no text are skipped."""
    for ln, raw in enumerate(lines, start=1):
        line = (raw[:raw.index("#")] if "#" in raw else raw).strip()
        if line:
            yield ln, line, line.split()


def _read_place(toks: list[str], places: Placement) -> None:
    """Store the ``place <id> <x> <y>`` line of ``toks`` in ``places``."""
    if toks[1] in places:
        raise InstanceFormatError(f"duplicate place for macro {toks[1]!r}")
    places[toks[1]] = (_parse_float(toks[2], "place x"),
                       _parse_float(toks[3], "place y"))


def parse_instance(
    fp: Iterable[str],
) -> tuple[Netlist, PlacementArea, Placement | None]:
    """Parse an instance file; see the module docstring for the grammar.

    Raises :class:`InstanceFormatError` naming the line, or, for a file
    without one, the missing ``area`` line.
    """
    area: PlacementArea | None = None
    blockages: list[Rect] = []
    blockage_lines: list[int] = []
    macros: list[Macro] = []
    macro_line: dict[str, int] = {}
    nets: list[Net] = []
    net_lines: list[int] = []
    places: Placement = {}
    place_line: dict[str, int] = {}
    for ln, _, toks in _directives(fp):
        kind, args = toks[0], toks[1:]
        try:
            if kind == "area":
                if area is not None:
                    raise InstanceFormatError("duplicate area line")
                if len(args) != 2:
                    raise InstanceFormatError("area needs width and height")
                area = PlacementArea(_parse_float(args[0], "area width"),
                                     _parse_float(args[1], "area height"))
            elif kind == "blockage":
                if len(args) != 4:
                    raise InstanceFormatError("blockage needs x1 y1 x2 y2")
                blockages.append(
                    Rect(*(_parse_float(a, "blockage corner") for a in args))
                )
                blockage_lines.append(ln)
            elif kind == "macro":
                if len(args) != 3:
                    raise InstanceFormatError("macro needs id size_x size_y")
                macros.append(Macro(args[0], _parse_float(args[1], "macro size_x"),
                                    _parse_float(args[2], "macro size_y")))
                if args[0] in macro_line:
                    raise InstanceFormatError(f"duplicate macro id {args[0]!r}")
                macro_line[args[0]] = ln
            elif kind == "net":
                if len(args) < 2:
                    raise InstanceFormatError("net needs at least 2 members")
                nets.append(Net(tuple(args)))
                net_lines.append(ln)
            elif kind == "place":
                if len(args) != 3:
                    raise InstanceFormatError("place needs id x y")
                _read_place(toks, places)
                place_line[args[0]] = ln
            else:
                raise InstanceFormatError(f"unknown directive {kind!r}")
        except ValueError as e:
            raise InstanceFormatError(f"line {ln}: {e}") from None

    if area is None:
        raise InstanceFormatError("missing area line")
    w, h = area.width, area.height
    try:
        # each blockage alone, so the error names its line
        for ln, b in zip(blockage_lines, blockages):
            PlacementArea(w, h, (b,))
        area = PlacementArea(w, h, tuple(blockages))
        try:
            netlist = Netlist(macros, nets)
            netlist.bounds(area)  # checks each macro once; the placer reuses it
        except ValueError:
            # the first macro check_placeable refuses in file order, else
            # (the ids are distinct) the first net with an unknown member
            for ln, m in zip(macro_line.values(), macros):
                check_placeable(m, area)
            ln = next(ln for ln, net in zip(net_lines, nets)
                      if not macro_line.keys() >= set(net.members))
            raise
        for mid, ln in place_line.items():
            if mid not in macro_line:
                raise InstanceFormatError(f"place line for unknown macro {mid!r}")
    except ValueError as e:
        raise InstanceFormatError(f"line {ln}: {e}") from None
    return netlist, area, (places or None)


def _read_lines(path: str) -> list[str]:
    """The lines of a text file; a file that does not decode raises
    :class:`InstanceFormatError` naming it."""
    with open(path) as fp:
        try:
            return fp.readlines()
        except UnicodeDecodeError as e:
            raise InstanceFormatError(
                f"{path!r} is not {e.encoding} text: {e.reason} "
                f"(byte 0x{e.object[e.start]:02x})"
            ) from None


def _parse_file(path: str, parse):
    """``parse`` of the lines of the file at ``path``; the
    :class:`InstanceFormatError` it raises is prefixed with the path."""
    lines = _read_lines(path)
    try:
        return parse(lines)
    except InstanceFormatError as e:
        raise InstanceFormatError(f"{path!r}: {e}") from None


def load_instance(path: str) -> tuple[Netlist, PlacementArea, Placement | None]:
    """Load and validate an instance file; a parse error names the file."""
    return _parse_file(path, parse_instance)


def write_instance(
    fp: IO[str],
    netlist: Netlist,
    area: PlacementArea,
    initial: Placement | None = None,
) -> None:
    repr_line = stepfield.core.repr_line
    fp.write("# stepplace instance\n")
    fp.write("area " + repr_line((area.width, area.height), " "))
    for b in area.blockages:
        fp.write("blockage " + repr_line(b, " "))
    for m in netlist.macros:
        fp.write(f"macro {m.id} " + repr_line((m.size_x, m.size_y), " "))
    for net in netlist.nets:
        fp.write("net " + " ".join(net.members) + "\n")
    if initial:
        for mid in sorted(initial):
            x, y = initial[mid]
            fp.write(f"place {mid} " + repr_line((x, y), " "))


def save_instance(
    path: str,
    netlist: Netlist,
    area: PlacementArea,
    initial: Placement | None = None,
) -> None:
    _atomic_write(path, lambda fp: write_instance(fp, netlist, area, initial))


@dataclass
class ResultData:
    """Parsed result file."""

    positions: Placement
    netlength_bb: float
    overlap_area: float
    legal: bool
    config: dict[str, str]


def _summarize(placement: Placement, netlist: Netlist, area: PlacementArea):
    """``(netlength_bb, overlap_area, legal)`` from one store of the placement
    (:func:`store_and_report`, which gives ``naive_legalize``'s result the
    store its legality check built): its two totals, the overlap as a float.
    A fresh store holds its pairs ascending with no dead slot, so its
    overlap total adds their areas in index order."""
    store, report = store_and_report(placement, netlist, area)
    total_bb, overlap = store.totals()
    return total_bb, float(overlap), report.legal


def write_result(
    fp: IO[str],
    placement: Placement,
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
) -> tuple[float, float, bool]:
    """Write a result file; returns its summary (netlength_bb, overlap_area,
    legal)."""
    total_bb, overlap, legal = _summarize(placement, netlist, area)
    repr_line = stepfield.core.repr_line
    fp.write("# stepplace result\n")
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        fp.write(f"config {f.name} {'none' if v is None else repr(v)}\n")
    fp.write("summary netlength_bb " + repr_line((total_bb,), ""))
    fp.write("summary overlap_area " + repr_line((overlap,), ""))
    fp.write(f"summary legal {'true' if legal else 'false'}\n")
    fp.write("".join([f"place {mid} " + repr_line((x, y), " ") for mid, (x, y)
                      in sorted(placement.items(), key=operator.itemgetter(0))]))
    return total_bb, overlap, legal


def save_result(
    path: str,
    placement: Placement,
    netlist: Netlist,
    area: PlacementArea,
    config: PlacerConfig,
) -> tuple[float, float, bool]:
    """Atomically write a result file; returns its summary (netlength_bb,
    overlap_area, legal)."""
    return _atomic_write(
        path, lambda fp: write_result(fp, placement, netlist, area, config)
    )


def load_result(path: str) -> ResultData:
    """Load a result file; a malformed, unknown or duplicate line raises
    :class:`InstanceFormatError` naming the file and the line, as does a
    missing summary."""
    return _parse_file(path, _parse_result)


def _parse_result(lines: Iterable[str]) -> ResultData:
    """The result file of ``lines``; errors name the line.  A ``config``
    value reads as :func:`write_result` writes it (``none`` for an optional
    field, an int for an integer field, else a finite float), and a file
    with every field must hold a set :class:`PlacerConfig` accepts.  A
    summary total is a finite float or exactly ``inf``, an overflowed sum."""
    positions: Placement = {}
    config: dict[str, str] = {}
    values: dict[str, float | int | None] = {}
    config_line: dict[str, int] = {}
    summary: dict[str, float | bool] = {}
    for ln, line, toks in _directives(lines):
        try:
            if toks[0] == "config" and len(toks) == 3:
                key = toks[1]
                if key not in _CONFIG_KEYS:
                    raise InstanceFormatError(f"unknown config key {key!r}")
                if key in config:
                    raise InstanceFormatError(f"duplicate config {key}")
                tok = config[key] = toks[2]
                config_line[key] = ln
                if tok == "none" and key in _OPTIONAL_KEYS:
                    values[key] = None
                elif key not in _INT_FIELDS:
                    values[key] = _parse_float(tok, f"config {key}")
                elif not re.fullmatch("-?[0-9]+", tok):
                    raise InstanceFormatError(
                        f"config {key} is not an integer: {tok!r}")
                else:
                    values[key] = int(tok)
            elif toks[0] == "summary" and len(toks) == 3:
                key, tok = toks[1], toks[2]
                if key in summary:
                    raise InstanceFormatError(f"duplicate summary {key}")
                if key == "legal" and tok in ("true", "false"):
                    summary[key] = tok == "true"
                elif key in ("netlength_bb", "overlap_area"):
                    # inf is what write_result writes for a sum that overflowed
                    summary[key] = math.inf if tok == "inf" else _parse_float(
                        tok, f"summary {key}")
                else:
                    raise InstanceFormatError(f"bad summary line {line!r}")
            elif toks[0] == "place" and len(toks) == 4:
                _read_place(toks, positions)
            else:
                raise InstanceFormatError(f"bad result line {line!r}")
        except ValueError as e:
            raise InstanceFormatError(f"line {ln}: {e}") from None
    if len(values) == len(_CONFIG_KEYS):
        try:
            PlacerConfig(**values)
        except ValueError as e:
            # each message starts with the field it refuses
            ln = config_line.get(str(e).split()[0], max(config_line.values()))
            raise InstanceFormatError(f"line {ln}: {e}") from None
    try:
        return ResultData(
            positions=positions,
            netlength_bb=summary["netlength_bb"],
            overlap_area=summary["overlap_area"],
            legal=summary["legal"],
            config=config,
        )
    except KeyError as e:
        raise InstanceFormatError(f"result file missing summary field {e}")


STATS_HEADER = ",".join(RoundStats._fields)


def write_stats_csv(fp: IO[str], rows: Iterable[RoundStats]) -> None:
    """Per-round statistics stream with a fixed header; each row is written
    as it arrives, so ``rows`` may be a generator that runs the rounds."""
    repr_line = stepfield.core.repr_line
    fp.write(STATS_HEADER + "\n")
    for row in rows:
        fp.write(repr_line(row, ","))


# ---------------------------------------------------------------------------
# instance generation

#: Largest ``macros`` and ``nets`` a :class:`GenSpec` accepts (resource guard:
#: ``gen`` at the cap took 24 s and 515 MiB on a 2-vCPU Xeon VM, where 10**20
#: ran until memory ran out; the benchmark ladder's largest rung is 6000/9000).
MAX_GEN_COUNT = 10**6


@dataclass(frozen=True)
class GenSpec:
    """Parameters of the random instance generator.

    The degree weights follow the typical profile: mostly 2-pin nets, some
    3-pin, rarely larger.  The placement area is sized so that the total
    macro area divided by the area equals ``utilization``.
    """

    macros: int
    nets: int
    size_min: float = 2.0
    size_max: float = 5.0
    utilization: float = 0.5
    degree_weights: tuple[tuple[int, float], ...] = ((2, 0.75), (3, 0.2), (4, 0.05))
    degree_cap: int = 10
    aspect: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.macros < 0 or self.nets < 0:
            raise ValueError("macro and net counts must be >= 0")
        for name in ("macros", "nets"):
            if getattr(self, name) > MAX_GEN_COUNT:
                raise ValueError(f"{name} must be at most {MAX_GEN_COUNT}")
        if not 0 < self.size_min <= self.size_max < math.inf:
            raise ValueError("need 0 < size_min <= size_max, size_max finite")
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must be in (0, 1]")
        if not 0 < self.aspect < math.inf:
            raise ValueError("aspect must be positive and finite")
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if not self.degree_weights or any(
            d < 2 or not 0 <= w < math.inf for d, w in self.degree_weights
        ):
            raise ValueError(
                "degree weights need degrees >= 2 and finite weights >= 0"
            )
        # generate_instance draws against this sum, so it must be finite
        total = ordered_sum([w for _, w in self.degree_weights])
        if total <= 0:
            raise ValueError("degree weights must not all be zero")
        if total == math.inf:
            raise ValueError(
                f"degree weights {self.degree_weights!r} add up to inf; "
                "their sum must be finite"
            )


def generate_instance(spec: GenSpec) -> tuple[Netlist, PlacementArea]:
    """Deterministic random instance for a :class:`GenSpec`.

    Sizes are drawn uniformly and discretized to 0.1 units; the area is sized
    for the utilization target (within rounding) with the requested aspect
    ratio; a spec whose area sides round to zero or overflow is rejected.
    Net degrees are drawn from the weighted distribution, members without
    replacement among macros still under the per-macro net cap.
    """
    rng = random.Random(spec.seed)
    width = len(str(max(spec.macros - 1, 0)))
    macros = []
    for i in range(spec.macros):
        sx = round(rng.uniform(spec.size_min, spec.size_max), 1)
        sy = round(rng.uniform(spec.size_min, spec.size_max), 1)
        macros.append(Macro(f"m{i:0{width}d}", sx, sy))
    total = ordered_sum([m.area for m in macros])
    if total == 0:
        if spec.nets:
            raise ValueError("cannot generate nets without macros")
        area = PlacementArea(1.0, 1.0)
        return Netlist([], []), area
    target = total / spec.utilization
    a_w = round(math.sqrt(target * spec.aspect), 2)
    a_h = round(target / a_w, 2) if a_w else 0.0
    if not (0 < a_w < math.inf and 0 < a_h < math.inf):
        raise ValueError(
            f"infeasible spec: the area for size_max {spec.size_max!r}, "
            f"utilization {spec.utilization!r} and aspect {spec.aspect!r} "
            f"rounds to {a_w}x{a_h}; both sides must be positive and finite"
        )
    for m in macros:
        if m.size_x > a_w or m.size_y > a_h:
            raise ValueError(
                f"infeasible spec: macro {m.id} ({m.size_x}x{m.size_y}) exceeds "
                f"the {a_w}x{a_h} area implied by the utilization target"
            )
    area = PlacementArea(a_w, a_h)

    degrees = [d for d, _ in spec.degree_weights]
    weights = [w for _, w in spec.degree_weights]
    wsum = ordered_sum(weights)
    load = {m.id: 0 for m in macros}
    available = sorted(load)  # the ids under the cap, which rng.sample draws from
    nets = []
    for _ in range(spec.nets):
        r = rng.random() * wsum
        acc = 0.0
        deg = degrees[-1]
        for d, w in zip(degrees, weights):
            acc += w
            if r < acc:
                deg = d
                break
        if len(available) < 2:
            raise ValueError(
                "infeasible spec: degree cap leaves fewer than 2 macros available"
            )
        members = sorted(rng.sample(available, min(deg, len(available))))
        for mid in members:
            load[mid] += 1
            if load[mid] == spec.degree_cap:
                del available[bisect_left(available, mid)]
        nets.append(Net(tuple(members)))
    return Netlist(macros, nets), area


# ---------------------------------------------------------------------------
# SVG rendering


def _svg_fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(
    netlist: Netlist,
    area: PlacementArea,
    placement: Placement,
    fp: IO[str],
) -> None:
    """Draw the instance 800 pixels wide: area outline, hatched blockages,
    labeled macro rectangles, and nets as center-to-center lines (centroid
    star for nets with more than two pins).  Output bytes are deterministic."""
    import html  # here, so a run that draws nothing does not load it

    w = 800.0
    s = w / area.width
    h = area.height * s
    f = _svg_fmt

    def X(x: float) -> str:
        return f(x * s)

    def Y(y: float) -> str:  # flip so the origin is the lower-left corner
        return f(h - y * s)

    fp.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{f(w)}" height="{f(h)}" '
        f'viewBox="0 0 {f(w)} {f(h)}">\n'
    )
    fp.write(
        "<defs><pattern id=\"hatch\" width=\"8\" height=\"8\" "
        "patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\">"
        "<line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"8\" stroke=\"#888\" "
        "stroke-width=\"2\"/></pattern></defs>\n"
    )
    fp.write(
        f'<rect x="0" y="0" width="{f(w)}" height="{f(h)}" fill="white" '
        f'stroke="black" stroke-width="2"/>\n'
    )
    for x1, y1, x2, y2 in area.blockages:
        fp.write(
            f'<rect x="{X(x1)}" y="{Y(y2)}" width="{f((x2 - x1) * s)}" '
            f'height="{f((y2 - y1) * s)}" fill="url(#hatch)" stroke="#555"/>\n'
        )
    for m in netlist.macros:
        if m.id not in placement:
            continue
        cx, cy = placement[m.id]
        x1, y1, x2, y2 = footprint_box(m, (cx, cy))
        font = max(6.0, min(m.size_x, m.size_y) * s / 3.0)
        fp.write(
            f'<rect x="{X(x1)}" y="{Y(y2)}" width="{f((x2 - x1) * s)}" '
            f'height="{f((y2 - y1) * s)}" fill="#9db8d9" fill-opacity="0.7" '
            f'stroke="#345"/>\n'
        )
        fp.write(
            f'<text x="{X(cx)}" y="{Y(cy)}" font-size="{f(font)}" '
            f'text-anchor="middle" dominant-baseline="middle">'
            f"{html.escape(m.id)}</text>\n"
        )
    for net in netlist.nets:
        pts = [placement[mid] for mid in net.members if mid in placement]
        if len(pts) < 2:
            continue
        if len(pts) == 2:
            (x1, y1), (x2, y2) = pts
            fp.write(
                f'<line x1="{X(x1)}" y1="{Y(y1)}" x2="{X(x2)}" y2="{Y(y2)}" '
                f'stroke="#c33" stroke-width="1" stroke-opacity="0.6"/>\n'
            )
        else:
            cx = ordered_sum([p[0] for p in pts]) / len(pts)
            cy = ordered_sum([p[1] for p in pts]) / len(pts)
            for x1, y1 in pts:
                fp.write(
                    f'<line x1="{X(x1)}" y1="{Y(y1)}" x2="{X(cx)}" y2="{Y(cy)}" '
                    f'stroke="#c33" stroke-width="1" stroke-opacity="0.6"/>\n'
                )
    fp.write("</svg>\n")


# ---------------------------------------------------------------------------
# independent result checking


def check_result(
    netlist: Netlist, area: PlacementArea, result: ResultData
) -> tuple[bool, list[str]]:
    """Re-derive legality, total bounding-box netlength and total pairwise
    overlap area from scratch, and compare them with the result's ``summary
    legal``, ``summary netlength_bb`` and ``summary overlap_area`` lines (the
    totals bit for bit: both add the nets left to right in the instance's
    order, and the overlapping pairs from ``0.0`` in ascending order of
    their ids).

    This is deliberately a separate code path from
    :func:`stepplace.netmodel.is_legal` so the checker cannot inherit a
    placer-side mistake.  Overlapping pairs are found by sort and sweep:
    the boxes by left edge, each tested against the earlier ones whose right
    edge lies beyond that edge.  Returns (legal with a summary that agrees,
    report lines); the last two lines are the recomputed netlength and
    legality.
    """
    lines: list[str] = []
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
    # an active box starts at or before x1 and ends after it, so it meets
    # the box at x1, if neither is empty, where along y each one's low edge
    # lies below the other's high edge; an empty box meets nothing
    boxes = list(spans.values())
    pairs = []
    active: list[tuple[float, float, float, int]] = []  # x2, y1, y2, index
    for k in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        x1, x2, y1, y2 = boxes[k]
        if x1 < x2 and y1 < y2:
            active = [a for a in active if a[0] > x1]
            pairs += [(i, k) if i < k else (k, i)
                      for _, b1, b2, i in active if b1 < y2 and y1 < b2]
            active.append((x2, y1, y2, k))
    overlap = 0.0
    for i, j in sorted(pairs):
        a, b = boxes[i], boxes[j]
        lines.append(f"macros {inst_ids[i]} and {inst_ids[j]} overlap")
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


# ---------------------------------------------------------------------------
# CLI


def _out_path(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _distinct_files(*flags: tuple[str, str | None]) -> None:
    """Raise ``ValueError`` naming both flags if two of the ``(flag, path)``
    pairs name one file, so no output overwrites an input or another
    output; a ``None`` path is a flag not given."""
    seen: dict[str, str] = {}
    for flag, path in flags:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {flag} name the same file {path!r}")
        seen[real] = flag


def _build_config(args: SimpleNamespace) -> PlacerConfig:
    """Defaults, overridden by --config JSON, overridden by explicit flags.
    A config the flags alone would leave valid raises a ``ValueError`` that
    names the config file."""
    defaults = {"max_rounds": 10000}
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    values: dict = {}
    if args.config:
        try:
            loaded = json.loads("".join(_read_lines(args.config)))
        except json.JSONDecodeError as e:
            raise InstanceFormatError(f"config file {args.config!r}: {e}") from None
        if not isinstance(loaded, dict):
            raise InstanceFormatError(
                f"config file {args.config!r} must hold a JSON object"
            )
        for k, v in loaded.items():
            if k not in _CONFIG_KEYS:
                raise InstanceFormatError(
                    f"config file {args.config!r}: unknown config key {k!r}"
                )
            values[k] = v
    try:
        return PlacerConfig(**{**defaults, **values, **flags})
    except ValueError as e:
        PlacerConfig(**{**defaults, **flags})  # a bad flag raises its own message
        raise InstanceFormatError(f"config file {args.config!r}: {e}") from None


def _cmd_place(args: SimpleNamespace) -> int:
    out = _out_path(args.out)
    stats = _out_path(args.stats) if args.stats else None
    _distinct_files(
        ("--in", args.infile), ("--config", args.config), ("--out", out),
        ("--stats", stats),
    )
    netlist, area, initial = load_instance(args.infile)
    config = _build_config(args)
    for path in [out] + ([stats] if stats else []):
        # fail before the run, not after it
        if os.path.isdir(path):
            raise ValueError(f"{path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"no directory to write {path!r} into")
    state = new_state(netlist, area, config, initial)

    def rows():
        # row 0, then one round per row; with a stats file the whole run
        # happens inside the atomic write, so the final file is complete
        yield stats_row(state, config)
        if state.macro_order:
            for _ in range(config.max_rounds):
                yield round_step(state, config)

    if stats:
        _atomic_write(stats, lambda fp: write_stats_csv(fp, rows()))
    else:
        for _ in rows():
            pass
    placement = state.placement
    code = 0
    if args.skip_legalize:
        final = placement
    else:
        try:
            final = naive_legalize(placement, netlist, area)
        except LegalizationError as e:
            print(f"legalization failed: {e}", file=sys.stderr)
            final = placement
            code = 2
    total_bb, overlap, legal = save_result(out, final, netlist, area, config)
    print(
        f"placed {len(netlist.macros)} macros in {state.round} rounds: "
        f"netlength_bb={total_bb:.6g} overlap_area={overlap:.6g} "
        f"legal={'true' if legal else 'false'} -> {out}"
    )
    return code


def _cmd_check(args: SimpleNamespace) -> int:
    netlist, area, _ = load_instance(args.instance)
    result = load_result(args.result)
    ok, lines = check_result(netlist, area, result)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _degree_weights(text: str) -> tuple[tuple[int, float], ...]:
    """The ``--degree-weights`` value as ``(degree, weight)`` pairs."""
    try:
        pairs = (pair.split(":") for pair in text.split(","))
        return tuple((int(d), float(w)) for d, w in pairs)
    except ValueError:
        msg = f"--degree-weights {text!r}: expected degree:weight pairs"
        raise ValueError(msg) from None


def _cmd_gen(args: SimpleNamespace) -> int:
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(GenSpec)}
    fields["degree_weights"] = _degree_weights(args.degree_weights)
    netlist, area = generate_instance(GenSpec(**fields))
    out = _out_path(args.out)
    save_instance(out, netlist, area)
    print(
        f"wrote {len(netlist.macros)} macros, {len(netlist.nets)} nets, "
        f"area {area.width}x{area.height} -> {out}"
    )
    return 0


def _cmd_render(args: SimpleNamespace) -> int:
    out = _out_path(args.out)
    _distinct_files(
        ("--instance", args.instance), ("--result", args.result), ("--out", out)
    )
    netlist, area, initial = load_instance(args.instance)
    if args.result:
        placement = load_result(args.result).positions
    else:
        placement = initial or {}
    _atomic_write(out, lambda fp: render_svg(netlist, area, placement, fp))
    print(f"wrote {out}")
    return 0


# The command line: COMMANDS[command] is (handler, summary, flags), and
# flags[flag] is (attribute, type, default, help).  A flag without a type
# takes no value and sets True; a default of ``...`` makes a flag required.
_RENAMED = {"max_rounds": "rounds", "candidates_per_round": "candidates",
            "inflation_rho": "rho"}  # the other PlacerConfig fields' flags: their names
_CONFIG_FLAGS = {
    "--" + _RENAMED.get(f.name, f.name.replace("_", "-")):
        (f.name, int if f.name in _INT_FIELDS else float, None, f"sets {f.name}")
    for f in dataclasses.fields(PlacerConfig)
}
COMMANDS = {
    "place": (_cmd_place, "run the placer on an instance", {
        "--in": ("infile", str, ..., "instance file"),
        "--out": ("out", str, ..., "result file"),
        "--stats": ("stats", str, None, "write per-round statistics CSV here"),
        "--skip-legalize": ("skip_legalize", None, False, "keep the raw placement"),
        **_CONFIG_FLAGS,
        "--config": ("config", str, None, "JSON file of PlacerConfig fields"),
    }),
    "check": (_cmd_check, "independently verify a result file", {
        "--instance": ("instance", str, ..., "instance file"),
        "--result": ("result", str, ..., "result file"),
    }),
    "gen": (_cmd_gen, "generate a random instance", {  # GenSpec's fields
        "--out": ("out", str, ..., "instance file to write"),
        "--macros": ("macros", int, ..., "number of macros"),
        "--nets": ("nets", int, ..., "number of nets"),
        "--size-min": ("size_min", float, 2.0, "smallest macro side"),
        "--size-max": ("size_max", float, 5.0, "largest macro side"),
        "--utilization": ("utilization", float, 0.5, "macro area / area"),
        "--degree-weights": ("degree_weights", str, "2:0.75,3:0.2,4:0.05", "d:w,..."),
        "--degree-cap": ("degree_cap", int, 10, "most nets per macro"),
        "--aspect": ("aspect", float, 1.0, "area width / height"),
        "--seed": ("seed", int, 0, "generator seed"),
    }),
    "render": (_cmd_render, "draw an instance/result as SVG", {
        "--instance": ("instance", str, ..., "instance file"),
        "--result": ("result", str, None, "take positions from this result file"),
        "--out": ("out", str, ..., "SVG file to write"),
    }),
}
_HELP = ("-h", "--help")


def _cmd_help(args: SimpleNamespace) -> int:
    """Print the commands, or the flags of ``args.command``."""
    if args.command is None:
        print("usage: stepplace COMMAND [FLAGS], where COMMAND is one of")
        rows = {c: summary for c, (_, summary, _) in COMMANDS.items()}
    else:
        _, summary, flags = COMMANDS[args.command]
        print(f"usage: stepplace {args.command} [FLAGS], to {summary}")
        rows = {f if t is None else f"{f} {f[2:].upper().replace('-', '_')}": text + (
            " (required)" if d is ... else "" if d is None or t is None
            else f" (default {d})") for f, (_, t, d, text) in flags.items()}
    for name, text in rows.items():
        print(f"  {name:<40}{text}")
    return 0


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """``argv`` (no program name) read against :data:`COMMANDS`: a command,
    then its flags by full name, as ``--flag=value`` or ``--flag value``
    (``-h``, ``--help`` or a flag of the command, bare or with ``=``, is no
    value; a repeated flag keeps its last value).  Returns the attributes,
    ``command`` and the handler ``func`` (:func:`_cmd_help` at a ``-h``); a
    usage error raises ``ValueError``."""
    command = argv[0] if argv else None
    if command in _HELP:
        return SimpleNamespace(command=None, func=_cmd_help)
    if command not in COMMANDS:
        what = f"unknown command {command!r}" if argv else "missing command"
        raise ValueError(f"{what}: choose from place, check, gen, render")
    func, _, flags = COMMANDS[command]
    values = {attr: default for attr, _, default, _ in flags.values()}
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok in _HELP:
            return SimpleNamespace(command=command, func=_cmd_help)
        flag, eq, value = tok.partition("=")
        if flag not in flags:
            raise ValueError(f"{command}: unrecognized argument {tok!r}")
        attr, conv, _, _ = flags[flag]
        if conv is None and eq:
            raise ValueError(f"argument {flag}: takes no value")
        if conv is not None and not eq:
            value = next(tokens, None)
            if value is None or value in _HELP or value.partition("=")[0] in flags:
                raise ValueError(f"argument {flag}: expected one argument")
        try:
            values[attr] = True if conv is None else conv(value)
        except ValueError:
            raise ValueError(f"argument {flag}: invalid {conv.__name__} "
                             f"value: {value!r}") from None
    missing = [f for f, (attr, _, _, _) in flags.items() if values[attr] is ...]
    if missing:
        raise ValueError(f"{command}: missing required {', '.join(missing)}")
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: Sequence[str] | None = None) -> int:
    """Run ``argv`` (else ``sys.argv[1:]``) and return its exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
