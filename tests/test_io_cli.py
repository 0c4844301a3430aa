import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import xml.dom.minidom

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import stepplace
import stepplace._pycore as _pycore
import stepplace.io_cli as io_cli
import stepplace.netmodel as netmodel
import stepplace.placer as placer
import stepplace.stepfield as stepfield
import oracles
from stepplace.io_cli import (
    GenSpec,
    InstanceFormatError,
    ResultData,
    check_result,
    generate_instance,
    load_instance,
    load_result,
    main,
    parse_instance,
    render_svg,
    save_instance,
    save_result,
    write_instance,
    write_result,
    write_stats_csv,
)
from conftest import use_core
from oracles import build_parser, oracle_check_result, oracle_nets, oracle_summarize
from stepplace.netmodel import (
    Macro,
    Net,
    Netlist,
    PlacementArea,
    Rect,
    check_placeable,
    is_legal,
)
from stepplace.placer import PlacerConfig, RoundStats, new_state, run_placer

CORES = ["py"] + (["c"] if stepfield.HAVE_C_CORE else [])

MINIMAL = """\
# smallest useful instance
area 10 8
macro a 2 2
"""

FULL = """\
area 10.5 8.25
blockage 1 1 2.5 3
macro a 2 2
macro b 1.5 3
macro c 1 1
net a b
net a b c
place a 5 4
place b 2 6
"""


class TestParseInstance:
    def test_minimal(self):
        netlist, area, initial = parse_instance(io.StringIO(MINIMAL))
        assert [m.id for m in netlist.macros] == ["a"]
        assert area.width == 10.0 and area.height == 8.0
        assert initial is None

    def test_full(self):
        netlist, area, initial = parse_instance(io.StringIO(FULL))
        assert [m.id for m in netlist.macros] == ["a", "b", "c"]
        assert [n.members for n in netlist.nets] == [("a", "b"), ("a", "b", "c")]
        assert area.blockages == (Rect(1, 1, 2.5, 3),)
        assert initial == {"a": (5.0, 4.0), "b": (2.0, 6.0)}

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("macro a 1 1\n", "missing area"),
            ("area 4 4\narea 4 4\n", "line 2: duplicate area"),
            ("area 4 4\nmacro a 1\n", "line 2"),
            ("area 4 4\nmacro a 1 x\n", "line 2"),
            ("area 4 4\nnet a\n", "line 2: net needs at least 2"),
            ("area 4 4\nmacro a 1 1\nnet a a\n", "duplicate members"),
            ("area 4 4\nmacro a 1 1\nnet a ghost\n",
             r"^line 3: net \('a', 'ghost'\) references unknown macro 'ghost'$"),
            # the first net with an unknown member, after a known one
            ("area 4 4\nmacro a 1 1\nmacro b 1 1\nnet a b\nnet b c\nnet d a\n",
             r"^line 5: net \('b', 'c'\) references unknown macro 'c'$"),
            ("area 4 4\nmacro a 1 1\nmacro a 2 2\n", "^line 3: duplicate macro id 'a'$"),
            ("area 4 4\nwat 1 2\n", "unknown directive"),
            ("area 4 4\nblockage 0 0 9 1\n", "outside the placement area"),
            ("area 5 5\n\nblockage 1 1 50 2\n",
             r"^line 3: blockage 1\.0 1\.0 50\.0 2\.0 is empty or outside the "
             r"placement area \[0, 5\.0\] x \[0, 5\.0\]$"),
            ("area 5 5\nblockage 1 2 3 2\n", "^line 2: blockage .* is empty"),
            ("area 0 5\n", "^line 1: placement area must have positive size"),
            # cells of 1e-321 / 2**11 would round to 0 and divide by zero
            ("area 5 1e-321\n", r"^line 1: placement area 5\.0 x 1e-321 is too small"),
            ("area 5 5\nmacro a 10 2\n", "^line 2: macro a .* does not fit"),
            # the first refused macro in file order, not in id order, and
            # before a net with an unknown member on an earlier line
            ("area 5 5\nnet z ghost\nmacro z 1 1e-20\nmacro a 10 2\n",
             "^line 3: macro z is too small"),
            ("area 4 4\nmacro a 1 1\nplace a 1 1\nplace a 2 2\n", "duplicate place"),
            ("area 4 4\nplace ghost 1 1\n", "^line 2: place line for unknown macro 'ghost'$"),
            ("area 4 4\nmacro a 0 1\n", "sizes must be positive"),
            ("area 4 4\nmacro a\x01b 1 1\n", "line 2: .*printable"),
        ],
    )
    def test_errors_carry_location_or_entity(self, text, needle):
        with pytest.raises(InstanceFormatError, match=needle):
            parse_instance(io.StringIO(text))

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# header\narea 4 4  # trailing\n\nmacro a 1 1\n"
        netlist, area, _ = parse_instance(io.StringIO(text))
        assert netlist.macros[0].id == "a"

    def test_instance_roundtrip(self, tmp_path):
        netlist, area, initial = parse_instance(io.StringIO(FULL))
        path = str(tmp_path / "inst.txt")
        save_instance(path, netlist, area, initial)
        nl2, area2, init2 = load_instance(path)
        assert [m.id for m in nl2.macros] == [m.id for m in netlist.macros]
        assert [(m.size_x, m.size_y) for m in nl2.macros] == [
            (m.size_x, m.size_y) for m in netlist.macros
        ]
        assert [n.members for n in nl2.nets] == [n.members for n in netlist.nets]
        assert area2 == area
        assert init2 == initial


def config_lines(**written):
    """Lines 5 on of a result file: one ``config`` line per field of a valid
    config, as ``write_result`` writes it, with the ``written`` values."""
    cfg = PlacerConfig(max_rounds=200)
    text = {f.name: "none" if (v := getattr(cfg, f.name)) is None else repr(v)
            for f in dataclasses.fields(cfg)}
    return {5 + k: f"config {key} {v}"
            for k, (key, v) in enumerate({**text, **written}.items())}


class TestResultFile:
    def instance(self):
        return parse_instance(io.StringIO(FULL))[:2]

    def test_roundtrip_and_summary(self, tmp_path):
        netlist, area = self.instance()
        placement = {"a": (2.0, 2.0), "b": (8.0, 6.0), "c": (5.0, 1.5)}
        cfg = PlacerConfig(max_rounds=100, seed=9)
        path = str(tmp_path / "res.txt")
        save_result(path, placement, netlist, area, cfg)
        got = load_result(path)
        assert got.positions == placement
        assert got.config["seed"] == "9"
        assert got.config["max_rounds"] == "100"
        # summary is recomputable from the positions
        from stepplace.netmodel import bb_netlength

        want_bb = sum(
            bb_netlength([placement[m] for m in net.members])
            for net in netlist.nets
        )
        assert got.netlength_bb == want_bb

    def test_malformed_result_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("place a 1\n")
        with pytest.raises(InstanceFormatError):
            load_result(str(path))
        path.write_text("place a 1 2\n")
        with pytest.raises(InstanceFormatError, match="missing summary"):
            load_result(str(path))

    @pytest.mark.parametrize(
        "lines, needle",
        [
            ({5: "place a 3 4"}, "^line 5: duplicate place for macro 'a'$"),
            ({1: "summary netlength_bb abc"},
             "^line 1: summary netlength_bb is not a number: 'abc'$"),
            ({2: "summary overlap_area nan"},
             "^line 2: summary overlap_area must be finite: 'nan'$"),
            # only the token write_result writes for an overflowed sum
            ({1: "summary netlength_bb -inf"},
             "^line 1: summary netlength_bb must be finite: '-inf'$"),
            ({2: "summary overlap_area Infinity"},
             "^line 2: summary overlap_area must be finite: 'Infinity'$"),
            ({3: "summary legal maybe"},
             "^line 3: bad summary line 'summary legal maybe'$"),
            ({5: "summary legal false"}, "^line 5: duplicate summary legal$"),
            ({5: "summary hpwl 1.0"}, "^line 5: bad summary line"),
            ({5: "config seed 1", 6: "config seed 99"},
             "^line 6: duplicate config seed$"),
            ({5: "config bogus_key 5"}, "^line 5: unknown config key 'bogus_key'$"),
            (config_lines(grid_p="-5"), r"^line 7: grid_p must be in \[0, \d+\]$"),
            ({5: "config seed abc"}, "^line 5: config seed is not an integer: 'abc'$"),
            ({5: "config inflation_rho nan"},
             "^line 5: config inflation_rho must be finite: 'nan'$"),
            ({5: "config penalty_c inf"}, "^line 5: config penalty_c must be finite: 'inf'$"),
            ({4: "place a inf 2"}, "^line 4: .* must be finite: 'inf'$"),
            ({4: "place  a 1  2 3"}, "^line 4: bad result line 'place  a 1  2 3'$"),
        ],
        ids=["duplicate-place", "not-a-number", "nan", "minus-inf", "infinity",
             "legal-maybe", "duplicate-summary", "unknown-summary", "duplicate-config",
             "unknown-config", "config-refused", "config-not-an-int", "config-nan",
             "config-inf", "place-inf", "bad-place-keeps-its-text"],
    )
    def test_bad_line_named(self, tmp_path, lines, needle):
        # a valid file with one line replaced (or, past its end, appended)
        text = [
            "summary netlength_bb 1.5",
            "summary overlap_area 0.0",
            "summary legal true",
            "place a 1 2",
        ]
        for ln, line in lines.items():
            text[ln - 1 : ln] = [line]
        path = tmp_path / "res.txt"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(InstanceFormatError) as exc:
            load_result(str(path))
        # the message names the file, then the line
        prefix = f"{str(path)!r}: "
        msg = str(exc.value)
        assert msg.startswith(prefix) and re.search(needle, msg[len(prefix):])

    @pytest.mark.parametrize("placement", [{}, {"b": (3.0, 3.0)}], ids=["empty", "partial"])
    def test_every_macro_needs_a_position(self, placement):
        # an empty placement is no exception: its summary would say legal
        netlist = Netlist([Macro("a", 1, 1), Macro("b", 1, 1)], [])
        with pytest.raises(ValueError, match="^macro 'a' has no position$"):
            write_result(io.StringIO(), placement, netlist, PlacementArea(4.0, 4.0),
                         PlacerConfig(max_rounds=1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_position_names_macro(self, on_core, bad):
        # refused before the summary's store is built, alike on each core
        netlist = Netlist([Macro("a", 1, 1), Macro("b", 1, 1)], [Net(("a", "b"))])
        for core in CORES:
            on_core(core)
            with pytest.raises(ValueError, match="^macro 'a' has a non-finite position"):
                write_result(io.StringIO(), {"a": (bad, 1.0), "b": (3.0, 3.0)}, netlist,
                             PlacementArea(4.0, 4.0), PlacerConfig(max_rounds=1))


class TestStatsCsv:
    def test_schema_and_values(self):
        buf = io.StringIO()
        rows = [
            RoundStats(0, 10.0, 3.5, 0.01, 1.0, 0.05),
            RoundStats(1, 9.0, 3.0, 0.012, 1.1, 0.06),
        ]
        write_stats_csv(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "round,netlength_bb,overlap_area,delta,beta,w"
        assert lines[1].split(",")[0] == "0"
        assert float(lines[2].split(",")[1]) == 9.0


# floats at the ends of the C formatter's integer path and of repr's two
# notations (1e16 and 1e-05 are the first in exponent notation, 0.0001 the
# last fixed one), large round numbers, and values that repr writes through
# the interpreter on both cores
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-05, 0.0001,
    0.00012207031249999999, 0.1, 1 / 3, -2.5, 266.83, 9007199254740993.0,
    999999999999999.9, 1e15, 1e16, 1.5e16, 1e22, 1e37, 2.0**123, 1e100,
    sys.float_info.max, -math.inf, math.nan,
]


@pytest.fixture
def writers(backend, on_core):
    """The file writers on ``backend``'s formatter: the C core's
    ``repr_line``, or its Python reference."""
    on_core(backend)
    return backend


def assert_fields_round_trip(line, values, sep=" "):
    """``line`` ends in ``values`` written by ``repr`` and joined by
    ``sep``, and each field reads back as its value, bit for bit."""
    fields = line.split(sep)[-len(values):]
    assert sep.join(fields) == sep.join(map(repr, values))
    for tok, v in zip(fields, values):
        assert float(tok).hex() == float(v).hex()


class TestWriterLines:
    """Every line the writers write is the ``repr`` join of its values, on
    both formatters."""

    def test_stats_rows(self, writers):
        values = EDGE_FLOATS + EDGE_FLOATS[::-1]
        rows = [RoundStats(0, 0, 0, 0.5, 1.0, 0.05)]  # int totals, as stats_row gives
        rows += [RoundStats(k + 1, *values[5 * k:5 * k + 5])
                 for k in range(len(values) // 5)]
        buf = io.StringIO()
        write_stats_csv(buf, rows)
        header, *lines = buf.getvalue().split("\n")[:-1]
        assert header == "round,netlength_bb,overlap_area,delta,beta,w"
        assert lines[0] == "0,0,0,0.5,1.0,0.05"
        for line, row in zip(lines, rows, strict=True):
            assert_fields_round_trip(line, row, ",")

    def test_result_summary_and_place_lines(self, writers):
        finite = [v for v in EDGE_FLOATS if math.isfinite(v)]
        ids = [f"m{k:02d}" for k in range(len(finite))]
        netlist = Netlist([Macro(mid, 1.0, 1.0) for mid in ids],
                          [Net(("m07", "m08")), Net(("m09", "m10", "m11"))])
        area = PlacementArea(1e300, 1e300)
        placement = {mid: (x, -x) for mid, x in zip(ids, finite)}
        buf = io.StringIO()
        summary = write_result(buf, placement, netlist, area, PlacerConfig(max_rounds=1))
        lines = buf.getvalue().splitlines()
        summary_lines = [ln for ln in lines if ln.startswith("summary")]
        assert summary_lines[:2] == [
            f"summary netlength_bb {summary[0]!r}",
            f"summary overlap_area {summary[1]!r}",
        ]
        place = [ln for ln in lines if ln.startswith("place ")]
        assert len(place) == len(ids)
        for line, mid in zip(place, sorted(placement)):
            assert line.startswith(f"place {mid} ")
            assert_fields_round_trip(line, placement[mid])

    def test_empty_result_writes_int_zero(self, writers):
        buf = io.StringIO()
        write_result(buf, {}, Netlist([], []), PlacementArea(4.0, 4.0),
                     PlacerConfig(max_rounds=1))
        assert "summary netlength_bb 0\nsummary overlap_area 0.0\n" in buf.getvalue()

    def test_instance_lines(self, writers):
        sizes = [v for v in EDGE_FLOATS if 0 < v < math.inf]
        netlist = Netlist(
            [Macro(f"m{k:02d}", v, sizes[-1 - k]) for k, v in enumerate(sizes)], []
        )
        area = PlacementArea(1e16, 1e37, (Rect(-0.0, 5e-324, 1e-05, 1e15),
                                          Rect(0.1, 1 / 3, 1e15, 1e22)))
        initial = {m.id: (v, -v) for m, v in zip(netlist.macros, EDGE_FLOATS)}
        buf = io.StringIO()
        write_instance(buf, netlist, area, initial)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# stepplace instance"
        assert lines[1] == "area 1e+16 1e+37"
        for line, box in zip(lines[2:4], area.blockages, strict=True):
            assert line.startswith("blockage ")
            assert_fields_round_trip(line, box)
        macro_lines = lines[4:4 + len(sizes)]
        for line, m in zip(macro_lines, netlist.macros, strict=True):
            assert line.startswith(f"macro {m.id} ")
            assert_fields_round_trip(line, (m.size_x, m.size_y))
        place = lines[4 + len(sizes):]
        for line, mid in zip(place, sorted(initial), strict=True):
            assert line.startswith(f"place {mid} ")
            assert_fields_round_trip(line, initial[mid])


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


needs_c_repr = pytest.mark.skipif(
    stepfield.c_core is None, reason="C core not built"
)
SEPS = st.sampled_from([",", " ", "", ", ", "\u00b7"])


def _digit_ints(d_max):
    """Non-negative ints of 1 to ``d_max`` digits, each length alike."""
    return st.integers(1, d_max).flatmap(
        lambda d: st.integers(10 ** (d - 1) if d > 1 else 0, 10**d - 1))


#: ints of 1 to 20 digits, either sign: the two-digit writer's every length
INTS_BY_DIGITS = st.tuples(_digit_ints(20), st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0])
#: floats whose shortest form has 1 to 17 digits, from 1e-40 to 1e+57, inside
#: and outside the integer path's range
FLOATS_BY_DIGITS = st.tuples(_digit_ints(17), st.integers(-40, 40), st.booleans()).map(
    lambda t: float(f"{'-' if t[2] else ''}{t[0]}e{t[1]}"))


@needs_c_repr
class TestReprLine:
    """The C core's ``repr_line`` against ``repr``: its integer path for
    normal floats between 2**-13 and 2**123, the interpreter's for the rest."""

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), FLOATS_BY_DIGITS), max_size=8), sep=SEPS)
    def test_floats(self, values, sep):
        assert stepfield.c_core.repr_line(values, sep) == _pycore.repr_line(values, sep)

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1).map(_from_bits), max_size=8),
           sep=SEPS)
    def test_bit_patterns(self, values, sep):
        assert stepfield.c_core.repr_line(values, sep) == _pycore.repr_line(values, sep)

    def test_sweep(self):
        values = [5e-324, sys.float_info.max, *EDGE_FLOATS]
        for e in range(-1074, 1024):
            x = math.ldexp(1.0, e)
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        for k in range(-30, 41):
            lo = hi = float(f"1e{k}")
            values.append(lo)
            for _ in range(2):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
                values += [lo, hi]
        for base in (2**53, 10**16):
            values += [float(base + d) for d in range(-40, 41)]
        values += [-v for v in values]
        got = stepfield.c_core.repr_line(values, " ")
        assert got == _pycore.repr_line(values, " ")

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(0, sys.maxsize), st.integers(),
                                     st.booleans(), INTS_BY_DIGITS), max_size=8))
    def test_ints(self, values):
        assert stepfield.c_core.repr_line(values, ",") == _pycore.repr_line(values, ",")
        edges = [0, 1, 2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**64, -(2**100),
                 *(10**d for d in range(20)), *(10**d - 1 for d in range(1, 21))]
        assert stepfield.c_core.repr_line(edges, ",") == _pycore.repr_line(edges, ",")

    @pytest.mark.parametrize("value", ["1.0", None, b"1", [1.0], 1j])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError, match="floats and ints"):
            stepfield.c_core.repr_line([1.0, value], ",")


class TestGenerator:
    def test_deterministic_files(self, tmp_path):
        spec = GenSpec(macros=200, nets=300, seed=11)
        pa = str(tmp_path / "a.txt")
        pb = str(tmp_path / "b.txt")
        for path in (pa, pb):
            netlist, area = generate_instance(spec)
            save_instance(path, netlist, area)
        assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_utilization_within_two_percent(self):
        for seed in (0, 1, 2):
            spec = GenSpec(macros=40, nets=50, utilization=0.5, seed=seed)
            netlist, area = generate_instance(spec)
            util = netlist.total_macro_area / (area.width * area.height)
            assert abs(util - 0.5) <= 0.01

    def test_degree_cap_respected(self):
        spec = GenSpec(macros=15, nets=40, degree_cap=10, seed=3)
        netlist, _ = generate_instance(spec)
        counts = {m.id: 0 for m in netlist.macros}
        for net in netlist.nets:
            for mid in net.members:
                counts[mid] += 1
        assert max(counts.values()) <= 10

    def test_overfull_net_demand_errors(self):
        with pytest.raises(ValueError, match="degree cap"):
            generate_instance(GenSpec(macros=3, nets=40, degree_cap=2, seed=3))

    def test_degree_distribution_profile(self):
        netlist, _ = generate_instance(GenSpec(macros=100, nets=400, seed=5))
        sizes = [len(n.members) for n in netlist.nets]
        two = sum(1 for s in sizes if s == 2) / len(sizes)
        assert two > 0.6
        assert max(sizes) <= 4

    def test_every_macro_fits_generated_area(self):
        netlist, area = generate_instance(GenSpec(macros=30, nets=10, seed=7))
        for m in netlist.macros:
            assert m.size_x <= area.width and m.size_y <= area.height

    def test_infeasible_spec_errors(self):
        with pytest.raises(ValueError):
            GenSpec(macros=5, nets=1, utilization=1.5)
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite weights"):
                GenSpec(macros=5, nets=1, degree_weights=((2, 0.5), (3, w)))
        with pytest.raises(ValueError, match="degree cap"):
            generate_instance(GenSpec(macros=1, nets=1, seed=1))

    @settings(max_examples=200, deadline=None)
    @given(
        macros=st.integers(1, 40),
        nets=st.integers(0, 120),
        degree_cap=st.integers(1, 4) | st.just(10),
        weights=st.sampled_from([((2, 0.75), (3, 0.2), (4, 0.05)), ((2, 1.0),),
                                 ((3, 0.5), (9, 0.5)), ((2, 0.0), (50, 1.0))]),
        seed=st.integers(0, 10**6),
    )
    def test_nets_equal_the_per_net_sort(self, macros, nets, degree_cap, weights, seed):
        # the generator keeps its ids under the cap in one sorted list and
        # drops an id as it reaches the cap, so rng.sample draws from the
        # list the oracle sorts anew for every net: the same nets, or the
        # same refusal where the cap leaves fewer than 2 macros; utilization
        # 0.3 gives an area that holds any one macro
        spec = GenSpec(macros=macros, nets=nets, utilization=0.3, degree_cap=degree_cap,
                       degree_weights=weights, seed=seed)
        ids = [m.id for m in generate_instance(dataclasses.replace(spec, nets=0))[0].macros]
        try:
            want = oracle_nets(spec, ids)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                generate_instance(spec)
            return
        netlist, _ = generate_instance(spec)
        assert [m.id for m in netlist.macros] == ids
        assert [net.members for net in netlist.nets] == want

    @pytest.mark.parametrize("field", ["macros", "nets"])
    def test_counts_above_the_cap_refused(self, field):
        # refused when the spec is built, before anything is generated
        spec = {"macros": 0, "nets": 0, field: io_cli.MAX_GEN_COUNT + 1}
        with pytest.raises(ValueError, match=f"^{field} must be at most {io_cli.MAX_GEN_COUNT}$"):
            GenSpec(**spec)
        GenSpec(**{**spec, field: io_cli.MAX_GEN_COUNT})

    def test_weights_with_an_infinite_sum_refused(self):
        # each weight is finite, but the draw against their sum, inf, gave
        # every net the last degree
        with pytest.raises(ValueError, match=re.escape(
            "degree weights ((2, 1e+308), (3, 1e+308)) add up to inf"
        )):
            GenSpec(macros=200, nets=300, degree_weights=((2, 1e308), (3, 1e308)))


class TestChecker:
    def files(self, tmp_path, placement):
        netlist, area, _ = parse_instance(io.StringIO(FULL))
        inst = str(tmp_path / "inst.txt")
        res = str(tmp_path / "res.txt")
        save_instance(inst, netlist, area)
        save_result(res, placement, netlist, area, PlacerConfig(max_rounds=1))
        return netlist, area, inst, res

    def test_legal_result_passes(self, tmp_path):
        placement = {"a": (4.0, 2.0), "b": (8.0, 6.0), "c": (9.5, 1.5)}
        netlist, area, inst, res = self.files(tmp_path, placement)
        legal, lines = check_result(netlist, area, load_result(res))
        assert legal
        assert is_legal(placement, netlist, area).legal  # checker agrees

    def test_overlap_named(self, tmp_path):
        placement = {"a": (4.0, 2.0), "b": (4.0, 2.0), "c": (9.5, 1.5)}
        netlist, area, inst, res = self.files(tmp_path, placement)
        legal, lines = check_result(netlist, area, load_result(res))
        assert not legal
        assert any("a and b overlap" in ln for ln in lines)
        assert not is_legal(placement, netlist, area).legal

    def test_blockage_and_area_violations_reported(self, tmp_path):
        placement = {"a": (2.0, 2.0), "b": (0.5, 6.0), "c": (9.5, 1.5)}
        netlist, area, inst, res = self.files(tmp_path, placement)
        legal, lines = check_result(netlist, area, load_result(res))
        assert not legal
        assert any("overlaps blockage" in ln for ln in lines)
        assert any("leaves the placement area" in ln for ln in lines)

    def test_macro_set_mismatch(self, tmp_path):
        placement = {"a": (4.0, 2.0), "b": (8.0, 6.0), "c": (9.5, 1.5)}
        netlist, area, inst, res = self.files(tmp_path, placement)
        data = load_result(res)
        del data.positions["c"]
        data.positions["zz"] = (1.0, 1.0)
        legal, lines = check_result(netlist, area, data)
        assert not legal
        assert any("missing from result: c" in ln for ln in lines)
        assert any("not in instance: zz" in ln for ln in lines)

    def test_checker_netlength_matches_summary(self, tmp_path):
        placement = {"a": (4.0, 2.0), "b": (8.0, 6.0), "c": (9.5, 1.5)}
        netlist, area, inst, res = self.files(tmp_path, placement)
        data = load_result(res)
        _, lines = check_result(netlist, area, data)
        reported = next(
            float(ln.split(":")[1]) for ln in lines if ln.startswith("total bound")
        )
        assert math.isclose(reported, data.netlength_bb, rel_tol=1e-9)

    def test_summary_adds_left_to_right(self):
        # net lengths 1e16, 1 and 1: left to right each 1 is lost to
        # rounding, a compensated sum (builtin sum since Python 3.12) keeps both
        macros = [Macro(f"m{i}", 1.0, 1.0) for i in range(6)]
        nets = [Net(("m0", "m1")), Net(("m2", "m3")), Net(("m4", "m5"))]
        placement = {
            "m0": (1.0, 1.0), "m1": (1.0 + 1e16, 1.0),
            "m2": (3.0, 3.0), "m3": (4.0, 3.0),
            "m4": (6.0, 6.0), "m5": (6.0, 7.0),
        }
        netlist = Netlist(macros, nets)
        area = PlacementArea(2e16, 10.0)
        lengths = [1e16, 1.0, 1.0]
        assert math.fsum(lengths) == 1e16 + 2  # the two rules differ here
        total_bb, _, legal = io_cli._summarize(placement, netlist, area)
        assert total_bb.hex() == (1e16).hex()
        assert legal
        data = ResultData(placement, total_bb, 0.0, legal, {})
        ok, lines = check_result(netlist, area, data)
        assert ok and lines == ["total bounding-box netlength: 1e+16", "legal: true"]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_summary_totals_equal_the_ordered_sums(self, data):
        """The summary of one placement store is, by ``float.hex``, that of
        the bucket-grid path (each net's ``bb_netlength`` in net order, each
        pair's meet from ``0.0`` by id), with the same verdict, on random
        placements that mostly overlap or leave the area, on both cores."""
        draw = data.draw
        n = draw(st.integers(1, 20), label="macros")
        coord = st.one_of(st.integers(-4, 44).map(lambda k: k / 2), st.floats(-3, 23))
        side = st.one_of(st.integers(1, 8).map(lambda k: k / 2), st.floats(0.01, 6))
        macros = [Macro(f"m{i}", draw(side, label="w"), draw(side, label="h"))
                  for i in range(n)]
        ids = [m.id for m in macros]
        members = st.lists(st.sampled_from(ids), min_size=2, max_size=5, unique=True)
        nets = [Net(tuple(draw(members, label="net")))
                for _ in range(draw(st.integers(0, 10) if n > 1 else st.just(0)))]
        keepouts = [Rect(x, y, x + 2, y + 2) for x, y in draw(
            st.lists(st.tuples(st.integers(0, 18), st.integers(0, 18)), max_size=2))]
        netlist = Netlist(macros, nets)
        area = PlacementArea(20.0, 20.0, tuple(keepouts))
        positions = {mid: (draw(coord, label="x"), draw(coord, label="y")) for mid in ids}
        want = oracle_summarize(positions, netlist, area)
        for core in CORES:
            with pytest.MonkeyPatch.context() as patch:
                use_core(patch, core)
                got = io_cli._summarize(positions, netlist, area)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sweep_reports_what_the_pairwise_checker_does(self, data):
        """The sweep's report lines and verdict are those of the check of
        every pair, on random results: sides and centers on half units (so
        footprints touch edge to edge), or drawn freely, some sides too thin
        to leave a footprint that is not empty, with keep-outs, and with
        summaries recomputed or off by one."""
        draw = data.draw
        n = draw(st.integers(0, 25), label="macros")
        on_grid = draw(st.booleans(), label="half units")
        coord = (st.integers(0, 40).map(lambda k: k / 2) if on_grid
                 else st.floats(0, 20, allow_subnormal=False))
        # a side of 2e-300 leaves the footprint empty along that axis
        side = st.one_of(st.integers(1, 8).map(lambda k: k / 2) if on_grid
                         else st.floats(0.01, 6), st.just(2e-300))
        macros = [Macro(f"m{i}", draw(side, label="w"), draw(side, label="h"))
                  for i in range(n)]
        keepouts = []
        for x1, y1, x2, y2 in draw(st.lists(st.tuples(coord, coord, coord, coord),
                                            max_size=3), label="keep-outs"):
            if min(x1, x2) < max(x1, x2) and min(y1, y2) < max(y1, y2):
                keepouts.append(Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)))
        netlist = Netlist(macros, [])
        area = PlacementArea(20.0, 20.0, tuple(keepouts))
        positions = {m.id: (draw(coord, label="x"), draw(coord, label="y"))
                     for m in macros}
        total_bb, overlap, legal = io_cli._summarize(positions, netlist, area)
        if draw(st.booleans(), label="summary off"):
            overlap += 1.0
        result = ResultData(positions, float(total_bb), overlap, legal, {})
        assert check_result(netlist, area, result) == oracle_check_result(
            netlist, area, result)

class TestRenderSvg:
    def test_empty_instance_draws_outline_only(self):
        buf = io.StringIO()
        render_svg(Netlist([], []), PlacementArea(10, 5), {}, buf)
        svg = buf.getvalue()
        assert svg.startswith("<svg ")
        assert svg.count("<rect ") == 1  # just the area outline
        assert "</svg>" in svg

    def test_overlapping_macros_both_drawn(self):
        nl = Netlist([Macro("a", 2, 2), Macro("b", 2, 2)], [Net(("a", "b"))])
        buf = io.StringIO()
        render_svg(nl, PlacementArea(10, 10), {"a": (5, 5), "b": (5, 5)}, buf)
        svg = buf.getvalue()
        assert svg.count("<rect ") == 3
        assert svg.count("<text ") == 2
        assert svg.count('stroke="#c33"') == 1  # the net line (defs has a line too)

    def test_multi_pin_net_star(self):
        nl = Netlist(
            [Macro("a", 1, 1), Macro("b", 1, 1), Macro("c", 1, 1)],
            [Net(("a", "b", "c"))],
        )
        buf = io.StringIO()
        render_svg(
            nl, PlacementArea(10, 10), {"a": (2, 2), "b": (8, 2), "c": (5, 8)}, buf
        )
        assert buf.getvalue().count('stroke="#c33"') == 3

    def test_blockage_hatched(self):
        buf = io.StringIO()
        render_svg(
            Netlist([], []), PlacementArea(10, 5, (Rect(1, 1, 3, 2),)), {}, buf
        )
        assert 'fill="url(#hatch)"' in buf.getvalue()

    def test_ids_escaped_to_well_formed_xml(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("area 10 10\nmacro a&<b 2 2\nmacro \"c'>\" 2 2\n"
                        "place a&<b 3 3\nplace \"c'>\" 7 7\n")
        out = tmp_path / "out.svg"
        assert main(["render", "--instance", str(inst), "--out", str(out)]) == 0
        doc = xml.dom.minidom.parse(str(out))
        labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert labels == ["a&<b", "\"c'>\""]

    def test_non_printable_id_rejected(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("area 10 10\nmacro a\x01b 2 2\nplace a\x01b 3 3\n")
        out = tmp_path / "out.svg"
        assert main(["render", "--instance", str(inst), "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self):
        nl = Netlist([Macro("a", 2, 2)], [])
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            render_svg(nl, PlacementArea(10, 10), {"a": (5, 5)}, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


@pytest.fixture
def instance_file(tmp_path):
    netlist, area = generate_instance(GenSpec(macros=6, nets=8, seed=2))
    path = str(tmp_path / "inst.txt")
    save_instance(path, netlist, area)
    return path


class TestCli:
    def test_place_check_roundtrip(self, tmp_path, instance_file, capsys):
        res = str(tmp_path / "res.txt")
        stats = str(tmp_path / "stats.csv")
        code = main(
            [
                "place", "--in", instance_file, "--out", res, "--stats", stats,
                "--rounds", "2000", "--seed", "7",
            ]
        )
        assert code == 0
        assert "legal=true" in capsys.readouterr().out
        assert main(["check", "--instance", instance_file, "--result", res]) == 0
        with open(stats) as fp:
            lines = fp.read().splitlines()
        assert lines[0] == "round,netlength_bb,overlap_area,delta,beta,w"
        assert len(lines) == 2002  # header + round 0 + one row per round

    def test_place_without_macros_reports_the_rounds_run(self, tmp_path, capsys):
        # with no macro to move no round runs: the stats file holds row 0
        # only, and the report says 0 rounds
        inst, res, stats = (str(tmp_path / n) for n in ("i.txt", "r.txt", "s.csv"))
        assert main(["gen", "--out", inst, "--macros", "0", "--nets", "0"]) == 0
        assert main(["place", "--in", inst, "--out", res, "--stats", stats,
                     "--rounds", "500"]) == 0
        assert "placed 0 macros in 0 rounds: " in capsys.readouterr().out
        with open(stats) as fp:
            assert len(fp.read().splitlines()) == 2  # header + row 0

    @pytest.mark.parametrize(
        "edit", ["netlength one ulp up", "legal flipped", "overlap_area edited"]
    )
    def test_check_rejects_a_summary_that_disagrees(
        self, tmp_path, instance_file, capsys, edit
    ):
        res = tmp_path / "r.txt"
        assert main(["place", "--in", instance_file, "--out", str(res),
                     "--rounds", "200", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["check", "--instance", instance_file, "--result", str(res)]) == 0
        intact = capsys.readouterr().out.splitlines()
        text = res.read_text()
        if edit == "legal flipped":
            old, new = "summary legal true", "summary legal false"
            want = "summary legal false disagrees with the recomputed true"
        elif edit == "overlap_area edited":
            old, new = "summary overlap_area 0.0", "summary overlap_area 123.0"
            want = "summary overlap_area 123.0 disagrees with the recomputed 0.0"
        else:
            old = next(ln for ln in text.splitlines()
                       if ln.startswith("summary netlength_bb "))
            v = float(old.split()[2])
            new = f"summary netlength_bb {math.nextafter(v, math.inf)!r}"
            want = (f"summary netlength_bb {math.nextafter(v, math.inf)!r} "
                    f"disagrees with the recomputed {v!r}")
        res.write_text(text.replace(old, new))
        code = main(["check", "--instance", instance_file, "--result", str(res)])
        assert code == 1
        # one more line, before the two the checker always ends with
        assert capsys.readouterr().out.splitlines() == [*intact[:-2], want, *intact[-2:]]

    def test_an_overflowed_summary_checks_and_renders(self, tmp_path, capsys):
        # two legal macros whose net's length overflows: place writes
        # summary netlength_bb inf, which check (recomputing inf) and render
        # read back, where both refused the token
        inst, res, svg = tmp_path / "inst.txt", tmp_path / "r.txt", tmp_path / "p.svg"
        inst.write_text("area 1.7e308 1.7e308\nmacro a 1e300 1e300\nmacro b 1e300 1e300\n"
                        "net a b\nplace a 1e300 1e300\nplace b 1.69e308 1.69e308\n")
        assert main(["place", "--in", str(inst), "--out", str(res), "--rounds", "0"]) == 0
        assert "summary netlength_bb inf\n" in res.read_text()
        assert load_result(str(res)).netlength_bb == math.inf
        capsys.readouterr()
        assert main(["check", "--instance", str(inst), "--result", str(res)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "total bounding-box netlength: inf", "legal: true"]
        assert main(["render", "--instance", str(inst), "--result", str(res),
                     "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        capsys.readouterr()

    def test_check_agrees_with_an_overlapping_summary(self, tmp_path, capsys):
        # a raw placement with real overlap: the checker adds the pairs in
        # the summary's order and finds the same bits
        inst, res = tmp_path / "inst.txt", tmp_path / "r.txt"
        netlist, area = generate_instance(GenSpec(macros=30, nets=40, seed=2))
        save_instance(str(inst), netlist, area)
        assert main(["place", "--in", str(inst), "--out", str(res), "--rounds",
                     "20", "--seed", "3", "--skip-legalize"]) == 0
        capsys.readouterr()
        assert load_result(str(res)).overlap_area > 0.0
        assert main(["check", "--instance", str(inst), "--result", str(res)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "legal: false"
        assert sum("overlap" in ln for ln in out) > 1
        assert not any("disagrees" in ln for ln in out)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_output_files_follow_the_umask(self, tmp_path, umask):
        inst, res = tmp_path / "inst.txt", tmp_path / "r.txt"
        stats, svg = tmp_path / "s.csv", tmp_path / "p.svg"
        old = os.umask(umask)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", "--out", str(inst), "--macros", "4",
                             "--nets", "3", "--seed", "1"]) == 0
                assert main(["place", "--in", str(inst), "--out", str(res),
                             "--stats", str(stats), "--rounds", "5"]) == 0
                assert main(["render", "--instance", str(inst), "--result",
                             str(res), "--out", str(svg)]) == 0
        finally:
            os.umask(old)
        for path in (inst, res, stats, svg):
            assert oct(os.stat(path).st_mode & 0o777) == oct(0o666 & ~umask), path

    def test_writes_leave_the_umask_alone(self, tmp_path, monkeypatch):
        # the umask is the process's: set even for a moment, it changes the
        # mode of a file another thread creates meanwhile
        def refuse(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        path = tmp_path / "r.txt"
        old = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", refuse)
            save_result(str(path), {"a": (1.0, 1.0)}, Netlist([Macro("a", 1, 1)], []),
                        PlacementArea(4.0, 4.0), PlacerConfig(max_rounds=1))
        finally:
            monkeypatch.undo()
            os.umask(old)
        assert oct(os.stat(path).st_mode & 0o777) == oct(0o666 & ~0o027)

    def test_stats_file_matches_run_placer_trace(self, tmp_path, instance_file):
        stats = tmp_path / "stats.csv"
        assert main(
            ["place", "--in", instance_file, "--out", str(tmp_path / "res.txt"),
             "--stats", str(stats), "--rounds", "300", "--seed", "5"]
        ) == 0
        netlist, area, initial = load_instance(instance_file)
        _, trace = run_placer(
            netlist, area, PlacerConfig(max_rounds=300, seed=5), initial
        )
        buf = io.StringIO()
        write_stats_csv(buf, trace)
        assert stats.read_bytes() == buf.getvalue().encode()

    def test_unrepresentable_macro_size_rejected(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("area 1e308 1e308\nmacro a 1e-300 1e-300\n"
                        "macro b 2 2\nnet a b\n")
        out = tmp_path / "r.txt"
        code = main(["place", "--in", str(inst), "--out", str(out),
                     "--rounds", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "macro a" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("place", "--in"),
            ("place", "--config"),
            ("check", "--instance"),
            ("check", "--result"),
            ("render", "--instance"),
            ("render", "--result"),
        ],
    )
    def test_unreadable_input_names_its_file(
        self, tmp_path, instance_file, capsys, command, flag
    ):
        # a file that is not UTF-8 text, or one with a malformed line (for
        # --config, text that is not JSON)
        res = str(tmp_path / "r.txt")
        assert main(["place", "--in", instance_file, "--out", res, "--rounds", "20"]) == 0
        bad = tmp_path / "bad.txt"
        malformed = {
            "--config": ("nonsense", "config file {}: Expecting value: line 1 column 1"),
            "--result": ("garbage", "{}: line 1: bad result line 'garbage'"),
        }.get(flag, ("garbage", "{}: line 1: unknown directive 'garbage'"))
        for content, want in (
            (b"\xff", "{} is not utf-8 text: invalid start byte (byte 0xff)"),
            (malformed[0].encode() + b"\n", malformed[1]),
        ):
            bad.write_bytes(content)
            files = {
                "place": {"--in": instance_file, "--out": str(tmp_path / "o.txt")},
                "check": {"--instance": instance_file, "--result": res},
                "render": {"--instance": instance_file, "--result": res,
                           "--out": str(tmp_path / "o.svg")},
            }[command]
            files[flag] = str(bad)
            capsys.readouterr()
            assert main([command, *(v for kv in files.items() for v in kv)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and want.format(repr(str(bad))) in err

    def test_place_missing_input_exits_1(self, tmp_path, capsys):
        code = main(
            ["place", "--in", str(tmp_path / "nope.txt"), "--out",
             str(tmp_path / "r.txt")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_rounds_zero_skip_legalize_echoes_initial(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text(
            "area 8 8\nmacro a 2 2\nmacro b 2 2\n"
            "place a 4 4\nplace b 4 4\n"
        )
        res = str(tmp_path / "res.txt")
        code = main(
            ["place", "--in", str(inst), "--out", res, "--rounds", "0",
             "--skip-legalize", "--seed", "3"]
        )
        assert code == 0
        got = load_result(res)
        assert got.positions == {"a": (4.0, 4.0), "b": (4.0, 4.0)}
        assert not got.legal

    def test_check_flags_overlap(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("area 8 8\nmacro a 2 2\nmacro b 2 2\n")
        netlist, area, _ = load_instance(str(inst))
        res = str(tmp_path / "res.txt")
        save_result(
            res, {"a": (4.0, 4.0), "b": (4.0, 4.0)}, netlist, area,
            PlacerConfig(max_rounds=1),
        )
        code = main(["check", "--instance", str(inst), "--result", res])
        assert code == 1
        assert "a and b overlap" in capsys.readouterr().out

    def test_legalization_failure_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text(
            "area 2 1\nmacro a 1 1\nmacro b 1 1\nmacro c 1 1\n"
            "place a 0.5 0.5\nplace b 0.5 0.5\nplace c 1.5 0.5\n"
        )
        res = str(tmp_path / "res.txt")
        code = main(
            ["place", "--in", str(inst), "--out", res, "--rounds", "0"]
        )
        assert code == 2
        assert "legalization failed" in capsys.readouterr().err
        assert os.path.exists(res)

    def test_default_grid_run_fills_a_gap_off_the_lattice(self, tmp_path, capsys):
        """a spans [0, 10.3] and c [15.6, 64], so b (5 wide) fits only with
        its left edge in [10.3, 10.6].  On the default 2**6 lattice its left
        edges lie 1 apart and miss that gap (a run exited 2 there); a retry
        at 2**7 put b at 13.0.  The nearest free center abuts a: 12.8."""
        inst = tmp_path / "inst.txt"
        inst.write_text(
            "area 64 1\nmacro a 10.3 1\nmacro b 5 1\nmacro c 48.4 1\n"
            "place a 5.15 0.5\nplace b 5 0.5\nplace c 39.8 0.5\n"
        )
        res = str(tmp_path / "res.txt")
        assert main(["place", "--in", str(inst), "--out", res, "--rounds", "0"]) == 0
        assert load_result(res).positions == {
            "a": (5.15, 0.5), "b": (12.8, 0.5), "c": (39.8, 0.5)}
        assert main(["check", "--instance", str(inst), "--result", res]) == 0

    def test_gen_cli_and_render(self, tmp_path, capsys):
        inst = str(tmp_path / "g.txt")
        assert main(
            ["gen", "--out", inst, "--macros", "5", "--nets", "4", "--seed", "2"]
        ) == 0
        netlist, area, _ = load_instance(inst)
        assert len(netlist.macros) == 5
        svg = str(tmp_path / "g.svg")
        res = str(tmp_path / "g_res.txt")
        assert main(
            ["place", "--in", inst, "--out", res, "--rounds", "500", "--seed", "1"]
        ) == 0
        assert main(
            ["render", "--instance", inst, "--result", res, "--out", svg]
        ) == 0
        body = open(svg).read()
        assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("target", ["missing-dir", "is-a-dir"])
    @pytest.mark.parametrize("command", ["place", "stats", "gen", "render"])
    def test_write_failure_exits_1(
        self, tmp_path, instance_file, capsys, monkeypatch, command, target
    ):
        rounds = []
        real_round_step = io_cli.round_step

        def counted(state, config):
            rounds.append(state.round)
            return real_round_step(state, config)

        monkeypatch.setattr(io_cli, "round_step", counted)
        work = tmp_path / "work"
        work.mkdir()
        if target == "is-a-dir":
            path = work / "taken"
            path.mkdir()
        else:
            path = work / "missing" / "file"
        place = ["place", "--in", instance_file, "--rounds", "20", "--out"]
        argv = {
            "place": place + [str(path)],
            "stats": place + [str(work / "r.txt"), "--stats", str(path)],
            "gen": ["gen", "--out", str(path), "--macros", "3", "--nets", "2"],
            "render": ["render", "--instance", instance_file, "--out", str(path)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err
        # place checks both of its targets before the first round
        assert rounds == []
        # no temp file and no partial output is left behind
        left = [p.name for p in work.rglob("*")]
        assert left == (["taken"] if target == "is-a-dir" else [])

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["place", "--in", "inst", "--out", "r", "--stats", "r"],
             "--out and --stats"),
            (["place", "--in", "inst", "--out", "inst"], "--in and --out"),
            # a symlink and a detour through a subdirectory name one file too
            (["place", "--in", "inst", "--out", "r", "--stats", "link"],
             "--in and --stats"),
            (["place", "--in", "inst", "--out", "sub/../r", "--stats", "r"],
             "--out and --stats"),
            (["render", "--instance", "inst", "--result", "r", "--out", "r"],
             "--result and --out"),
            (["render", "--instance", "inst", "--out", "link"],
             "--instance and --out"),
            # neither output may overwrite the config it was run with
            (["place", "--in", "inst", "--config", "r", "--out", "r"],
             "--config and --out"),
            (["place", "--in", "inst", "--config", "r", "--out", "o", "--stats", "r"],
             "--config and --stats"),
        ],
        ids=["place-out-stats", "place-in-out", "place-symlink", "place-dotdot",
             "render-result-out", "render-symlink", "place-config-out",
             "place-config-stats"],
    )
    def test_one_file_for_two_flags_exits_1(
        self, tmp_path, instance_file, capsys, monkeypatch, argv, flags
    ):
        def boom(*args, **kwargs):
            raise AssertionError("the command read its input")

        monkeypatch.setattr(io_cli, "load_instance", boom)
        inst, res = tmp_path / "inst", tmp_path / "r"
        inst.write_bytes(open(instance_file, "rb").read())
        res.write_text("keep\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(inst)
        before = inst.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flags in err and "same file" in err
        assert inst.read_bytes() == before and res.read_text() == "keep\n"

    def test_gen_infeasible_exits_1(self, tmp_path, capsys):
        code = main(
            ["gen", "--out", str(tmp_path / "x.txt"), "--macros", "1",
             "--nets", "2", "--seed", "1"]
        )
        assert code == 1

    def test_gen_above_the_count_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["gen", "--out", str(out), "--macros", "0",
                     "--nets", str(io_cli.MAX_GEN_COUNT + 1)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: nets must be at most {io_cli.MAX_GEN_COUNT}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "weights, needle",
        [
            ("2", "--degree-weights '2': expected degree:weight pairs"),
            ("2:0.5,x:1", "--degree-weights '2:0.5,x:1': expected"),
            ("2:0.5,3:", "--degree-weights '2:0.5,3:': expected"),
            ("2:nan", "finite weights"),
            ("2:0.5,3:inf", "finite weights"),
            ("2:1e308,3:1e308", "add up to inf; their sum must be finite"),
        ],
        ids=["no-colon", "bad-degree", "no-weight", "nan", "inf", "inf-sum"],
    )
    def test_gen_bad_degree_weights_exit_1(self, tmp_path, capsys, weights, needle):
        out = tmp_path / "g.txt"
        code = main(
            ["gen", "--out", str(out), "--macros", "4", "--nets", "3",
             "--degree-weights", weights]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["gen", "--aspect", "1e-300"], "aspect 1e-300"),
            (["gen", "--aspect", "inf"], "aspect must be positive and finite"),
            (["gen", "--size-max", "inf"], "size_max finite"),
            (["gen", "--size-max", "1e308", "--size-min", "1e307"], "size_max 1e+308"),
            (["gen", "--utilization", "1e-320"], "utilization 1e-320"),
            (["place", "--rounds", "5", "--delta-growth", "1e308"], "delta_growth"),
            (["place", "--rounds", "3000", "--w0", "1e300", "--w-growth", "10"],
             "w_growth"),
            (["place", "--penalty-c", "1e308", "--delta0", "1e308"], "penalty_c"),
            # finite schedules whose sum on one field coefficient is not
            (["place", "--rounds", "40", "--seed", "1", "--w0", "1e307",
              "--w-growth", "1.0"], "round 2: a candidate score is not finite"),
            (["place", "--rounds", "1" + "0" * 400], "max_rounds must be in"),
        ],
        ids=["tiny-aspect", "inf-aspect", "inf-size", "huge-sizes", "tiny-util",
             "delta-overflow", "w-overflow", "penalty-overflow", "score-overflow",
             "rounds-overflow"],
    )
    def test_overflowing_input_exits_1(
        self, tmp_path, instance_file, capsys, argv, needle
    ):
        out = tmp_path / "out.txt"
        if argv[0] == "gen":
            argv = [*argv, "--out", str(out), "--macros", "3", "--nets", "2"]
        else:
            argv = [*argv, "--in", instance_file, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()

    def test_check_rejects_bad_summary_legal(self, tmp_path, instance_file, capsys):
        res = tmp_path / "r.txt"
        assert main(["place", "--in", instance_file, "--out", str(res),
                     "--rounds", "10"]) in (0, 2)
        lines = [
            "summary legal maybe" if line.startswith("summary legal ") else line
            for line in res.read_text().splitlines()
        ]
        res.write_text("\n".join(lines) + "\n")
        code = main(["check", "--instance", instance_file, "--result", str(res)])
        assert code == 1
        assert "bad summary line 'summary legal maybe'" in capsys.readouterr().err

    def test_config_file_flags_precedence(self, tmp_path, instance_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"max_rounds": 50, "seed": 5, "w0": 0.02}))
        res1 = str(tmp_path / "r1.txt")
        code = main(
            ["place", "--in", instance_file, "--out", res1,
             "--config", str(cfgfile), "--seed", "9"]
        )
        assert code in (0, 2)
        got = load_result(res1)
        assert got.config["max_rounds"] == "50"  # from file
        assert got.config["seed"] == "9"  # flag wins over file
        assert got.config["w0"] == "0.02"

    def test_bad_config_key_rejected(self, tmp_path, instance_file, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"not_a_field": 1}))
        code = main(
            ["place", "--in", instance_file, "--out", str(tmp_path / "r.txt"),
             "--config", str(cfgfile)]
        )
        assert code == 1
        want = f"config file {str(cfgfile)!r}: unknown config key 'not_a_field'"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"grid_p": 5.0}', "grid_p"),
            ('{"seed": true}', "seed"),
            ('{"penalty_c": NaN}', "penalty_c"),
            ('{"blockage_weight": Infinity}', "blockage_weight"),
        ],
    )
    def test_bad_config_value_rejected(
        self, tmp_path, instance_file, capsys, text, field
    ):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        out = tmp_path / "r.txt"
        code = main(
            ["place", "--in", instance_file, "--out", str(out),
             "--config", str(cfgfile)]
        )
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"grid_p": 5.0}', "grid_p must be an integer, got 5.0"),
            ('{"grid_p": 12}', "grid_p must be in [0, 11]"),
            ('{"w_growth": 10.0}', "w0 * w_growth**(max_rounds - 1) must be finite"),
        ],
    )
    def test_bad_config_file_value_names_the_file(
        self, tmp_path, instance_file, capsys, text, message
    ):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(text)
        place = ["place", "--in", instance_file, "--out", str(tmp_path / "r.txt")]
        assert main([*place, "--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == (
            f"error: config file {str(cfgfile)!r}: {message}\n")
        # a flag that makes the file's value valid runs
        assert main([*place, "--config", str(cfgfile), "--grid-p", "5",
                     "--rounds", "5"]) in (0, 2)

    def test_bad_config_flag_value_keeps_its_message(
        self, tmp_path, instance_file, capsys
    ):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"seed": 3}')
        place = ["place", "--in", instance_file, "--out", str(tmp_path / "r.txt"),
                 "--grid-p", "12"]
        for extra in ([], ["--config", str(cfgfile)]):
            assert main([*place, *extra]) == 1
            assert capsys.readouterr().err == "error: grid_p must be in [0, 11]\n"

    @pytest.mark.parametrize("count", ["65537", "1000000000000000",
                                       "100000000000000000000"])
    def test_huge_candidate_count_refused(
        self, tmp_path, instance_file, monkeypatch, capsys, count
    ):
        # before the run: a round's list of 1 + count candidates would not
        # fit an index or the memory
        def run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(io_cli, "new_state", run)
        res = tmp_path / "r.txt"
        assert main(["place", "--in", instance_file, "--out", str(res),
                     "--candidates", count]) == 1
        refusal = "candidates_per_round must be in [0, 65536]"
        assert capsys.readouterr().err == f"error: {refusal}\n"
        # check refuses the value on its config line
        netlist, area, _ = load_instance(instance_file)
        placement = {m.id: (area.width / 2, area.height / 2) for m in netlist.macros}
        save_result(str(res), placement, netlist, area, PlacerConfig(max_rounds=5))
        lines = res.read_text().splitlines()
        ln = lines.index("config candidates_per_round 8") + 1
        lines[ln - 1] = f"config candidates_per_round {count}"
        res.write_text("\n".join(lines) + "\n")
        assert main(["check", "--instance", instance_file, "--result", str(res)]) == 1
        assert capsys.readouterr().err == f"error: {str(res)!r}: line {ln}: {refusal}\n"

    def test_out_dir_env_var(self, tmp_path, instance_file, monkeypatch):
        outdir = tmp_path / "outputs"
        outdir.mkdir()
        monkeypatch.setenv("STEPPLACE_OUT_DIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        code = main(
            ["place", "--in", instance_file, "--out", "rel.txt",
             "--rounds", "10", "--seed", "1"]
        )
        assert code in (0, 2)
        assert (outdir / "rel.txt").exists()

    def test_module_entrypoint_smoke(self, tmp_path, instance_file):
        res = str(tmp_path / "res.txt")
        # the child imports the package this process imports
        src = os.path.dirname(os.path.dirname(stepplace.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "stepplace", "place", "--in", instance_file,
             "--out", res, "--rounds", "200", "--seed", "4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(res)
        # a refused input exits 1 with an error line (after the fallback's
        # warning, where the C core is blocked), never a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "stepplace", "place", "--in", instance_file,
             "--out", res, "--rounds", "5", "--candidates", "100000000000000000000"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            "error: candidates_per_round must be in [0, 65536]")

    def test_place_loads_no_unused_module(self, tmp_path, interpreters):
        """A fresh ``place`` of a 5-macro instance leaves numpy (both field
        cores are numpy-free), argparse, gettext, locale and html unloaded,
        on every interpreter found.  A build of the C core imports
        ``subprocess`` and so ``locale``: a first process builds it where the
        cache lacks this interpreter's build, and where the core does not
        load (its cache blocked) ``locale`` is let be."""
        netlist, area = generate_instance(GenSpec(macros=5, nets=6, seed=3))
        inst = str(tmp_path / "inst.txt")
        save_instance(inst, netlist, area)
        argv = ["place", "--in", inst, "--out", str(tmp_path / "r.txt"),
                "--stats", str(tmp_path / "s.csv"), "--rounds", "200", "--seed", "4"]
        code = (
            "import sys\n"
            "import stepplace.io_cli\n"
            f"code = stepplace.io_cli.main({argv!r})\n"
            "budget = ['numpy', 'argparse', 'gettext', 'html']\n"
            "budget += ['locale'] * stepplace.stepfield.HAVE_C_CORE\n"
            "print(code, *(m for m in budget if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(stepplace.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for python in interpreters:
            subprocess.run([python, "-c", "import stepplace.stepfield"], env=env,
                           capture_output=True, check=True)
            proc = subprocess.run([python, "-c", code], capture_output=True,
                                  text=True, env=env, check=True)
            assert proc.stdout.splitlines()[-1] == "0", (python, proc.stdout)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["place", "--in", "x", "--out", "y", "--rounds", "abc"],
             "argument --rounds: invalid int value: 'abc'"),
            (["place", "--out", "y"], "place: missing required --in"),
            (["plac"], "unknown command 'plac': choose from place, check, gen, render"),
            ([], "missing command: choose from place, check, gen, render"),
            (["place", "--in", "x", "--out", "y", "--rou", "5"],
             "place: unrecognized argument '--rou'"),
            (["place", "--in", "x", "--out"], "argument --out: expected one argument"),
            (["place", "--in", "x", "--out", "y", "--rounds", "1e3"],
             "argument --rounds: invalid int value: '1e3'"),
            (["place", "--in", "-h", "--out", "y"],
             "argument --in: expected one argument"),
            (["place", "--in", "x", "--skip-legalize=yes", "--out", "y"],
             "argument --skip-legalize: takes no value"),
            (["gen", "--out", "g.txt"], "gen: missing required --macros, --nets"),
        ],
        ids=["bad-int", "missing-flag", "unknown-command", "no-command",
             "abbreviation", "no-value-at-end", "float-for-int", "help-as-value",
             "value-for-switch", "two-missing"],
    )
    def test_usage_error_exits_1_with_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_help_prints_usage_and_exits_0(self, capsys, monkeypatch):
        for command, (_, summary, flags) in io_cli.COMMANDS.items():
            # -h anywhere a flag may stand, after errors the flags would raise
            first = next(iter(flags))
            assert main([command, f"{first}=o", "-h", "--bogus", "--rounds"]) == 0
            out, err = capsys.readouterr()
            lines = out.splitlines()
            assert err == ""
            assert lines[0] == f"usage: stepplace {command} [FLAGS], to {summary}"
            assert [line.split()[0] for line in lines[1:]] == list(flags)
        monkeypatch.setattr(sys, "argv", ["stepplace", "--help"])
        assert main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:]] == list(io_cli.COMMANDS)

    def test_values_may_start_with_a_dash(self, tmp_path, capsys, monkeypatch):
        # only -h, --help and the command's own flags count as a missing value
        args = io_cli.parse_args(["place", "--in", "-", "--out", "--result",
                                  "--w0", "-1", "--rho", "-inf", "--stats=--in"])
        assert (args.infile, args.out, args.stats) == ("-", "--result", "--in")
        assert (args.w0, args.inflation_rho) == (-1.0, -math.inf)
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--instance", "--out", "--result", "-r"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith("No such file or directory: '--out'\n")

    def test_determinism_of_result_and_stats_bytes(self, tmp_path, instance_file):
        blobs = []
        for tag in ("x", "y"):
            res = str(tmp_path / f"{tag}.txt")
            stats = str(tmp_path / f"{tag}.csv")
            assert main(
                ["place", "--in", instance_file, "--out", res, "--stats", stats,
                 "--rounds", "800", "--seed", "42"]
            ) in (0, 2)
            blobs.append(
                (open(res, "rb").read(), open(stats, "rb").read())
            )
        assert blobs[0] == blobs[1]

    def test_huge_increments_with_fast_decay_run_alike_on_both_cores(
        self, tmp_path, on_core, capsys
    ):
        # 1e300 over a scale halved each round: the field folds its scale in
        # before the stored coefficients overflow (this exited 1 with "a
        # candidate score is not finite" in round 29), with the same bytes
        # on both cores, the py run all Python, as a run without a C compiler
        inst = str(tmp_path / "inst.txt")
        assert main(["gen", "--out", inst, "--macros", "150", "--nets", "220",
                     "--seed", "3"]) == 0
        blobs = []
        for backend in ("c", "py"):
            if backend == "c" and not stepfield.HAVE_C_CORE:
                continue
            on_core(backend)
            res, stats = str(tmp_path / f"{backend}.txt"), str(tmp_path / f"{backend}.csv")
            assert main(["place", "--in", inst, "--out", res, "--stats", stats,
                         "--w0", "1e300", "--rho", "0.5", "--rounds", "300"]) == 0
            blobs.append((open(res, "rb").read(), open(stats, "rb").read()))
        assert all(b == blobs[0] for b in blobs)
        capsys.readouterr()

    def test_huge_constant_with_fast_decay_runs_alike_on_both_cores(
        self, tmp_path, on_core, capsys
    ):
        # 1e305 per round, inflated by 0.1: the field folds its scale in
        # before the stored constant overflows (this exited 1 with "round
        # 96: a candidate score is not finite"), with the same bytes on
        # both cores
        inst = str(tmp_path / "inst.txt")
        assert main(["gen", "--out", inst, "--macros", "150", "--nets", "220",
                     "--seed", "1"]) == 0
        blobs = []
        for backend in ("c", "py"):
            if backend == "c" and not stepfield.HAVE_C_CORE:
                continue
            on_core(backend)
            res, stats = str(tmp_path / f"{backend}.txt"), str(tmp_path / f"{backend}.csv")
            assert main(["place", "--in", inst, "--out", res, "--stats", stats,
                         "--w0", "1e305", "--w-growth", "1", "--rho", "0.1",
                         "--rounds", "300"]) == 0
            blobs.append((open(res, "rb").read(), open(stats, "rb").read()))
        assert all(b == blobs[0] for b in blobs)
        capsys.readouterr()

    def test_python_core_run_reaches_no_c_object(self, tmp_path, on_core, capsys):
        # under on_core("py") a whole place run, with a keep-out the
        # legalizer searches around, calls no function or method of the C
        # core; on the C core the same watch sees its calls
        inst = tmp_path / "inst.txt"
        inst.write_text("area 12 12\nblockage 4 4 8 8\n"
                        + "".join(f"macro m{k} 2 2\nplace m{k} 6 6\n" for k in range(6))
                        + "net m0 m1 m2\nnet m3 m4\n")
        argv = ["place", "--in", str(inst), "--out", str(tmp_path / "res.txt"),
                "--stats", str(tmp_path / "stats.csv"), "--rounds", "3", "--seed", "1"]

        def watched(backend):
            calls, python = [], set()

            def profile(frame, event, arg):
                if event == "c_call" and "stepplace._fieldcore" in (
                        getattr(arg, "__module__", None),
                        type(getattr(arg, "__self__", None)).__module__):
                    calls.append(arg.__name__)
                elif event == "call":
                    python.add(frame.f_code.co_name)

            on_core(backend)
            sys.setprofile(profile)
            try:
                assert main(argv) == 0
            finally:
                sys.setprofile(None)
            return calls, python

        calls, python = watched("py")
        assert calls == []
        assert {"_free_candidate", "score", "repr_line"} <= python
        if stepfield.HAVE_C_CORE:
            calls, _ = watched("c")
            assert {"step", "legalize", "repr_line"} <= set(calls)
        capsys.readouterr()

    def test_c_core_run_builds_no_bucket_grid(self, tmp_path, on_core, monkeypatch,
                                              capsys):
        # legality and the summary read a placement store of the core: on the
        # C core a whole place run constructs no BucketGrid; on the Python
        # core the state's store, the legalizer's placed footprints and its
        # legality guard's store, which the summary reuses, each construct one
        inst = tmp_path / "inst.txt"
        inst.write_text("area 12 12\nblockage 4 4 8 8\n"
                        + "".join(f"macro m{k} 2 2\nplace m{k} 6 6\n" for k in range(6))
                        + "net m0 m1 m2\nnet m3 m4\n")
        built = []
        init = netmodel.BucketGrid.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(netmodel.BucketGrid, "__init__", counted)
        for core in CORES:
            on_core(core)
            built.clear()
            assert main(["place", "--in", str(inst), "--out", str(tmp_path / "res.txt"),
                         "--rounds", "3", "--seed", "1"]) == 0
            assert len(built) == (0 if core == "c" else 3)
        capsys.readouterr()

    def test_place_checks_each_macro_once_and_builds_two_stores(
            self, tmp_path, on_core, monkeypatch, capsys):
        """One ``place`` with ``--stats`` on a generated 60/90 instance checks
        each macro once (the parser's bounds pass, which ``new_state`` and
        ``naive_legalize`` reuse) and builds at most two placement stores,
        the state's and the legality guard's, which the summary reuses, on
        both cores.  Its files hold the bytes of a run whose helpers build
        everything anew for each caller, as before the netlist kept them:
        ``oracle_bounds``, ``oracle_placement_store`` and a plain dict from
        the legalizer, so that the summary builds its own store."""
        netlist, area = generate_instance(GenSpec(macros=60, nets=90, seed=5))
        inst, res, stats = (str(tmp_path / name) for name in ("i.txt", "r.txt", "s.csv"))
        save_instance(inst, netlist, area)

        def run(*patches):
            with monkeypatch.context() as patch:
                for owner, attr, value in patches:
                    patch.setattr(owner, attr, value)
                assert main(["place", "--in", inst, "--out", res, "--stats", stats,
                             "--rounds", "300", "--seed", "2"]) == 0
            with open(res, "rb") as r, open(stats, "rb") as s:
                return r.read(), s.read()

        def counted(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)
            return wrapped

        for core in CORES:
            on_core(core)
            counts = {"checks": 0, "stores": 0}
            store = stepfield.core.PlacementStore
            got = run((netmodel, "check_placeable", counted("checks", netmodel.check_placeable)),
                      (stepfield.core, "PlacementStore", counted("stores", store)))
            assert counts["checks"] == len(netlist.macros) and counts["stores"] <= 2
            assert got == run((netmodel.Netlist, "bounds", oracles.oracle_bounds),
                              (netmodel, "placement_store", oracles.oracle_placement_store),
                              (placer, "placement_store", oracles.oracle_placement_store),
                              (placer, "KeptPlacement", dict))
        capsys.readouterr()


# flag values: extreme, infinite and tiny floats, and anything else
FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e300, 1e308, math.inf, -math.inf,
         math.nan]
    ),
    st.floats(),
).map(repr)
GEN_FLAGS = {
    "--size-min": FLOATS,
    "--size-max": FLOATS,
    "--utilization": FLOATS,
    "--aspect": FLOATS,
    "--degree-cap": st.integers(-1, 10).map(str),
    "--degree-weights": st.sampled_from(["2:1", "3:1e308,4:1e308", "2:0", "2"]),
    "--seed": st.integers(0, 99).map(str),
}
PLACE_FLAGS = {
    "--candidates": st.integers(-1, 8).map(str),
    "--grid-p": st.sampled_from(["-1", "0", "1", "3", "6", "12"]),
    "--grid-q": st.sampled_from(["-1", "0", "1", "3", "6", "12"]),
    "--penalty-c": FLOATS,
    "--delta0": FLOATS,
    "--delta-growth": FLOATS,
    "--w0": FLOATS,
    "--w-growth": FLOATS,
    "--rho": FLOATS,
    "--blockage-weight": FLOATS,
    "--seed": st.integers(-5, 99).map(str),
    "--model-switch-round": st.integers(-1, 25).map(str),
}


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    """A scratch directory holding a 5-macro instance."""
    work = tmp_path_factory.mktemp("cli")
    netlist, area = generate_instance(GenSpec(macros=5, nets=6, seed=3))
    save_instance(str(work / "inst.txt"), netlist, area)
    return work


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_cli_never_raises(cli_workdir, data):
    """``gen`` and ``place`` with random flags exit 0, 1 or 2 and raise
    nothing; exit 1 comes with exactly one ``error:`` line."""
    draw = data.draw

    def some(flags):
        # each flag given or not; --flag=value, so "-inf" stays a value
        return [f"{f}={draw(v, label=f)}" for f, v in flags.items()
                if draw(st.booleans())]

    def malformed():
        # now and then a flag the command line refuses
        return draw(st.lists(st.sampled_from(MALFORMED), max_size=1), label="malformed")

    gen = ["gen", "--out", str(cli_workdir / "g.txt"),
           f"--macros={draw(st.integers(-1, 8), label='--macros')}",
           f"--nets={draw(st.integers(-1, 12), label='--nets')}", *some(GEN_FLAGS),
           *malformed()]
    place = ["place", "--in", str(cli_workdir / "inst.txt"),
             "--out", str(cli_workdir / "r.txt"),
             "--stats", str(cli_workdir / "s.csv"),
             f"--rounds={draw(st.integers(-1, 20), label='--rounds')}",
             *some(PLACE_FLAGS), *malformed()]
    if draw(st.booleans()):
        place.append("--skip-legalize")
    for argv in (gen, place):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("legalization failed: ")


# tokens that make a command line a usage error
MALFORMED = ["--seed", "--rounds=1e3", "--grid-p=", "--bogus", "--rou=5", "stray",
             "--", "--skip-legalize=1", "-x"]
# values a flag may get: mostly one its type reads, now and then any of
# them, or one that starts with "-" (among them help flags and other flags)
GOOD = {int: ["0", "7", " 3", "1_0"], float: ["1.5", "nan", "1e3", "0"],
        str: ["x.txt", "a=b", "", "s p"]}
ODD = ["abc", "1.5", "-1", "-inf", "-h", "--help", "--out", "--result=r", "--", "-x"]


@st.composite
def command_lines(draw):
    """A ``stepplace`` argv drawn from the commands' flags, each given as
    ``--flag=value``, ``--flag value`` or bare, among help flags, unknown and
    abbreviated flags, stray tokens and a bare ``--``."""
    command = draw(st.sampled_from([*io_cli.COMMANDS] * 3 + ["plac", "-h", ""]))
    flags = io_cli.COMMANDS.get(command, io_cli.COMMANDS["place"])[2]
    picks = [f for f, (_, _, d, _) in flags.items()
             if d is ... and draw(st.integers(0, 7), label=f)]
    picks += draw(st.lists(st.sampled_from(list(flags)), max_size=4))
    picks += draw(st.lists(st.sampled_from(
        ["-h", "--help", "--", "--bogus", "stray", "abbreviation"]), max_size=1))
    argv = [command] if command else []
    for tok in draw(st.permutations(picks)):
        if tok == "abbreviation":
            flag = draw(st.sampled_from(list(flags)))
            tok = flag[:draw(st.integers(3, len(flag) - 1))]
        conv = flags[tok][1] if tok in flags else str
        form = draw(st.sampled_from(["=", "next"] * 6 + ["bare"]))
        if conv is None and draw(st.integers(0, 4)):
            form = "bare"  # a switch mostly without a value
        value = draw(st.sampled_from(GOOD.get(conv, ["x"]) * 8 + ODD))
        if tok in ("-h", "--help", "--", "stray") or form == "bare":
            argv.append(tok)
        else:
            argv += [f"{tok}={value}"] if form == "=" else [tok, value]
    return argv


def argparse_reading(argv):
    """How the argparse reference reads ``argv``: ``(0, vars)`` where it
    accepts it, ``(0, None)`` where it prints help, ``(2, None)`` where it
    refuses it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, vars(build_parser().parse_args(argv))
        except SystemExit as e:
            return e.code, None


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_property_command_line_reads_as_argparse_did(argv):
    """``io_cli.parse_args`` against the argparse parser it replaced
    (``oracles.build_parser``).  Where the reference accepts an argv, the
    table reads the same attributes, handler included; where it refuses
    one, ``main`` prints one ``error:`` line and returns 1; a ``-h`` that
    the table reads as help the reference reads as help.

    The deliberate differences, which these rules leave out:

    * a flag is named in full: the reference took an unambiguous prefix
      (``--rou`` for ``--rounds``), the table refuses it, and an ambiguous
      one (``--s``) after a ``-h`` no longer stops the help;
    * a value given as the next token may start with ``-`` unless it is
      ``-h``, ``--help`` or one of the command's flags: the reference
      refused ``--w0 -inf`` and ``--in --bogus`` for a missing value;
    * a bare ``--`` is a stray token, not the end of the flags, and
      ``--out=--`` gives the value ``--``, where the reference gave ``[]``;
    * the first usage error left to right stops the reading, so an unknown
      flag or a stray token before a ``-h`` is refused, where the reference
      printed help (it refused them only after reading every flag).
    """
    flags = io_cli.COMMANDS.get(argv[0] if argv else "", (0, 0, {}))[2]
    # odd: a token that may be an abbreviated flag (a bare "--" is a prefix
    # of every flag) or gives the value "--"; dashed: a value after its
    # flag that starts with "-" and names no flag
    def abbreviated(tok):
        name = tok.partition("=")[0]
        return any(f != name and f.startswith(name) for f in [*flags, "--help"])

    odd = any(t.startswith("--") and abbreviated(t) or t.endswith("=--") for t in argv)
    dashed = any(
        a in flags and flags[a][1] is not None and b.startswith("-")
        and b not in ("-h", "--help") and b.partition("=")[0] not in flags
        for a, b in zip(argv, argv[1:]))
    code, want = argparse_reading(argv)
    try:
        args = io_cli.parse_args(argv)
    except ValueError as e:
        args = None
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 1
        assert err.getvalue() == f"error: {e}\n" and "\n" not in str(e)
    if want is not None and not (odd or dashed):
        # by repr, so a NaN equals a NaN
        assert args is not None, argv
        assert {k: repr(v) for k, v in vars(args).items()} == {
            k: repr(v) for k, v in want.items()}, argv
    if code == 2 and not (odd or dashed):
        assert args is None, argv
    if code == 0 and want is None:  # the reference printed help
        assert args is None or args.func is io_cli._cmd_help, argv
    if args is not None and args.func is io_cli._cmd_help and not (odd or dashed):
        assert (code, want) == (0, None), argv
        assert args.command == (argv[0] if argv[0] in io_cli.COMMANDS else None)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_place_on_random_instances(cli_workdir, data):
    """``place`` on a random generated instance with keep-outs exits 0, 1 or
    2; exit 1 prints one ``error:`` line, exit 2 a failed legalization naming
    a macro, and ``check`` agrees with the result's ``summary legal``."""
    draw = data.draw
    macros = draw(st.integers(1, 25), label="macros")
    spec = GenSpec(macros=macros, nets=draw(st.integers(0, 2 * (macros - 1))),
                   utilization=draw(st.floats(0.1, 0.8)),
                   seed=draw(st.integers(0, 99)))
    try:
        netlist, area = generate_instance(spec)
    except ValueError:  # a macro larger than the area the spec implies
        reject()
    w, h = area.width, area.height
    keepouts = []
    for _ in range(draw(st.integers(0, 2), label="keep-outs")):
        x1, x2 = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2,
                                      unique=True)))
        y1, y2 = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2,
                                      unique=True)))
        keepouts.append(Rect(x1 * w, y1 * h, x2 * w, y2 * h))
    inst, res = str(cli_workdir / "rand.txt"), str(cli_workdir / "rand-r.txt")
    save_instance(inst, netlist, PlacementArea(w, h, tuple(keepouts)))
    if os.path.exists(res):
        os.unlink(res)
    argv = ["place", "--in", inst, "--out", res,
            f"--rounds={draw(st.integers(0, 60), label='rounds')}",
            f"--grid-p={draw(st.integers(0, 6), label='grid-p')}",
            f"--grid-q={draw(st.integers(0, 6), label='grid-q')}",
            f"--seed={draw(st.integers(0, 99), label='seed')}"]
    if draw(st.booleans(), label="skip-legalize"):
        argv.append("--skip-legalize")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        return
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("legalization failed: ")
        assert any(m.id in lines[0] for m in netlist.macros), lines
    with open(res) as fp:
        summary = [ln for ln in fp if ln.startswith("summary legal ")]
    assert len(summary) == 1
    with contextlib.redirect_stdout(io.StringIO()):
        checked = main(["check", "--instance", inst, "--result", res])
    assert (checked == 0) == (summary[0].split()[2] == "true"), argv


# instance tokens: directives, ids of FULL, numbers at the edges, and any text
TOKENS = st.one_of(
    st.sampled_from(
        ["area", "blockage", "macro", "net", "place", "a", "b", "c", "d", "#",
         "0", "-1", "0.5", "1", "2", "3", "10.5", "1e308", "1e-320", "5e-324",
         "nan", "inf", "-inf"]
    ),
    st.text(min_size=1, max_size=6),
)


def library_refuses(text):
    """Whether the library refuses the values of an instance text: built
    through :class:`PlacementArea`, :class:`Macro`, :class:`Netlist` and
    :func:`check_placeable`, a ``ValueError`` escapes.  None where the text
    breaks the grammar: a line of the wrong shape, a number that is not
    finite, no area line or two, a second ``place`` for a macro or one for
    an unknown macro."""
    areas, blockages, macros, nets, places = [], [], [], [], {}
    shapes = {"area": 2, "blockage": 4, "macro": 3, "place": 3}
    for raw in io.StringIO(text):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind, args = toks[0], toks[1:]
        if kind == "net":
            if len(args) < 2:
                return None
            nets.append(tuple(args))
            continue
        if shapes.get(kind) != len(args):
            return None
        nums = args[1:] if kind in ("macro", "place") else args
        try:
            vals = [float(a) for a in nums]
        except ValueError:
            return None
        if not all(map(math.isfinite, vals)):
            return None
        if kind == "area":
            areas.append(vals)
        elif kind == "blockage":
            blockages.append(vals)
        elif kind == "macro":
            macros.append((args[0], *vals))
        elif args[0] in places:
            return None
        else:
            places[args[0]] = vals
    if len(areas) != 1 or not places.keys() <= {m[0] for m in macros}:
        return None
    try:
        area = PlacementArea(*areas[0], tuple(Rect(*b) for b in blockages))
        built = [Macro(*m) for m in macros]
        Netlist(built, [Net(n) for n in nets])
        for m in built:
            check_placeable(m, area)
    except ValueError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_instance_text_parses_or_names_the_error(data):
    """Mutated lines of a valid instance and random token lines either raise
    :class:`InstanceFormatError` or parse to an instance that writes back to
    itself and that the placer accepts; no other exception escapes.  A text
    of the grammar's shape is refused exactly where the library refuses its
    values (:func:`library_refuses`)."""
    draw = data.draw
    lines = FULL.splitlines()
    for _ in range(draw(st.integers(1, 3), label="edits")):
        i = draw(st.integers(0, len(lines)), label="line")
        edit = draw(st.sampled_from(["token", "drop", "copy", "insert", "widen"]))
        if edit == "widen":
            # ulps of 0.25, 0.5 and 2: the 1 x 1 macro passes, is at, or
            # is below the placeability rule's bound
            wide = draw(st.sampled_from(["2e15", "4e15", "1e16"]), label="width")
            lines = [f"area {wide} 8.25" if ln.startswith("area ") else ln
                     for ln in lines]
        elif edit == "insert" or i == len(lines):
            head = draw(st.sampled_from(["area", "blockage", "macro", "net", "place"]))
            lines.insert(i, " ".join([head, *draw(st.lists(TOKENS, max_size=4))]))
        elif edit == "token":
            toks = lines[i].split()
            k = draw(st.integers(0, len(toks)), label="token")
            toks[k:k + draw(st.integers(0, 1))] = [draw(TOKENS)]
            lines[i] = " ".join(toks)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    text = "\n".join(lines) + "\n"
    refused = library_refuses(text)
    try:
        netlist, area, initial = parse_instance(io.StringIO(text))
    except InstanceFormatError as e:
        assert refused is not False, text
        # every refusal names a line of the text, but for a missing area (a
        # drawn token may hold a newline, so count the text's own lines)
        named = re.match(r"line (\d+): ", str(e))
        assert str(e) == "missing area line" or (
            named and 1 <= int(named[1]) <= text.count("\n")), (str(e), text)
        return
    assert refused is False, text
    buf = io.StringIO()
    write_instance(buf, netlist, area, initial)
    again = parse_instance(io.StringIO(buf.getvalue()))
    assert (again[0].macros, again[0].nets, again[1], again[2]) == (
        netlist.macros, netlist.nets, area, initial), text
    new_state(netlist, area, PlacerConfig(max_rounds=0), initial)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_rendered_svg_is_well_formed(data):
    """``render_svg`` on a random generated instance, with random printable
    macro ids, keep-outs and a partial placement, writes XML that
    ``xml.dom.minidom`` parses, with one label per placed macro."""
    draw = data.draw
    macros = draw(st.integers(1, 20), label="macros")
    spec = GenSpec(macros=macros, nets=draw(st.integers(0, 2 * (macros - 1))),
                   utilization=draw(st.floats(0.1, 0.8)),
                   seed=draw(st.integers(0, 99)))
    try:
        netlist, area = generate_instance(spec)
    except ValueError:  # a macro larger than the area the spec implies
        reject()
    # printable without whitespace, as Macro requires; the index, two digits
    # wide, keeps ids unique ("1" + "1" and "" + "11" would collide)
    chars = st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Z"))
    rename = {m.id: draw(st.text(chars, max_size=3), label="id") + f"{i:02d}"
              for i, m in enumerate(netlist.macros)}
    netlist = Netlist(
        [Macro(rename[m.id], m.size_x, m.size_y) for m in netlist.macros],
        [Net(tuple(rename[x] for x in n.members)) for n in netlist.nets],
    )
    w, h = area.width, area.height
    keepouts = []
    for _ in range(draw(st.integers(0, 3), label="keep-outs")):
        x1, x2 = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2,
                                      unique=True)))
        y1, y2 = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2,
                                      unique=True)))
        keepouts.append(Rect(x1 * w, y1 * h, x2 * w, y2 * h))
    placed = [m.id for m in netlist.macros if draw(st.booleans())]
    placement = {mid: (draw(st.floats(0, w)), draw(st.floats(0, h)))
                 for mid in placed}
    buf = io.StringIO()
    render_svg(netlist, PlacementArea(w, h, tuple(keepouts)), placement, buf)
    doc = xml.dom.minidom.parseString(buf.getvalue())
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert labels == placed
