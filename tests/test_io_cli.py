import io
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import pytest

from stepplace.io_cli import (
    GenSpec,
    InstanceFormatError,
    check_result,
    generate_instance,
    load_instance,
    load_result,
    main,
    parse_instance,
    render_svg,
    save_instance,
    save_result,
    write_stats_csv,
)
from stepplace.netmodel import Macro, Net, Netlist, PlacementArea, Rect, is_legal
from stepplace.placer import PlacerConfig, RoundStats

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
            ("area 4 4\nmacro a 1 1\nnet a ghost\n", "unknown macro 'ghost'"),
            ("area 4 4\nmacro a 1 1\nmacro a 2 2\n", "duplicate macro id"),
            ("area 4 4\nwat 1 2\n", "unknown directive"),
            ("area 4 4\nblockage 0 0 9 1\n", "outside the placement area"),
            ("area 4 4\nmacro a 1 1\nplace a 1 1\nplace a 2 2\n", "duplicate place"),
            ("area 4 4\nplace ghost 1 1\n", "unknown macro 'ghost'"),
            ("area 4 4\nmacro a 0 1\n", "sizes must be positive"),
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
        with pytest.raises(ValueError, match="degree cap"):
            generate_instance(GenSpec(macros=1, nets=1, seed=1))


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

    def test_gen_infeasible_exits_1(self, tmp_path, capsys):
        code = main(
            ["gen", "--out", str(tmp_path / "x.txt"), "--macros", "1",
             "--nets", "2", "--seed", "1"]
        )
        assert code == 1

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
        assert "unknown config key" in capsys.readouterr().err

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
        proc = subprocess.run(
            [sys.executable, "-m", "stepplace", "place", "--in", instance_file,
             "--out", res, "--rounds", "200", "--seed", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(res)

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
