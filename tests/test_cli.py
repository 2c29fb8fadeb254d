"""Command-line surface: outputs, exit-code contract, round-trips."""
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pillarcost.cli
from pillarcost.analysis import fmt2
from pillarcost.arch import ArchConfig, Variant, build_pointpillars
from pillarcost.cli import build_parser, run
from pillarcost.cost import graph_cost
from test_properties import _loader_texts, config_texts


ROOT = Path(__file__).resolve().parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_path():
    from pillarcost.analysis import default_dataset_path
    return str(default_dataset_path())


def timing_path(name):
    from pillarcost.analysis import default_dataset_path
    return str(default_dataset_path().parent / name)


class TestList:
    def test_eleven_names_stable_order(self, capsys):
        code, out, err = invoke(capsys, "list")
        assert code == 0 and err == ""
        first = out.splitlines()
        code, out, _ = invoke(capsys, "list")
        assert out.splitlines() == first
        assert len(first) == 11
        assert first[0] == "base"


class TestCost:
    def test_table_ends_with_totals(self, capsys):
        code, out, _ = invoke(capsys, "cost", "base")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2].startswith("TOTAL ") and lines[-2].endswith(" GMAdd")
        assert lines[-1].startswith("TOTAL ") and lines[-1].endswith(" params")

    def test_matches_library_totals(self, capsys):
        report = graph_cost(build_pointpillars(Variant.XCEPTION))
        code, out, _ = invoke(capsys, "cost", "Xception", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[-1] == ["TOTAL", "", str(report.total_madds),
                            str(report.total_params)]

    def test_csv_honours_fold_batchnorm(self, capsys):
        code, counted, _ = invoke(capsys, "cost", "base", "--format", "csv")
        assert code == 0
        code, folded, _ = invoke(capsys, "cost", "base", "--format", "csv",
                                 "--fold-batchnorm")
        assert code == 0
        report = graph_cost(build_pointpillars(Variant.BASE), count_batchnorm=False)
        assert folded == report.to_csv()
        bn_rows = [r for r in csv.reader(io.StringIO(folded)) if r[1] == "batch_norm"]
        assert bn_rows and all(r[2:] == ["0", "0"] for r in bn_rows)
        assert folded != counted

    def test_csv_round_trips(self, capsys):
        _, out, _ = invoke(capsys, "cost", "base", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        body = rows[1:-1]
        assert sum(int(r[2]) for r in body) == int(rows[-1][2])
        assert sum(int(r[3]) for r in body) == int(rows[-1][3])

    def test_config_overrides_change_cost(self, capsys):
        _, small, _ = invoke(capsys, "cost", "base", "--set",
                             "block_units=[1,1,1]", "--format", "csv")
        _, full, _ = invoke(capsys, "cost", "base", "--format", "csv")
        total = lambda text: int(list(csv.reader(io.StringIO(text)))[-1][2])
        assert total(small) < total(full)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(capsys, "cost", "base", "--format", "json",
                              "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["total_madds"] > 0

    def test_a_one_block_network_has_a_one_branch_neck(self, capsys):
        # the head reads the neck's one branch; there is no Concat of one input
        overrides = ["block_channels=[64]", "block_units=[4]", "block_strides=[2]",
                     "neck_out_channels=[128]", "neck_upsample=[1]"]
        code, out, err = invoke(capsys, "cost", "base", "--format", "csv",
                                *[word for item in overrides for word in ("--set", item)])
        assert (code, err) == (0, "")
        graph = build_pointpillars(Variant.BASE, ArchConfig().with_overrides(overrides))
        _, names, inputs = graph.columns()
        branch = names.index("neck.branch1.relu")
        assert "neck.concat" not in names
        assert [feeds for name, feeds in zip(names, inputs) if name.startswith("head.")] == \
            [((branch, 0),)] * 3
        assert out == graph_cost(graph).to_csv()

    @pytest.mark.parametrize("variant", ["Darknet", "CSPDarknet"])
    def test_a_one_unit_darknet_block_may_have_an_odd_width(self, capsys, variant):
        # the block has no residual unit, so nothing takes half its width
        code, out, err = invoke(capsys, "describe", variant,
                                "--set", "block_channels=[63,128,256]",
                                "--set", "block_units=[1,6,6]")
        assert (code, err) == (0, "") and "total MAdd:" in out

    def test_unknown_variant_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "cost", "VGG")
        assert code == 1
        assert err.strip() and "\n" not in err.strip()


class TestCompare:
    def test_column_matches_cost_totals(self, capsys):
        _, out, _ = invoke(capsys, "compare", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        for row in rows:
            report = graph_cost(build_pointpillars(Variant.parse(row["name"])))
            assert int(row["madds"]) == report.total_madds
            assert int(row["params"]) == report.total_params

    def test_csv_round_trips_through_gmadds(self, capsys):
        _, out, _ = invoke(capsys, "compare", "--format", "csv")
        for row in csv.DictReader(io.StringIO(out)):
            assert row["gmadds"] == fmt2(Fraction(int(row["madds"]), 10 ** 9))


class TestPareto:
    def test_overall_front_lines(self, capsys):
        code, out, _ = invoke(capsys, "pareto", "--scope", "overall",
                              "--data", data_path())
        assert code == 0
        assert out.splitlines() == ["ShufflenetV2", "MobilenetV1", "CSPDarknet"]

    def test_default_data_used_when_omitted(self, capsys):
        _, explicit, _ = invoke(capsys, "pareto", "--data", data_path())
        _, default, _ = invoke(capsys, "pareto")
        assert default == explicit

    def test_json_format(self, capsys):
        _, out, _ = invoke(capsys, "pareto", "--scope", "car", "--format", "json")
        doc = json.loads(out)
        assert doc["front"] == ["ShufflenetV2", "MobilenetV2", "Xception",
                                "CSPDarknet"]

    def test_csv_quotes_a_variant_name_with_a_comma(self, capsys, tmp_path):
        data = tmp_path / "points.json"
        data.write_text(json.dumps([{"name": "a,b", "gmadds": 1, "ap": {
            "Car": {"Easy": 50, "Mod": 50, "Hard": 50}}}]))
        code, out, _ = invoke(capsys, "pareto", "--data", str(data),
                              "--scope", "car", "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["name", "gmadds", "map"], ["a,b", "1.00", "50.00"]]

    def test_repeated_name_is_domain_error(self, capsys, tmp_path):
        points = json.loads(Path(data_path()).read_text())["points"]
        copy = dict(next(p for p in points if p["name"] == "MobilenetV1"), gmadds=100)
        data = tmp_path / "points.json"
        data.write_text(json.dumps(points + [copy]))
        code, out, err = invoke(capsys, "pareto", "--data", str(data), "--format", "csv")
        assert (code, out) == (1, "")
        assert err == f"error: {data}: design point name 'MobilenetV1' is given twice\n"

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "pareto", "--data", "/no/such/file.json")
        assert code == 1 and err.startswith("error:")


class TestAmdahl:
    def test_limit_projection(self, capsys):
        code, out, _ = invoke(
            capsys, "amdahl", "--profile", timing_path("fpga_timing.json"),
            "--speedup", "backbone=inf", "--format", "csv")
        assert code == 0
        values = dict(row for row in csv.reader(io.StringIO(out)) if len(row) == 2)
        assert float(values["projected_fps"]) == pytest.approx(8.90, abs=0.01)
        assert float(values["pipeline_speedup"]) == pytest.approx(3.33, abs=0.01)

    def test_csv_quotes_a_stage_name_with_a_comma(self, capsys, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"base_latency_ms": 100,
                                       "stage_fractions": {"a,b": 0.5}}))
        code, out, _ = invoke(capsys, "amdahl", "--profile", str(profile),
                              "--speedup", "a,b=2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["quantity", "value"]
        assert all(len(row) == 2 for row in rows)
        assert dict(rows[1:])["limit_speedup_a,b"] == "2.00"
        assert dict(rows[1:])["pipeline_speedup"] == "1.33"

    @pytest.mark.parametrize("fmt, row", [
        ("table", "limit_speedup_all      inf\n"), ("csv", "limit_speedup_all,inf\n"),
        ("json", '"limit_speedup_all": "inf"\n'),
    ])
    def test_stage_taking_all_the_time_has_no_finite_limit(self, capsys, tmp_path, fmt, row):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"stage_fractions": {"all": 1}, "base_latency_ms": 10}))
        code, out, err = invoke(capsys, "amdahl", "--profile", str(profile),
                                "--speedup", "all=2", "--format", fmt)
        assert (code, err) == (0, "")
        assert row in out and "2.00" in out

    def test_bad_speedup_is_domain_error(self, capsys):
        code, _, err = invoke(
            capsys, "amdahl", "--profile", timing_path("fpga_timing.json"),
            "--speedup", "backbone=fast")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("second", ["backbone=inf", "backbone=2", " backbone =3"])
    def test_stage_given_twice_is_domain_error(self, capsys, second):
        code, out, err = invoke(
            capsys, "amdahl", "--profile", timing_path("fpga_timing.json"),
            "--speedup", "backbone=2", "--speedup", second)
        assert (code, out) == (1, "")
        assert err == "error: speedup key 'backbone' given twice\n"

    def test_a_repeated_stage_is_found_before_a_bad_value(self, capsys):
        # every item's form is read before any value is
        code, out, err = invoke(
            capsys, "amdahl", "--profile", timing_path("fpga_timing.json"),
            "--speedup", "backbone=bad", "--speedup", "backbone=2")
        assert (code, out, err) == (1, "", "error: speedup key 'backbone' given twice\n")

    def test_unknown_stage_is_domain_error(self, capsys):
        code, _, err = invoke(
            capsys, "amdahl", "--profile", timing_path("fpga_timing.json"),
            "--speedup", "warp=2")
        assert code == 1 and "\n" not in err.strip()


UNRESOLVED = ": float coordinates cannot resolve it"


class TestPlotExport:
    def test_plot_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "front.svg"
        code, _, _ = invoke(capsys, "plot", "--scope", "overall",
                            "--output", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("<?xml") and text.count("<circle") == 11

    # gmadds values as JSON number text; a regression may hang, so each
    # plot runs in its own process under a timeout
    @pytest.mark.parametrize("gmadds, message", [
        (["7.8", "1.7e308"], "cannot plot an axis from 7.8 to 1.7e+308" + UNRESOLVED),
        (["1e20"], "cannot plot an axis from 1e+20 to 1e+20" + UNRESOLVED),
        (["7.8", "1e400"], "cannot plot p1: its GMAdd is past the float range"),
    ], ids=["padding_overflows", "no_float_resolution", "past_float_range"])
    def test_plot_of_unplottable_gmadds_is_domain_error(self, tmp_path, gmadds, message):
        data = tmp_path / "points.json"
        data.write_text("[" + ", ".join(
            f'{{"name": "p{i}", "gmadds": {value}, "ap": '
            f'{{"Car": {{"Easy": 50, "Mod": 50, "Hard": 50}}}}}}'
            for i, value in enumerate(gmadds)) + "]")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "pillarcost.cli", "plot", "--scope", "car",
             "--data", str(data)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_export_graph_round_trips(self, capsys):
        from pillarcost.graph import Graph
        code, out, _ = invoke(capsys, "export", "ShufflenetV2")
        assert code == 0
        restored = Graph.from_json(out)
        assert restored.edges == build_pointpillars(Variant.SHUFFLENET_V2).edges
        assert restored.to_json() + "\n" == out

    @pytest.mark.parametrize("variant, override, start", [
        ("base", "neck_upsample=[1,2,3]", "neck.concat: concat spatial dims differ: "),
        ("base", "pseudo_image_height=5", "neck.concat: concat spatial dims differ: "),
        ("ResNeXt", "resnext_groups=7", "backbone.block1.unit1.conv3x3.conv: conv channels "),
    ], ids=["neck_upsample=[1,2,3]", "pseudo_image_height=5", "resnext_groups=7"])
    def test_export_refuses_a_graph_that_cost_refuses(self, capsys, tmp_path, variant,
                                                      override, start):
        # no shape is inferred: the neck's upsampled maps differ in size, or
        # a conv's groups do not divide its channels
        target = tmp_path / "graph.json"
        code, out, err = invoke(capsys, "export", variant, "--set", override,
                                "--output", str(target))
        assert (code, out) == (1, "") and not target.exists()
        assert err.startswith(f"error: {start}")
        assert invoke(capsys, "cost", variant, "--set", override) == (1, "", err)

    def test_export_refuses_svg(self, capsys):
        code, _, err = invoke(capsys, "export", "base", "--format", "svg")
        assert code == 2 and "unrecognized arguments: --format svg" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv, line", [
        (["cost", "ResNeXt", "--set", "resnext_groups=7"],
         "backbone.block1.unit1.conv3x3.conv: conv channels (64 -> 64) not divisible by groups=7"),
        (["cost", "base", "--set", "block_strides=[2,3,2]"],
         "block_strides[1]: stride must be 1 or 2, got 3"),
        (["cost", "ShufflenetV1", "--set", "shufflenet_v1_groups=3"],
         "backbone.block1.unit1.gconv1.conv: conv channels (64 -> 64) not divisible by groups=3"),
        (["cost", "ShufflenetV2", "--set", "block_channels=[64,127,256]"],
         "backbone.block2.unit1: output channels must be even"),
        (["describe", "Xception", "--set", "block_strides=[2,1,2]",
          "--set", "neck_upsample=[1,1,2]"],
         "backbone.block2.block1: stride-1 block needs in == out"),
        (["describe", "ShufflenetV1", "--set", "block_strides=[2,1,2]",
          "--set", "neck_upsample=[1,1,2]"],
         "backbone.block2.unit1: stride-1 shuffle unit needs in == out channels"),
        (["describe", "ShufflenetV2", "--set", "block_strides=[2,1,2]",
          "--set", "neck_upsample=[1,1,2]"],
         "backbone.block2.unit1: stride-1 unit needs even, equal in/out channels"),
        (["cost", "ResNet", "--set", "resnet_bottleneck=1/3"],
         "backbone.block1.unit1: ratio 1/3 of 64 channels is not a positive integer"),
        (["cost", "base", "--set", "neck_upsample=[1,2,3]"],
         "neck.concat: concat spatial dims differ: TensorShape(channels=128, height=248, "
         "width=216) vs TensorShape(channels=128, height=186, width=162)"),
        (["describe", "base", "--set", "pseudo_image_height=5"],
         "neck.concat: concat spatial dims differ: TensorShape(channels=128, height=3, "
         "width=216) vs TensorShape(channels=128, height=4, width=216)"),
        (["cost", "Darknet", "--set", "block_channels=[1,2,32]"],
         "backbone.block1: ratio 1/2 of 1 channels is not a positive integer"),
        (["cost", "Darknet", "--set", "block_channels=[64,63,256]"],
         "backbone.block2: ratio 1/2 of 63 channels is not a positive integer"),
        (["cost", "CSPDarknet", "--set", "block_channels=[63,128,256]"],
         "backbone.block1: ratio 1/2 of 63 channels is not a positive integer"),
        (["cost", "CSPDarknet", "--set", "block_channels=[64,63,256]",
          "--set", "block_units=[4,1,6]"],
         "backbone.block2: ratio 1/2 of 63 channels is not a positive integer"),
        (["amdahl", "--profile", "{mmdet3d_timing.json}", "--speedup", "nosuch=2"],
         "stage 'nosuch' not in timing profile"),
        (["amdahl", "--profile", "{fpga_timing.json}", "--speedup", "backbone=0"],
         "stage 'backbone' speedup must be positive"),
        (["amdahl", "--profile", "{fpga_timing.json}", "--speedup", "backbone"],
         "speedup 'backbone' is not of the form key=value"),
        (["pareto", "--data", "{no_ap}"], "x: missing AP entry ('Car', 'Easy')"),
        (["plot", "--scope", "car", "--data", "{no_ap}"], "x: missing AP entry ('Car', 'Easy')"),
        (["pareto", "--data", "{fps_zero}"],
         "{fps_zero}: bad design point record: x: fps_backbone must be positive"),
        (["pareto", "--data", "{fps_minus5}"],
         "{fps_minus5}: bad design point record: x: fps_total must be positive"),
        (["amdahl", "--profile", "{fpga_timing.json}", "--speedup", "backbone=2=3"],
         "bad speedup value '2=3': Invalid literal for Fraction: '2=3'"),
        (["cost", "ResNet", "--set", "resnet_bottleneck=1/4=2"],
         "resnet_bottleneck must be a number or fraction, got '1/4=2'"),
        (["cost", "base", "--set", "just words"],
         "'just words' is not of the form key=value"),
        (["plot", "--data", "{control_name}"],
         "cannot plot 'A\\x01B': XML 1.0 cannot hold its name"),
        # a newline in the message is a space: the error is one line
        (["pareto", "--data", "{newline_name}"],
         "{newline_name}: bad design point record: a b: gmadds must be positive"),
        (["amdahl", "--profile", "{fraction_over_one}"],
         "{fraction_over_one}: bad timing profile: stage 'a' fraction 3/2 not in (0, 1]"),
        (["cost", "base", "--set", "block_channels=[]", "--set", "block_units=[]",
          "--set", "block_strides=[]", "--set", "neck_out_channels=[]",
          "--set", "neck_upsample=[]"],
         "block_channels must list at least one block"),
    ], ids=["resnext_groups", "stride_3", "shufflenet_v1_groups", "odd_split", "xception_widen",
            "shufflenet_v1_widen", "shufflenet_v2_widen", "ratio", "neck_upsample",
            "image_height", "darknet_half_of_one", "darknet_half_of_odd",
            "cspdarknet_unit_half_of_odd", "cspdarknet_lane_half_of_odd", "unknown_stage", "zero_speedup",
            "speedup_no_equals", "pareto_no_ap", "plot_no_ap", "pareto_fps_zero",
            "pareto_fps_total_minus5", "speedup_two_equals", "set_two_equals",
            "set_no_equals", "plot_control_name", "newline_name", "profile_fraction_over_one",
            "no_blocks"])
    def test_error_line_is_pinned(self, capsys, tmp_path, argv, line):
        # the shipped dataset with its second point named "A\x01B"
        control_name = tmp_path / "control_name.json"
        doc = json.loads(Path(data_path()).read_text())
        doc["points"][1]["name"] = "A\x01B"
        control_name.write_text(json.dumps(doc))
        no_ap = tmp_path / "no_ap.json"
        no_ap.write_text('[{"name": "x", "gmadds": 1, "ap": {}}]')
        fps_zero = tmp_path / "fps_zero.json"
        fps_zero.write_text('[{"name": "x", "gmadds": 1, "fps_backbone": 0}]')
        fps_minus5 = tmp_path / "fps_minus5.json"
        fps_minus5.write_text('[{"name": "x", "gmadds": 1, "fps_total": -5}]')
        newline_name = tmp_path / "newline_name.json"
        newline_name.write_text('[{"name": "a\\nb", "gmadds": 0, "ap": {}}]')
        fraction_over_one = tmp_path / "fraction_over_one.json"
        fraction_over_one.write_text('{"stage_fractions": {"a": 1.5}, "base_latency_ms": 10}')
        files = {"{no_ap}": str(no_ap), "{fps_zero}": str(fps_zero),
                 "{control_name}": str(control_name),
                 "{fps_minus5}": str(fps_minus5), "{newline_name}": str(newline_name),
                 "{fraction_over_one}": str(fraction_over_one),
                 "{mmdet3d_timing.json}": timing_path("mmdet3d_timing.json"),
                 "{fpga_timing.json}": timing_path("fpga_timing.json")}
        argv = [files.get(word, word) for word in argv]
        for word, path in files.items():  # an error on a file names it
            line = line.replace(word, path)
        assert invoke(capsys, *argv) == (1, "", f"error: {line}\n")

    def test_usage_error_is_two(self, capsys):
        assert invoke(capsys, "pareto", "--scope", "truck")[0] == 2
        assert invoke(capsys, "frobnicate")[0] == 2
        assert invoke(capsys, "compare", "--metric", "params")[0] == 2
        # export prints graph JSON only; cost prints the cost table
        assert invoke(capsys, "export", "base", "--format", "csv")[0] == 2
        assert invoke(capsys, "export", "base", "--fold-batchnorm")[0] == 2

    @pytest.mark.parametrize("payload", [
        "", "{", "[]", '{"points": "no"}', '[{"gmadds": 1}]',
        '[{"name": "x", "gmadds": -3}]', '{"nodes": []}',
    ])
    def test_malformed_data_never_crashes(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, _, err = invoke(capsys, "pareto", "--data", str(bad))
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("payload", [
        "{", "pseudo_image_height = zero\nextra", '{"depth": 50}',
        '{"block_units": [0, 0, 0]}', "block_units\n",
    ])
    def test_malformed_config_never_crashes(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.cfg"
        bad.write_text(payload)
        code, _, err = invoke(capsys, "cost", "base", "--config", str(bad))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("variant, override", [
        ("ShufflenetV1", "shufflenet_v1_groups=0"), ("ResNeXt", "resnext_groups=0"),
        ("MobilenetV2", "mobilenet_v2_expand=0"), ("MobilenetV2", "mobilenet_v2_expand=-3"),
        ("SqueezeNext", "squeezenext_reduce=0"), ("ResNet", "resnet_bottleneck=-1/2"),
        ("ResNeXt", "resnext_width=0"),
    ])
    def test_out_of_range_family_knob_is_domain_error(self, capsys, variant, override):
        code, out, err = invoke(capsys, "cost", variant, "--set", override)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert override.split("=")[0] in err

    @pytest.mark.parametrize("command, key, doc", [
        ("amdahl", "--profile", {"stage_fractions": [1], "base_latency_ms": 10}),
        ("pareto", "--data", [{"name": "x", "gmadds": 1, "ap": [1]}]),
        ("pareto", "--data", [{"name": "x", "gmadds": 1, "ap": {"Car": [1]}}]),
    ], ids=["profile_fractions_list", "data_ap_list", "data_ap_class_list"])
    def test_list_in_place_of_an_object_is_domain_error(self, capsys, tmp_path,
                                                         command, key, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, command, key, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be an object, got [1]" in err

    @pytest.mark.parametrize("command, key", [
        ("pareto", "--data"), ("plot", "--data"), ("amdahl", "--profile")])
    @pytest.mark.parametrize("payload", ["[" * 100_000, '{"points": [' + "9" * 5000 + "]}", "{"],
                             ids=["too_deep", "int_over_digit_limit", "truncated"])
    def test_malformed_json_is_domain_error_naming_the_file(self, capsys, tmp_path,
                                                           command, key, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, out, err = invoke(capsys, command, key, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: malformed JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, key, payload", [
        ("amdahl", "--profile", '{"stage_fractions": {"a": 0.5}, "base_latency_ms": Infinity}'),
        ("pareto", "--data", '[{"name": "x", "gmadds": Infinity}]'),
        ("plot", "--data", '[{"name": ["x"], "gmadds": 1}]'),
    ], ids=["profile_infinity", "data_infinity", "data_list_name"])
    def test_unusable_value_is_domain_error_naming_the_file(self, capsys, tmp_path,
                                                           command, key, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, out, err = invoke(capsys, command, key, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: bad ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, payload, key", [
        (["pareto", "--scope", "car", "--format", "csv", "--data"],
         '[{"name": "base", "gmadds": 63.4, "gmadds": 1.0,'
         ' "ap": {"Car": {"Easy": 40, "Moderate": 40, "Hard": 50}}}]', "gmadds"),
        (["amdahl", "--speedup", "backbone=2", "--profile"],
         '{"stage_fractions": {"backbone": 0.9, "backbone": 0.1}, "base_latency_ms": 10}',
         "backbone"),
    ], ids=["data", "profile"])
    def test_key_given_twice_is_domain_error_naming_the_file(self, capsys, tmp_path,
                                                            argv, payload, key):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, out, err = invoke(capsys, *argv, str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: key {key!r} given twice\n"

    @pytest.mark.parametrize("command, key, payload", [
        ("amdahl", "--profile", '{"stage_fractions": {"a": 0.5}, "base_latency_ms": 1e99999999}'),
        ("amdahl", "--profile", '{"stage_fractions": {"a": "1e-99999999"}, '
                                '"base_latency_ms": 5}'),
        ("pareto", "--data", '[{"name": "x", "gmadds": 1e99999999}]'),
        ("pareto", "--data", '[{"name": "x", "gmadds": "1e99999999"}]'),
    ], ids=["profile_number", "profile_string", "data_number", "data_string"])
    def test_huge_decimal_exponent_is_domain_error_naming_the_file(
            self, capsys, tmp_path, command, key, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, out, err = invoke(capsys, command, key, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "has a decimal exponent over 4300" in err

    @pytest.mark.parametrize("command, key, payload", [
        ("amdahl", "--profile", '{"stage_fractions": {"a": 0.5}, "base_latency_ms": true}'),
        ("amdahl", "--profile", '{"stage_fractions": {"a": true}, "base_latency_ms": 5}'),
        ("pareto", "--data", '[{"name": "base", "gmadds": true}]'),
        ("plot", "--data", '[{"name": "x", "gmadds": 1, "ap": {"Car": {"Easy": false}}}]'),
    ], ids=["profile_latency", "profile_fraction", "data_gmadds", "data_ap"])
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, command, key, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, out, err = invoke(capsys, command, key, str(bad), *(
            ["--format", "csv"] if command != "plot" else []))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: bad ") and err.count("\n") == 1
        assert err.endswith(" is not a number\n")

    def test_huge_decimal_exponent_in_a_speedup_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "amdahl", "--profile", timing_path("fpga_timing.json"),
                                "--speedup", "backbone=1e99999999")
        assert code == 1 and out == ""
        assert err.startswith("error: bad speedup value '1e99999999'") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["set", "json", "flat"])
    def test_decimal_for_an_integer_field_is_domain_error(self, capsys, tmp_path, source):
        flags = ["--set", "pseudo_image_channels=64.0"]
        if source != "set":
            path = tmp_path / "cfg"
            path.write_text('{"pseudo_image_channels": 64.0}' if source == "json"
                            else "pseudo_image_channels = 64.0\n")
            flags = ["--config", str(path)]
        code, out, err = invoke(capsys, "cost", "base", *flags)
        assert (code, out) == (1, "")
        assert err == "error: pseudo_image_channels must be an integer, got 64.0\n"

    @pytest.mark.parametrize("variant", ["ShufflenetV1", "base"])
    def test_unsupported_block_stride_is_domain_error(self, capsys, variant):
        code, out, err = invoke(capsys, "cost", variant, "--set",
                                "block_strides=[3,2,2]")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "stride must be 1 or 2" in err

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_stride_one_block_that_widens(self, capsys, variant):
        # block 2 keeps the resolution of block 1 but doubles its channels;
        # three families have no stride-1 unit that changes the width
        code, out, err = invoke(capsys, "describe", variant,
                                "--set", "block_strides=[2,1,2]",
                                "--set", "neck_upsample=[1,1,2]")
        if variant in ("ShufflenetV1", "ShufflenetV2", "Xception"):
            assert code == 1 and out == ""
            assert err.startswith("error: backbone.block2.") and err.count("\n") == 1
        else:
            assert code == 0 and err == ""
            assert "total MAdd:" in out

    @pytest.mark.parametrize("payload", [
        '{"block_units": [1, 1, 1], "block_units": [2, 2, 2]}',
        "block_units = [1, 1, 1]\nblock_units = [2, 2, 2]\n",
        '{"block_units": [1, 1, 1], "neck_upsample": [1, 2, 4',
        '{"block_units": ' + "[" * 100_000,
    ], ids=["json_duplicate", "key_value_duplicate", "json_truncated", "json_too_deep"])
    def test_bad_config_file_is_domain_error_naming_it(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.cfg"
        bad.write_text(payload)
        code, out, err = invoke(capsys, "cost", "base", "--config", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}") and err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        "max_pillars=abc", "block_units=7", "max_pillars=true",
        "block_units=[1,true,1]", "resnet_bottleneck=[1]", "resnet_bottleneck=1/0",
    ])
    def test_mistyped_override_is_domain_error(self, capsys, override):
        code, out, err = invoke(capsys, "cost", "base", "--set", override)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert override.split("=")[0] in err

    def test_override_given_twice_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "cost", "base", "--set", "max_pillars=x",
                                "--set", "max_pillars=5")
        assert (code, out) == (1, "")
        assert err == "error: key 'max_pillars' given twice\n"

    @pytest.mark.parametrize("items, tail", [
        (["max_pillars"], "'max_pillars' is not of the form key=value"),
        (["max_pillars = 5", " max_pillars=7"], "key 'max_pillars' given twice"),
    ], ids=["no_equals", "repeated_key"])
    def test_config_lines_set_and_speedup_share_their_texts(self, capsys, tmp_path,
                                                           items, tail):
        config = tmp_path / "arch.cfg"
        config.write_text("# knobs\n" + "\n".join(items) + "\n")
        profile = ["amdahl", "--profile", timing_path("fpga_timing.json")]
        for argv, where in (
                (["cost", "base", "--config", str(config)], f"{config}:{len(items) + 1}: "),
                (["cost", "base", *(f"--set={item}" for item in items)], ""),
                ([*profile, *(f"--speedup={item}" for item in items)], "speedup ")):
            assert invoke(capsys, *argv) == (1, "", f"error: {where}{tail}\n")

    @pytest.mark.parametrize("command, key", [
        ("pareto", "--data"), ("plot", "--data"), ("amdahl", "--profile"),
        ("cost", "--config")])
    def test_file_that_is_not_utf8_is_domain_error_naming_it(self, capsys, tmp_path,
                                                            command, key):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        argv = [command, *(["base"] if command == "cost" else []), key, str(bad)]
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    # every file reader turns malformed JSON into a PillarcostError naming
    # the file, so a JSONDecodeError that escapes one is a bug
    @pytest.mark.parametrize("error", [KeyError("k"), ValueError("v"), ZeroDivisionError("z"),
                                       json.JSONDecodeError("j", "{", 1)],
                             ids=lambda e: type(e).__name__)
    def test_a_builtin_error_in_a_command_is_a_traceback(self, capsys, monkeypatch, error):
        def broken(args):
            raise error
        monkeypatch.setattr(pillarcost.cli, "_cmd_list", broken)
        with pytest.raises(type(error)):
            run(["list"])
        assert capsys.readouterr().err == ""


def half_up_hundredths(value: Fraction) -> str:
    """``value`` (>= 0) rounded half up to 0.01, exactly, as the commands
    print it."""
    cents = int(value * 100 + Fraction(1, 2))
    return f"{cents // 100}.{cents % 100:02d}"


class TestHugeCost:
    """A cost of more than 28 digits prints in full; it used to end in a
    decimal.InvalidOperation traceback from the display rounding.  Its
    GMAdd prints exactly, even past the float range, where it used to print
    float digits or ``inf``."""

    HEIGHT = 10 ** 28
    PAST_FLOAT = 10 ** 320  # 321 digits: the GMAdd is over 10**308

    def report(self, variant, height):
        return graph_cost(build_pointpillars(variant, ArchConfig(pseudo_image_height=height)))

    def check_describe(self, capsys, height):
        report = self.report(Variant.BASE, height)
        code, out, err = invoke(capsys, "describe", "base", "--set",
                                f"pseudo_image_height={height}")
        assert (code, err) == (0, "")
        gmadds = half_up_hundredths(Fraction(report.total_madds, 10 ** 9))
        assert f"total MAdd:   {report.total_madds} ({gmadds} GMAdd)\n" in out
        assert out.endswith(f"total params: {report.total_params}\n")
        assert len(str(report.total_madds)) > 30

    def check_compare_csv(self, capsys, height):
        code, out, err = invoke(capsys, "compare", "--format", "csv", "--set",
                                f"pseudo_image_height={height}")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        base = self.report(Variant.BASE, height).total_madds
        assert [row["name"] for row in rows] == [v.value for v in Variant]
        for row, variant in zip(rows, Variant):
            report = self.report(variant, height)
            assert row == {
                "name": variant.value, "madds": str(report.total_madds),
                "params": str(report.total_params),
                "gmadds": half_up_hundredths(Fraction(report.total_madds, 10 ** 9)),
                "madd_speedup": half_up_hundredths(Fraction(base, report.total_madds))}

    def test_describe(self, capsys):
        self.check_describe(capsys, self.HEIGHT)

    def test_describe_past_the_float_range(self, capsys):
        self.check_describe(capsys, self.PAST_FLOAT)

    @pytest.mark.parametrize("command", ["describe", "cost", "compare"])
    def test_a_cost_too_long_to_print_is_domain_error(self, capsys, command):
        side = "1" + "0" * 2200  # two sides make a cost of over 4,300 digits
        code, out, err = invoke(capsys, command, *(["base"] if command != "compare" else []),
                                "--set", f"pseudo_image_height={side}",
                                "--set", f"pseudo_image_width={side}")
        assert code == 1 and out == ""
        assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1

    def test_compare_csv(self, capsys):
        self.check_compare_csv(capsys, self.HEIGHT)

    def test_compare_csv_past_the_float_range(self, capsys):
        self.check_compare_csv(capsys, self.PAST_FLOAT)


class TestOutput:
    """Every subcommand takes ``--output``, and writes the file only once it
    has succeeded."""

    ARGVS = {
        "list": ["list"],
        "describe": ["describe", "base"],
        "cost": ["cost", "base"],
        "compare": ["compare"],
        "pareto": ["pareto"],
        "amdahl": ["amdahl", "--profile", "{fpga_timing.json}"],
        "plot": ["plot"],
        "export": ["export", "base"],
    }
    FAILING = {
        "describe": ["describe", "base", "--set", "neck_upsample=[1,2,3]"],
        "cost": ["cost", "base", "--set", "neck_upsample=[1,2,3]"],
        "compare": ["compare", "--set", "neck_upsample=[1,2,3]"],
        "pareto": ["pareto", "--data", "{missing}"],
        "amdahl": ["amdahl", "--profile", "{fpga_timing.json}", "--speedup", "nosuch=2"],
        "plot": ["plot", "--data", "{missing}"],
        "export": ["export", "base", "--set", "neck_upsample=[1,2,3]"],
    }

    @staticmethod
    def argv(words, tmp_path):
        files = {"{fpga_timing.json}": timing_path("fpga_timing.json"),
                 "{missing}": str(tmp_path / "missing.json")}
        return [files.get(word, word) for word in words]

    def test_every_subcommand_has_an_argv(self):
        commands = build_parser()._subparsers._group_actions[0].choices.keys()
        assert self.ARGVS.keys() == commands
        assert self.FAILING.keys() == commands - {"list"}

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_file_holds_what_stdout_gets(self, capsys, tmp_path, command):
        argv = self.argv(self.ARGVS[command], tmp_path)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "") and out
        target = tmp_path / "out"
        assert invoke(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_help_lists_output(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--help")
        assert code == 0
        assert "--output PATH" in out and "write to a file instead of stdout" in out

    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_failing_command_creates_no_file(self, capsys, tmp_path, command):
        target = tmp_path / "out"
        code, out, err = invoke(capsys, *self.argv(self.FAILING[command], tmp_path),
                                "--output", str(target))
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("command", ["compare", "pareto", "amdahl"])
    def test_json_is_indented_by_two(self, capsys, tmp_path, command):
        argv = self.argv(self.ARGVS[command], tmp_path)
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("command, key", [("plot", "--data"), ("amdahl", "--profile")])
    @pytest.mark.parametrize("escape", [r"\ud800", r"\udc80"])
    def test_a_string_utf8_cannot_encode_is_refused(self, capsys, tmp_path, command, key,
                                                    escape):
        # a lone surrogate escape loads as a str that no UTF-8 writer takes:
        # here a design point's name, or a timing stage
        doc = json.loads(Path(data_path()).read_text())["points"][:1]
        doc[0]["name"] = "N"
        if command == "amdahl":
            doc = {"stage_fractions": {"N": 1}, "base_latency_ms": 10}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"N"', f'"{escape}"'))
        target = tmp_path / "out"
        code, out, err = invoke(capsys, command, key, str(bad), "--output", str(target))
        assert (code, out) == (1, "")
        assert err == (f"error: {bad}: malformed JSON: a string holds "
                       f"{escape.encode().decode('unicode_escape')!r}, "
                       "which UTF-8 cannot encode\n")
        assert not target.exists()

    def test_a_name_xml_cannot_hold_is_refused_by_plot_only(self, capsys, tmp_path):
        # JSON and CSV can hold a C0 control; an SVG document cannot
        doc = json.loads(Path(data_path()).read_text())
        doc["points"][1]["name"] = "A\x01B"
        data = tmp_path / "data.json"
        data.write_text(json.dumps(doc))
        target = tmp_path / "out.svg"
        code, out, err = invoke(capsys, "plot", "--data", str(data), "--output", str(target))
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert not target.exists()
        code, out, err = invoke(capsys, "pareto", "--data", str(data), "--format", "csv")
        assert (code, err) == (0, "") and "A\x01B" in out

    @pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
    @pytest.mark.parametrize("command", ["pareto", "amdahl"])
    def test_a_line_break_in_a_name_is_refused_by_the_table_forms_only(
            self, capsys, tmp_path, command, brk):
        # a table or lines row is one line: a name split over two would read
        # as two rows; CSV quotes the name and JSON escapes it
        if command == "pareto":  # base is on the pedestrian front
            doc = json.loads(Path(data_path()).read_text())
            doc["points"][0]["name"] = value = f"base{brk}ResNet"
            argv = ["pareto", "--scope", "pedestrian", "--data"]
        else:
            doc = {"stage_fractions": {f"back{brk}bone": 0.7}, "base_latency_ms": 10}
            value = f"limit_speedup_back{brk}bone"
            argv = ["amdahl", "--profile"]
        argv.append(str(tmp_path / "in.json"))
        (tmp_path / "in.json").write_text(json.dumps(doc))
        target = tmp_path / "out"
        assert invoke(capsys, *argv, "--output", str(target)) == (
            1, "", f"error: cannot write {value!r} on one line; use --format csv or json\n")
        assert not target.exists()
        code, out, err = invoke(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert value in [row[0] for row in csv.reader(io.StringIO(out, newline=""))]
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert value in (json.loads(out)["front"] if command == "pareto" else json.loads(out))

    def test_a_surrogate_pair_escape_is_one_character(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text('{"stage_fractions": {"\\ud83d\\ude00": 1}, "base_latency_ms": 10}')
        code, out, err = invoke(capsys, "amdahl", "--profile", str(good), "--format", "csv")
        assert (code, err) == (0, "") and "limit_speedup_\U0001F600,inf\n" in out


def test_stdout_matches_the_benchmark_pins(capsys, monkeypatch):
    """Each argv the benchmark's cli-cold workload runs prints the bytes
    ``bench/expected.json`` pins."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import cli_commands
    pins = json.loads((ROOT / "bench" / "expected.json").read_text())["cli_stdout_sha256"]
    monkeypatch.chdir(ROOT)
    argvs = [argv for group in cli_commands([v.value for v in Variant]).values()
             for argv in group]
    assert sorted(" ".join(argv) for argv in argvs) == sorted(pins)
    wrong = []
    for argv in argvs:
        code, out, err = invoke(capsys, *argv)
        key = " ".join(argv)
        if (code, err) != (0, "") or hashlib.sha256(out.encode()).hexdigest() != pins[key]:
            wrong.append(key)
    assert wrong == []


# SHA-256 of the stdout of the forms bench/expected.json does not pin,
# recorded before compare, pareto and amdahl shared one writer
FORM_PINS = {
    "compare":
        "543325b8d21aa5c477f78c612f6149a9263fe6b352806832d1264307ab9c125b",
    "compare --format json":
        "5ad6b38230d43936b6bd885c555e086a02dec88db9017b259ffc81a408395d95",
    "compare --fold-batchnorm":
        "c9ec67fcca66e622444da1b551c4bc934554d80501b3c9a96413554523705196",
    "compare --format json --fold-batchnorm":
        "fcb2e623b7783994a400c141bd8b038e02e6e01acd991fa9e8f011db2a522f12",
    "pareto --scope overall --format csv":
        "7fb4da246552a4551bd680eefd7e679b6494f22cbd082d8a4f31a90a8cd4e656",
    "pareto --scope car --format csv":
        "214add9defa6b57acfc6842921fba1a41a674f702af112333013861a5e67446c",
    "pareto --scope pedestrian --format csv":
        "a38d65678f0148c00637681c28d71d5bcb1192d4d5c1e0292df0c0bdf895f542",
    "pareto --scope cyclist --format csv":
        "924184bbd3adee7bf909143a6431460033ac13cca37a1fa27a2f61ccf46c713d",
    "pareto --scope overall --format json":
        "851cbc6df5bc303fe0624653641c47bf6ffd03276ef7ba30e4778f37cd59a680",
    "pareto --scope car --format json":
        "b0f2d3865b889d343450e5271e0faf3f84a181de0261058e4e902f496624d526",
    "pareto --scope pedestrian --format json":
        "58375908b012069c0a3cd46e2df935dee8f8e0ab80583fcd437bfe91a3dbec0f",
    "pareto --scope cyclist --format json":
        "5ae43a98b4dc84b7c5363745423a1e3ee908714c501be4a134826603f9aeb1e0",
    "amdahl --profile src/pillarcost/data/fpga_timing.json --speedup backbone=2 --format csv":
        "0b89abb94bcdae324095450189a278ba781324e103d14a0c02c67bd4bd65d608",
    "amdahl --profile src/pillarcost/data/mmdet3d_timing.json --speedup backbone=2 --format csv":
        "c648acd9c34f4db70be0b0f9b3cf65e84d67ca7bd36b8b85ff952a565160a423",
    "amdahl --profile src/pillarcost/data/fpga_timing.json --speedup backbone=2 --format json":
        "fd57ccca87aea4bdffae48d6fb1e3daf7f3793ce408abe64acbad716f00ca2ae",
    "amdahl --profile src/pillarcost/data/mmdet3d_timing.json --speedup backbone=2 --format json":
        "5eff041f6fdae31bbb6da7399fc6289820511335c4cd74b30c802e1ee490be70",
    "cost base":
        "63a28e4784d991541019880e8acf642696b7a9868259b341cf0c4639abc95e5e",
    "cost SqueezeNext":
        "b0d11d5ab5e67fc214b4fc16a58aa4e158841c3a1c62c13f89e6a58bf92a7760",
    "cost ResNet":
        "a387bc89b45f39dc7fca1f5b7a0f55b3c93039b686d60bdb4c43a703f83d94b0",
    "cost ResNeXt":
        "1402b026bf0725b02514b698d39e1ee631873fb11876953acdec1db9e992a490",
    "cost MobilenetV1":
        "2e230958fadc10161609c09833706955cdfcc9d13532bf54516e0070623b1583",
    "cost MobilenetV2":
        "48e46f3d044cb9ff032a1d41ace40011d7ad666cdbf6de48ed43f943abd11032",
    "cost ShufflenetV1":
        "d626743425094434e99de2a4057e5495f2aa30b1d2d2f018f2ff1c3b6335a2b3",
    "cost ShufflenetV2":
        "a0795d77a62a202dc9c474c4c396fa92d5492c2a228bc911985b7f0d039dc387",
    "cost Darknet":
        "20ae969b91e5af27158eb88a4451ae80a0bc243b8e194dc8c5d69f7b5dac20ea",
    "cost CSPDarknet":
        "b1c5031f8af91d5c430887dbfff32afdfebccfea41a197f0d43e135fd36e9acf",
    "cost Xception":
        "6c2fa09d193390368a7b59165f64faed0ff3bc8189c2116876b1bb91ad63ac37",
    "cost base --format json":
        "9a4bfa4fdb9354bd58d9689f59be1e3a7c453cdb2cbd1d16b10a794e20671627",
    "cost SqueezeNext --format json":
        "8c217d6aae2742f1fb74e356352349822c2741c3596d78c302079d3fa0e662db",
    "cost ResNet --format json":
        "acd1632fb051bef7eefd3995a01210017009daa211ba24194c4772baace7aa40",
    "cost ResNeXt --format json":
        "a14528e38f4569815facf66429a88baf54093d3b7311fc64e87c804532284a0b",
    "cost MobilenetV1 --format json":
        "3d34b839530669eec69186ae6d5f2df235f5ad835fee62f0532a661af1dcd7dc",
    "cost MobilenetV2 --format json":
        "0653f194c1f69f1d8d7d67a374178fc7dc2f687886fcabd7d0b36ff788a92338",
    "cost ShufflenetV1 --format json":
        "bf4e23ce0f8603edc6de01944d6038fe827fccd738fcabd13020e61c9ef3398e",
    "cost ShufflenetV2 --format json":
        "db8d9ff2c90809a2ef4df60e27213b2951f9aceeef778c3acaa613e0bd0c688b",
    "cost Darknet --format json":
        "70a1db71a73c5f778cd5eec5e593326cd826a5be1b178462bccb4701fa84c4ac",
    "cost CSPDarknet --format json":
        "b44288bfbbba8b07804d69b874db50a39c70d9ed8eaa1182892de93554477f1f",
    "cost Xception --format json":
        "2d8966980220c9d1c331e108152210a7695582bf9097b57d3fb9cf8f353bad53",
    "describe base --fold-batchnorm":
        "491eee1acf307a2d42643129b7a7364ed98692caec6ca47d2ad96db12a12483b",
    "describe SqueezeNext --fold-batchnorm":
        "81a53581565c7460cbee19e02ec8eec524dd04aa2ad861bd6bf02df027eeedc1",
    "describe ResNet --fold-batchnorm":
        "ce33f7451dc0b021d171b486365d14b168608a1e47188d66668c0698b4c34482",
    "describe ResNeXt --fold-batchnorm":
        "4c50405fa400adf412c227284808af1569dd7d1297a86b8799df5a1311436684",
    "describe MobilenetV1 --fold-batchnorm":
        "54d7282198e8db650bcc338fc3c5462f924c2ff68b98bf6bdbfb7335ca25ba78",
    "describe MobilenetV2 --fold-batchnorm":
        "a6b8bd66f308589e09ad816075492076381b35ac9754871e33b8d3444a2fc340",
    "describe ShufflenetV1 --fold-batchnorm":
        "54f0dad952c68d976464a2340f1dd4fb2f8f89461268a7fa04c614e23956012a",
    "describe ShufflenetV2 --fold-batchnorm":
        "78105adf2e303cd75ec17774d22ef5cd85fc01c4dbf1b91d3f31357c4e7a26a4",
    "describe Darknet --fold-batchnorm":
        "11ed9039b7a3387b1d193925d03bd7ff3d347e2b9f0671fec4f4c0ac7eb280f8",
    "describe CSPDarknet --fold-batchnorm":
        "1a4e529da775f0cba9654d25ef010ad615497d6dda2d7a0946fa3da34e102a6e",
    "describe Xception --fold-batchnorm":
        "f004f9cbecb5d1ad1842555f148fe507480fe38b14d2f258814d0ed0d185ee9f",
}


def test_stdout_matches_the_form_pins(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the amdahl argvs name the shipped profiles from here
    wrong = []
    for key, pin in FORM_PINS.items():
        code, out, err = invoke(capsys, *key.split())
        if (code, err) != (0, "") or hashlib.sha256(out.encode()).hexdigest() != pin:
            wrong.append(key)
    assert wrong == []


def test_every_format_of_every_command_is_pinned(monkeypatch):
    """A command, or a ``--format`` choice, that neither the benchmark's
    argvs nor FORM_PINS run fails here until it is pinned."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import cli_commands
    parser = build_parser()
    argvs = [argv for group in cli_commands([v.value for v in Variant]).values()
             for argv in group] + [key.split() for key in FORM_PINS]
    pinned = {(args.command, getattr(args, "format", None))
              for args in map(parser.parse_args, argvs)}
    forms = set()
    for command, sub in parser._subparsers._group_actions[0].choices.items():
        [choices] = [a.choices for a in sub._actions if a.dest == "format"] or [[None]]
        forms.update((command, fmt) for fmt in choices)
    assert sorted(forms - pinned, key=str) == []


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale a UTF-8 dataset and config load, ``--output``
    writes UTF-8, and text that stdout cannot encode is a one-line error."""
    doc = json.loads(Path(data_path()).read_text(encoding="utf-8"))
    point = {**doc["points"][0], "name": "Xcéption"}
    data = tmp_path / "points.json"
    data.write_bytes(json.dumps([point], ensure_ascii=False).encode("utf-8"))
    config = tmp_path / "arch.cfg"
    config.write_bytes("# réglage\nmax_pillars = 12000\n".encode("utf-8"))
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=path, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "pillarcost.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    svg = tmp_path / "p.svg"
    assert cli("plot", "--data", str(data), "--output", str(svg)) == (0, b"", b"")
    assert "Xcéption".encode("utf-8") in svg.read_bytes()
    code, out, err = cli("pareto", "--data", str(data))
    assert (code, out) == (1, b"")
    assert err.startswith(b"error: cannot write to standard output: ")
    assert err.endswith(b"; use --output PATH to write UTF-8\n") and err.count(b"\n") == 1
    assert cli("describe", "base", "--config", str(config))[0] == 0


# argvs of --set and --speedup items: each one the command takes, arbitrary
# text, or a key and a value joined by "=", each arbitrary text or one it takes
def _argvs(head, flag, taken, keys, values):
    pair = st.builds("{}={}".format, st.sampled_from(keys) | st.text(max_size=6),
                     st.sampled_from(values) | st.text(max_size=8))
    items = st.lists(st.sampled_from(taken) | pair | st.text(max_size=12), max_size=3)
    return items.map(lambda items: [*head, *(f"{flag}={item}" for item in items)])


@settings(max_examples=150, deadline=None)
@given(argv=_argvs(
    ["cost", "base"], "--set",
    ["max_pillars=12000", " block_units = [2,2,2]", "resnet_bottleneck=0.5"],
    ["max_pillars", "block_units", "resnet_bottleneck", "backbone"],
    ["12000", "1/2", "0", "1/0", "true", "1e99999", "[1,1e400,1]"]) | _argvs(
    ["amdahl", "--profile", timing_path("fpga_timing.json")], "--speedup",
    ["backbone=2", " other = inf", "backbone=0.5"],
    ["backbone", "other", "", "max_pillars"],
    ["2", "inf", "1/2", "0", "1/0", "true", "1e99999", "-1"]))
def test_any_set_or_speedup_item_ends_in_success_or_one_error_line(tmp_path_factory, argv):
    assert_success_or_one_error_line(argv, tmp_path_factory.mktemp("out") / "out")


def assert_success_or_one_error_line(argv, target):
    """``run`` returns 0 having written its file, or 1 with exactly one
    stderr line and no file; it never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, "--output", str(target)])
    assert out.getvalue() == ""
    if code == 0:
        assert err.getvalue() == "" and target.exists()
    else:
        assert code == 1 and not target.exists()
        assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
        assert len(err.getvalue().splitlines()) == 1


# (file text, argv with "FILE" where the file's path goes): --config text,
# JSON or key = value, and JSON for --data and --profile: arbitrary, or a
# shipped document whole or with one value replaced
def _json_texts(path, pick=lambda doc: doc):
    doc = pick(json.loads(Path(path).read_text()))
    return st.just(json.dumps(doc)) | _loader_texts(doc)


_DATASET = _json_texts(data_path(), lambda doc: doc["points"][:2])
_PROFILE = _json_texts(timing_path("mmdet3d_timing.json"))


@settings(max_examples=150, deadline=None)
@given(case=st.tuples(config_texts, st.sampled_from([
    ["describe", "base", "--config", "FILE"], ["export", "ResNet", "--config", "FILE"]]))
    | st.tuples(_DATASET, st.sampled_from([
        ["pareto", "--data", "FILE"], ["plot", "--data", "FILE", "--scope", "car"]]))
    | st.tuples(_PROFILE, st.sampled_from([
        ["amdahl", "--profile", "FILE"], ["amdahl", "--profile", "FILE", "--speedup",
                                          "backbone=2"]])))
def test_any_config_data_or_profile_file_ends_in_success_or_one_error_line(
        tmp_path_factory, case):
    text, argv = case
    folder = tmp_path_factory.mktemp("io")
    (folder / "in").write_text(text, encoding="utf-8")
    argv = [str(folder / "in") if arg == "FILE" else arg for arg in argv]
    assert_success_or_one_error_line(argv, folder / "out")
