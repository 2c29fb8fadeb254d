"""Command-line surface: outputs, exit-code contract, round-trips."""
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pillarcost.cli
from pillarcost.analysis import fmt2
from pillarcost.arch import ArchConfig, Variant, build_pointpillars
from pillarcost.cli import run
from pillarcost.cost import graph_cost


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
        assert err == "error: speedup for stage 'backbone' is given twice\n"

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

    def test_export_refuses_svg(self, capsys):
        code, _, err = invoke(capsys, "export", "base", "--format", "svg")
        assert code == 2 and "unrecognized arguments: --format svg" in err


class TestExitCodes:
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
